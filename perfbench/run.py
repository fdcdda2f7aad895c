#!/usr/bin/env python3
"""semhash benchmark: one workload, timed untraced or traced per layer.

    python3 perfbench/run.py --workload train_b4 --seed 0 --seconds 16 --trace 0

Run from the repository root; the library is imported from ``src/``.  The
run sets up its inputs from ``--seed`` three times (reporting the median),
does one untimed warm-up repetition, then repeats the workload for at least
``--seconds`` seconds and at least twice.  Every repetition's outputs
are checked.  Human-readable lines start with ``#``; the last line of
standard output is one JSON object with the result.

With ``--trace 0`` the times in the JSON are reference seconds: wall time
corrected for the host's speed as ``speed.py`` samples it during the run.
The raw wall times are printed on ``#`` lines beside them.

With ``--trace 1`` the repetitions alternate untraced and traced; the traced
ones wrap semhash's public functions (see ``spans.py``) and report per-layer
times, counts and the tracing overhead.  Spans are written to
``.perfbench/trace-<workload>-seed<seed>.csv``.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MIN_REPS = 2  # of each kind, untraced and traced
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_info(np) -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "?")
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            lib = next(line.split()[-1] for line in fh if "openblas" in line)
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(dll, symbol):
                threads = str(getattr(dll, symbol)())
                break
    except (OSError, StopIteration):
        pass
    return f"{blas['name']} {blas.get('version', '?')}, {threads} thread(s)"


def quartile_summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(pct / 100 * len(ordered)))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "semhash" / "__init__.py").is_file():
        print(f"error: no semhash sources under {SRC}", file=sys.stderr)
        return 2
    # one closed-loop client on one thread; must precede the first numpy import
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    import numpy as np
    import speed

    meter = None if args.trace else speed.SpeedMeter()
    workdir = None
    if meter:
        meter.start()
    try:
        sys.path.insert(0, str(SRC))
        started = time.perf_counter()
        import semhash
        imported = time.perf_counter()
        if Path(semhash.__file__).resolve().parent != SRC / "semhash":
            print(f"error: imported semhash from {semhash.__file__}, not {SRC}", file=sys.stderr)
            return 2
        import workloads
        from spans import Tracer

        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
        print(
            f"# env: python {platform.python_version()}, numpy {np.__version__}, "
            f"blas {blas_info(np)}, nproc {os.cpu_count()}"
        )

        OUT.mkdir(exist_ok=True)
        workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
        workdir.mkdir()
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setups = []
        for _ in range(3):
            t0 = time.perf_counter()
            workload.setup()
            setups.append((t0, time.perf_counter()))
        warmup = workload.rep()

        tracer = Tracer() if args.trace else None
        reps, traced = [], []
        begin = time.perf_counter()
        while (
            len(reps) < MIN_REPS
            or (tracer and len(traced) < MIN_REPS)
            or time.perf_counter() - begin < args.seconds
        ):
            if tracer and len(traced) < len(reps):
                tracer.rep = len(traced)
                tracer.install()
                try:
                    traced.append(workload.rep(tracer))
                finally:
                    tracer.uninstall()
            else:
                reps.append(workload.rep())
        quality = {} if tracer else workload.quality()
    finally:
        if meter:
            meter.stop()
        if workdir:
            shutil.rmtree(workdir, ignore_errors=True)

    every = [warmup, *reps, *traced]
    attempted = sum(r.attempted for r in every)
    failed = sum(r.failed for r in every)
    for r in every:
        for error in r.errors[:5]:
            print(f"# check failed: {error}")

    if tracer:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.csv"
        tracer.write(path)
        metrics = tracer.per_layer(
            list(range(len(traced))),
            {
                "run_s": statistics.median(r.run_s for r in traced),
                "untraced_run_s": statistics.median(r.run_s for r in reps),
            },
        )
        print(f"# {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
        print(
            f"# run_s untraced {quartile_summary([r.run_s for r in reps])}, "
            f"traced {quartile_summary([r.run_s for r in traced])}"
        )
        for name, m in metrics.items():
            print(f"# {name:40s} {m['value']:.6g} {m['unit']}")
    else:
        # (wall, reference) seconds of each interval, without the probes' own time
        import_s = meter.seconds(started, imported)
        setup_each = [meter.seconds(*interval) for interval in setups]
        warmup_s = meter.seconds(warmup.start, warmup.end)
        setup_wall, setup_s = (
            import_s[k] + statistics.median(s[k] for s in setup_each) + warmup_s[k] for k in (0, 1)
        )
        rep_s = [meter.seconds(r.start, r.end) for r in reps]
        run_wall = statistics.median(w for w, _ in rep_s)
        run_ref = statistics.median(ref for _, ref in rep_s)
        timings = {
            key: [r.timings[key] for r in reps]
            for key in reps[0].timings
            if key not in ("query_ms", "stages_s")
        }
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": run_ref, "unit": "s"},
            **{name: {"value": value, "unit": "ratio"} for name, value in quality.items()},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB",
            },
        }
        probe_us = [1e6 * p for p in meter.probe_s]
        print(
            f"# host speed: probe {statistics.median(probe_us):.4g} us median, reference "
            f"{1e6 * speed.REF_PROBE_S:.4g} us ({quartile_summary(probe_us)})"
        )
        print(
            f"# {args.workload} seed {args.seed}: {len(reps)} timed repetitions after one "
            f"warm-up; setup {setup_s:.6g} s, wall {setup_wall:.6g} s (import {import_s[0]:.3g} s, "
            f"warm-up {warmup_s[0]:.6g} s)"
        )
        print(f"# run_s {run_ref:.6g} s, wall {run_wall:.6g} s; per repetition (wall/reference): "
              + " ".join(f"{w:.4f}/{ref:.4f}" for w, ref in rep_s))
        for key, values in timings.items():
            unit = "steps/s" if key.startswith("train") else "queries/s"
            print(f"# {key} {statistics.median(values):.6g} {unit} ({quartile_summary(values)})")
        if "query_ms" in reps[0].timings:
            query_ms = [ms for r in reps for ms in r.timings["query_ms"]]
            print(
                f"# query_ms_p50 {percentile(query_ms, 50):.6g} ms, query_ms_p95 "
                f"{percentile(query_ms, 95):.6g} ms (n={len(query_ms)})"
            )
            stages = {k: statistics.median(r.timings["stages_s"][k] for r in reps)
                      for k in reps[0].timings["stages_s"]}
            print("# stages_s " + ", ".join(f"{k} {v:.4g}" for k, v in stages.items()))
        for name, m in metrics.items():
            print(f"# {name} {m['value']:.6g} {m['unit']}")
    print(f"# failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} checks)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
