"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``setup`` and runs one
repetition in ``rep``: a closed loop with a single client, calling semhash
only through its public functions, looked up as module attributes at call
time so that the traced run sees every call.  ``rep`` returns the timed part
and checks its outputs outside the timed part.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
import semhash.benchmark
import semhash.cli
import semhash.data
import semhash.hashing
import semhash.metrics
import semhash.model
import semhash.trainer

K_MAX = 100


@dataclass
class Rep:
    """One repetition: its timed seconds, named sub-timings and gate results."""

    run_s: float
    start: float = 0.0  # perf_counter stamps of the timed part
    end: float = 0.0
    timings: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def _quality(report_bin, report_cont) -> dict[str, float]:
    return {
        "mahp_binary": report_bin.mahp_at_k[K_MAX],
        "mahp_continuous": report_cont.mahp_at_k[K_MAX],
        "map_binary": report_bin.map,
    }


class TrainB4:
    """The acceptance fixture's training run: per-step overhead at B=4."""

    name = "train_b4"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.digest = None
        self.last = None

    def setup(self) -> None:
        self.taxonomy = semhash.benchmark.balanced_taxonomy((4, 4, 2))
        self.dataset = semhash.benchmark.make_benchmark_dataset(self.taxonomy, self.seed)
        self.config = semhash.benchmark.benchmark_config("shrewd", self.seed)

    def rep(self, tracer=None) -> Rep:
        start = time.perf_counter()
        encoder, _, log = semhash.trainer.train(self.config, self.dataset, self.taxonomy)
        end = time.perf_counter()
        rep = Rep(run_s=end - start, start=start, end=end)
        steps = len(log.records)
        rep.timings["train_steps_per_s"] = steps / rep.run_s
        self.digest = self.digest or log.params_digest
        rep.check(log.params_digest == self.digest, "params_digest differs from the warm-up's")
        rep.check(
            steps > 0 and all(
                math.isfinite(v) for r in log.records for v in (r.sim, r.kl, r.cls, r.total)
            ),
            "non-finite logged loss",
        )
        self.last = encoder
        return rep

    def quality(self) -> dict[str, float]:
        """Scores of the last trained encoder; every repetition trains the same one."""
        batch, _ = semhash.model.encoder_forward(
            self.last, self.dataset.features.astype(np.float64)
        )
        ids = np.arange(self.dataset.n_samples)
        index = semhash.hashing.build_index(
            semhash.hashing.binarize(batch), ids, self.dataset.labels
        )
        binary = semhash.metrics.evaluate(index, None, self.taxonomy, K_MAX)
        continuous = semhash.metrics.evaluate_embeddings(
            batch.values, ids, self.dataset.labels, self.taxonomy, K_MAX
        )
        return _quality(binary, continuous)


class Eval1k:
    """Leave-one-out Hamming and Manhattan eval over 1000 leaves (paper scale)."""

    name = "eval_1k"
    n_checked = 16

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.expected = None
        self.scores = None

    def setup(self) -> None:
        self.taxonomy = semhash.benchmark.balanced_taxonomy((10, 10, 10))
        dataset = semhash.benchmark.make_benchmark_dataset(
            self.taxonomy, self.seed, per_class=2, dim=128
        )
        # a random linear projection: its retrieval quality varies least with the seed
        encoder = semhash.model.init_encoder(
            dataset.dim, (), 64, semhash.data.RngState.from_seed(self.seed)
        )
        batch, _ = semhash.model.encoder_forward(encoder, dataset.features.astype(np.float64))
        self.values = batch.values
        self.labels = dataset.labels
        self.ids = np.arange(dataset.n_samples)

    def _expected(self):
        if self.expected is None:
            rng = np.random.default_rng(self.seed)
            queries = sorted(rng.choice(len(self.ids), self.n_checked, replace=False).tolist())
            names = [self.taxonomy.nodes[int(label)].name for label in self.labels]
            bits = (self.values >= 0.5).astype(np.uint8)
            self.expected = reference.query_scores(
                self.values, bits, names, queries, K_MAX, height=3
            )
        return self.expected

    def rep(self, tracer=None) -> Rep:
        t0 = time.perf_counter()
        codes = semhash.hashing.binarize(self.values)
        index = semhash.hashing.build_index(codes, self.ids, self.labels)
        t1 = time.perf_counter()
        binary = semhash.metrics.evaluate(index, None, self.taxonomy, K_MAX, per_query=True)
        t2 = time.perf_counter()
        continuous = semhash.metrics.evaluate_embeddings(
            self.values, self.ids, self.labels, self.taxonomy, K_MAX, per_query=True
        )
        t3 = time.perf_counter()
        n = len(self.ids)
        rep = Rep(run_s=t3 - t0, start=t0, end=t3)
        rep.timings["eval_queries_per_s"] = n / (t2 - t1)
        rep.timings["eval_cont_queries_per_s"] = n / (t3 - t2)

        for kind, report, expected in zip(
            ("hamming", "manhattan"), (binary, continuous), self._expected()
        ):
            got = {qid: (ap, ahp) for qid, ap, ahp in report.per_query}
            for q, scores in expected.items():
                rep.check(got[q] == scores, f"{kind} query {q}: {got[q]} != reference {scores}")
        scores = _quality(binary, continuous)
        self.scores = self.scores or scores
        rep.check(scores == self.scores, "scores differ from the warm-up's")
        return rep

    def quality(self) -> dict[str, float]:
        return self.scores


class CliPipeline:
    """What a user runs: gen-data, train, encode, eval twice, then queries."""

    name = "cli_pipeline"
    n_queries = 200
    n_samples = 32 * 50  # 32 leaves, 50 per class
    artifacts = (
        "run.checkpoint", "run.index",
        "bin.report.json", "bin.hp_curve.csv", "cont.report.json", "cont.hp_curve.csv",
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.dir = workdir
        self.digests = None

    def setup(self) -> None:
        d = self.dir
        (d / "tax.txt").write_text("\n".join(reference.balanced_edges((4, 4, 2))) + "\n")
        (d / "train.cfg").write_text(
            "code_length = 64\nhidden_sizes = 256,128\nbatch_size = 64\nepochs = 10\n"
            f"learning_rate = 0.001\nseed = {self.seed}\nvariant = shred\n"
        )
        rng = np.random.default_rng(self.seed)
        self.query_ids = rng.choice(self.n_samples, self.n_queries, replace=False).tolist()

    def _main(self, rep: Rep, tracer, argv: list[str]) -> str:
        out = io.StringIO()
        span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(out):
            code = semhash.cli.main(argv)
        if tracer:
            tracer.count("cli_commands")
            tracer.count("cli_commands_failed", code != 0)
        rep.check(code == 0, f"{argv[0]} exited {code}")
        return out.getvalue()

    def rep(self, tracer=None) -> Rep:
        d = str(self.dir)
        tax, data, run = f"{d}/tax.txt", f"{d}/data", f"{d}/run"
        dataset = ["--features", f"{data}.features", "--labels", f"{data}.labels", "--taxonomy", tax]
        rep = Rep(run_s=0.0)
        t0 = time.perf_counter()
        self._main(rep, tracer, ["gen-data", "--taxonomy", tax, "--per-class", "50", "--dim", "128",
                                 "--seed", str(self.seed), "--out", data])
        t1 = time.perf_counter()
        trained = self._main(rep, tracer, ["train", "--config", f"{d}/train.cfg", *dataset,
                                           "--out", run])
        t2 = time.perf_counter()
        self._main(rep, tracer, ["encode", "--checkpoint", f"{run}.checkpoint", *dataset,
                                 "--out", run])
        t3 = time.perf_counter()
        self._main(rep, tracer, ["eval", "--index", f"{run}.index", "--taxonomy", tax,
                                 "--k-max", str(K_MAX), "--out", f"{d}/bin"])
        t4 = time.perf_counter()
        self._main(rep, tracer, ["eval", "--index", f"{run}.index", "--taxonomy", tax,
                                 "--k-max", str(K_MAX), "--out", f"{d}/cont", "--no-binarize",
                                 "--embeddings", f"{run}.embeddings"])
        t5 = time.perf_counter()
        printed, query_ms = [], []
        for qid in self.query_ids:
            q0 = time.perf_counter()
            printed.append(self._main(rep, tracer, ["query", "--index", f"{run}.index",
                                                    "--query-id", str(qid), "--k", "10"]))
            query_ms.append(1e3 * (time.perf_counter() - q0))
        rep.start, rep.end = t0, time.perf_counter()
        rep.run_s = rep.end - t0
        steps = int(trained.split()[1]) if trained.startswith("trained ") else 0
        rep.timings.update(
            train_steps_per_s=steps / (t2 - t1),
            eval_queries_per_s=self.n_samples / (t4 - t3),
            eval_cont_queries_per_s=self.n_samples / (t5 - t4),
            query_ms=query_ms,
            stages_s={"gen-data": t1 - t0, "train": t2 - t1, "encode": t3 - t2,
                      "eval": t4 - t3, "eval --no-binarize": t5 - t4, "query": sum(query_ms) / 1e3},
        )

        rep.check(steps == 250, f"train reported {steps} steps, not 250")
        digests = {name: hashlib.sha256((self.dir / name).read_bytes()).hexdigest()
                   for name in self.artifacts}
        self.digests = self.digests or digests
        for name in self.artifacts:
            rep.check(digests[name] == self.digests[name], f"{name} differs from the warm-up's")
        ids, bits = reference.read_index_file(f"{run}.index")
        for qid, text in zip(self.query_ids, printed):
            rep.check(text.splitlines() == reference.brute_topk(ids, bits, qid, 10),
                      f"query {qid} top-10 differs from brute force")
        return rep

    def quality(self) -> dict[str, float]:
        binary = json.loads((self.dir / "bin.report.json").read_text())
        continuous = json.loads((self.dir / "cont.report.json").read_text())
        key = str(K_MAX)
        return {
            "mahp_binary": binary["mahp_at_k"][key],
            "mahp_continuous": continuous["mahp_at_k"][key],
            "map_binary": binary["map"],
        }


WORKLOADS = {w.name: w for w in (TrainB4, Eval1k, CliPipeline)}
