#!/usr/bin/env python3
"""Print SHA-256 digests of a fixed set of semhash outputs, as one JSON object.

Two source trees give equal JSON exactly when these outputs are byte-identical:

- ``train/...``: ``params_digest`` and ``log.csv`` of the benchmark variants
  at seeds 0 and 1 (one epoch each), of the train_b4 benchmark's own run
  (``shrewd-e10``: shrewd at seed 0 over its full 10 epochs), of B=64,
  K=64 and B=63, K=64 runs, whose pairwise passes fill 8-row blocks (the
  last one of 7 rows at B=63), and of shrewd and shred at
  B=64, K=64 over 6,400 rows (``*-b64k64-n6400``: seed 0, two epochs of 100
  steps, which train runs in chunks of 32, 32, 32 and 4 steps);
- ``eval/...``: ``report.json`` with per-query values and ``hp_curve.csv`` of
  Hamming and Manhattan eval at eval_1k size and on a taxonomy whose leaves
  sit at several depths, and of Manhattan eval on quarter-grid values, whose
  distances tie also across ``k_max``, and on values whose distances overflow
  to inf, each on one and on two threads;
- ``cli/...``: every file and the stdout of ``gen-data -> train -> encode ->
  index -> eval -> eval --no-binarize -> query``, with the work directory
  masked in the manifests;
- ``encode/...``: the ``.embeddings`` and ``.index`` files that ``encode``
  writes for the first 1, 10, 511, 513 and all 1,600 rows of a dataset, each
  set encoded alone, by an untrained encoder of the README's shape (D 32,
  hidden 16, K 8) and of cli_pipeline's (D 128, hidden 256 and 128, K 64);
- ``synthetic/...``: ``generate_synthetic`` features and labels for three
  taxonomies, one whose breadth-first order differs from its id order, drawn
  through ``make_benchmark_dataset``, a call that older trees take too.

semhash is imported from ``PYTHONPATH``, so one copy of this script can digest
any tree, for example the base of a change and its head:

    PYTHONPATH=src python3 scripts/digests.py > head.json

It takes about 9 s on a 2-core x86-64 machine with numpy 2.4.6 (8.3-9.5 s
over three runs), about 1 s of it the 10-epoch shrewd run, 1.4 s the two
6,400-row runs and 0.3 s the ten encodes.  With ``--reverse-repeat`` it computes the sections in
reverse order, each twice, and exits 1 if a key gets two values, so outputs
that depend on what ran before in the process show up both as that failure
and as JSON that differs from a default run's.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from semhash import _threads
from semhash.benchmark import VARIANT_CONFIGS, balanced_taxonomy, benchmark_config, make_benchmark_dataset
from semhash.cli import main as cli_main
from semhash.data import RngState, write_features, write_labels
from semhash.hashing import binarize, build_index
from semhash.hierarchy import parse_taxonomy
from semhash.metrics import evaluate, evaluate_embeddings
from semhash.model import encoder_forward, init_classifier, init_encoder, save_checkpoint
from semhash.trainer import TrainConfig, train

K_MAX = 100


def _sha(data: bytes | str) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def _report_json(report) -> str:
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"


@contextlib.contextmanager
def workers_set_to(workers: int):
    """Run the block with semhash's thread rule set to ``workers``, then restore it."""
    saved = _threads.WORKERS
    _threads.WORKERS = workers
    try:
        yield
    finally:
        _threads.WORKERS = saved


def train_digests() -> dict[str, str]:
    out = {}
    taxonomy = balanced_taxonomy((4, 4, 2))
    for seed in (0, 1):
        dataset = make_benchmark_dataset(taxonomy, seed)
        runs = {v: benchmark_config(v, seed, epochs=1) for v in ("shrewd", "sim_only", "cls_only", "shred")}
        if seed == 0:
            runs["shrewd-e10"] = benchmark_config("shrewd", seed)
        for b in (64, 63):
            runs[f"b{b}k64"] = TrainConfig(code_length=64, hidden_sizes=(256, 128), batch_size=b,
                                           epochs=2, seed=seed, variant="shred")
        for name, config in runs.items():
            _, _, log = train(config, dataset, taxonomy)
            out[f"train/{name}/s{seed}/params_digest"] = log.params_digest
            out[f"train/{name}/s{seed}/log.csv"] = _sha(log.to_csv())
    dataset = make_benchmark_dataset(taxonomy, 0, per_class=200)  # 6,400 rows
    for variant in ("shrewd", "shred"):
        config = replace(TrainConfig(code_length=64, hidden_sizes=(64,), batch_size=64, epochs=2),
                         **VARIANT_CONFIGS[variant])
        _, _, log = train(config, dataset, taxonomy)
        out[f"train/{variant}-b64k64-n6400/s0/params_digest"] = log.params_digest
        out[f"train/{variant}-b64k64-n6400/s0/log.csv"] = _sha(log.to_csv())
    return out


def eval_digests() -> dict[str, str]:
    # eval_1k's balanced tree, and a random recursive tree (node i's parent drawn
    # from nodes 0..i-1) whose 496 leaves sit at depths 1 to 15
    rng = np.random.default_rng(0)
    taxonomies = {
        "": balanced_taxonomy((10, 10, 10)),
        "-mixed-depth": parse_taxonomy("\n".join(f"n{rng.integers(i)} n{i}" for i in range(1, 1000))),
    }
    out = {}
    for suffix, taxonomy in taxonomies.items():
        dataset = make_benchmark_dataset(taxonomy, 0, per_class=2, dim=128)
        encoder = init_encoder(dataset.dim, (), 64, RngState.from_seed(0))
        batch, _ = encoder_forward(encoder, dataset.features)
        ids = np.arange(dataset.n_samples)
        index = build_index(binarize(batch), ids, dataset.labels)
        for workers in (1, 2):
            with workers_set_to(workers):
                reports = {
                    "hamming": evaluate(index, None, taxonomy, K_MAX, per_query=True),
                    "manhattan": evaluate_embeddings(
                        batch.values, ids, dataset.labels, taxonomy, K_MAX, per_query=True
                    ),
                }
            for kind, report in reports.items():
                out[f"eval/{kind}{suffix}/w{workers}/report.json"] = _sha(_report_json(report))
                out[f"eval/{kind}{suffix}/w{workers}/hp_curve.csv"] = _sha(report.hp_curve_csv())
    return out


def tie_digests() -> dict[str, str]:
    taxonomy = balanced_taxonomy((4, 4, 2))
    rng = np.random.default_rng(0)
    n = 300
    ids = rng.permutation(10 * n)[:n]
    labels = rng.choice(taxonomy.leaves(), size=n)
    inputs = {
        "grid": rng.integers(0, 3, size=(n, 4)) * 0.25,  # 9 distinct distances
        "overflow": rng.choice([-1e308, 0.0, 1e308], size=(n, 2)),
    }
    out = {}
    for workers in (1, 2):
        for kind, values in inputs.items():
            with workers_set_to(workers), np.errstate(over="ignore"):
                report = evaluate_embeddings(values, ids, labels, taxonomy, K_MAX, per_query=True)
            out[f"eval/manhattan-{kind}/w{workers}/report.json"] = _sha(_report_json(report))
            out[f"eval/manhattan-{kind}/w{workers}/hp_curve.csv"] = _sha(report.hp_curve_csv())
    return out


def balanced_taxonomy_edges(branching: tuple[int, ...]) -> list[tuple[str, str]]:
    t = balanced_taxonomy(branching)
    return [(t.name(t.parent(node)), t.name(node)) for node in t.order[1:]]


def cli_digests() -> dict[str, str]:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "tax.txt").write_text(
            "\n".join(f"{p} {c}" for p, c in balanced_taxonomy_edges((4, 4, 2))) + "\n"
        )
        (d / "train.cfg").write_text(
            "code_length = 64\nhidden_sizes = 256,128\nbatch_size = 64\nepochs = 3\n"
            "learning_rate = 0.001\nseed = 0\nvariant = shred\n"
        )
        data = ["--features", f"{d}/data.features", "--labels", f"{d}/data.labels",
                "--taxonomy", f"{d}/tax.txt"]
        commands = {
            "gen-data": ["gen-data", "--taxonomy", f"{d}/tax.txt", "--per-class", "50",
                         "--dim", "128", "--seed", "0", "--out", f"{d}/data"],
            "train": ["train", "--config", f"{d}/train.cfg", *data, "--out", f"{d}/run"],
            "encode": ["encode", "--checkpoint", f"{d}/run.checkpoint", *data, "--out", f"{d}/run"],
            "index": ["index", "--embeddings", f"{d}/run.embeddings", "--labels", f"{d}/data.labels",
                      "--taxonomy", f"{d}/tax.txt", "--out", f"{d}/rebuilt"],
            "eval-hamming": ["eval", "--index", f"{d}/run.index", "--taxonomy", f"{d}/tax.txt",
                             "--k-max", str(K_MAX), "--out", f"{d}/bin", "--per-query"],
            "eval-manhattan": ["eval", "--index", f"{d}/run.index", "--taxonomy", f"{d}/tax.txt",
                               "--k-max", str(K_MAX), "--out", f"{d}/cont", "--per-query",
                               "--no-binarize", "--embeddings", f"{d}/run.embeddings"],
            **{f"query-{q}": ["query", "--index", f"{d}/run.index", "--query-id", str(q), "--k", "10"]
               for q in (0, 777, 1599)},
        }
        for name, argv in commands.items():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli_main(argv)
            out[f"cli/{name}/stdout"] = _sha(f"exit {code}\n{stdout.getvalue()}{stderr.getvalue()}")
        for path in sorted(d.iterdir()):
            raw = path.read_bytes()
            if path.name.endswith(".manifest.json"):
                raw = raw.replace(str(d).encode("utf-8"), b"WORKDIR")
            out[f"cli/{path.name}"] = _sha(raw)
    return out


def encode_digests() -> dict[str, str]:
    taxonomy = balanced_taxonomy((4, 4, 2))
    shapes = {"readme": (32, (16,), 8), "cli": (128, (256, 128), 64)}
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "tax.txt").write_text(
            "\n".join(f"{p} {c}" for p, c in balanced_taxonomy_edges((4, 4, 2))) + "\n"
        )
        for name, (dim, hidden, k) in shapes.items():
            dataset = make_benchmark_dataset(taxonomy, 0, per_class=50, dim=dim)
            rng = RngState.from_seed(1)
            encoder = init_encoder(dim, hidden, k, rng)
            save_checkpoint(d / "enc.checkpoint", encoder, init_classifier(k, 32, rng))
            for n in (1, 10, 511, 513, 1600):
                write_features(d / "part.features", dataset.features[:n])
                write_labels(d / "part.labels", dataset.labels[:n], taxonomy)
                cli_main(["encode", "--checkpoint", str(d / "enc.checkpoint"),
                          "--features", str(d / "part.features"), "--labels", str(d / "part.labels"),
                          "--taxonomy", str(d / "tax.txt"), "--out", str(d / "part")])
                for ext in ("embeddings", "index"):
                    out[f"encode/{name}/n{n}/{ext}"] = _sha((d / f"part.{ext}").read_bytes())
    return out


def synthetic_digests() -> dict[str, str]:
    taxonomies = {
        "balanced": balanced_taxonomy((4, 4, 2)),
        "uneven": parse_taxonomy("root A\nroot B\nA a1\nA a2\nB b1\nB b2\nb2 deep"),
        # ids in first-appearance order: the leaves and B come before the root
        "reordered": parse_taxonomy("B b1\nA a2\nA a1\nroot A\nroot B\nB b2"),
    }
    out = {}
    for name, taxonomy in taxonomies.items():
        dataset = make_benchmark_dataset(taxonomy, 3, per_class=5, dim=9, noise=0.5)
        out[f"synthetic/{name}/features"] = _sha(np.ascontiguousarray(dataset.features).tobytes())
        out[f"synthetic/{name}/labels"] = _sha(np.ascontiguousarray(dataset.labels).tobytes())
    return out


SECTIONS = (train_digests, eval_digests, tie_digests, cli_digests, encode_digests, synthetic_digests)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reverse-repeat", action="store_true",
                        help="compute the sections in reverse order, each twice, and exit 1 "
                             "if a key gets two values")
    args = parser.parse_args(argv)
    runs = [s for s in reversed(SECTIONS) for _ in range(2)] if args.reverse_repeat else SECTIONS
    out: dict[str, str] = {}
    conflicts = set()
    for section in runs:
        for key, value in section().items():
            if out.setdefault(key, value) != value:
                conflicts.add(key)
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    print()
    for key in sorted(conflicts):
        print(f"two values for {key}", file=sys.stderr)
    return 1 if conflicts else 0


if __name__ == "__main__":
    sys.exit(main())
