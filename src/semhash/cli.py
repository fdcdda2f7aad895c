"""Command-line pipeline: gen-data, train, encode, index, query, eval.

Every command that writes files also writes PREFIX.<command>.manifest.json,
recording the tool version, seed, config snapshot, SHA-256 digests of its
inputs, and the output paths.  Exit codes: 0 success, 1 runtime error,
2 usage error, 3 diverged training.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .data import (
    RngState,
    generate_synthetic,
    load_dataset,
    read_features,
    write_features,
    write_labels,
)
from .errors import DivergedLoss, SemhashError, ShapeMismatch
from .files import read_text, write_atomic, write_json
from .hashing import HashCode, binarize, build_index, load_index, query_topk, save_index
from .hierarchy import load_taxonomy
from .metrics import evaluate, evaluate_embeddings
from .model import encoder_forward, load_checkpoint, save_checkpoint
from .trainer import parse_config, train

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(
    prefix: Path,
    command: str,
    seed: Optional[int],
    config: dict,
    inputs: list[Path],
    outputs: list[Path],
) -> Path:
    manifest = {
        "command": command,
        "tool_version": __version__,
        "seed": seed,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
    }
    path = prefix.with_name(f"{prefix.name}.{command}.manifest.json")
    write_json(path, manifest)
    return path


def cmd_gen_data(args: argparse.Namespace) -> int:
    taxonomy = load_taxonomy(args.taxonomy)
    dataset = generate_synthetic(
        taxonomy,
        per_class=args.per_class,
        dim=args.dim,
        diffusion=args.diffusion,
        noise=args.noise,
        rng=RngState.from_seed(args.seed),
    )
    prefix = Path(args.out)
    features_path = prefix.with_name(prefix.name + ".features")
    labels_path = prefix.with_name(prefix.name + ".labels")
    write_features(features_path, dataset.features)
    write_labels(labels_path, dataset.labels, taxonomy)
    _write_manifest(
        prefix,
        "gen-data",
        args.seed,
        {
            "per_class": args.per_class,
            "dim": args.dim,
            "diffusion": args.diffusion,
            "noise": args.noise,
        },
        [Path(args.taxonomy)],
        [features_path, labels_path],
    )
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    config = parse_config(read_text(args.config))
    taxonomy = load_taxonomy(args.taxonomy)
    dataset = load_dataset(args.features, args.labels, taxonomy)
    encoder, classifier, log = train(config, dataset, taxonomy)

    prefix = Path(args.out)
    ckpt_path = prefix.with_name(prefix.name + ".checkpoint")
    log_path = prefix.with_name(prefix.name + ".log.csv")
    save_checkpoint(ckpt_path, encoder, classifier)
    write_atomic(log_path, log.to_csv())
    _write_manifest(
        prefix,
        "train",
        config.seed,
        asdict(config),
        [Path(args.config), Path(args.features), Path(args.labels), Path(args.taxonomy)],
        [ckpt_path, log_path],
    )
    print(f"trained {len(log.records)} steps; checkpoint digest {log.params_digest}")
    return EXIT_OK


def _write_index(prefix: Path, embeddings: np.ndarray, labels: np.ndarray, threshold: float) -> Path:
    """Save PREFIX.index of the float32 values that PREFIX.embeddings holds, so that
    ``index`` on those embeddings reproduces ``encode``'s index."""
    codes = binarize(embeddings, threshold=threshold)
    index_path = prefix.with_name(prefix.name + ".index")
    save_index(index_path, build_index(codes, np.arange(len(embeddings)), labels))
    return index_path


def cmd_encode(args: argparse.Namespace) -> int:
    taxonomy = load_taxonomy(args.taxonomy)
    dataset = load_dataset(args.features, args.labels, taxonomy)
    encoder, _ = load_checkpoint(args.checkpoint)
    batch, _ = encoder_forward(encoder, dataset.features)
    embeddings = batch.values.astype(np.float32)

    prefix = Path(args.out)
    index_path = _write_index(prefix, embeddings, dataset.labels, args.threshold)
    emb_path = prefix.with_name(prefix.name + ".embeddings")
    write_features(emb_path, embeddings)
    _write_manifest(
        prefix,
        "encode",
        None,
        {"threshold": args.threshold},
        [Path(args.checkpoint), Path(args.features), Path(args.labels), Path(args.taxonomy)],
        [emb_path, index_path],
    )
    return EXIT_OK


def cmd_index(args: argparse.Namespace) -> int:
    taxonomy = load_taxonomy(args.taxonomy)
    dataset = load_dataset(args.embeddings, args.labels, taxonomy)
    prefix = Path(args.out)
    index_path = _write_index(prefix, dataset.features, dataset.labels, args.threshold)
    _write_manifest(
        prefix,
        "index",
        None,
        {"threshold": args.threshold},
        [Path(args.embeddings), Path(args.labels), Path(args.taxonomy)],
        [index_path],
    )
    return EXIT_OK


def cmd_query(args: argparse.Namespace) -> int:
    index = load_index(args.index)
    matches = np.flatnonzero(index.ids == args.query_id)
    if matches.size == 0:
        raise SemhashError(f"query id {args.query_id} not present in {args.index}")
    row = index.words[int(matches[0])]
    code = HashCode(words=tuple(int(w) for w in row), code_length=index.code_length)
    for sample_id, dist in query_topk(index, code, args.k):
        print(f"{sample_id}\t{dist}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    taxonomy = load_taxonomy(args.taxonomy)
    index = load_index(args.index)
    inputs = [Path(args.index), Path(args.taxonomy)]
    if args.no_binarize:
        if args.embeddings is None:
            raise SemhashError("--no-binarize requires --embeddings")
        values = read_features(args.embeddings)
        if values.shape[0] != len(index):
            raise ShapeMismatch(
                f"{values.shape[0]} embedding rows but {len(index)} index entries"
            )
        report = evaluate_embeddings(
            values, index.ids, index.labels, taxonomy, args.k_max, per_query=args.per_query
        )
        inputs.append(Path(args.embeddings))
    elif args.embeddings is not None:
        raise SemhashError("--embeddings requires --no-binarize")
    else:
        report = evaluate(index, None, taxonomy, args.k_max, per_query=args.per_query)

    prefix = Path(args.out)
    report_path = prefix.with_name(prefix.name + ".report.json")
    curve_path = prefix.with_name(prefix.name + ".hp_curve.csv")
    write_json(report_path, report.to_json_dict())
    write_atomic(curve_path, report.hp_curve_csv())
    _write_manifest(
        prefix,
        "eval",
        None,
        {"k_max": args.k_max, "no_binarize": args.no_binarize},
        inputs,
        [report_path, curve_path],
    )
    mahp = report.mahp_at_k[args.k_max]
    print(f"map {report.map:.6f}  mahp@{args.k_max} {mahp:.6f}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semhash",
        description="Hierarchy-aware semantic hashing pipeline",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic hierarchical dataset")
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--diffusion", type=float, default=1.0)
    p.add_argument("--noise", type=float, default=0.5)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train encoder and classifier head")
    p.add_argument("--config", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="embed a dataset and build its binary index")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("index", help="build a binary index from saved embeddings")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("query", help="top-k Hamming neighbors of an indexed item")
    p.add_argument("--index", required=True)
    p.add_argument("--query-id", type=int, required=True)
    p.add_argument("--k", type=int, default=10)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("eval", help="score retrieval quality of an index")
    p.add_argument("--index", required=True)
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--k-max", type=int, default=50)
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--no-binarize", action="store_true",
                   help="rank saved continuous embeddings by Manhattan distance instead")
    p.add_argument("--embeddings", help="embeddings file (only with --no-binarize, which requires it)")
    p.add_argument("--per-query", action="store_true")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "out") and not Path(args.out).name:  # "", "." or "/"
            raise SemhashError(f"--out {args.out!r} does not name a file prefix")
        return args.func(args)
    except DivergedLoss as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (SemhashError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
