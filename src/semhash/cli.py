"""Command-line pipeline: gen-data, train, encode, index, query, eval.

Every command that writes files also writes PREFIX.<command>.manifest.json,
recording the tool version, seed, config snapshot, SHA-256 digests of the
input files named on its command line, and the output paths.  Exit codes:
0 success, 1 runtime error, 2 usage error, 3 diverged training.
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
# the commands call encode and index_values; binarize, build_index and encoder_forward
# are imported only for perfbench/spans.py, which wraps them here
from .hashing import (
    HashCode,
    binarize,
    build_index,
    encode,
    index_values,
    load_index,
    query_topk,
    save_index,
)
from .hierarchy import load_taxonomy
from .metrics import evaluate, evaluate_embeddings
from .model import encoder_forward, load_checkpoint, save_checkpoint
from .trainer import parse_config, train

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:  # 1 MiB at a time: an input can be as large as memory
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _outputs(args: argparse.Namespace, *suffixes: str) -> list[Path]:
    """The files PREFIX.<suffix> that a command writes, for ``--out PREFIX``."""
    prefix = Path(args.out)
    return [prefix.with_name(f"{prefix.name}.{suffix}") for suffix in suffixes]


def _write_manifest(
    args: argparse.Namespace, seed: Optional[int], config: dict, outputs: list[Path]
) -> None:
    """Write PREFIX.<command>.manifest.json, digesting each input file given on the command line."""
    inputs = [Path(p) for p in (getattr(args, dest) for dest in args.files) if p is not None]
    manifest = {
        "command": args.command,
        "tool_version": __version__,
        "seed": seed,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
    }
    (path,) = _outputs(args, f"{args.command}.manifest.json")
    write_json(path, manifest)


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
    outputs = features_path, labels_path = _outputs(args, "features", "labels")
    write_features(features_path, dataset.features)
    write_labels(labels_path, dataset.labels, taxonomy)
    config = {"per_class": args.per_class, "dim": args.dim,
              "diffusion": args.diffusion, "noise": args.noise}
    _write_manifest(args, args.seed, config, outputs)
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    config = parse_config(read_text(args.config))
    taxonomy = load_taxonomy(args.taxonomy)
    dataset = load_dataset(args.features, args.labels, taxonomy)
    encoder, classifier, log = train(config, dataset, taxonomy)

    outputs = ckpt_path, log_path = _outputs(args, "checkpoint", "log.csv")
    save_checkpoint(ckpt_path, encoder, classifier)
    write_atomic(log_path, log.to_csv())
    _write_manifest(args, config.seed, asdict(config), outputs)
    print(f"trained {len(log.records)} steps; checkpoint digest {log.params_digest}")
    return EXIT_OK


def cmd_encode(args: argparse.Namespace) -> int:
    taxonomy = load_taxonomy(args.taxonomy)
    dataset = load_dataset(args.features, args.labels, taxonomy)
    encoder, _ = load_checkpoint(args.checkpoint)
    # the index is of the float32 values that PREFIX.embeddings holds, so that
    # ``index`` on those embeddings reproduces it
    embeddings, index = encode(encoder, dataset, args.threshold, np.float32)

    outputs = emb_path, index_path = _outputs(args, "embeddings", "index")
    save_index(index_path, index)
    write_features(emb_path, embeddings)
    _write_manifest(args, None, {"threshold": args.threshold}, outputs)
    return EXIT_OK


def cmd_index(args: argparse.Namespace) -> int:
    taxonomy = load_taxonomy(args.taxonomy)
    dataset = load_dataset(args.embeddings, args.labels, taxonomy)
    outputs = _outputs(args, "index")
    save_index(outputs[0], index_values(dataset.features, dataset.labels, args.threshold))
    _write_manifest(args, None, {"threshold": args.threshold}, outputs)
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
    elif args.embeddings is not None:
        raise SemhashError("--embeddings requires --no-binarize")
    else:
        report = evaluate(index, None, taxonomy, args.k_max, per_query=args.per_query)

    outputs = report_path, curve_path = _outputs(args, "report.json", "hp_curve.csv")
    write_json(report_path, report.to_json_dict())
    write_atomic(curve_path, report.hp_curve_csv())
    _write_manifest(args, None, {"k_max": args.k_max, "no_binarize": args.no_binarize}, outputs)
    mahp = report.mahp_at_k[args.k_max]
    print(f"map {report.map:.6f}  mahp@{args.k_max} {mahp:.6f}")
    return EXIT_OK


def _input_file(p: argparse.ArgumentParser, flag: str, **kwargs) -> None:
    """Add ``flag``, which names an input file: the command's manifest digests it when given."""
    action = p.add_argument(flag, **kwargs)
    p.set_defaults(files=(*p.get_default("files"), action.dest))


def _command(sub, name: str, help: str, func, *files: str) -> argparse.ArgumentParser:
    """Add command ``name``, which writes files under ``--out`` and a manifest of them, with a
    required path flag for each of its input ``files``."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func, files=())
    for flag in files:
        _input_file(p, f"--{flag}", required=True)
    p.add_argument("--out", required=True, help="output path prefix")
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semhash",
        description="Hierarchy-aware semantic hashing pipeline",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "gen-data", "generate a synthetic hierarchical dataset", cmd_gen_data,
                 "taxonomy")
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--diffusion", type=float, default=1.0)
    p.add_argument("--noise", type=float, default=0.5)

    _command(sub, "train", "train encoder and classifier head", cmd_train,
             "config", "features", "labels", "taxonomy")

    p = _command(sub, "encode", "embed a dataset and build its binary index", cmd_encode,
                 "checkpoint", "features", "labels", "taxonomy")
    p.add_argument("--threshold", type=float, default=0.5)

    p = _command(sub, "index", "build a binary index from saved embeddings", cmd_index,
                 "embeddings", "labels", "taxonomy")
    p.add_argument("--threshold", type=float, default=0.5)

    p = sub.add_parser("query", help="top-k Hamming neighbors of an indexed item")
    p.add_argument("--index", required=True)
    p.add_argument("--query-id", type=int, required=True)
    p.add_argument("--k", type=int, default=10)
    p.set_defaults(func=cmd_query)

    p = _command(sub, "eval", "score retrieval quality of an index", cmd_eval,
                 "index", "taxonomy")
    p.add_argument("--k-max", type=int, default=50)
    p.add_argument("--no-binarize", action="store_true",
                   help="rank saved continuous embeddings by Manhattan distance instead")
    _input_file(p, "--embeddings",
                help="embeddings file (only with --no-binarize, which requires it)")
    p.add_argument("--per-query", action="store_true")
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
