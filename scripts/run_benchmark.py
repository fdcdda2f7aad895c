#!/usr/bin/env python3
"""Run the synthetic retrieval benchmark across seeds and loss variants.

For each seed this trains the requested variants on the same hierarchical
dataset, then reports mAP and hierarchical precision of the binarized codes
next to the continuous-embedding scores, so the quantization gap and the
variant ordering are directly visible.

    python scripts/run_benchmark.py --seeds 5 --out results.csv
"""
import argparse
import csv
import io
import sys
import time
from pathlib import Path

from semhash.benchmark import (
    VARIANT_CONFIGS,
    balanced_taxonomy,
    benchmark_config,
    make_benchmark_dataset,
    run_variant,
)
from semhash.errors import SemhashError
from semhash.files import write_atomic


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--variants", nargs="+", default=["shrewd", "sim_only", "cls_only", "shred"],
                        choices=sorted(VARIANT_CONFIGS))
    parser.add_argument("--code-length", type=int, default=16)
    parser.add_argument("--also-code-length", type=int, default=32,
                        help="extra code length for the first variant (0 disables)")
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--per-class", type=int, default=50)
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--noise", type=float, default=0.6)
    parser.add_argument("--k-max", type=int, default=100)
    parser.add_argument("--out", help="optional CSV output path")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error(f"--seeds must be >= 1, got {args.seeds}")
    if args.out and not Path(args.out).parent.is_dir():  # before any training run
        parser.error(f"--out's directory does not exist: {Path(args.out).parent}")
    try:
        rows = compare_variants(args)
    except SemhashError as exc:  # a value the library rejects is a usage error too
        parser.error(str(exc))
    if args.out:
        text = io.StringIO()
        writer = csv.DictWriter(text, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        try:
            write_atomic(args.out, text.getvalue())
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"\nwrote {len(rows)} rows to {args.out}")
    return 0


def compare_variants(args: argparse.Namespace) -> list[dict]:
    """Train and score every requested variant on each seed, printing one table row each."""
    taxonomy = balanced_taxonomy((4, 4, 2))
    rows = []
    header = f"{'seed':>4} {'variant':>9} {'K':>3} {'mAP(bin)':>9} {'mAHP(bin)':>10} {'mAHP(cont)':>11} {'gap':>8} {'secs':>6}"
    print(header)
    print("-" * len(header))
    for seed in range(args.seeds):
        dataset = make_benchmark_dataset(
            taxonomy, seed, per_class=args.per_class, dim=args.dim, noise=args.noise
        )
        jobs = [(v, args.code_length) for v in args.variants]
        if args.also_code_length:
            jobs.append((args.variants[0], args.also_code_length))
        for variant, code_length in jobs:
            cfg = benchmark_config(variant, seed, code_length=code_length, epochs=args.epochs)
            started = time.perf_counter()
            score = run_variant(taxonomy, dataset, cfg, variant, k_max=args.k_max)
            elapsed = time.perf_counter() - started
            print(
                f"{seed:>4} {variant:>9} {code_length:>3} {score.map_binary:>9.4f} "
                f"{score.mahp_binary:>10.4f} {score.mahp_continuous:>11.4f} "
                f"{score.binarization_gap:>+8.4f} {elapsed:>6.1f}"
            )
            rows.append({
                "seed": seed,
                "variant": variant,
                "code_length": code_length,
                "map_binary": score.map_binary,
                "mahp_binary": score.mahp_binary,
                "mahp_continuous": score.mahp_continuous,
                "binarization_gap": score.binarization_gap,
            })
    return rows


if __name__ == "__main__":
    sys.exit(main())
