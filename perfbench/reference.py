"""Straight-line reference checks, written independently of semhash.

Nothing here imports semhash: rankings, relevance, AP/AHP and the index file
format are recomputed from first principles, so a defect shared between the
library's fast paths cannot hide in the check.
"""
from __future__ import annotations

import math
import struct

import numpy as np


def balanced_edges(branching: tuple[int, ...]) -> list[str]:
    """Edge list of a balanced tree; leaf names encode their root path."""
    lines, level = [], ["root"]
    for depth, fan in enumerate(branching):
        nxt = []
        for name in level:
            for i in range(fan):
                child = f"{name}_{i}" if depth else f"n{i}"
                lines.append(f"{name} {child}")
                nxt.append(child)
        level = nxt
    return lines


def leaf_relevance(name_a: str, name_b: str, height: int) -> float:
    """1 - lca height / root height, from the root paths in balanced leaf names."""
    common = 0
    for a, b in zip(name_a.split("_"), name_b.split("_")):
        if a != b:
            break
        common += 1
    return 1.0 - (height - common) / height


def ranked_positions(dists, ids, exclude: int) -> list[int]:
    """Positions sorted by (distance, id), without the query's own entry."""
    return sorted(
        (i for i in range(len(ids)) if ids[i] != exclude),
        key=lambda i: (dists[i], ids[i]),
    )


def ap_and_ahp(rels: list[float], k_max: int) -> tuple[float, float]:
    """Binary-relevance AP over the full ranking and mean HP@1..k_max."""
    hits = [pos for pos, rel in enumerate(rels) if rel == 1.0]
    ap = math.fsum((n + 1.0) / (pos + 1.0) for n, pos in enumerate(hits)) / len(hits)
    ideal_order = sorted(rels, reverse=True)
    got = ideal = 0.0
    hps = []
    for k in range(k_max):
        got += rels[k]
        ideal += ideal_order[k]
        hps.append(got / ideal if ideal > 0 else 1.0)
    return ap, math.fsum(hps) / k_max


def query_scores(values, bits, names, queries, k_max, height):
    """(Hamming, Manhattan) per-query {id: (ap, ahp)} for leave-one-out eval.

    ``values`` are the continuous embeddings, ``bits`` their thresholded codes
    and ``names`` each row's leaf name; row i has sample id i.
    """
    ids = list(range(len(names)))
    hamming, manhattan = {}, {}
    for q in queries:
        ham = (bits != bits[q]).sum(axis=1).tolist()
        man = np.abs(values - values[q]).sum(axis=1).tolist()
        for dists, out in ((ham, hamming), (man, manhattan)):
            order = ranked_positions(dists, ids, q)
            rels = [leaf_relevance(names[q], names[i], height) for i in order]
            out[q] = ap_and_ahp(rels, k_max)
    return hamming, manhattan


def read_index_file(path) -> tuple[np.ndarray, np.ndarray]:
    """(ids, N x K bit matrix) from an index file: header then packed records."""
    raw = open(path, "rb").read()
    magic, version, code_length, count = struct.unpack_from("<4sIII", raw)
    if magic != b"SHRI" or version != 1:
        raise ValueError(f"{path}: not a version-1 index file")
    n_words = -(-code_length // 64)
    offset, size = 16, 12 + 8 * n_words
    if len(raw) != offset + count * size:
        raise ValueError(f"{path}: size {len(raw)} does not match {count} records")
    ids, bits = [], []
    for r in range(count):
        rec = raw[offset + r * size : offset + (r + 1) * size]
        ids.append(struct.unpack_from("<Q", rec)[0])
        words = struct.unpack_from(f"<{n_words}Q", rec, 12)
        bits.append([(words[j // 64] >> (j % 64)) & 1 for j in range(code_length)])
    return np.array(ids, dtype=np.int64), np.array(bits, dtype=np.uint8)


def brute_topk(ids: np.ndarray, bits: np.ndarray, query_id: int, k: int) -> list[str]:
    """Expected ``query`` output lines: "id<TAB>distance" for the k nearest."""
    row = int(np.flatnonzero(ids == query_id)[0])
    dists = (bits != bits[row]).sum(axis=1).tolist()
    order = sorted(range(len(ids)), key=lambda i: (dists[i], int(ids[i])))
    return [f"{int(ids[i])}\t{dists[i]}" for i in order[:k]]
