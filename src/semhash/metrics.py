"""Retrieval quality metrics over ranked results and a taxonomy.

Two families are computed: classic mean average precision with binary
same-class relevance, and hierarchical precision, where each retrieved item
earns graded relevance ``1 - semantic_distance(query label, item label)``.
HP@k is the ratio of the relevance gathered in the top k to the best sum any
k database items could achieve; AHP@k averages HP over cutoffs 1..k.  Means
across queries use exact (compensated) summation so aggregation order cannot
change results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import _threads
from ._args import count
from .data import all_finite
from .errors import KTooLarge, LengthMismatch, NoRelevantItems, NonFiniteInput, ShapeMismatch
from .hashing import HashIndex, _entries, _rank_by_id, hamming_to_all
from .hierarchy import Taxonomy, _lca_distances, _node_ids, semantic_distance
from .model import _embedding_values
# not called here; perfbench/spans.py patches this module's ``distance_matrix``
# by name, so the name stays
from .hierarchy import distance_matrix  # noqa: F401

# bytes of all b x N blocks in flight at 8 bytes an entry, one block per
# thread; each thread's working set is at most three of its blocks and the
# block's b x L relevance rows
_BLOCK_BYTES = 1 << 20


@dataclass
class MetricsReport:
    map: float
    mahp_at_k: dict[int, float]
    hp_curve: list[tuple[int, float]]
    per_query: Optional[list[tuple[int, float, float]]] = None
    map_skipped_queries: int = 0
    n_queries: int = 0
    ranking: str = "hamming"

    def __post_init__(self) -> None:
        ks = [k for k, _ in self.hp_curve]
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ShapeMismatch("hp_curve cutoffs must be strictly increasing")

    def to_json_dict(self) -> dict:
        per_query = None
        if self.per_query is not None:
            per_query = [
                {
                    "query_id": qid,
                    "ap": None if math.isnan(ap) else ap,
                    "ahp": ahp,
                }
                for qid, ap, ahp in self.per_query
            ]
        return {
            "map": None if math.isnan(self.map) else self.map,
            "mahp_at_k": {str(k): v for k, v in sorted(self.mahp_at_k.items())},
            "map_skipped_queries": self.map_skipped_queries,
            "n_queries": self.n_queries,
            "ranking": self.ranking,
            "per_query": per_query,
        }

    def hp_curve_csv(self) -> str:
        lines = ["k,mean_hp"]
        lines.extend(f"{k},{v!r}" for k, v in self.hp_curve)
        return "\n".join(lines) + "\n"


def relevance(t: Taxonomy, query_label: int, item_label: int) -> float:
    """Graded relevance in [0, 1]: 1 for the same class, 0 at maximal distance."""
    return 1.0 - semantic_distance(t, query_label, item_label)


def _hp(got: np.ndarray, ideal: np.ndarray) -> np.ndarray:
    """HP from gathered and ideal cumulative relevance; 1.0 where the ideal is 0."""
    return np.where(ideal > 0, got / np.maximum(ideal, 1e-300), 1.0)


def _ap(hits: np.ndarray) -> float:
    """AP of one complete ranking from its hits' ascending 0-based ranks; nan without a hit."""
    if hits.size == 0:
        return math.nan
    return math.fsum((np.arange(hits.size) + 1.0) / (hits + 1.0)) / hits.size


def _rank_floats(dists: np.ndarray, hits: np.ndarray, k_max: int) -> tuple[np.ndarray, list]:
    """Each float row's top ``k_max`` columns and its ``hits``' ascending ranks, by (value, column).

    From one value sort per row (NaN last): a value tied across the k_max-th keeps its smallest
    columns in the top set, and a hit ranks after the smaller values and the equal ones before it.
    """
    srt = np.sort(dists, axis=1)
    near = dists <= srt[:, k_max - 1, None]
    for i in np.flatnonzero(np.count_nonzero(near, axis=1) > k_max):
        tied = np.flatnonzero(dists[i] == srt[i, k_max - 1])
        near[i, tied[k_max - np.searchsorted(srt[i], srt[i, k_max - 1]) :]] = False
    top = (np.flatnonzero(near) % dists.shape[1]).reshape(-1, k_max)
    order = np.argsort(np.take_along_axis(dists, top, axis=1), axis=1, kind="stable")
    top = np.take_along_axis(top, order, axis=1)
    ranks = []
    for row, row_srt, cols in zip(dists, srt, map(np.flatnonzero, hits)):
        hit = row[cols]
        rank = np.searchsorted(row_srt, hit, "left")
        for j in np.flatnonzero(np.searchsorted(row_srt, hit, "right") - rank > 1):
            rank[j] += np.count_nonzero(row[: cols[j]] == hit[j])
        ranks.append(np.sort(rank))
    return top, ranks


def _score_ranking(
    ranked_labels: Sequence[int], query_label: int, k_max: int, t: Taxonomy
) -> MetricsReport:
    """Score a complete ranking as given: positions as distances and ids, -1 as the query id."""
    ranked = _node_ids(ranked_labels)
    count(k_max, "k", KTooLarge, 1, len(ranked))  # before any label is checked
    for label in ranked:  # the first bad (query, item) pair decides the error
        t._check_leaves([query_label, label])
    positions = np.arange(len(ranked))
    return _score(lambda rows: positions[None, :], positions, ranked.astype(np.int64),
                  np.array([-1]), np.array([query_label]), t, k_max, False, "given")


def hp_at_k(
    ranked_labels: Sequence[int], query_label: int, k: int, t: Taxonomy
) -> float:
    """Relevance captured in the top k over the best any k items could give.

    The candidate list must be the complete ranked database (query already
    excluded).  When even the ideal top k has zero relevance the ratio is
    defined as 1.0.
    """
    return _score_ranking(ranked_labels, query_label, k, t).hp_curve[-1][1]


def ahp_at_k(
    ranked_labels: Sequence[int], query_label: int, k_max: int, t: Taxonomy
) -> float:
    """Mean of hp_at_k over cutoffs 1..k_max."""
    return _score_ranking(ranked_labels, query_label, k_max, t).mahp_at_k[k_max]


def average_precision(ranked_labels: Sequence[int], query_label: int) -> float:
    """AP with binary same-class relevance over a complete ranking."""
    ap = _ap(np.flatnonzero(np.asarray(ranked_labels) == query_label))
    if math.isnan(ap):
        raise NoRelevantItems(f"no item shares label {query_label}")
    return ap


def hamming_ranking(
    index: HashIndex, words: np.ndarray, exclude_id: Optional[int] = None
) -> np.ndarray:
    """Positions of index entries ranked by (Hamming distance, sample id).

    ``words`` is one code as a row of packed ``uint64`` words.
    """
    words = np.asarray(words, dtype=np.uint64)
    if words.ndim != 1:
        raise LengthMismatch(f"one code expected, got words of shape {words.shape}")
    return _rank_by_id(hamming_to_all(index, words), index.ids, exclude_id)


def manhattan_ranking(
    values: np.ndarray, ids: np.ndarray, query_vec: np.ndarray, exclude_id: Optional[int] = None
) -> np.ndarray:
    """Positions ranked by (Manhattan distance, sample id) over raw embeddings."""
    values = np.asarray(values, dtype=np.float64)
    dists = np.abs(values - np.asarray(query_vec, dtype=np.float64)[None, :]).sum(axis=1)
    return _rank_by_id(dists, np.asarray(ids), exclude_id)


def _score(
    distances: Callable[[slice], np.ndarray],
    item_ids: np.ndarray,
    item_labels: np.ndarray,
    query_ids: np.ndarray,
    query_labels: np.ndarray,
    t: Taxonomy,
    k_max: int,
    per_query: bool,
    ranking: str,
) -> MetricsReport:
    """Rank and score the queries block by block.

    ``distances(rows)`` gives the distances from the queries in ``rows`` to
    every item, one row per query.  Ids are unique on each side, so a query
    that is also an item has one candidate fewer: itself.  Its own entry gets
    a distance that sorts after every other (NaN in a float row, after even
    an overflowed inf sum; the dtype's maximum in an integer row, which holds
    counts below it), so it ranks last and is dropped.
    """
    n_queries, n_items = len(query_ids), len(item_ids)
    if n_queries == 0:
        raise ShapeMismatch("no queries to evaluate")
    by_id = np.argsort(item_ids)
    own_col = np.searchsorted(item_ids[by_id], query_ids)
    has_own = np.isin(query_ids, item_ids)
    min_candidates = n_items - int(has_own.any())
    count(k_max, "k_max", KTooLarge, 1, min_candidates)

    # each block's relevances against the L distinct labels come from their ancestor table
    label_ids, label_rows = np.unique(np.concatenate([query_labels, item_labels]), return_inverse=True)
    ancestors = t._ancestors[:, t._check_leaves(label_ids)]
    query_rows, item_rows = label_rows[:n_queries], label_rows[n_queries:][by_id]

    block = max(1, _BLOCK_BYTES // (8 * n_items * _threads.WORKERS))
    hp_rows = np.empty((n_queries, k_max))
    starts = range(0, n_queries, block)

    def score_blocks(part: slice) -> list[tuple[float, float]]:
        """Fill the ``part`` blocks' ``hp_rows`` rows; their (AP, AHP) pairs in query order."""
        scores: list[tuple[float, float]] = []
        for start in starts[part]:
            rows = slice(start, start + block)
            mine = np.flatnonzero(has_own[rows])
            own = own_col[rows][mine]
            rel = _lca_distances(t, ancestors[:, query_rows[rows]], ancestors)  # b x L
            np.subtract(1.0, rel, out=rel)
            ideal = rel[:, item_rows]  # the candidates' relevances
            ideal[mine, own] = 0.0  # relevances are >= 0, so this never changes the k_max largest
            ideal.sort(axis=1)
            ideal = np.cumsum(ideal[:, : -k_max - 1 : -1], axis=1)
            dists = distances(rows)[:, by_id]
            dists[mine, own] = np.nan if dists.dtype.kind == "f" else np.iinfo(dists.dtype).max
            q_rows = query_rows[rows, None]
            if dists.dtype.kind == "f":  # only the top k_max and the hits are ranked
                hits = item_rows == q_rows
                hits[mine, own] = False
                top, hit_ranks = _rank_floats(dists, hits, k_max)
            else:  # a stable sort of integers is a radix sort, cheaper than ranking their many ties
                top = np.argsort(dists, axis=1, kind="stable")
                hits = item_rows[top] == q_rows
                hits[mine, -1] = False  # the query's own entry, ranked last
                hit_ranks = map(np.flatnonzero, hits)
            got = np.take_along_axis(rel, item_rows[top[:, :k_max]], axis=1)
            hp = hp_rows[rows] = _hp(np.cumsum(got, axis=1), ideal)
            scores.extend(zip(map(_ap, hit_ranks), (math.fsum(row) / k_max for row in hp.tolist())))
            del rel, dists, top, hits  # at most one block's arrays per thread are alive
        return scores

    parts = _threads.halves(score_blocks, len(starts))
    aps, ahp_per_query = zip(*(score for part in parts for score in part))

    hp_curve = [(k + 1, math.fsum(hp_rows[:, k]) / n_queries) for k in range(k_max)]
    mahp = math.fsum(ahp_per_query) / n_queries
    ap_values = [ap for ap in aps if not math.isnan(ap)]
    map_value = math.fsum(ap_values) / len(ap_values) if ap_values else math.nan
    return MetricsReport(
        map=map_value,
        mahp_at_k={k_max: mahp},
        hp_curve=hp_curve,
        per_query=list(zip(query_ids.tolist(), aps, ahp_per_query)) if per_query else None,
        map_skipped_queries=n_queries - len(ap_values),
        n_queries=n_queries,
        ranking=ranking,
    )


def evaluate(
    index: HashIndex,
    queries: Optional[HashIndex],
    t: Taxonomy,
    k_max: int,
    per_query: bool = False,
) -> MetricsReport:
    """Score Hamming-ranked retrieval; queries default to the index itself.

    Each query's own id is excluded from its candidate set, so with
    ``queries=None`` this is a leave-one-out evaluation of the index.
    """
    queries = queries if queries is not None else index
    if queries.code_length != index.code_length:
        raise LengthMismatch("query and index code lengths differ")
    return _score(
        lambda rows: hamming_to_all(index, queries.words[rows]),
        index.ids, index.labels, queries.ids, queries.labels,
        t, k_max, per_query, "hamming",
    )


def evaluate_embeddings(
    values: np.ndarray,
    ids: Sequence[int],
    labels: Sequence[int],
    t: Taxonomy,
    k_max: int,
    per_query: bool = False,
) -> MetricsReport:
    """Leave-one-out evaluation of continuous embeddings under Manhattan ranking."""
    values = _embedding_values(values)
    ids, labels = _entries(ids, labels, len(values))  # the index's rule for its entries
    if not all_finite(values):
        raise NonFiniteInput("embeddings contain NaN or inf")

    def distances(rows: slice) -> np.ndarray:
        queries = values[rows]
        diff = np.empty_like(values)  # per call: each thread needs its own
        out = np.empty((len(queries), len(values)))
        for vec, row in zip(queries, out):
            np.subtract(values, vec, out=diff)
            np.abs(diff, out=diff)
            diff.sum(axis=1, out=row)
        return out

    return _score(distances, ids, labels, ids, labels, t, k_max, per_query, "manhattan")
