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
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import KTooLarge, LengthMismatch, NoRelevantItems, NonFiniteInput, ShapeMismatch
from .hashing import HashIndex, _check_unique_ids, _rank, hamming_to_all
from .hierarchy import Taxonomy, distance_matrix, semantic_distance


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
            "map": self.map,
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


def _hp_curve(rel: np.ndarray, k_max: int) -> np.ndarray:
    """HP@1..k_max of one complete ranking, given each ranked item's relevance."""
    got = np.cumsum(rel)[:k_max]
    ideal = np.cumsum(np.sort(rel)[::-1])[:k_max]
    return np.where(ideal > 0, got / np.maximum(ideal, 1e-300), 1.0)


def _ap(hit_mask: np.ndarray) -> float:
    """AP of one complete ranking with binary relevance; nan without a hit."""
    hits = np.flatnonzero(hit_mask)
    if hits.size == 0:
        return math.nan
    return math.fsum((np.arange(hits.size) + 1.0) / (hits + 1.0)) / hits.size


def _ranked_relevance(
    ranked_labels: Sequence[int], query_label: int, k: int, t: Taxonomy
) -> np.ndarray:
    n = len(ranked_labels)
    if k < 1 or k > n:
        raise KTooLarge(f"k={k} outside [1, {n}]")
    return np.array([relevance(t, query_label, lab) for lab in ranked_labels])


def hp_at_k(
    ranked_labels: Sequence[int], query_label: int, k: int, t: Taxonomy
) -> float:
    """Relevance captured in the top k over the best any k items could give.

    The candidate list must be the complete ranked database (query already
    excluded).  When even the ideal top k has zero relevance the ratio is
    defined as 1.0.
    """
    return float(_hp_curve(_ranked_relevance(ranked_labels, query_label, k, t), k)[-1])


def ahp_at_k(
    ranked_labels: Sequence[int], query_label: int, k_max: int, t: Taxonomy
) -> float:
    """Mean of hp_at_k over cutoffs 1..k_max."""
    rel = _ranked_relevance(ranked_labels, query_label, k_max, t)
    return math.fsum(_hp_curve(rel, k_max)) / k_max


def average_precision(ranked_labels: Sequence[int], query_label: int) -> float:
    """AP with binary same-class relevance over a complete ranking."""
    ap = _ap(np.asarray(ranked_labels) == query_label)
    if math.isnan(ap):
        raise NoRelevantItems(f"no item shares label {query_label}")
    return ap


def hamming_ranking(
    index: HashIndex, words: np.ndarray, exclude_id: Optional[int] = None
) -> np.ndarray:
    """Positions of index entries ranked by (Hamming distance, sample id).

    ``words`` is one code as a row of packed ``uint64`` words.
    """
    return _rank(hamming_to_all(index, words), index.ids, exclude_id)


def manhattan_ranking(
    values: np.ndarray, ids: np.ndarray, query_vec: np.ndarray, exclude_id: Optional[int] = None
) -> np.ndarray:
    """Positions ranked by (Manhattan distance, sample id) over raw embeddings."""
    values = np.asarray(values, dtype=np.float64)
    dists = np.abs(values - np.asarray(query_vec, dtype=np.float64)[None, :]).sum(axis=1)
    return _rank(dists, np.asarray(ids), exclude_id)


def _score(
    rankings: Iterable[np.ndarray],
    item_ids: np.ndarray,
    item_labels: np.ndarray,
    query_ids: np.ndarray,
    query_labels: np.ndarray,
    t: Taxonomy,
    k_max: int,
    per_query: bool,
    ranking: str,
) -> MetricsReport:
    """Score each query's ranking (positions into the items) as it arrives.

    Ids are unique on each side, so a query that is also an item has one
    candidate fewer: itself.
    """
    n_queries = len(query_ids)
    if n_queries == 0:
        raise ShapeMismatch("no queries to evaluate")
    min_candidates = len(item_ids) - int(np.isin(query_ids, item_ids).any())
    if k_max < 1 or k_max > min_candidates:
        raise KTooLarge(f"k_max={k_max} outside [1, {min_candidates}]")

    # one relevance lookup per (query label, item label) pair
    label_ids, rows = np.unique(np.concatenate([query_labels, item_labels]), return_inverse=True)
    rel_table = 1.0 - distance_matrix(t, label_ids.tolist()).values
    query_rows, item_rows = rows[:n_queries], rows[n_queries:]

    hp_rows = np.empty((n_queries, k_max))
    aps: list[float] = []
    for qi, order in enumerate(rankings):
        ranked_rows = item_rows[order]
        hp_rows[qi] = _hp_curve(rel_table[query_rows[qi]][ranked_rows], k_max)
        aps.append(_ap(ranked_rows == query_rows[qi]))

    hp_curve = [
        (k + 1, math.fsum(hp_rows[:, k]) / n_queries) for k in range(k_max)
    ]
    ahp_per_query = [math.fsum(row) / k_max for row in hp_rows]
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
    rankings = (
        hamming_ranking(index, words, qid)
        for words, qid in zip(queries.words, queries.ids.tolist())
    )
    return _score(
        rankings, index.ids, index.labels, queries.ids, queries.labels,
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
    values = np.asarray(values, dtype=np.float64)
    ids = np.asarray(ids, dtype=np.int64)
    labels_arr = np.asarray(labels, dtype=np.int64)
    if values.ndim != 2 or values.shape[0] != ids.shape[0] or ids.shape != labels_arr.shape:
        raise ShapeMismatch("values, ids and labels must be parallel")
    if not np.isfinite(values).all():
        raise NonFiniteInput("embeddings contain NaN or inf")
    _check_unique_ids(ids)
    rankings = (
        manhattan_ranking(values, ids, values[qi], qid) for qi, qid in enumerate(ids.tolist())
    )
    return _score(rankings, ids, labels_arr, ids, labels_arr, t, k_max, per_query, "manhattan")
