import functools
import json
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semhash.metrics as metrics_mod
from semhash.benchmark import balanced_taxonomy
from semhash.errors import (
    KTooLarge,
    LengthMismatch,
    NoRelevantItems,
    NonFiniteInput,
    NotALeaf,
    ShapeMismatch,
    UnknownNode,
)
from semhash.hashing import binarize, build_index, pack_bits
from semhash.metrics import (
    MetricsReport,
    ahp_at_k,
    average_precision,
    evaluate,
    evaluate_embeddings,
    hamming_ranking,
    hp_at_k,
    manhattan_ranking,
    relevance,
)

from conftest import MAPMINER_TEXT, WORDNET_LIKE_TEXT, taxonomy_from_parents, tree_parent_lists
from oracles import (
    bf_ahp_at_k,
    bf_ap,
    bf_evaluate,
    bf_hamming,
    bf_hp_at_k,
    bf_lca,
    sorted_hp_curve,
)
from semhash.hierarchy import parse_taxonomy

# immutable; shared across hypothesis examples
WORDNET_LIKE = parse_taxonomy(WORDNET_LIKE_TEXT)
MAPMINER = parse_taxonomy(MAPMINER_TEXT)


def leaf(t, name):
    return t.node_id(name)


class TestRelevance:
    def test_same_label(self, five_node_tax):
        t = five_node_tax
        assert relevance(t, leaf(t, "a1"), leaf(t, "a1")) == 1.0

    def test_sibling(self, five_node_tax):
        t = five_node_tax
        assert relevance(t, leaf(t, "a1"), leaf(t, "a2")) == 0.5

    def test_maximally_distant(self, five_node_tax):
        t = five_node_tax
        assert relevance(t, leaf(t, "a1"), leaf(t, "b1")) == 0.0


class TestHpAtK:
    def test_perfect_ranking_is_one_everywhere(self, five_node_tax):
        t = five_node_tax
        q = leaf(t, "a1")
        ranked = [leaf(t, "a1"), leaf(t, "a2"), leaf(t, "b1")]
        for k in (1, 2, 3):
            assert hp_at_k(ranked, q, k, t) == 1.0

    def test_sum_based_order_free_within_cutoff(self, five_node_tax):
        t = five_node_tax
        q = leaf(t, "a1")
        # best two are (1.0, 0.5); retrieving them in either order scores 1
        assert hp_at_k([leaf(t, "a2"), leaf(t, "a1"), leaf(t, "b1")], q, 2, t) == 1.0

    def test_six_item_adversarial_fixture(self, wordnet_like_tax):
        t = wordnet_like_tax
        q = leaf(t, "cat")
        ranked = [leaf(t, n) for n in ("guitar", "car", "dog", "cat", "sparrow", "idea")]
        rels = [relevance(t, q, lab) for lab in ranked]
        for k in range(1, 7):
            assert hp_at_k(ranked, q, k, t) == pytest.approx(bf_hp_at_k(rels, k), rel=1e-12)

    def test_k_too_large(self, five_node_tax):
        t = five_node_tax
        with pytest.raises(KTooLarge):
            hp_at_k([leaf(t, "a2")], leaf(t, "a1"), 2, t)

    @given(seed=st.integers(min_value=0, max_value=9999))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_topk_permutation(self, seed):
        t = WORDNET_LIKE
        rng = np.random.default_rng(seed)
        leaves = t.leaves()
        q = int(rng.choice(leaves))
        ranked = [int(x) for x in rng.choice(leaves, size=6)]
        k = int(rng.integers(1, 6))
        base = hp_at_k(ranked, q, k, t)
        shuffled = list(ranked)
        rng.shuffle(shuffled[:k])
        assert hp_at_k(shuffled, q, k, t) == pytest.approx(base, rel=1e-12)


class TestAhpAtK:
    def test_perfect_ranking(self, five_node_tax):
        t = five_node_tax
        ranked = [leaf(t, "a1"), leaf(t, "a2"), leaf(t, "b1")]
        assert ahp_at_k(ranked, leaf(t, "a1"), 3, t) == 1.0

    def test_single_item_database(self, five_node_tax):
        t = five_node_tax
        ranked = [leaf(t, "a2")]
        q = leaf(t, "a1")
        assert ahp_at_k(ranked, q, 1, t) == hp_at_k(ranked, q, 1, t)

    def test_six_item_fixture_matches_mean_of_hand_values(self, wordnet_like_tax):
        t = wordnet_like_tax
        q = leaf(t, "cat")
        ranked = [leaf(t, n) for n in ("dog", "eagle", "cat", "tree", "piano", "idea")]
        rels = [relevance(t, q, lab) for lab in ranked]
        assert ahp_at_k(ranked, q, 5, t) == pytest.approx(bf_ahp_at_k(rels, 5), rel=1e-12)


@given(tree_parent_lists, st.data())
@settings(max_examples=100, deadline=None)
def test_hp_and_ahp_match_sorted_oracle_bitwise(parents, data):
    # random trees have leaves at mixed depths; rankings repeat labels
    t = taxonomy_from_parents(parents)
    ranked = data.draw(st.lists(st.sampled_from(t.leaves()), min_size=1, max_size=12))
    q = data.draw(st.sampled_from(t.leaves()))
    parent_of = [t.parent(i) for i in range(len(t))]
    depth_of = [t.depth(i) for i in range(len(t))]
    rels = [1.0 - t.node_height(bf_lca(parent_of, depth_of, q, lab)) / t.height for lab in ranked]
    curve = sorted_hp_curve(rels, len(ranked))
    for k in range(1, len(ranked) + 1):
        assert hp_at_k(ranked, q, k, t) == curve[k - 1]
        assert ahp_at_k(ranked, q, k, t) == math.fsum(curve[:k]) / k


def test_bad_labels_reported_pair_by_pair(five_node_tax):
    # the first (query, item) pair holding an unknown id or a non-leaf decides
    # the error; within a pair, an unknown id comes first
    t = five_node_tax
    a, a1, a2 = t.node_id("A"), t.node_id("a1"), t.node_id("a2")
    for ranked, q, error in [
        ([a, 99], a1, NotALeaf),
        ([99, a], a1, UnknownNode),
        ([99], a, UnknownNode),
        ([a2, 99], a, NotALeaf),
    ]:
        for fn in (hp_at_k, ahp_at_k):
            with pytest.raises(error):
                fn(ranked, q, len(ranked), t)
        with pytest.raises(KTooLarge):  # the cutoff is checked first
            hp_at_k(ranked, q, len(ranked) + 1, t)


class TestAveragePrecision:
    def test_all_relevant_first(self):
        assert average_precision([3, 3, 1, 2], 3) == 1.0

    def test_single_relevant_last(self):
        n = 7
        ranked = [1] * (n - 1) + [9]
        assert average_precision(ranked, 9) == pytest.approx(1.0 / n, rel=1e-12)

    def test_matches_prefix_scan_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            ranked = rng.integers(0, 3, 12).tolist()
            if 1 not in ranked:
                ranked[0] = 1
            got = average_precision(ranked, 1)
            assert got == pytest.approx(bf_ap([1 if x == 1 else 0 for x in ranked]), rel=1e-12)

    def test_no_relevant_items(self):
        with pytest.raises(NoRelevantItems):
            average_precision([1, 2], 5)


def degenerate_one_code_per_class_index(t):
    """8 classes, 2 items each, class i reuses the 4-bit code of integer i."""
    class_leaves = [t.node_id(f"c{i}") for i in range(8)]
    codes, ids, labels = [], [], []
    for item in range(16):
        cls = item // 2
        bits = [(cls >> j) & 1 for j in range(4)]
        codes.append(pack_bits(bits))
        ids.append(item)
        labels.append(class_leaves[cls])
    return build_index(codes, ids, labels)


class TestEvaluate:
    def test_degenerate_codes_get_perfect_map_but_not_mahp(self, mapminer_tax):
        index = degenerate_one_code_per_class_index(mapminer_tax)
        report = evaluate(index, None, mapminer_tax, k_max=5)
        assert report.map == 1.0
        assert report.mahp_at_k[5] < 1.0

    def test_identical_codes_everywhere_match_tiebreak_oracle(self, mapminer_tax):
        t = mapminer_tax
        class_leaves = [t.node_id(f"c{i}") for i in range(8)]
        code = pack_bits([1, 0, 1, 0])
        labels = [class_leaves[i // 2] for i in range(16)]
        index = build_index([code] * 16, list(range(16)), labels)
        report = evaluate(index, None, t, k_max=5)
        # with all distances zero the ranking is id order; recompute directly
        ahps = []
        for q in range(16):
            ranked = [labels[i] for i in range(16) if i != q]
            rels = [relevance(t, labels[q], lab) for lab in ranked]
            ahps.append(bf_ahp_at_k(rels, 5))
        assert report.mahp_at_k[5] == pytest.approx(math.fsum(ahps) / 16, rel=1e-12)

    def test_relevance_perfect_index_scores_one(self, five_node_tax):
        t = five_node_tax
        a1, a2, b1 = (t.node_id(n) for n in ("a1", "a2", "b1"))
        codes = [pack_bits([0, 0]), pack_bits([0, 0]), pack_bits([0, 1]), pack_bits([1, 1])]
        labels = [a1, a1, a2, b1]
        index = build_index(codes, [0, 1, 2, 3], labels)
        report = evaluate(index, None, t, k_max=3)
        assert report.mahp_at_k[3] == 1.0

    def test_k_too_large(self, five_node_tax):
        t = five_node_tax
        index = build_index([pack_bits([0]), pack_bits([1])], [0, 1], [t.node_id("a1")] * 2)
        with pytest.raises(KTooLarge):
            evaluate(index, None, t, k_max=2)  # only 1 candidate after self-exclusion

    def test_matches_bruteforce_on_small_databases(self, mapminer_tax):
        t = mapminer_tax
        class_leaves = [t.node_id(f"c{i}") for i in range(8)]
        rng = np.random.default_rng(0)
        for n in range(2, 9):
            bits = rng.integers(0, 2, size=(n, 6), dtype=np.uint8)
            labels = [int(rng.choice(class_leaves)) for _ in range(n)]
            index = build_index([pack_bits(row) for row in bits], list(range(n)), labels)
            k_max = n - 1
            report = evaluate(index, None, t, k_max=k_max)
            ahps, aps = [], []
            for q in range(n):
                cands = sorted(
                    (bf_hamming(bits[i], bits[q]), i) for i in range(n) if i != q
                )
                ranked = [labels[i] for _, i in cands]
                rels = [relevance(t, labels[q], lab) for lab in ranked]
                ahps.append(bf_ahp_at_k(rels, k_max))
                binary = [1 if lab == labels[q] else 0 for lab in ranked]
                if sum(binary):
                    aps.append(bf_ap(binary))
            assert report.mahp_at_k[k_max] == pytest.approx(math.fsum(ahps) / n, rel=1e-12)
            if aps:
                assert report.map == pytest.approx(math.fsum(aps) / len(aps), rel=1e-12)

    def test_map_skip_count(self, five_node_tax):
        t = five_node_tax
        a1, a2, b1 = (t.node_id(n) for n in ("a1", "a2", "b1"))
        index = build_index(
            [pack_bits([0]), pack_bits([1]), pack_bits([1])], [0, 1, 2], [a1, a2, b1]
        )
        report = evaluate(index, None, t, k_max=2)
        assert report.map_skipped_queries == 3
        assert math.isnan(report.map)


class TestEvaluateEmbeddings:
    @given(seed=st.integers(min_value=0, max_value=9999), n=st.integers(min_value=2, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_per_query_matches_bruteforce_l1_ranking(self, seed, n):
        t = MAPMINER
        class_leaves = [t.node_id(f"c{i}") for i in range(8)]
        rng = np.random.default_rng(seed)
        # grid coordinates make exact L1 ties common, so the id tie-break matters
        values = rng.integers(0, 3, size=(n, 3)) * 0.25
        ids = [int(i) for i in rng.choice(100, size=n, replace=False)]
        labels = [int(rng.choice(class_leaves)) for _ in range(n)]
        k_max = n - 1
        report = evaluate_embeddings(values, ids, labels, t, k_max=k_max, per_query=True)
        for q, (qid, ap, ahp) in enumerate(report.per_query):
            assert qid == ids[q]
            cands = sorted(
                (math.fsum(abs(values[i] - values[q])), ids[i], i) for i in range(n) if i != q
            )
            ranked = [labels[i] for _, _, i in cands]
            rels = [relevance(t, labels[q], lab) for lab in ranked]
            assert ahp == pytest.approx(bf_ahp_at_k(rels, k_max), rel=1e-12)
            binary = [1 if lab == labels[q] else 0 for lab in ranked]
            if sum(binary):
                assert ap == pytest.approx(bf_ap(binary), rel=1e-12)
            else:
                assert math.isnan(ap)

    def test_rejects_duplicate_ids(self, five_node_tax):
        t = five_node_tax
        a1 = t.node_id("a1")
        with pytest.raises(ShapeMismatch):
            evaluate_embeddings(np.zeros((3, 2)), [0, 0, 1], [a1] * 3, t, k_max=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, five_node_tax, bad):
        t = five_node_tax
        values = np.zeros((3, 2))
        values[1, 0] = bad
        with pytest.raises(NonFiniteInput):
            evaluate_embeddings(values, [0, 1, 2], [t.node_id("a1")] * 3, t, k_max=1)

    @pytest.mark.parametrize("ids, float_labels, name", [
        ([0.0, 1.5, 2.0], False, "sample ids"),  # was truncated to 1
        ([0, -5, 2], False, "sample ids"),  # was reported as query -5
        ([0, 1, 2**63], False, "sample ids"),
        ([0, 1, 2], True, "labels"),  # was truncated
    ])
    def test_rejects_ids_and_labels_an_index_rejects(self, five_node_tax, ids, float_labels, name):
        t = five_node_tax
        a1 = t.node_id("a1")
        labels = [a1 + 0.5 if float_labels else a1] * 3
        with pytest.raises(ShapeMismatch, match=f"^{name} must be integers"):
            evaluate_embeddings(np.zeros((3, 2)), ids, labels, t, k_max=1)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", ["manhattan", "hamming"])
@pytest.mark.parametrize(
    "branching, per_class", [((10, 10, 10), 2), ((20, 10, 10), 1)], ids=["L1000", "L2000"]
)
def test_eval_memory_stays_within_the_documented_bound(
    monkeypatch, workers, kind, branching, per_class
):
    # eval_1k's size (L = 1000 labels, N = 2000 items), and L = N = 2000, where an
    # L x L relevance table alone (8 L^2 bytes, 30.5 MiB) would exceed the bound;
    # K = 64, k_max = 100, with float32 embeddings as the CLI reads them.  The
    # README's bound: three blocks per thread (3 MiB) and each thread's b x L
    # relevance rows (L / N MiB together), the N x k_max HP table, and for
    # Manhattan one N x K float64 buffer per thread plus the float64 copy of the
    # embeddings
    monkeypatch.setattr(metrics_mod, "_WORKERS", workers)
    t = balanced_taxonomy(branching)
    labels = np.repeat(t.leaves(), per_class)
    n, k, k_max, n_labels = len(labels), 64, 100, len(t.leaves())
    values = np.random.default_rng(0).random((n, k), dtype=np.float32)
    bound = 3 * 2**20 + 2**20 * n_labels / n + 8 * n * k_max
    if kind == "manhattan":
        bound += (workers + 1) * 8 * n * k
        run = functools.partial(evaluate_embeddings, values, np.arange(n), labels)
    else:
        run = functools.partial(evaluate, build_index(binarize(values), np.arange(n), labels), None)
    tracemalloc.start()
    try:
        run(t, k_max)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


class TestMeanAp:
    def test_exact_matches_ranked_first(self, five_node_tax):
        t = five_node_tax
        a1, a2 = t.node_id("a1"), t.node_id("a2")
        codes = [pack_bits([0, 0]), pack_bits([0, 0]), pack_bits([1, 1]), pack_bits([1, 1])]
        index = build_index(codes, [0, 1, 2, 3], [a1, a1, a2, a2])
        report = evaluate(index, None, t, k_max=1)
        assert report.map == 1.0
        assert report.map_skipped_queries == 0

    def test_skips_queries_without_same_class(self, five_node_tax):
        t = five_node_tax
        a1, a2, b1 = (t.node_id(n) for n in ("a1", "a2", "b1"))
        codes = [pack_bits([0]), pack_bits([0]), pack_bits([1])]
        index = build_index(codes, [0, 1, 2], [a1, a1, b1])
        report = evaluate(index, None, t, k_max=1)
        assert report.map_skipped_queries == 1
        assert report.map == 1.0


class TestReportOutput:
    def test_json_and_csv_shapes(self, five_node_tax):
        t = five_node_tax
        a1, a2 = t.node_id("a1"), t.node_id("a2")
        codes = [pack_bits([0]), pack_bits([0]), pack_bits([1]), pack_bits([1])]
        index = build_index(codes, [0, 1, 2, 3], [a1, a1, a2, a2])
        report = evaluate(index, None, t, k_max=3, per_query=True)
        blob = json.dumps(report.to_json_dict())
        parsed = json.loads(blob)
        assert set(parsed) >= {"map", "mahp_at_k", "ranking", "per_query"}
        csv = report.hp_curve_csv().splitlines()
        assert csv[0] == "k,mean_hp"
        assert len(csv) == 4

    def test_embeddings_ranking_manhattan(self, five_node_tax):
        t = five_node_tax
        a1, a2 = t.node_id("a1"), t.node_id("a2")
        values = np.array([[0.1, 0.1], [0.15, 0.1], [0.9, 0.9], [0.85, 0.9]])
        report = evaluate_embeddings(values, [0, 1, 2, 3], [a1, a1, a2, a2], t, k_max=3)
        assert report.ranking == "manhattan"
        assert report.map == 1.0


# --- the blocked ranking-and-scoring kernel against the per-query oracle ---

LEAVES = WORDNET_LIKE.leaves()


def wordnet_relevance(a, b):
    return relevance(WORDNET_LIKE, a, b)


def assert_same_report(got, fields, ranking):
    want = MetricsReport(**fields, ranking=ranking)
    assert got.to_json_dict() == want.to_json_dict()
    assert got.hp_curve_csv() == want.hp_curve_csv()
    assert repr(got.per_query) == repr(want.per_query)  # nan-safe and exact


def kernel_case(seed, code_length):
    """Random ids, labels and codes, with repeated codes so distances tie.

    The pool holds each code's complement, so the largest distance, K, occurs.
    The item count is never a multiple of 3, so 3-query blocks are ragged.
    """
    rng = np.random.default_rng(seed)
    n = 3 * int(rng.integers(1, 9)) + 1 + seed % 2
    pool = rng.integers(0, 2, size=(int(rng.integers(1, n)), code_length), dtype=np.uint8)
    pool = np.concatenate([pool, 1 - pool])
    bits = pool[rng.integers(0, len(pool), n)]
    ids = rng.permutation(rng.choice(10 * n, size=n, replace=False))
    labels = rng.choice(LEAVES, size=n)
    return rng, bits, ids, labels


def hamming_dists(item_bits, query_bits):
    return lambda qi: (item_bits != query_bits[qi]).sum(axis=1)


KERNEL_CASES = [
    (seed, k, per_block)
    for seed in range(3)
    for k in (1, 63, 64, 65, 130, 254, 255)  # K + 1 needs uint16 from K = 255
    for per_block in (1, 3, None)
]


class TestBlockedScorer:
    @pytest.fixture
    def layouts(self, monkeypatch):
        """Yield once per thread count, with blocks of ``per_block`` queries (None: all)."""
        def each_layout(per_block, n_items, n_queries):
            for workers in (1, 2):
                monkeypatch.setattr(metrics_mod, "_WORKERS", workers)
                monkeypatch.setattr(
                    metrics_mod, "_BLOCK_BYTES", 8 * n_items * workers * (per_block or n_queries)
                )
                yield workers
        return each_layout

    @pytest.mark.parametrize("seed,k,per_block", KERNEL_CASES)
    def test_hamming_leave_one_out_matches_oracle(self, layouts, seed, k, per_block):
        rng, bits, ids, labels = kernel_case(seed, k)
        n = len(ids)
        index = build_index([pack_bits(row) for row in bits], ids, labels)
        for k_max in (int(rng.integers(1, n)), n - 1):  # n - 1: every candidate
            want = bf_evaluate(hamming_dists(bits, bits), ids, labels, ids, labels,
                               wordnet_relevance, k_max)
            for _ in layouts(per_block, n, n):
                got = evaluate(index, None, WORDNET_LIKE, k_max, per_query=True)
                assert_same_report(got, want, "hamming")

    @pytest.mark.parametrize("seed,k,per_block", KERNEL_CASES)
    def test_manhattan_leave_one_out_matches_oracle(self, layouts, seed, k, per_block):
        rng, bits, ids, labels = kernel_case(seed, k)
        n = len(ids)
        # grid values over repeated rows: many exact L1 ties
        values = bits * 0.5 + rng.integers(0, 2, size=bits.shape) * 0.25
        for k_max in (int(rng.integers(1, n)), n - 1):  # n - 1: every candidate
            want = bf_evaluate(lambda qi: np.abs(values - values[qi]).sum(axis=1), ids, labels,
                               ids, labels, wordnet_relevance, k_max)
            for _ in layouts(per_block, n, n):
                got = evaluate_embeddings(values, ids, labels, WORDNET_LIKE, k_max, per_query=True)
                assert_same_report(got, want, "manhattan")

    @pytest.mark.parametrize("seed,k,per_block", KERNEL_CASES)
    def test_separate_queries_present_and_absent(self, layouts, seed, k, per_block):
        rng, bits, ids, labels = kernel_case(seed, k)
        n = len(ids)
        index = build_index([pack_bits(row) for row in bits], ids, labels)
        # some query ids are in the index (with other codes and labels), some not
        present = rng.choice(ids, size=int(rng.integers(0, n)), replace=False)
        absent = 10 * n + rng.choice(50, size=int(rng.integers(1, 6)), replace=False)
        q_ids = rng.permutation(np.concatenate([present, absent]))
        q_bits = np.concatenate([bits, rng.integers(0, 2, size=(len(q_ids), k), dtype=np.uint8)])
        q_bits = q_bits[rng.integers(0, len(q_bits), len(q_ids))]
        q_labels = rng.choice(LEAVES, size=len(q_ids))
        queries = build_index([pack_bits(row) for row in q_bits], q_ids, q_labels)
        largest = n - 1 + (len(present) == 0)  # n when no query id is an item
        for k_max in (int(rng.integers(1, largest + 1)), largest):
            want = bf_evaluate(hamming_dists(bits, q_bits), ids, labels, q_ids, q_labels,
                               wordnet_relevance, k_max)
            for _ in layouts(per_block, n, len(q_ids)):
                got = evaluate(index, queries, WORDNET_LIKE, k_max, per_query=True)
                assert_same_report(got, want, "hamming")

    def test_worker_sees_the_callers_error_state(self, layouts):
        # every query's row overflows: each one is 1e308 or more from an extreme item
        values = np.repeat(np.array([1e308, -1e308, 0.0, 1e308, 0.0, -1e308, 0.0])[:, None], 2, 1)
        n = len(values)
        ids, labels = np.arange(n), np.resize(LEAVES, n)
        reports = []
        for _ in layouts(1, n, n):
            with warnings.catch_warnings(), np.errstate(over="ignore"):
                warnings.simplefilter("error")
                reports.append(
                    evaluate_embeddings(values, ids, labels, WORDNET_LIKE, n - 1, per_query=True)
                )
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                evaluate_embeddings(values, ids, labels, WORDNET_LIKE, n - 1)
        serial, threaded = reports
        assert threaded.to_json_dict() == serial.to_json_dict()
        assert threaded.hp_curve_csv() == serial.hp_curve_csv()

    @pytest.mark.parametrize("failing_thread", ["caller", "worker"])
    def test_a_failing_share_is_raised_after_the_worker_is_joined(self, monkeypatch, failing_thread):
        class ShareFailed(Exception):
            pass

        n = 6
        ids, labels = np.arange(n), np.resize(LEAVES, n)
        monkeypatch.setattr(metrics_mod, "_WORKERS", 2)
        monkeypatch.setattr(metrics_mod, "_BLOCK_BYTES", 8 * n * 2)  # 1-query blocks

        def distances(rows):
            on_caller = threading.current_thread() is threading.main_thread()
            if on_caller == (failing_thread == "caller"):
                raise ShareFailed(rows.start)
            return np.zeros((1, n))

        threads_before = threading.active_count()
        with pytest.raises(ShareFailed):
            metrics_mod._score(distances, ids, labels, ids, labels, WORDNET_LIKE, 2, False,
                               "manhattan")
        assert threading.active_count() == threads_before

    def test_one_block_starts_no_thread(self, monkeypatch, five_node_tax):
        def no_thread(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(metrics_mod, "_WORKERS", 2)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        t = five_node_tax
        a1, a2, b1 = (t.node_id(name) for name in ("a1", "a2", "b1"))
        assert hp_at_k([a1, b1, a2], a1, 2, t) == pytest.approx(2.0 / 3.0)
        assert ahp_at_k([a1, b1, a2], a1, 3, t) == pytest.approx((1.0 + 2.0 / 3.0 + 1.0) / 3.0)
        index = build_index([pack_bits([0]), pack_bits([1]), pack_bits([1])], [4, 5, 6], [a1, a2, b1])
        assert evaluate(index, None, t, k_max=2).n_queries == 3
        assert evaluate_embeddings([[0.0], [1.0], [1.0]], [4, 5, 6], [a1, a2, b1], t, 2).n_queries == 3

    def test_short_switch_interval_keeps_the_bits(self, layouts):
        rng, bits, ids, labels = kernel_case(1, 65)
        n = len(ids)
        values = bits * 0.5 + rng.integers(0, 2, size=bits.shape) * 0.25
        index = build_index([pack_bits(row) for row in bits], ids, labels)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reports = [
                (evaluate(index, None, WORDNET_LIKE, n - 1, per_query=True),
                 evaluate_embeddings(values, ids, labels, WORDNET_LIKE, n - 1, per_query=True))
                for _ in layouts(1, n, n)
            ]
        finally:
            sys.setswitchinterval(interval)
        for serial, threaded in zip(*reports):
            assert threaded.to_json_dict() == serial.to_json_dict()
            assert repr(threaded.per_query) == repr(serial.per_query)

    @pytest.mark.parametrize("seed", range(3))
    def test_overflowing_distances_match_oracle(self, seed):
        # finite values whose distances overflow to inf and tie there
        rng = np.random.default_rng(seed)
        n = 14
        values = rng.choice([-1e308, 0.0, 1e308], size=(n, 2))
        ids = rng.permutation(3 * n)[:n]
        labels = rng.choice(LEAVES, size=n)
        with np.errstate(over="ignore"):
            got = evaluate_embeddings(values, ids, labels, WORDNET_LIKE, n - 1, per_query=True)
            want = bf_evaluate(lambda qi: np.abs(values - values[qi]).sum(axis=1), ids, labels,
                               ids, labels, wordnet_relevance, n - 1)
        assert_same_report(got, want, "manhattan")

    @pytest.mark.parametrize("per_block", [1, 3, None])
    def test_manhattan_ties_match_oracle_at_every_k_max(self, layouts, per_block):
        # query 10 (at 0) ranks 20, 3, 7, 12, 1, 5, 8, 30: its hit 7 ties with non-hits at a
        # smaller and a larger id, its hits 5 and 8 tie with each other and with the non-hit 1,
        # and k_max 2, 3, 5 and 6 split a tie; 20 and 30 are alone on their leaves: no hit
        items = {12: (1.0, 1), 30: (3.0, 3), 5: (2.0, 0), 10: (0.0, 0), 1: (2.0, 1),
                 8: (2.0, 0), 3: (1.0, 1), 20: (0.5, 2), 7: (1.0, 0)}
        ids = np.array(list(items))
        values = np.array([[items[i][0], 0.0] for i in ids])
        labels = np.array([LEAVES[items[i][1]] for i in ids])
        n = len(ids)
        for k_max in range(1, n):
            want = bf_evaluate(lambda qi: np.abs(values - values[qi]).sum(axis=1), ids, labels,
                               ids, labels, wordnet_relevance, k_max)
            for _ in layouts(per_block, n, n):
                got = evaluate_embeddings(values, ids, labels, WORDNET_LIKE, k_max, per_query=True)
                assert_same_report(got, want, "manhattan")
        ap = {qid: q_ap for qid, q_ap, _ in got.per_query}
        assert ap[10] == math.fsum([1 / 3, 2 / 6, 3 / 7]) / 3  # hits at ranks 3, 6 and 7
        assert math.isnan(ap[30]) and got.map_skipped_queries == 2  # 30 and 20
        assert got.to_json_dict()["per_query"][list(ids).index(30)]["ap"] is None

    @pytest.mark.parametrize("seed", range(3))
    def test_overflowed_rows_match_oracle_in_every_layout(self, layouts, seed):
        # finite values whose distances overflow to inf and tie there, also across k_max
        rng = np.random.default_rng(seed)
        n = 14
        values = rng.choice([-1e308, 0.0, 1e308], size=(n, 2))
        ids = rng.permutation(3 * n)[:n]
        labels = rng.choice(LEAVES[:4], size=n)
        with np.errstate(over="ignore"):
            assert np.isinf(np.abs(values - values[0]).sum(axis=1)).sum() > 1
            for k_max in (1, int(rng.integers(2, n - 1)), n - 1):
                want = bf_evaluate(lambda qi: np.abs(values - values[qi]).sum(axis=1), ids, labels,
                                   ids, labels, wordnet_relevance, k_max)
                for per_block in (1, 3, None):
                    for _ in layouts(per_block, n, n):
                        got = evaluate_embeddings(values, ids, labels, WORDNET_LIKE, k_max,
                                                  per_query=True)
                        assert_same_report(got, want, "manhattan")

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), dim=st.integers(1, 3),
           workers=st.sampled_from([1, 2]), per_block=st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_grid_embeddings_match_oracle_and_the_integer_sort(self, seed, n, dim, workers,
                                                               per_block):
        # quarter-grid values: exact L1 ties everywhere; in quarters the same distances are
        # integers, which take the full stable sort
        rng = np.random.default_rng(seed)
        quarters = rng.integers(0, 3, size=(n, dim))
        values = quarters * 0.25
        ids = rng.permutation(3 * n)[:n]
        labels = rng.choice(LEAVES[:3], size=n)
        k_max = int(rng.integers(1, n))
        want = bf_evaluate(lambda qi: np.abs(values - values[qi]).sum(axis=1), ids, labels,
                           ids, labels, wordnet_relevance, k_max)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics_mod, "_WORKERS", workers)
            mp.setattr(metrics_mod, "_BLOCK_BYTES", 8 * n * workers * per_block)
            got = evaluate_embeddings(values, ids, labels, WORDNET_LIKE, k_max, per_query=True)
            integer = metrics_mod._score(
                lambda rows: np.abs(quarters[rows, None] - quarters[None]).sum(axis=2),
                ids, labels, ids, labels, WORDNET_LIKE, k_max, True, "manhattan",
            )
        assert_same_report(got, want, "manhattan")
        assert_same_report(integer, want, "manhattan")

    def test_absent_query_ranks_every_item(self, five_node_tax):
        t = five_node_tax
        a1, a2, b1 = (t.node_id(n) for n in ("a1", "a2", "b1"))
        index = build_index([pack_bits([0]), pack_bits([1]), pack_bits([1])], [4, 5, 6], [a1, a2, b1])
        queries = build_index([pack_bits([1])], [9], [a1])
        report = evaluate(index, queries, t, k_max=3, per_query=True)
        assert report.per_query[0][1] == pytest.approx(1.0 / 3.0)  # a1 ranks last


def lexsort_ranking(dists, ids, exclude_id):
    order = np.lexsort((ids, dists))
    return order[ids[order] != exclude_id].tolist()


class TestRankingHelpers:
    """One-query rankings: positions by (distance, id), the excluded id dropped."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), k=st.sampled_from([1, 64, 70]))
    @settings(max_examples=100, deadline=None)
    def test_hamming_ranking_matches_lexsort(self, seed, n, k):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(n, k), dtype=np.uint8)
        bits = bits[rng.integers(0, n, n)]  # repeated codes: distance ties
        ids = rng.permutation(3 * n)[:n]
        index = build_index([pack_bits(row) for row in bits], ids, np.zeros(n, dtype=np.int64))
        q_bits = rng.integers(0, 2, size=k)
        exclude = [None, int(ids[rng.integers(0, n)]), 3 * n][int(rng.integers(0, 3))]
        dists = np.array([bf_hamming(row, q_bits) for row in bits])
        words = np.array(pack_bits(q_bits).words, dtype=np.uint64)
        got = hamming_ranking(index, words, exclude_id=exclude)
        assert got.tolist() == lexsort_ranking(dists, ids, exclude)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30))
    @settings(max_examples=100, deadline=None)
    def test_manhattan_ranking_matches_lexsort(self, seed, n):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 3, size=(n, 3)) * 0.25  # grid values: exact ties
        ids = rng.permutation(3 * n)[:n]
        q = rng.integers(0, 3, size=3) * 0.25
        exclude = [None, int(ids[rng.integers(0, n)]), 3 * n][int(rng.integers(0, 3))]
        dists = np.abs(values - q).sum(axis=1)
        got = manhattan_ranking(values, ids, q, exclude_id=exclude)
        assert got.tolist() == lexsort_ranking(dists, ids, exclude)

    def test_hamming_ranking_rejects_a_block_of_codes(self):
        index = build_index([pack_bits([0, 1]), pack_bits([1, 1])], [0, 1], [0, 0])
        with pytest.raises(LengthMismatch):
            hamming_ranking(index, index.words)
