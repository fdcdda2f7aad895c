import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semhash.errors import KTooLarge, NoRelevantItems, NonFiniteInput, ShapeMismatch
from semhash.hashing import build_index, pack_bits
from semhash.metrics import (
    ahp_at_k,
    average_precision,
    evaluate,
    evaluate_embeddings,
    hp_at_k,
    relevance,
)

from conftest import MAPMINER_TEXT, WORDNET_LIKE_TEXT
from oracles import bf_ahp_at_k, bf_ap, bf_hamming, bf_hp_at_k
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
