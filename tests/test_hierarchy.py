import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semhash.errors import (
    CycleDetected,
    EmptyInput,
    MalformedFile,
    MultipleParents,
    MultipleRoots,
    NotALeaf,
    SemhashError,
    UnknownNode,
)
from semhash.hierarchy import (
    Taxonomy,
    TaxonomyNode,
    _ancestor_table,
    _lca_distances,
    distance_matrix,
    parse_taxonomy,
    semantic_distance,
)
from semhash.metrics import relevance

from conftest import random_taxonomy, taxonomy_from_parents, tree_parent_lists
from oracles import bf_lca, bf_parse_taxonomy, serialize_taxonomy


class TestParse:
    def test_small_tree(self):
        t = parse_taxonomy("root a\nroot b\na a1\na a2")
        assert len(t) == 5
        assert t.name(t.root) == "root"
        assert t.height == 2
        assert set(t.leaf_labels) == {"b", "a1", "a2"}

    def test_two_node_cycle(self):
        with pytest.raises(CycleDetected):
            parse_taxonomy("a b\nb a")

    def test_self_edge(self):
        with pytest.raises(CycleDetected):
            parse_taxonomy("a a")

    def test_longer_cycle_with_root_present(self):
        with pytest.raises(CycleDetected):
            parse_taxonomy("root x\na b\nb c\nc a")

    @pytest.mark.parametrize("text, name", [
        ("root x\na b\nb c\nc a", "a"),
        ("c a\na b\nb c", "c"),
        ("t u\nc3 t\nc1 c2\nc2 c3\nc3 c1", "c3"),  # from a node below the cycle
        ("x y\ny x\nr s", "x"),  # a cycle is reported before extra roots
        ("a b\nb a\nc d\nd c", "a"),
    ])
    def test_cycle_names_the_first_node_met_twice(self, text, name):
        # walking up from the smallest id that no root reaches
        with pytest.raises(CycleDetected, match=f"^cycle through node '{name}'$"):
            parse_taxonomy(text)

    def test_cycle_walk_starts_below_the_cycle(self):
        # t (id 0) hangs off the cycle of parent links c1 -> c3 -> c2 -> c1;
        # the walk up from t meets c3 twice, not c1, the smallest id on it
        parents = {"t": 3, "c1": 3, "c2": 1, "c3": 2}
        nodes = [TaxonomyNode(i, name, p) for i, (name, p) in enumerate(parents.items())]
        with pytest.raises(CycleDetected, match="^cycle through node 'c3'$"):
            Taxonomy(nodes)

    def test_order_is_breadth_first_with_children_in_id_order(self):
        t = parse_taxonomy("r z\nz y\nr a\na q\nr b\nq m\nb c")
        assert [t.name(i) for i in t.order] == ["r", "z", "a", "b", "y", "q", "c", "m"]
        assert sorted(t.order) == list(range(len(t)))

    def test_multiple_parents(self):
        with pytest.raises(MultipleParents):
            parse_taxonomy("root a\nroot b\na c\nb c")

    def test_multiple_roots(self):
        with pytest.raises(MultipleRoots):
            parse_taxonomy("a b\nc d")

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_taxonomy("# only a comment\n\n")

    def test_malformed_line(self):
        with pytest.raises(MalformedFile):
            parse_taxonomy("a b c")

    def test_comments_and_blanks_ignored(self):
        t = parse_taxonomy("# top\nroot a\n\n  # mid\nroot b\n")
        assert len(t) == 3

    def test_wordnet_like_fixture(self, wordnet_like_tax):
        assert len(wordnet_like_tax) == 21
        assert wordnet_like_tax.height == 5
        assert wordnet_like_tax.name(wordnet_like_tax.root) == "entity"

    def test_first_appearance_ids(self):
        t = parse_taxonomy("b c\na b")
        assert [n.name for n in t.nodes] == ["b", "c", "a"]
        assert t.name(t.root) == "a"


def _lca_distance(t, node):
    """Distance of a leaf pair whose lowest common ancestor is ``node``."""
    return t.node_height(node) / max(t.height, 1)


class TestLca:
    """The LCA that distance_matrix finds, read back through its height."""

    def test_identity(self, five_node_tax, wordnet_like_tax):
        for t in (five_node_tax, wordnet_like_tax):
            for leaf in t.leaves():
                v = distance_matrix(t, [leaf, leaf])
                np.testing.assert_array_equal(v, np.full((2, 2), _lca_distance(t, leaf)))

    def test_five_node_cases(self, five_node_tax):
        t = five_node_tax
        a1, a2, b1 = (t.node_id(n) for n in ("a1", "a2", "b1"))
        v = distance_matrix(t, [a1, a2, b1])
        assert v[0, 1] == v[1, 0] == _lca_distance(t, t.node_id("A"))
        assert v[0, 2] == v[2, 1] == _lca_distance(t, t.node_id("root"))

    @given(tree_parent_lists)
    @settings(max_examples=60, deadline=None)
    def test_matches_ancestor_set_oracle(self, parents):
        t = taxonomy_from_parents(parents)
        parent_of = {n.id: n.parent for n in t.nodes}
        depth_of = {n.id: t.depth(n.id) for n in t.nodes}
        rng = np.random.default_rng(len(parents))
        leaves = t.leaves()
        for _ in range(10):
            a, b = (int(x) for x in rng.choice(leaves, 2))
            expected = _lca_distance(t, bf_lca(parent_of, depth_of, a, b))
            assert semantic_distance(t, a, b) == expected
            assert distance_matrix(t, [b, a])[0, 1] == expected


class TestSemanticDistance:
    def test_zero_on_self(self, five_node_tax):
        t = five_node_tax
        assert semantic_distance(t, t.node_id("a1"), t.node_id("a1")) == 0.0

    def test_five_node_values(self, five_node_tax):
        t = five_node_tax
        a1, a2, b1 = (t.node_id(n) for n in ("a1", "a2", "b1"))
        assert semantic_distance(t, a1, a2) == 0.5
        assert semantic_distance(t, a1, b1) == 1.0

    def test_cat_dog_closer_than_cat_guitar(self, wordnet_like_tax):
        t = wordnet_like_tax
        cat, dog, guitar = (t.node_id(n) for n in ("cat", "dog", "guitar"))
        assert semantic_distance(t, cat, dog) < semantic_distance(t, cat, guitar)

    def test_non_leaf_rejected(self, five_node_tax):
        t = five_node_tax
        with pytest.raises(NotALeaf):
            semantic_distance(t, t.node_id("A"), t.node_id("a1"))

    @pytest.mark.parametrize("bad", [99, -1, 1.5, "a", None])
    def test_unknown_ids_rejected(self, five_node_tax, bad):
        t = five_node_tax
        a1 = t.node_id("a1")
        for call in (
            lambda: semantic_distance(t, a1, bad),
            lambda: semantic_distance(t, bad, a1),
            lambda: relevance(t, a1, bad),
            lambda: relevance(t, bad, a1),
            lambda: distance_matrix(t, [a1, bad]),
            lambda: distance_matrix(t, [bad]),
        ):
            with pytest.raises(UnknownNode):
                call()

    def test_unknown_id_reported_before_non_leaf(self, five_node_tax):
        t = five_node_tax
        root, a, a1 = t.node_id("root"), t.node_id("A"), t.node_id("a1")
        for call in (
            lambda: semantic_distance(t, root, 99),
            lambda: relevance(t, a, 99),
            lambda: distance_matrix(t, [a1, a, 99]),
        ):
            with pytest.raises(UnknownNode):
                call()


class TestDistanceMatrix:
    def test_single_label(self, five_node_tax):
        t = five_node_tax
        m = distance_matrix(t, [t.node_id("a1")])
        assert m.dtype == np.float64 and m.shape == (1, 1)
        assert m[0, 0] == 0.0

    def test_three_leaf_fixture(self, five_node_tax):
        t = five_node_tax
        labels = [t.node_id(n) for n in ("a1", "a2", "b1")]
        expected = np.array([[0, 0.5, 1], [0.5, 0, 1], [1, 1, 0]])
        np.testing.assert_array_equal(distance_matrix(t, labels), expected)

    def test_ultrametric_on_random_16_leaf_tree(self):
        t = random_taxonomy(seed=5, n_nodes=40)
        leaves = t.leaves()[:16]
        v = distance_matrix(t, leaves)
        n = len(leaves)
        for i, j, k in itertools.product(range(n), repeat=3):
            assert v[i, k] <= max(v[i, j], v[j, k]) + 1e-12

    def test_non_leaf_label_rejected(self, five_node_tax):
        with pytest.raises(NotALeaf):
            distance_matrix(five_node_tax, [five_node_tax.node_id("A")])


@given(tree_parent_lists)
@settings(max_examples=60, deadline=None)
def test_distance_properties_on_random_trees(parents):
    t = taxonomy_from_parents(parents)
    leaves = t.leaves()
    v = distance_matrix(t, leaves)
    assert np.all(np.diag(v) == 0.0)
    np.testing.assert_array_equal(v, v.T)
    assert np.all((v >= 0.0) & (v <= 1.0))
    n = len(leaves)
    for i, j, k in itertools.combinations(range(n), 3) if n >= 3 else []:
        assert v[i, k] <= max(v[i, j], v[j, k]) + 1e-12


@given(tree_parent_lists, st.data())
@settings(max_examples=60, deadline=None)
def test_distance_matrix_matches_pairwise_and_oracle(parents, data):
    t = taxonomy_from_parents(parents)
    # repeated labels, in any order, from leaves at whatever depths the tree has
    labels = data.draw(st.lists(st.sampled_from(t.leaves()), min_size=1, max_size=12))
    v = distance_matrix(t, labels)
    parent_of = [t.parent(i) for i in range(len(t))]
    depth_of = [t.depth(i) for i in range(len(t))]
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            assert v[i, j] == semantic_distance(t, a, b)
            assert v[i, j] == t.node_height(bf_lca(parent_of, depth_of, a, b)) / t.height


class TestLcaDistances:
    """The kernel on two ancestor tables, as eval runs it on a query block and all labels."""

    @staticmethod
    def check(t, rows, cols):
        v = _lca_distances(t, _ancestor_table(t, rows), _ancestor_table(t, cols))
        assert v.dtype == np.float64 and v.shape == (len(rows), len(cols))
        # the matching block of the square matrix over both lists, bit for bit
        block = distance_matrix(t, rows + cols)[: len(rows), len(rows) :]
        assert v.tobytes() == np.ascontiguousarray(block).tobytes()
        parent_of = [t.parent(i) for i in range(len(t))]
        depth_of = [t.depth(i) for i in range(len(t))]
        for i, a in enumerate(rows):
            for j, b in enumerate(cols):
                lca = bf_lca(parent_of, depth_of, a, b)
                assert v[i, j] == t.node_height(lca) / max(t.height, 1)

    @given(tree_parent_lists, st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_distance_matrix_and_oracle(self, parents, data):
        t = taxonomy_from_parents(parents)
        # two lists drawn apart: repeats, labels on one side only, leaves at any depth
        leaves = st.sampled_from(t.leaves())
        rows = data.draw(st.lists(leaves, min_size=1, max_size=8))
        cols = data.draw(st.lists(leaves, min_size=1, max_size=8))
        self.check(t, rows, cols)

    def test_wordnet_like_query_block_against_other_labels(self, wordnet_like_tax):
        t = wordnet_like_tax
        leaves = t.leaves()
        assert len({t.depth(leaf) for leaf in leaves}) > 1
        # the first half of the queries have no item of their own label
        self.check(t, leaves[: len(leaves) // 2 + 1], leaves[len(leaves) // 2 :])
        self.check(t, leaves[::-1], leaves)
        self.check(t, leaves[:1], leaves[1:])

    def test_one_node_taxonomy(self):
        t = Taxonomy([TaxonomyNode(0, "only", None)])
        assert t.height == 0
        self.check(t, [0, 0], [0, 0, 0])

    @given(tree_parent_lists, st.data())
    @settings(max_examples=60, deadline=None)
    def test_leading_axes_give_the_blocks_of_the_leaves_matrix(self, parents, data):
        # train's form: per step, the B x B block of its batch's leaves, gathered
        # from the leaves' ancestor table instead of from their L x L matrix
        t = taxonomy_from_parents(parents)
        leaves = t.leaves()
        steps, b = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))
        ys = np.array(data.draw(st.lists(st.integers(0, len(leaves) - 1),
                                         min_size=steps * b, max_size=steps * b)))
        ys = ys.reshape(steps, b)
        ancestors = _ancestor_table(t, leaves)[:, ys]
        v = _lca_distances(t, ancestors, ancestors)
        assert v.shape == (steps, b, b)
        want = distance_matrix(t, leaves)[ys[:, :, None], ys[:, None, :]]
        assert v.tobytes() == want.tobytes()


def test_distance_matrix_leaves_at_mixed_depths():
    # leaves at depths 1, 2 and 3 under one root
    t = parse_taxonomy("r x\nr y\ny y1\ny z\nz z1\nz z2")
    names = ["x", "y1", "z1", "z2", "z1"]
    v = distance_matrix(t, [t.node_id(n) for n in names])
    expected = np.array([
        [0, 1, 1, 1, 1],
        [1, 0, 2 / 3, 2 / 3, 2 / 3],
        [1, 2 / 3, 0, 1 / 3, 0],
        [1, 2 / 3, 1 / 3, 0, 1 / 3],
        [1, 2 / 3, 0, 1 / 3, 0],
    ])
    np.testing.assert_array_equal(v, expected)


@given(tree_parent_lists)
@settings(max_examples=60, deadline=None)
def test_parse_serialize_roundtrip(parents):
    t = taxonomy_from_parents(parents)
    t2 = parse_taxonomy(serialize_taxonomy(t))
    assert t2.height == t.height
    assert t2.name(t2.root) == t.name(t.root)
    assert set(t2.leaf_labels) == set(t.leaf_labels)
    by_name = {n.name: (t.nodes[n.parent].name if n.parent is not None else None) for n in t.nodes}
    by_name2 = {n.name: (t2.nodes[n.parent].name if n.parent is not None else None) for n in t2.nodes}
    assert by_name == by_name2


@st.composite
def edge_list_texts(draw):
    """Edge lists with cycles, self-edges, second parents, extra roots and stray lines."""
    kind = draw(st.sampled_from(["tree", "parent map", "random"]))
    if kind == "tree":
        # a valid tree, maybe beside a second tree and a separate cycle, plus
        # up to two arbitrary extra edges
        parents = draw(tree_parent_lists)
        names = [f"n{i}" for i in range(len(parents) + 1)] + ["x"]
        edges = [(f"n{p}", f"n{i + 1}") for i, p in enumerate(parents)]
        if draw(st.booleans()):
            edges.append(("r", "r1"))
        cycle = draw(st.integers(0, 3))
        edges += [(f"c{i}", f"c{(i + 1) % cycle}") for i in range(cycle)]
        edges += draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=2))
    elif kind == "parent map":
        # at most one parent per node, any of them or none: cycles and extra roots, often both
        k = draw(st.integers(1, 8))
        parents = draw(st.lists(st.none() | st.integers(0, k - 1), min_size=k, max_size=k))
        edges = [(f"n{p}", f"n{i}") for i, p in enumerate(parents) if p is not None]
    else:
        name = st.sampled_from("abcdefgh")
        edges = draw(st.lists(st.tuples(name, name), max_size=10))
    edges = draw(st.permutations(edges))
    lines = [f"{p} {c}" for p, c in edges]
    extras = st.tuples(st.integers(0, len(lines)), st.sampled_from(["", "# note", "  # x y", "a b c"]))
    for pos, extra in draw(st.lists(extras, max_size=1)):
        lines.insert(pos, extra)
    return "\n".join(lines)


@given(edge_list_texts())
@settings(max_examples=400, deadline=None)
def test_parse_matches_oracle(text):
    expected = bf_parse_taxonomy(text)
    try:
        t = parse_taxonomy(text)
    except SemhashError as exc:
        assert type(exc).__name__ == expected
        return
    assert not isinstance(expected, str), f"accepted, oracle says {expected}"
    root, height, leaves, depth, node_height = expected
    assert t.name(t.root) == root
    assert t.height == height
    assert set(t.leaf_labels) == leaves
    assert {node.name: t.depth(node.id) for node in t.nodes} == depth
    assert {node.name: t.node_height(node.id) for node in t.nodes} == node_height
