from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from semhash.hierarchy import Taxonomy, parse_taxonomy
from semhash.model import EncoderParams

# root -> (A, B), A -> (a1, a2), B -> b1
FIVE_NODE_TEXT = "root A\nroot B\nA a1\nA a2\nB b1"

# 21 nodes / 20 edges, height 5 (entity..cat), hand-verified counts
WORDNET_LIKE_TEXT = """\
entity physical
entity abstract
physical organism
physical artifact
organism animal
organism plant
animal mammal
animal bird
mammal cat
mammal dog
bird sparrow
bird eagle
plant tree
plant flower
artifact instrument
artifact vehicle
instrument guitar
instrument piano
vehicle car
abstract idea
"""

# 8 leaves under 2 superclasses; leaf c{i} sits under super A for i < 4
MAPMINER_TEXT = "\n".join(
    ["root superA", "root superB"]
    + [f"super{'A' if i < 4 else 'B'} c{i}" for i in range(8)]
)


@pytest.fixture
def five_node_tax() -> Taxonomy:
    return parse_taxonomy(FIVE_NODE_TEXT)


@pytest.fixture
def wordnet_like_tax() -> Taxonomy:
    return parse_taxonomy(WORDNET_LIKE_TEXT)


@pytest.fixture
def mapminer_tax() -> Taxonomy:
    return parse_taxonomy(MAPMINER_TEXT)


def random_tree_text(rng: np.random.Generator, n_nodes: int) -> str:
    """Random tree edge list: node i's parent is uniform over 0..i-1."""
    lines = [f"n{int(rng.integers(0, i))} n{i}" for i in range(1, n_nodes)]
    return "\n".join(lines)


def random_taxonomy(seed: int, n_nodes: int) -> Taxonomy:
    return parse_taxonomy(random_tree_text(np.random.default_rng(seed), n_nodes))


# hypothesis strategy: a parent pointer per node encodes an arbitrary tree
tree_parent_lists = st.integers(min_value=2, max_value=24).flatmap(
    lambda n: st.tuples(*[st.integers(min_value=0, max_value=i) for i in range(n - 1)])
)


def taxonomy_from_parents(parents: tuple[int, ...]) -> Taxonomy:
    lines = [f"n{p} n{i + 1}" for i, p in enumerate(parents)]
    return parse_taxonomy("\n".join(lines))


def overflowing_encoder(in_dim: int, out_weights) -> EncoderParams:
    """Finite weights whose second layer overflows to two units at +inf whatever the
    input, then the K x 2 ``out_weights``."""
    out = np.asarray(out_weights, dtype=np.float64)
    layers = [(np.zeros((2, in_dim)), np.full(2, 1e300)), (np.eye(2) * 1e300, np.zeros(2))]
    return EncoderParams(layers=[*layers, (out, np.zeros(len(out)))], code_length=len(out))
