"""Label taxonomies and hierarchy-derived semantic distances.

A taxonomy is a rooted tree over label names, read from a plain-text edge
list ("parent child" per line, ``#`` comments).  The distance between two
leaf labels is the height of their lowest common ancestor divided by the
height of the root, which yields a normalized ultrametric on the leaves.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import (
    CycleDetected,
    EmptyInput,
    MalformedFile,
    MultipleParents,
    MultipleRoots,
    NotALeaf,
    UnknownNode,
)
from .files import read_text


@dataclass(frozen=True)
class TaxonomyNode:
    id: int
    name: str
    parent: Optional[int]


@dataclass
class Taxonomy:
    """Rooted label tree, checked and tabulated in one pass over ``nodes`` (ids 0..n-1).

    The pass reports a cycle before it counts roots.  ``root``, ``height``,
    ``order`` (the nodes breadth-first from the root, children in id order),
    ``leaf_labels`` and the depth and height tables are derived, not given.
    Immutable after construction; safe for concurrent reads.
    """

    nodes: list[TaxonomyNode]
    root: int = field(init=False)
    height: int = field(init=False)
    order: list[int] = field(init=False)
    leaf_labels: dict[str, int] = field(init=False)

    _parent: list[Optional[int]] = field(init=False, repr=False)
    _children: list[list[int]] = field(init=False, repr=False)
    _depth: list[int] = field(init=False, repr=False)
    _node_height: list[int] = field(init=False, repr=False)
    _name_to_id: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = len(self.nodes)
        if n == 0:
            raise EmptyInput("taxonomy has no nodes")
        if any(node.id != i for i, node in enumerate(self.nodes)):
            raise UnknownNode("node ids must be 0..n-1 in order")

        self._parent = [node.parent for node in self.nodes]
        self._children = [[] for _ in range(n)]
        for node in self.nodes:
            if node.parent is not None:
                if not 0 <= node.parent < n:
                    raise UnknownNode(f"parent id {node.parent} out of range")
                self._children[node.parent].append(node.id)

        # breadth-first from the parentless nodes, children in id order; the
        # loop also visits the children it appends
        roots = [i for i in range(n) if self._parent[i] is None]
        self.order = roots[:]
        self._depth = [0 if p is None else -1 for p in self._parent]
        for i in self.order:
            for c in self._children[i]:
                self._depth[c] = self._depth[i] + 1
                self.order.append(c)
        if len(self.order) < n:
            # the pass never reaches a node on a cycle or below one; walking
            # up from the smallest such id meets the cycle where a node repeats
            j, trail = self._depth.index(-1), set()
            while j not in trail:
                trail.add(j)
                j = self._parent[j]
            raise CycleDetected(f"cycle through node {self.nodes[j].name!r}")

        # without a cycle every chain ends at a parentless node, so n >= 1
        # nodes have at least one
        if len(roots) > 1:
            names = ", ".join(self.nodes[r].name for r in roots)
            raise MultipleRoots(f"multiple roots: {names}")
        self.root = roots[0]

        # height = max edge count down to a descendant leaf; reversed, the
        # order visits every node after its children
        self._node_height = [0] * n
        for i in reversed(self.order):
            if self._children[i]:
                self._node_height[i] = 1 + max(self._node_height[c] for c in self._children[i])
        self.height = self._node_height[self.root]

        self._name_to_id = {node.name: node.id for node in self.nodes}
        if len(self._name_to_id) != n:
            raise MalformedFile("duplicate node names")
        self.leaf_labels = {
            node.name: node.id for node in self.nodes if not self._children[node.id]
        }

    # --- lookups ---

    def __len__(self) -> int:
        return len(self.nodes)

    def name(self, node_id: int) -> str:
        self._check_id(node_id)
        return self.nodes[node_id].name

    def node_id(self, name: str) -> int:
        try:
            return self._name_to_id[name]
        except KeyError:
            raise UnknownNode(f"unknown node name {name!r}") from None

    def parent(self, node_id: int) -> Optional[int]:
        self._check_id(node_id)
        return self._parent[node_id]

    def depth(self, node_id: int) -> int:
        self._check_id(node_id)
        return self._depth[node_id]

    def node_height(self, node_id: int) -> int:
        self._check_id(node_id)
        return self._node_height[node_id]

    def leaves(self) -> list[int]:
        """Leaf node ids in id order."""
        return [node.id for node in self.nodes if not self._children[node.id]]

    def _check_id(self, node_id) -> None:
        if not isinstance(node_id, (int, np.integer)) or not 0 <= node_id < len(self.nodes):
            raise UnknownNode(f"unknown node id {node_id!r}")

    def _check_leaves(self, node_ids: Sequence[int]) -> None:
        """Reject unknown ids, then non-leaves, so an unknown id is reported first."""
        for node_id in node_ids:
            self._check_id(node_id)
        for node_id in node_ids:
            if self._children[node_id]:
                raise NotALeaf(f"node {self.nodes[node_id].name!r} is not a leaf")


def parse_taxonomy(text: str) -> Taxonomy:
    """Parse an edge-list taxonomy.

    Each non-comment line is "parent_name child_name"; node ids are assigned
    in first-appearance order and the root is the unique name that never
    appears as a child.
    """
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise MalformedFile(f"line {lineno}: expected 'parent child', got {raw!r}")
        edges.append((parts[0], parts[1]))
    if not edges:
        raise EmptyInput("no edges in taxonomy text")

    ids: dict[str, int] = {}
    parent_of: dict[int, int] = {}
    for parent_name, child_name in edges:
        p = ids.setdefault(parent_name, len(ids))
        c = ids.setdefault(child_name, len(ids))
        if parent_of.get(c, p) != p:
            first = list(ids)[parent_of[c]]
            raise MultipleParents(f"node {child_name!r} has parents {first!r} and {parent_name!r}")
        if p == c:
            raise CycleDetected(f"self-edge on {child_name!r}")
        parent_of[c] = p

    return Taxonomy([TaxonomyNode(i, name, parent_of.get(i)) for i, name in enumerate(ids)])


def load_taxonomy(path: str | Path) -> Taxonomy:
    return parse_taxonomy(read_text(path))


def semantic_distance(t: Taxonomy, a: int, b: int) -> float:
    """Normalized distance between two leaf labels: LCA height / root height."""
    return float(distance_matrix(t, [a, b])[0, 1])


def distance_matrix(t: Taxonomy, labels: Sequence[int]) -> np.ndarray:
    """Pairwise semantic distances for an ordered list of leaf labels."""
    t._check_leaves(labels)
    ancestors = _ancestor_table(t, labels)
    return _lca_distances(t, ancestors, ancestors)


def _ancestor_table(t: Taxonomy, labels: Sequence[int]) -> np.ndarray:
    """Each label's ancestor at every depth, (height + 1) x n.

    A leaf stands in for itself below its own depth.
    """
    ancestors = np.empty((t.height + 1, len(labels)), dtype=np.int64)
    for i, node in enumerate(labels):
        for depth in range(t.height, -1, -1):
            if depth < t._depth[node]:
                node = t._parent[node]  # type: ignore[assignment]
            ancestors[depth, i] = node
    return ancestors


def _lca_distances(t: Taxonomy, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Distances from the labels of ancestor table ``rows`` to those of ``cols``, one row per label.

    Axes between a table's depth and label axes, such as one per training step,
    are kept.  Every pair shares the root.  Depth by depth below it, every pair
    sharing that depth's ancestor takes its height, so the deepest shared
    ancestor, the LCA, writes last.
    """
    node_height = np.asarray(t._node_height, dtype=np.float64)
    values = np.full((*rows.shape[1:], cols.shape[-1]), node_height[t.root])
    for row, col in zip(rows[1:], cols[1:]):
        np.copyto(values, node_height[col][..., None, :],
                  where=row[..., :, None] == col[..., None, :])
    # a one-node tree has height 0, and every distance in it is 0
    values /= max(t.height, 1)
    return values
