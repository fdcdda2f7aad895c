"""Label taxonomies and hierarchy-derived semantic distances.

A taxonomy is a rooted tree over label names, read from a plain-text edge
list ("parent child" per line, ``#`` comments).  The distance between two
leaf labels is the height of their lowest common ancestor divided by the
height of the root, which yields a normalized ultrametric on the leaves.
"""
from __future__ import annotations

import os
import struct
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
    VersionMismatch,
)


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


def read_text(path: str | Path) -> str:
    """Contents of a UTF-8 text input file; ``MalformedFile`` if not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise MalformedFile(f"{path}: not UTF-8 text") from None


def write_atomic(path: str | Path, *chunks) -> None:
    """Replace ``path`` with ``chunks`` written in turn, without a partial file.

    Each chunk is text (written as UTF-8) or a bytes-like object such as a
    contiguous array, written as is without a copy.  The chunks go to a
    temporary file beside ``path`` that ``os.replace`` then renames over it,
    so an interrupted write leaves the previous file whole.  The new file has
    the default permissions, and a symlink at ``path`` is replaced, not
    written through.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):  # name the file the caller asked for
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def file_header(magic: bytes, version: int, *fields: int) -> bytes:
    """A binary file's header: ``magic``, then ``version`` and ``fields`` as little-endian u32."""
    return magic + struct.pack(f"<{1 + len(fields)}I", version, *fields)


def read_file(path: str | Path, magic: bytes, version: int, n_fields: int):
    """``(fields, take, done)`` of a file written as ``file_header(...)`` + payload.

    ``take(dtype, count)`` is the next ``count`` payload items as a read-only
    array.  A short header, another magic, a payload shorter than the takes or
    bytes left at ``done()`` raise ``MalformedFile``; another version
    ``VersionMismatch``.
    """
    raw = Path(path).read_bytes()
    offset = len(magic) + 4 * (1 + n_fields)
    if len(raw) < offset:
        raise MalformedFile(f"{path}: truncated header ({len(raw)} bytes)")
    if not raw.startswith(magic):
        raise MalformedFile(f"{path}: bad magic {raw[: len(magic)]!r}")
    found, *fields = struct.unpack_from(f"<{1 + n_fields}I", raw, len(magic))
    if found != version:
        raise VersionMismatch(f"{path}: unsupported version {found}")

    def take(dtype, count: int) -> np.ndarray:
        nonlocal offset
        dtype = np.dtype(dtype)
        end = offset + dtype.itemsize * count
        if end > len(raw):
            raise MalformedFile(f"{path}: truncated at {len(raw)} bytes, expected at least {end}")
        items = np.frombuffer(raw, dtype, count, offset)
        offset = end
        return items

    def done() -> None:
        if offset != len(raw):
            raise MalformedFile(f"{path}: expected {offset} bytes, found {len(raw)}")

    return fields, take, done


def load_taxonomy(path: str | Path) -> Taxonomy:
    return parse_taxonomy(read_text(path))


def semantic_distance(t: Taxonomy, a: int, b: int) -> float:
    """Normalized distance between two leaf labels: LCA height / root height."""
    return float(distance_matrix(t, [a, b])[0, 1])


def distance_matrix(t: Taxonomy, labels: Sequence[int]) -> np.ndarray:
    """Pairwise semantic distances for an ordered list of leaf labels.

    Built from a table of each label's ancestor at every depth (a leaf stands
    in for itself below its own depth).  Depth by depth from the root, every
    pair sharing that depth's ancestor takes its height, so the deepest shared
    ancestor, the LCA, writes last.
    """
    t._check_leaves(labels)
    ancestors = np.empty((t.height + 1, len(labels)), dtype=np.int64)
    for i, node in enumerate(labels):
        for depth in range(t.height, -1, -1):
            if depth < t._depth[node]:
                node = t._parent[node]  # type: ignore[assignment]
            ancestors[depth, i] = node
    node_height = np.asarray(t._node_height, dtype=np.float64)
    values = np.empty((len(labels), len(labels)), dtype=np.float64)
    for row in ancestors:
        np.copyto(values, node_height[row][None, :], where=row[:, None] == row[None, :])
    # a one-node tree has height 0, and every distance in it is 0
    values /= max(t.height, 1)
    return values
