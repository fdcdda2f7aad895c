"""Synthetic hierarchical datasets, Beta target sampling, and dataset files.

Feature files are binary (magic ``SHRF``), label files are one label name
per line.  Synthetic features are drawn by a Gaussian diffusion down the
taxonomy: each node's mean is its parent's mean plus unit-variance isotropic
noise, so feature-space distances correlate with semantic distances.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._args import MAX_ITEMS, count, floats, integers, real
from .errors import (
    ConfigError,
    InvalidShapeParam,
    NonFiniteInput,
    ShapeMismatch,
    UnknownLabel,
)
from .files import file_header, read_file, text_blocks, write_atomic
from .hierarchy import Taxonomy

FEATURES_MAGIC = b"SHRF"
FEATURES_VERSION = 1

# keep samples strictly inside (0, 1); clamp margin is far below any
# distance that matters downstream
_OPEN_LO = np.finfo(np.float64).tiny
_OPEN_HI = 1.0 - np.finfo(np.float64).epsneg


def all_finite(values: np.ndarray) -> bool:
    """True if no entry is NaN or infinite, checked without an entry-sized temporary:
    min and max propagate NaN and +-inf.  An array without entries is finite."""
    return values.size == 0 or bool(np.isfinite(values.min()) and np.isfinite(values.max()))


@dataclass
class RngState:
    """Deterministic counter-based random stream (Philox).

    Identical seeds produce identical streams; ``split`` derives independent
    child streams (fixed 2^128 jumps apart), so parallel consumers stay
    reproducible.
    """

    generator: np.random.Generator

    @classmethod
    def from_seed(cls, seed: int) -> "RngState":
        seed = count(seed, "seed", ConfigError, 0, 2**128 - 1)
        return cls(np.random.Generator(np.random.Philox(key=seed)))

    def split(self, n: int) -> list["RngState"]:  # at most 1024 children, one jump each
        n, bg = count(n, "n", InvalidShapeParam, 1, 1024), self.generator.bit_generator
        return [RngState(np.random.Generator(bg.jumped(i + 1))) for i in range(n)]


@dataclass
class Dataset:
    """Feature matrix with leaf-label ids."""

    features: np.ndarray  # N x D float32
    labels: np.ndarray  # N leaf node ids

    def __post_init__(self) -> None:
        self.labels = integers(self.labels, "labels", ShapeMismatch, 2**63)  # node ids
        self.features = floats(self.features, "features", ShapeMismatch, 2, np.float32)
        n = self.features.shape[0]
        if n < 1:
            raise ShapeMismatch("dataset must contain at least one sample")
        if self.labels.shape != (n,):
            raise ShapeMismatch(f"{n} feature rows but labels of shape {self.labels.shape}")
        if not all_finite(self.features):
            raise NonFiniteInput("features contain non-finite values")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def beta_sample(alpha: float, beta: float, shape: tuple[int, int], rng: RngState) -> np.ndarray:
    """I.i.d. Beta(alpha, beta) draws, clamped into the open interval (0, 1)."""
    alpha, beta = (real(v, "alpha and beta", InvalidShapeParam, open_low=True) for v in (alpha, beta))
    items = MAX_ITEMS  # each size bounds the rest, so that their product fits numpy's limit
    for n in shape if isinstance(shape, tuple) else (shape,):
        items //= max(1, count(n, "a size in shape", InvalidShapeParam, 0, items))
    sample = rng.generator.beta(alpha, beta, size=shape)
    return np.clip(sample, _OPEN_LO, _OPEN_HI, out=sample)


def generate_synthetic(t: Taxonomy, per_class: int, dim: int, noise: float, rng: RngState) -> Dataset:
    """Sample a dataset whose feature geometry mirrors the taxonomy.

    The root mean is the origin; every child mean adds Gaussian(0, 1) offsets;
    each sample adds Gaussian(0, noise^2) on top of its leaf mean.
    Output has per_class rows for each leaf, grouped in leaf id order.
    """
    leaves = t.leaves()
    # the float64 node means, then the features at float64 width, fit numpy's limit
    dim = count(dim, "dim", InvalidShapeParam, 1, MAX_ITEMS // len(t))
    per_class = count(per_class, "per_class", InvalidShapeParam, 1, MAX_ITEMS // (len(leaves) * dim))
    noise = real(noise, "noise", InvalidShapeParam)

    gen = rng.generator
    means = np.zeros((len(t), dim), dtype=np.float64)
    features = np.empty((per_class * len(leaves), dim), dtype=np.float32)
    labels = np.empty(per_class * len(leaves), dtype=np.int64)
    # breadth-first from the root, children in id order, so draws are ordered
    for node in t.order[1:]:
        means[node] = means[t.parent(node)] + gen.standard_normal(dim)
    # a finite but huge noise overflows; that is reported below by name
    with np.errstate(over="ignore"):
        for i, leaf in enumerate(leaves):
            block = slice(i * per_class, (i + 1) * per_class)
            features[block] = means[leaf] + noise * gen.standard_normal((per_class, dim))
            labels[block] = leaf
    if not all_finite(features):
        raise InvalidShapeParam(f"noise {noise} overflows the float32 features")
    return Dataset(features=features, labels=labels)


def write_features(path: str | Path, features: np.ndarray) -> None:
    features = floats(features, "features", ShapeMismatch, 2, np.float32)
    if features.shape[1] < 1:  # read_features rejects an N x 0 file
        raise ShapeMismatch(f"features must be N x D with D >= 1, got shape {features.shape}")
    write_atomic(
        path,
        file_header(FEATURES_MAGIC, FEATURES_VERSION, *features.shape),
        np.ascontiguousarray(features, dtype="<f4"),
    )


def read_features(path: str | Path) -> np.ndarray:
    with read_file(path, FEATURES_MAGIC, FEATURES_VERSION, 2) as ((n, d), take):
        if d < 1:  # every row would map to the same code
            raise ShapeMismatch(f"feature dimension must be >= 1, got {d}")
        return take("<f4", n * d).reshape(n, d).astype(np.float32, copy=False)


def write_labels(path: str | Path, labels: np.ndarray, t: Taxonomy) -> None:
    ids = np.asarray(labels).tolist()
    t._check_leaves(sorted(set(ids)))  # before writing: read_labels reads only leaves
    write_atomic(path, "\n".join([t.nodes[i].name for i in ids]) + "\n")


def read_labels(path: str | Path, t: Taxonomy) -> np.ndarray:
    blocks = text_blocks(path)  # a block at a time: memory holds the ids, not the text
    names = filter(None, (name.strip() for block in blocks for name in block.splitlines()))
    try:
        return np.fromiter(map(t.leaf_labels.__getitem__, names), dtype=np.int64)
    except KeyError as exc:
        for _ in blocks:  # bad bytes after an unknown label still make a MalformedFile
            pass
        raise UnknownLabel(f"{path}: label {exc.args[0]!r} is not a leaf of the taxonomy") from None


def load_dataset(features_path: str | Path, labels_path: str | Path, t: Taxonomy) -> Dataset:
    features = read_features(features_path)
    labels = read_labels(labels_path, t)
    return Dataset(features=features, labels=labels)
