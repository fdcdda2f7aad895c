"""Synthetic hierarchical datasets, Beta target sampling, and dataset files.

Feature files are binary (magic ``SHRF``), label files are one label name
per line.  Synthetic features are drawn by a Gaussian diffusion down the
taxonomy: each node's mean is its parent's mean plus isotropic noise, so
feature-space distances correlate with semantic distances.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    InvalidShapeParam,
    NonFiniteInput,
    ShapeMismatch,
    UnknownLabel,
)
from .files import file_header, read_file, read_text, write_atomic
from .hierarchy import Taxonomy

FEATURES_MAGIC = b"SHRF"
FEATURES_VERSION = 1

# keep samples strictly inside (0, 1); clamp margin is far below any
# distance that matters downstream
_OPEN_LO = np.finfo(np.float64).tiny
_OPEN_HI = 1.0 - np.finfo(np.float64).epsneg


def is_int(value) -> bool:
    """True for an integer (Python or numpy), False for a bool, a float or anything else."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
        if not is_int(seed) or not 0 <= seed < 2**128:
            raise ConfigError(f"seed must lie in [0, 2**128) and be an integer, got {seed!r}")
        return cls(np.random.Generator(np.random.Philox(key=int(seed))))

    def split(self, n: int) -> list["RngState"]:
        bg = self.generator.bit_generator
        return [RngState(np.random.Generator(bg.jumped(i + 1))) for i in range(n)]


@dataclass
class Dataset:
    """Feature matrix with leaf-label ids."""

    features: np.ndarray  # N x D float32
    labels: np.ndarray  # N leaf node ids

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ShapeMismatch(f"features must be 2-D, got shape {self.features.shape}")
        n = self.features.shape[0]
        if n < 1:
            raise ShapeMismatch("dataset must contain at least one sample")
        if self.labels.shape != (n,):
            raise ShapeMismatch(f"{n} feature rows but {self.labels.shape[0]} labels")
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
    if not (0 < alpha < math.inf and 0 < beta < math.inf):  # NaN fails both
        raise InvalidShapeParam(f"alpha and beta must be finite and positive, got {alpha}, {beta}")
    sample = rng.generator.beta(alpha, beta, size=shape)
    return np.clip(sample, _OPEN_LO, _OPEN_HI, out=sample)


def generate_synthetic(
    t: Taxonomy,
    per_class: int,
    dim: int,
    diffusion: float,
    noise: float,
    rng: RngState,
) -> Dataset:
    """Sample a dataset whose feature geometry mirrors the taxonomy.

    The root mean is the origin; every child mean adds Gaussian(0, diffusion^2)
    offsets; each sample adds Gaussian(0, noise^2) on top of its leaf mean.
    Output has per_class rows for each leaf, grouped in leaf id order.
    """
    if per_class < 1 or dim < 1:
        raise InvalidShapeParam("per_class and dim must be >= 1")
    for name, value in (("diffusion", diffusion), ("noise", noise)):
        if not math.isfinite(value):
            raise InvalidShapeParam(f"{name} must be finite, got {value}")
    if diffusion <= 0 or noise < 0:
        raise InvalidShapeParam("diffusion must be > 0 and noise >= 0")
    leaves = t.leaves()
    # numpy cannot allocate an array of more than intp-max bytes; check the float64
    # node means, then the features at float64 width, before allocating either
    limit = np.iinfo(np.intp).max
    if 8 * len(t) * int(dim) > limit:
        raise InvalidShapeParam(f"dim {dim} is too large: the node means would exceed {limit} bytes")
    if 8 * int(per_class) * len(leaves) * int(dim) > limit:
        raise InvalidShapeParam(
            f"per_class {per_class} is too large: the features would exceed {limit} bytes"
        )

    gen = rng.generator
    means = np.zeros((len(t), dim), dtype=np.float64)
    features = np.empty((per_class * len(leaves), dim), dtype=np.float32)
    labels = np.empty(per_class * len(leaves), dtype=np.int64)
    # a finite but huge spread overflows; that is reported below by name
    with np.errstate(over="ignore", invalid="ignore"):
        # breadth-first from the root, children in id order, so draws are ordered
        for node in t.order[1:]:
            means[node] = means[t.parent(node)] + diffusion * gen.standard_normal(dim)
        for i, leaf in enumerate(leaves):
            block = slice(i * per_class, (i + 1) * per_class)
            features[block] = means[leaf] + noise * gen.standard_normal((per_class, dim))
            labels[block] = leaf
        means_overflow = not np.isfinite(means.astype(np.float32)).all()
    if means_overflow:
        raise InvalidShapeParam(f"diffusion {diffusion} overflows the float32 node means")
    if not all_finite(features):
        raise InvalidShapeParam(f"noise {noise} overflows the float32 features")
    return Dataset(features=features, labels=labels)


def write_features(path: str | Path, features: np.ndarray) -> None:
    features = np.asarray(features, dtype=np.float32)
    if features.ndim != 2 or features.shape[1] < 1:  # read_features rejects an N x 0 file
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
    names = [t.name(int(label)) for label in labels]
    write_atomic(path, "\n".join(names) + "\n")


def read_labels(path: str | Path, t: Taxonomy) -> np.ndarray:
    lines = [ln for ln in read_text(path).splitlines() if ln.strip()]
    ids = []
    for name in lines:
        name = name.strip()
        node_id = t.leaf_labels.get(name)
        if node_id is None:
            raise UnknownLabel(f"{path}: label {name!r} is not a leaf of the taxonomy")
        ids.append(node_id)
    return np.asarray(ids, dtype=np.int64)


def load_dataset(features_path: str | Path, labels_path: str | Path, t: Taxonomy) -> Dataset:
    features = read_features(features_path)
    labels = read_labels(labels_path, t)
    return Dataset(features=features, labels=labels)
