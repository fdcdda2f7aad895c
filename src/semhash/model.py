"""Feed-forward encoder with hand-derived backprop, plus a linear classifier.

The encoder maps D-dimensional features to K-dimensional embeddings through
rectified hidden layers and a logistic output, so every embedding coordinate
lies strictly inside (0, 1).  Gradients are computed analytically; the
``gradient_check`` harness compares any loss's analytic gradient against
central finite differences.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ._args import MAX_ITEMS, count, finite, floats, sequence
from .data import _OPEN_HI, _OPEN_LO, RngState
from .errors import NonDeterministicLoss, ShapeMismatch, StaleCache
from .files import file_header, read_file, write_atomic

CHECKPOINT_MAGIC = b"SHRW"
CHECKPOINT_VERSION = 1
_GRAD_CHECK_STEP = 1e-5  # gradient_check moves each coordinate this far each way
_GRAD_CHECK_COORDS = 10_000  # and checks at most this many coordinates


def _check_layer(name: str, w: np.ndarray, b: np.ndarray) -> None:
    """Check a dense layer: out x in weights with both widths at least 1, out biases, all finite."""
    if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0] or 0 in w.shape:
        raise ShapeMismatch(f"{name} weights {w.shape} / biases {b.shape}")
    finite(w, name)
    finite(b, name)


@dataclass
class EncoderParams:
    """Ordered (weights, biases) pairs; weights are out x in, every width at least 1."""

    layers: list[tuple[np.ndarray, np.ndarray]]
    code_length: int

    def __post_init__(self) -> None:
        if not self.layers:
            raise ShapeMismatch("encoder needs at least one layer")
        prev_out = None
        for i, (w, b) in enumerate(self.layers):
            _check_layer(f"layer {i}", w, b)
            if prev_out is not None and w.shape[1] != prev_out:
                raise ShapeMismatch(
                    f"layer {i}: in-dim {w.shape[1]} != previous out-dim {prev_out}"
                )
            prev_out = w.shape[0]
        if prev_out != self.code_length:
            raise ShapeMismatch(
                f"final layer out-dim {prev_out} != code length {self.code_length}"
            )

    @property
    def in_dim(self) -> int:
        return self.layers[0][0].shape[1]


@dataclass
class ClassifierParams:
    """Linear head on the continuous embeddings: logits = z W^T + b, with C, K >= 1."""

    weights: np.ndarray  # C x K
    biases: np.ndarray  # C

    def __post_init__(self) -> None:
        _check_layer("classifier", self.weights, self.biases)

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def code_length(self) -> int:
        return self.weights.shape[1]


@dataclass
class EmbeddingBatch:
    """B x K embedding rows, every entry strictly inside (0, 1)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = _embedding_values(self.values)
        if self.values.shape[0] < 1:
            raise ShapeMismatch(f"embeddings must be B x K with B >= 1, got {self.values.shape}")
        if not ((self.values > 0.0) & (self.values < 1.0)).all():
            raise ShapeMismatch("embedding values must lie strictly inside (0, 1)")


def _embedding_values(z) -> np.ndarray:
    """The float64 B x K value matrix of an ``EmbeddingBatch`` or of an array-like."""
    return z.values if isinstance(z, EmbeddingBatch) else floats(z, "embeddings", ShapeMismatch, 2)


@dataclass
class ForwardCache:
    params: EncoderParams
    inputs: np.ndarray
    activations: list[np.ndarray]


def init_encoder(
    in_dim: int, hidden_sizes: Sequence[int], code_length: int, rng: RngState
) -> EncoderParams:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    layers, fan_in = [], count(in_dim, "a layer width", ShapeMismatch, 1, MAX_ITEMS)
    for fan_out in (*sequence(hidden_sizes, "hidden_sizes", ShapeMismatch), code_length):
        fan_out = count(fan_out, "a layer width", ShapeMismatch, 1, MAX_ITEMS // fan_in)
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.generator.uniform(-bound, bound, size=(fan_out, fan_in))
        layers.append((w, np.zeros(fan_out)))
        fan_in = fan_out
    return EncoderParams(layers=layers, code_length=fan_in)


def init_classifier(code_length: int, n_classes: int, rng: RngState) -> ClassifierParams:
    code_length = count(code_length, "code_length", ShapeMismatch, 1, MAX_ITEMS)
    n_classes = count(n_classes, "n_classes", ShapeMismatch, 1, MAX_ITEMS // code_length)
    bound = np.sqrt(6.0 / (code_length + n_classes))
    w = rng.generator.uniform(-bound, bound, size=(n_classes, code_length))
    return ClassifierParams(weights=w, biases=np.zeros(n_classes))


def _sigmoid(s: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-s)) for s >= 0 and exp(s) / (1 + exp(s)) below; -|s| is
    # exactly -s on the first branch and s on the second, so exp never overflows
    e = np.exp(-np.abs(s))
    out = np.where(s >= 0, 1.0, e)
    out /= 1.0 + e
    return np.clip(out, _OPEN_LO, _OPEN_HI, out=out)


def _forward(layers, x) -> tuple[np.ndarray, list[np.ndarray]]:
    """The float64 input and every layer's output, the embeddings last; checks
    nothing, and overflow follows the caller's numpy error state."""
    x = a = np.asarray(x, dtype=np.float64)
    act: list[np.ndarray] = []
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        s = a @ w.T + b
        a = _sigmoid(s) if i == last else np.maximum(s, 0.0)
        act.append(a)
    return x, act


def encoder_forward(p: EncoderParams, x: np.ndarray) -> tuple[EmbeddingBatch, ForwardCache]:
    x = finite(floats(x, "input", ShapeMismatch, 2), "input")
    if x.shape[1] != p.in_dim:
        raise ShapeMismatch(f"input dim {x.shape[1]} != encoder in-dim {p.in_dim}")
    # a saturated unit is a valid output; a NaN one fails EmbeddingBatch's check
    with np.errstate(over="ignore", invalid="ignore"):
        x, act = _forward(p.layers, x)
    return EmbeddingBatch(values=act[-1]), ForwardCache(params=p, inputs=x, activations=act)


def _backward(layers, x, activations, grad_z, out) -> list[tuple[np.ndarray, np.ndarray]]:
    """Write the gradients of sum(grad_z * z) into ``out``, one float64 (weights,
    biases) pair per layer, shaped like ``layers``, and return it; checks nothing."""
    z = activations[-1]
    delta = grad_z * z * (1.0 - z)  # logistic derivative
    for i in range(len(layers) - 1, -1, -1):
        below = x if i == 0 else activations[i - 1]
        np.matmul(delta.T, below, out=out[i][0])
        delta.sum(axis=0, out=out[i][1])
        if i > 0:
            # a ReLU output is positive exactly where its input is
            delta = (delta @ layers[i][0]) * (below > 0.0)
    return out


def encoder_backward(
    p: EncoderParams, cache: ForwardCache, grad_z: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Gradients of sum(grad_z * z) w.r.t. every encoder parameter."""
    if cache.params is not p:
        raise StaleCache("cache was produced by a different parameter set")
    grad_z = finite(floats(grad_z, "grad_z", ShapeMismatch, 2), "grad_z")
    z = cache.activations[-1]
    if grad_z.shape != z.shape:
        raise ShapeMismatch(f"grad_z shape {grad_z.shape} != output shape {z.shape}")
    out = [(np.empty(w.shape), np.empty(b.shape)) for w, b in p.layers]
    return _backward(p.layers, cache.inputs, cache.activations, grad_z, out)


def classifier_forward(c: ClassifierParams, z) -> np.ndarray:
    values = _embedding_values(z)
    if values.shape[1] != c.code_length:
        raise ShapeMismatch(
            f"embeddings {values.shape} incompatible with classifier K={c.code_length}"
        )
    return values @ c.weights.T + c.biases


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: int
    worst_coord: tuple[int, ...]
    n_checked: int
    analytic_at_worst: float
    numeric_at_worst: float


def gradient_check(
    loss_fn: Callable[[list[np.ndarray]], tuple[float, list[np.ndarray]]],
    params: list[np.ndarray],
) -> GradCheckReport:
    """Compare a loss's analytic gradient against central finite differences.

    The loss callable maps a parameter list to (value, gradient list) and must
    be deterministic.  Every coordinate is checked, or a subsample drawn from
    seed 0 when there are more than ``_GRAD_CHECK_COORDS``.  The relative error
    denominator is floored at 1e-6 so rounding noise at near-zero coordinates
    does not register as disagreement.
    """
    v1, analytic = loss_fn(params)
    v2, _ = loss_fn(params)
    if v1 != v2:
        raise NonDeterministicLoss(f"loss evaluations disagree: {v1!r} vs {v2!r}")
    if len(analytic) != len(params):
        raise ShapeMismatch("gradient list length != parameter list length")

    coords = [
        (pi, idx)
        for pi, p in enumerate(params)
        for idx in np.ndindex(*p.shape)
    ]
    if len(coords) > _GRAD_CHECK_COORDS:
        gen = RngState.from_seed(0).generator
        picks = gen.choice(len(coords), size=_GRAD_CHECK_COORDS, replace=False)
        coords = [coords[i] for i in picks]

    worst = GradCheckReport(0.0, -1, (), len(coords), 0.0, 0.0)
    for pi, idx in coords:
        original = params[pi][idx]
        params[pi][idx] = original + _GRAD_CHECK_STEP
        up, _ = loss_fn(params)
        params[pi][idx] = original - _GRAD_CHECK_STEP
        down, _ = loss_fn(params)
        params[pi][idx] = original
        numeric = (up - down) / (2.0 * _GRAD_CHECK_STEP)
        a = float(analytic[pi][idx])
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
        if rel > worst.max_rel_error:
            worst = GradCheckReport(rel, pi, idx, len(coords), a, numeric)
    return worst


# --- checkpoint file ---

def checkpoint_bytes(encoder: EncoderParams, classifier: ClassifierParams) -> bytes:
    if classifier.code_length != encoder.code_length:
        raise ShapeMismatch("classifier K != encoder K")

    def f8(a: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(a, dtype="<f8")

    fields = (encoder.in_dim, encoder.code_length, classifier.n_classes, len(encoder.layers))
    chunks = [file_header(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, *fields)]
    for w, b in encoder.layers:
        chunks += [w.shape[0].to_bytes(4, "little"), f8(w), f8(b)]
    chunks += [f8(classifier.weights), f8(classifier.biases)]
    return b"".join(chunks)


def save_checkpoint(path: str | Path, encoder: EncoderParams, classifier: ClassifierParams) -> None:
    write_atomic(path, checkpoint_bytes(encoder, classifier))


def load_checkpoint(path: str | Path) -> tuple[EncoderParams, ClassifierParams]:
    with read_file(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, 4) as (fields, take):
        in_dim, code_length, n_classes, n_layers = fields
        layers = []
        prev = in_dim
        for _ in range(n_layers):
            out_dim = int(take("<u4", 1)[0])
            w = take("<f8", out_dim * prev).reshape(out_dim, prev)
            layers.append((w.copy(), take("<f8", out_dim).copy()))
            prev = out_dim
        cw = take("<f8", n_classes * code_length).reshape(n_classes, code_length)
        cb = take("<f8", n_classes)
        encoder = EncoderParams(layers=layers, code_length=code_length)
        return encoder, ClassifierParams(weights=cw.copy(), biases=cb.copy())
