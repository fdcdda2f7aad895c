"""Training losses and their analytic gradients.

Three terms are combined:

* a similarity loss that matches batch-normalized Manhattan distances between
  embeddings to batch-normalized semantic distances between their labels,
  down-weighting distant pairs;
* a divergence loss that pulls the embedding distribution toward a bimodal
  Beta target using nearest-neighbor distance ratios, which both spreads the
  codes and pushes coordinates toward 0/1 before quantization;
* categorical cross-entropy on a linear head over the continuous embeddings.

All gradients are exact for the functions as implemented, with sign(0) = 0 at
absolute-value kinks and nearest-neighbor assignments held locally constant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._args import floats, integers, real
from .errors import BatchTooSmall, ConfigError, LabelOutOfRange, ShapeMismatch
from .model import ClassifierParams, _embedding_values, classifier_forward

_NU_EPS = 1e-12  # distance clamp before logs; keeps duplicates finite
# the most bytes of differences that the pairwise pass holds at once
_PAIR_BLOCK_BYTES = 1 << 18


@dataclass
class SimLossConfig:
    gamma: float = 0.1
    rho: float = 2.0
    tau_floor: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("gamma", "rho", "tau_floor"):  # rho may be 0
            real(getattr(self, name), name, ConfigError, open_low=name != "rho")


@dataclass
class LossValue:
    """Component values plus gradients of the weighted total."""

    total: float
    sim: float
    kl: float
    cls: float
    grad_z: np.ndarray
    grad_classifier: tuple[np.ndarray, np.ndarray]


def _offdiag_mean(m: np.ndarray) -> np.ndarray:
    """The mean off-diagonal entry of each B x B block of ``m``, over any leading axes."""
    b = m.shape[-1]
    return (m.sum(axis=(-2, -1)) - m.trace(axis1=-2, axis2=-1)) / (b * (b - 1))


class _Pairs(NamedTuple):
    """One pass over a batch's pairs, shared by the similarity and divergence terms."""

    sgn: np.ndarray  # B x B x K: sign(z_i - z_j), in the work array
    manh: np.ndarray  # B x B: sum over K of |z_i - z_j|
    sq_z: np.ndarray  # B x B: sum over K of (z_i - z_j)^2
    sq_t: np.ndarray | None  # B x M: sum over K of (z_i - t_m)^2, or None without a target


def _pairwise(zv: np.ndarray, tv: np.ndarray | None, work: np.ndarray | None = None) -> _Pairs:
    """The pairwise pass of B x K embeddings ``zv`` (and an M x K target ``tv``).

    ``work`` is the float64 B x B x K array that takes the signs (``train``'s
    slot, reused by every step), or None to allocate one.  The rows are filled
    in blocks whose differences to every embedding (and target) row fit one
    scratch array of _PAIR_BLOCK_BYTES (or of one row, if a row is larger).
    Each row's sums are numpy's contiguous sums over K, so the blocks give the
    bits of one call over all rows.
    """
    b, k = zv.shape
    if work is None:
        work = np.empty((b, b, k))
    sq_t = None if tv is None else np.empty((b, tv.shape[0]))
    pairs = _Pairs(work, np.empty((b, b)), np.empty((b, b)), sq_t)
    width = b if tv is None else max(b, tv.shape[0])
    step = max(1, _PAIR_BLOCK_BYTES // (8 * width * k))
    scratch = np.empty((min(step, b), width, k))
    for start in range(0, b, step):
        block = slice(start, min(start + step, b))
        n = block.stop - start
        diff = np.subtract(zv[block, None, :], zv[None, :, :], out=scratch[:n, :b])
        np.sign(diff, out=pairs.sgn[block])
        np.abs(diff, out=diff)
        diff.sum(axis=2, out=pairs.manh[block])
        np.square(diff, out=diff)  # |d| * |d| == d * d, bit for bit
        diff.sum(axis=2, out=pairs.sq_z[block])
        if tv is not None:
            diff = np.subtract(zv[block, None, :], tv[None, :, :], out=scratch[:n, : tv.shape[0]])
            np.square(diff, out=diff)
            diff.sum(axis=2, out=pairs.sq_t[block])
    return pairs


def _sim_inputs(z, distances) -> tuple[np.ndarray, np.ndarray]:
    zv = _embedding_values(z)
    b = zv.shape[0]
    if b < 2:
        raise BatchTooSmall(f"similarity loss needs B >= 2, got {b}")
    d = floats(distances, "distance matrix", ShapeMismatch, 2)
    if d.shape != (b, b):
        raise ShapeMismatch(f"distance matrix {d.shape} != ({b}, {b})")
    return zv, d


def _kl_inputs(z, target) -> tuple[np.ndarray, np.ndarray]:
    zv = _embedding_values(z)
    tv = floats(target, "target", ShapeMismatch, 2)
    if zv.shape[0] < 2:
        raise BatchTooSmall(f"divergence loss needs B >= 2, got {zv.shape[0]}")
    if tv.shape[0] < 1:
        raise BatchTooSmall("target sample must be non-empty")
    if tv.shape[1] != zv.shape[1]:
        raise ShapeMismatch(f"target dim {tv.shape[1]} != embedding dim {zv.shape[1]}")
    return zv, tv


def sim_loss(
    z,
    distances: np.ndarray,
    cfg: SimLossConfig,
    *,
    pairs: _Pairs | None = None,
    side: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[float, np.ndarray]:
    """Distance-matching loss and its gradient w.r.t. the embeddings.

    value = mean over all ordered pairs of
    ``| manhattan(z_b, z_b') / tau_z  -  d_bb' / tau_y | * w_bb'``
    where tau_z and tau_y are the off-diagonal batch means (floored).  tau_z
    depends on the embeddings and is differentiated through.

    ``pairs`` is the pairwise pass of these embeddings, which ``total_loss``
    makes once for this term and ``kl_loss`` after checking their inputs, so
    with it ``z`` and ``distances`` must be checked float64 arrays.  Without
    it, this call checks them and makes the pass.  ``side`` is the
    ``_label_side`` of ``distances``, which ``train`` computes for a chunk of
    steps at once; with it, ``distances`` is not read.
    """
    if pairs is None:
        z, distances = _sim_inputs(z, distances)
        pairs = _pairwise(z, None)
    b = z.shape[0]
    if side is None:
        side = _label_side(distances, cfg)
    value, w, resid, raw_tau_z, tau_z = _sim_value(side, cfg, pairs)
    sgn, manh = pairs.sgn, pairs.manh
    coeff = w * np.sign(resid)
    # z_b enters pair (b, p) with sign +sgn and pair (p, b) with -sgn = +sgn^T
    grad = np.einsum("bp,bpk->bk", coeff + coeff.T, sgn) / (b * b * tau_z)
    if raw_tau_z > cfg.tau_floor:
        # tau_z moves with the embeddings unless the floor clamps it
        weighted_manh = float((coeff * manh).sum())
        # sum_p sgn[b, p] = -sum_p sgn[p, b], since sign(z_p - z_b) = -sign(z_b - z_p).
        # Sums of -1, 0 and 1 are exact in any order, and 0.0 - keeps a zero
        # sum at +0, so this is sgn.sum(axis=1) bit for bit, in one pass over
        # whole rows of sgn instead of B x K sums along its middle axis
        dtau = 2.0 * (0.0 - sgn.sum(axis=0)) / (b * (b - 1))
        grad -= (weighted_manh / (b * b * tau_z * tau_z)) * dtau
    return value, grad


def _label_side(d: np.ndarray, cfg: SimLossConfig) -> tuple[np.ndarray, np.ndarray]:
    """The similarity term's terms that depend on the labels alone, for B x B
    distance blocks ``d`` over any leading axes: each pair's weight and d / tau_y."""
    tau_y = np.maximum(_offdiag_mean(d), cfg.tau_floor)
    w = (cfg.gamma / (cfg.gamma + d)) ** cfg.rho  # 1 at distance 0, small for far pairs
    return w, d / tau_y[..., None, None]


def _sim_value(side: tuple[np.ndarray, np.ndarray], cfg: SimLossConfig, pairs: _Pairs):
    """``sim_loss``'s value, with the weights, residuals and raw and floored tau_z of its gradient."""
    w, d_scaled = side
    manh = pairs.manh
    b = manh.shape[0]
    raw_tau_z = float(_offdiag_mean(manh))
    tau_z = max(raw_tau_z, cfg.tau_floor)
    resid = manh / tau_z - d_scaled
    value = float((np.abs(resid) * w).sum()) / (b * b)
    return value, w, resid, raw_tau_z, tau_z


def kl_loss(z, target: np.ndarray, *, pairs: _Pairs | None = None) -> tuple[float, np.ndarray]:
    """Nearest-neighbor estimate of divergence from the target sample.

    For each embedding, compares the log distance to its nearest target point
    against the log distance to its nearest batch neighbor (self excluded).
    That is the Wang-Kulkarni-Verdu (2009) k-NN estimator at k = 1, divided by
    the dimension K and without its log(m/(n-1)) constant, so lambda1 absorbs
    a 1/K scale and the gradient's direction is unchanged.  Distances are
    Euclidean and clamped at 1e-12 before the logarithm, so duplicated points
    stay finite.  Neighbor assignments are treated as locally constant when
    differentiating.  ``pairs`` is the pairwise pass of these embeddings and
    this target, as ``sim_loss`` describes it; without it, this call checks
    its inputs and makes the pass.
    """
    if pairs is None:
        z, target = _kl_inputs(z, target)
        pairs = _pairwise(z, target)
    zv, tv = z, target
    b = zv.shape[0]
    value, nu_t, nn_t, nu_z, nn_z = _kl_value(pairs)

    off_t = zv - tv[nn_t]
    off_z = zv - zv[nn_z]
    grad = np.zeros_like(zv)
    # row updates stay in this order: float addition is not associative, and a
    # row takes its own terms and the neighbour terms of other rows
    for i, (nt, nz, j) in enumerate(zip(nu_t.tolist(), nu_z.tolist(), nn_z.tolist())):
        if nt > _NU_EPS:
            grad[i] += off_t[i] / (nt**2 * b)
        if math.isfinite(nz) and nz > _NU_EPS:
            push = off_z[i] / (nz**2 * b)
            grad[i] -= push
            grad[j] += push
    return value, grad


def _kl_value(pairs: _Pairs):
    """``kl_loss``'s value, with each row's nearest target and neighbour distances and indices."""
    dist_t = np.sqrt(pairs.sq_t)
    nn_t = dist_t.argmin(axis=1)
    nu_t = dist_t.min(axis=1)
    dist_z = np.sqrt(pairs.sq_z)
    np.fill_diagonal(dist_z, np.inf)
    nn_z = dist_z.argmin(axis=1)
    nu_z = dist_z.min(axis=1)
    log_ratio = np.log(np.maximum(nu_t, _NU_EPS)) - np.log(np.maximum(nu_z, _NU_EPS))
    value = float(log_ratio.sum() / dist_z.shape[0])  # log_ratio.mean(), without its wrapper
    return value, nu_t, nn_t, nu_z, nn_z


def _cls_inputs(logits, labels) -> tuple[np.ndarray, np.ndarray]:
    logits = floats(logits, "logits", ShapeMismatch, 2)
    b, c = logits.shape
    if b == 0:
        raise BatchTooSmall("classification loss needs B >= 1, got 0")
    labels = integers(labels, "labels", LabelOutOfRange, c)
    if labels.shape != (b,):
        raise ShapeMismatch(f"{b} logit rows but labels shape {labels.shape}")
    return logits, labels


def _cls_value(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``cls_loss``'s value and the log-probabilities that its gradient reads, for
    B x C logits and B labels over any leading axes (such as one per step)."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=-1))
    log_probs = shifted - log_norm[..., None]
    picked = np.take_along_axis(log_probs, labels[..., None], axis=-1)[..., 0]
    return -picked.sum(axis=-1) / labels.shape[-1], log_probs  # the mean, unwrapped


def cls_loss(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy under softmax, with max-subtraction for stability."""
    logits, labels = _cls_inputs(logits, labels)
    value, log_probs = _cls_value(logits, labels)
    b = logits.shape[0]
    grad = np.exp(log_probs)
    grad[np.arange(b), labels] -= 1.0
    grad /= b
    return float(value), grad


def _step_loss(zv, side, labels, classifier, tv, weights, cfg, head_grads, work=None):
    """The loss terms of checked float64 embeddings ``zv`` and target ``tv``, given the
    ``_label_side`` of their distance block; checks nothing of its own.

    ``weights`` is (lambda_sim, lambda1, lambda2), and a term of weight 0 computes
    only its value.  Returns (sim, kl, logits, cls, grad_z) and writes the head's gradients
    into ``head_grads``, the caller's (weights, biases) arrays; at lambda2 = 0 they stay
    untouched and cls is None: callers take it from the logits with ``_cls_value``.  The
    pairwise pass takes its signs in ``work``.
    """
    lambda_sim, lambda1, lambda2 = weights
    pairs = _pairwise(zv, tv, work)
    if lambda_sim:
        sim_v, sim_g = sim_loss(zv, None, cfg, pairs=pairs, side=side)
        grad_z = lambda_sim * sim_g
    else:
        sim_v, grad_z = _sim_value(side, cfg, pairs)[0], np.zeros_like(zv)
    if lambda1:
        kl_v, kl_g = kl_loss(zv, tv, pairs=pairs)
        grad_z += lambda1 * kl_g
    else:
        kl_v = _kl_value(pairs)[0]
    logits = classifier_forward(classifier, zv)
    if not lambda2:
        return sim_v, kl_v, logits, None, grad_z
    cls_v, grad_logits = cls_loss(logits, labels)
    grad_z += lambda2 * (grad_logits @ classifier.weights)
    grad_w, grad_b = head_grads  # in place: lambda2 * (grad_logits.T @ zv), lambda2 * column sums
    np.multiply(lambda2, np.matmul(grad_logits.T, zv, out=grad_w), out=grad_w)
    np.multiply(lambda2, grad_logits.sum(axis=0, out=grad_b), out=grad_b)
    return sim_v, kl_v, logits, cls_v, grad_z


def total_loss(
    z,
    distances: np.ndarray,
    labels: np.ndarray,
    classifier: ClassifierParams,
    target: np.ndarray,
    lambda1: float,
    lambda2: float,
    cfg: SimLossConfig,
) -> LossValue:
    """Weighted sum of the three terms with gradients of the total.

    ``grad_z`` backpropagates the classification term through the linear head;
    ``grad_classifier`` carries the lambda2-scaled head gradients.  The total
    is sim + lambda1*kl + lambda2*cls; head-only ablations run through
    ``train``'s ``lambda_sim``.  A term of weight 0 computes only its value
    (the labels are checked at any weight), so at ``lambda2=0`` the head's
    gradients are zero.  The similarity and divergence terms share one
    pairwise pass.
    """
    zv, d = _sim_inputs(z, distances)
    _, tv = _kl_inputs(zv, target)
    lambda1, lambda2 = real(lambda1, "lambda1", ConfigError), real(lambda2, "lambda2", ConfigError)
    head = (np.zeros_like(classifier.weights), np.zeros_like(classifier.biases))
    sim_v, kl_v, logits, _, grad_z = _step_loss(
        zv, _label_side(d, cfg), labels, classifier, tv, (1.0, lambda1, lambda2), cfg, head)
    cls_v = float(_cls_value(*_cls_inputs(logits, labels))[0])  # checks the labels at any weight
    return LossValue(
        total=sim_v + lambda1 * kl_v + lambda2 * cls_v,
        sim=sim_v,
        kl=kl_v,
        cls=cls_v,
        grad_z=grad_z,
        grad_classifier=head,
    )
