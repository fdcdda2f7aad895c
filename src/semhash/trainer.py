"""Minibatch gradient-descent training of the encoder and classifier head.

The loop is sequential and fully seeded: shuffling, initialization, and the
Beta target draws all derive from one seed, so identical configs produce
bit-identical checkpoints.  Every epoch is one shuffled pass with the ragged
final batch dropped, run in chunks of steps: each chunk draws its targets and
computes its distance blocks' label side for all of its steps at once.
"""
from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import _threads
from .data import Dataset, RngState, all_finite, beta_sample, is_int
from .errors import ConfigError, DivergedLoss, NonFiniteInput, ShapeMismatch, UnknownLabel
# train takes its label distances from the leaves' ancestor table; distance_matrix
# is imported only for perfbench/spans.py, which wraps it here
from .hierarchy import Taxonomy, _ancestor_table, _lca_distances, distance_matrix
# train runs _step_loss; total_loss is imported only for perfbench/spans.py, which wraps it here
from .losses import SimLossConfig, _cls_value, _label_side, _step_loss, total_loss
# train runs _forward and _backward; perfbench/spans.py wraps the two checked forms here
from .model import (
    ClassifierParams,
    EncoderParams,
    _backward,
    _forward,
    checkpoint_bytes,
    encoder_backward,
    encoder_forward,
    init_classifier,
    init_encoder,
)

VARIANTS = ("shrewd", "shred")
BETA_TARGET = (0.1, 0.1)  # the divergence term's Beta(alpha, beta) target
ADAM = (0.9, 0.999, 1e-8)  # Adam's beta1, beta2 and eps
# B * B * K from which a step's pairwise pass runs on two row halves: below it,
# handing half the rows to a worker thread costs more than it saves
_SPLIT_WORK = 1 << 17
# the most bytes that one of an epoch's per-step arrays (distance blocks, their
# label side, targets, logits) takes for a chunk of steps, so that training's
# memory does not grow with N * B
_CHUNK_BYTES = 1 << 18


@dataclass
class TrainConfig:
    code_length: int = 16
    hidden_sizes: tuple[int, ...] = (256, 128)
    lambda_sim: float = 1.0
    lambda1: float = 1.0
    lambda2: float = 1.0
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0
    variant: str = "shred"

    def __post_init__(self) -> None:
        # each setting has its default's type (a float setting: any real number but a
        # bool), and NaN fails every comparison below, so types are checked here first
        for f in fields(self):
            value = getattr(self, f.name)
            if type(f.default) is int and not is_int(value):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            if isinstance(f.default, float):
                if isinstance(value, bool) or not isinstance(value, numbers.Real):
                    raise ConfigError(f"{f.name} must be a real number, got {value!r}")
                if not math.isfinite(value):
                    raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.code_length < 1:
            raise ConfigError(f"code_length must be >= 1, got {self.code_length}")
        if not (isinstance(self.hidden_sizes, tuple)
                and all(is_int(h) and h >= 1 for h in self.hidden_sizes)):
            raise ConfigError(f"hidden sizes must be integers >= 1 in a tuple, got {self.hidden_sizes}")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.lambda1 < 0 or self.lambda2 < 0 or self.lambda_sim < 0:
            raise ConfigError("loss weights must be non-negative")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.variant == "shrewd" and self.lambda2 != 0:
            raise ConfigError("variant 'shrewd' requires lambda2 = 0")
        if self.variant == "shred" and self.lambda2 <= 0:
            raise ConfigError("variant 'shred' requires lambda2 > 0")


def parse_config(text: str) -> TrainConfig:
    """Parse "key = value" lines; the keys are TrainConfig's fields, typed by their defaults."""
    kinds = {f.name: type(f.default) for f in fields(TrainConfig)}
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in values:
            raise ConfigError(f"line {lineno}: repeated key {key!r}")
        kind = kinds.get(key)
        if kind is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            if kind is tuple:  # a comma list of ints, or nothing for none
                values[key] = tuple(int(v) for v in value.split(",")) if value else ()
            else:
                values[key] = kind(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: invalid value for {key}: {value!r}") from None
        if kind is float and not math.isfinite(values[key]):
            raise ConfigError(f"line {lineno}: {key} must be finite, got {value!r}")
    return TrainConfig(**values)


def format_config(cfg: TrainConfig) -> str:
    lines = []
    for key, value in asdict(cfg).items():
        if key == "hidden_sizes":
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@dataclass
class StepRecord:
    step: int
    sim: float
    kl: float
    cls: float
    total: float


@dataclass
class TrainLog:
    records: list[StepRecord] = field(default_factory=list)
    params_digest: str = ""

    def to_csv(self) -> str:
        lines = ["step,sim,kl,cls,total"]
        lines.extend(
            f"{r.step},{r.sim!r},{r.kl!r},{r.cls!r},{r.total!r}" for r in self.records
        )
        return "\n".join(lines) + "\n"


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    # adam_step's two scratch arrays, made once from m, so a step allocates nothing
    _scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._scratch = (np.empty_like(self.m), np.empty_like(self.m))

    @classmethod
    def zeros_like(cls, params: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params))


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    step_index: int,
    lr: float,
    beta1: float,
    beta2: float,
    eps: float,
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update of ``params`` and ``state`` in place; returns both."""
    if step_index < 1:
        raise ConfigError(f"step index must be >= 1, got {step_index}")
    m, v = state.m, state.v
    update, denom = state._scratch
    if not params.shape == grads.shape == m.shape == v.shape == update.shape:
        raise ShapeMismatch(f"params {params.shape}, grads {grads.shape}, m {m.shape}, v {v.shape}")
    # p -= lr * (m / c1) / (sqrt(v / c2) + eps), in that order, on the two scratch arrays
    m *= beta1
    m += np.multiply(grads, 1.0 - beta1, out=update)
    np.multiply(grads, 1.0 - beta2, out=denom)
    denom *= grads
    v *= beta2
    v += denom
    np.divide(v, 1.0 - beta2**step_index, out=denom)
    np.sqrt(denom, out=denom)
    denom += eps
    np.divide(m, 1.0 - beta1**step_index, out=update)
    update *= lr
    update /= denom
    params -= update
    return params, state


def _flatten(encoder: EncoderParams, classifier: ClassifierParams) -> list[np.ndarray]:
    flat = []
    for w, b in encoder.layers:
        flat.extend([w, b])
    flat.extend([classifier.weights, classifier.biases])
    return flat


def _unflatten(
    flat: list[np.ndarray], n_layers: int, code_length: int
) -> tuple[EncoderParams, ClassifierParams]:
    layers = [(flat[2 * i], flat[2 * i + 1]) for i in range(n_layers)]
    encoder = EncoderParams(layers=layers, code_length=code_length)
    classifier = ClassifierParams(weights=flat[2 * n_layers], biases=flat[2 * n_layers + 1])
    return encoder, classifier


def train(
    config: TrainConfig, dataset: Dataset, taxonomy: Taxonomy
) -> tuple[EncoderParams, ClassifierParams, TrainLog]:
    """Train encoder and head; deterministic given ``config.seed``.  Checks its inputs once."""
    n = dataset.n_samples
    if n < config.batch_size:
        raise ConfigError(f"dataset size {n} < batch size {config.batch_size}")
    if not all_finite(dataset.features):  # a Dataset's features can change after its check
        raise NonFiniteInput("features contain non-finite values")
    leaves = taxonomy.leaves()  # the head's classes
    class_of = {label: i for i, label in enumerate(leaves)}
    try:
        class_idx = np.array([class_of[int(l)] for l in dataset.labels], dtype=np.int64)
    except KeyError as exc:
        raise UnknownLabel(f"dataset label {exc} is not a leaf of the taxonomy") from None

    init_rng, shuffle_rng, target_rng = RngState.from_seed(config.seed).split(3)
    ancestors = _ancestor_table(taxonomy, leaves)  # (height + 1) x L: no L x L table
    encoder = init_encoder(dataset.dim, config.hidden_sizes, config.code_length, init_rng)
    classifier = init_classifier(config.code_length, len(leaves), init_rng)
    # the encoder and head become views into one buffer that Adam updates in place,
    # and their gradients views into one vector laid out like it, which every step fills
    flat = _flatten(encoder, classifier)
    buf = np.concatenate([p.ravel() for p in flat])
    grad = np.zeros_like(buf)  # at lambda2 = 0 the head's views stay zero
    ends = np.cumsum([p.size for p in flat])
    views, grads = ([vec[end - p.size : end].reshape(p.shape) for p, end in zip(flat, ends)]
                    for vec in (buf, grad))
    encoder, classifier = _unflatten(views, len(encoder.layers), config.code_length)
    layer_grads = list(zip(grads[:-2:2], grads[1:-2:2]))
    adam = AdamState.zeros_like(buf)
    sim_cfg = SimLossConfig()  # gamma, rho and the tau floor at their defaults

    log = TrainLog()
    step = 0
    bsz = config.batch_size
    epoch_rows = n - n % bsz
    weights = (config.lambda_sim, config.lambda1, config.lambda2)
    # steps per chunk: a step's widest array row is B distances, K targets or C logits
    chunk_rows = bsz * max(1, _CHUNK_BYTES // (8 * bsz * max(bsz, config.code_length, len(leaves))))
    # the pairwise pass's B x B x K sign slot, reused by every step (the ragged
    # batch is dropped, so B is fixed) and freed on return: a fresh one at each
    # step is handed back to the OS when freed and page-faulted in again
    work = np.empty((bsz, bsz, config.code_length))
    # a blow-up ends in one DivergedLoss, not in numpy warnings; halves passes this to the worker
    with _threads.pool(bsz * bsz * config.code_length >= _SPLIT_WORK) as worker, \
            np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.epochs):
            perm = shuffle_rng.generator.permutation(n)
            for first in range(0, epoch_rows, chunk_rows):
                rows = perm[first : min(first + chunk_rows, epoch_rows)].reshape(-1, bsz)
                # numpy draws Beta variates one after another from the stream, so one
                # draw per chunk equals one (bsz, K) draw per step, bit for bit
                targets = beta_sample(*BETA_TARGET, (rows.size, config.code_length), target_rng)
                ys = class_idx[rows]
                anc = ancestors[:, ys]  # (height + 1) x steps x B: each step's B x B block
                w, d_scaled = _label_side(_lca_distances(taxonomy, anc, anc), sim_cfg)
                logits = np.empty((len(ys), bsz, len(leaves)))
                values = []
                for s, y in enumerate(ys):
                    step += 1
                    # float32 rows, which _forward casts: train holds no float64 N x D copy
                    x, acts = _forward(encoder.layers, dataset.features[rows[s]])
                    if not np.isfinite(acts[-1]).all():  # parameters are finite: an overflow made a NaN
                        raise DivergedLoss(f"step {step}: embeddings became non-finite")
                    sim, kl, logits[s], cls, grad_z, head = _step_loss(
                        acts[-1], (w[s], d_scaled[s]), y, classifier,
                        targets[s * bsz : (s + 1) * bsz], weights, sim_cfg, work, worker)
                    # at lambda2 = 0 the frozen head's cls is finite with the embeddings
                    part = weights[0] * sim + weights[1] * kl
                    if not math.isfinite(part if head is None else part + weights[2] * cls):
                        if head is None:
                            cls = float(_cls_value(logits[s], y)[0])
                        raise DivergedLoss(
                            f"step {step}: non-finite total (sim={sim!r}, kl={kl!r}, cls={cls!r})")
                    _backward(encoder.layers, x, acts, grad_z, layer_grads)
                    if head is not None:
                        for view, head_grad in zip(grads[-2:], head):
                            np.copyto(view, head_grad)
                    params, adam = adam_step(buf, grad, adam, step, config.learning_rate, *ADAM)
                    if not np.isfinite(params).all():
                        raise DivergedLoss(f"step {step}: parameters became non-finite")
                    values.append((sim, kl, cls))
                if not weights[2]:  # the frozen head's values, for the whole chunk at once
                    values = [(sim, kl, cls) for (sim, kl, _), cls in
                              zip(values, _cls_value(logits, ys)[0].tolist())]
                log.records.extend(
                    StepRecord(step - len(values) + i, sim, kl, cls,
                               weights[0] * sim + weights[1] * kl + weights[2] * cls)
                    for i, (sim, kl, cls) in enumerate(values, start=1))
                del w, d_scaled, logits  # freed before the next chunk's are made

    log.params_digest = hashlib.sha256(checkpoint_bytes(encoder, classifier)).hexdigest()
    return encoder, classifier, log
