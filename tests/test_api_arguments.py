"""Every number, sequence or array argument of the public API, called with a zoo of malformed values.

Each call must return or raise a ``SemhashError`` within 2 s, with warnings as
errors: never a numpy or Python error, a warning or a hang.  The slots are
(callable, argument, kind); object arguments (a ``Taxonomy``, ``HashIndex``,
``EncoderParams``, ``ClassifierParams``, ``RngState`` or ``Dataset``) stay valid.
An array zoo goes further: a float array with a NaN or infinite entry, a list of
integers with a bool among them, and code words that no code has, must raise a
``SemhashError``.
"""
from __future__ import annotations

import os
import resource
import signal
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semhash import (
    AdamState,
    Dataset,
    EmbeddingBatch,
    HashCode,
    HashIndex,
    RngState,
    SimLossConfig,
    TrainConfig,
    adam_step,
    ahp_at_k,
    beta_sample,
    binarize,
    build_index,
    classifier_forward,
    cls_loss,
    distance_matrix,
    encoder_backward,
    encoder_forward,
    evaluate,
    evaluate_embeddings,
    generate_synthetic,
    hp_at_k,
    kl_loss,
    query_topk,
    relevance,
    semantic_distance,
    sim_loss,
    total_loss,
)
from semhash.benchmark import balanced_taxonomy
from semhash.errors import SemhashError
from semhash.hashing import hamming_to_all, index_values
from semhash.model import init_classifier, init_encoder

ZOO = [
    2.5, True, -1, 0, 2**70, float("nan"), float("inf"), np.float64(3), 1e300, np.int64(-5),
    "0.5", None, 1j, [[1, 2], [3]], np.array(["a", "b"]), object(), [True, 2],
]

TAX = balanced_taxonomy((2, 2))  # 7 nodes, 4 leaves
LEAVES = TAX.leaves()


def rng() -> RngState:
    return RngState.from_seed(0)


def z() -> np.ndarray:
    """4 x 3 embeddings inside (0, 1), far enough apart that no gradient overflows."""
    return np.array([[0.1, 0.5, 0.9], [0.8, 0.2, 0.4], [0.3, 0.7, 0.6], [0.6, 0.9, 0.1]])


def target() -> np.ndarray:
    return np.array([[0.2, 0.2, 0.8], [0.9, 0.6, 0.3], [0.4, 0.1, 0.5]])


def distances() -> np.ndarray:
    return distance_matrix(TAX, LEAVES)


def head():
    return init_classifier(3, 2, rng())


def index() -> HashIndex:
    return build_index(binarize(z()), range(4), LEAVES)


def encoder():
    return init_encoder(3, (4,), 3, rng())


def backward(grad_z):
    params = encoder()
    _, cache = encoder_forward(params, z())
    return encoder_backward(params, cache, grad_z)


def adam(step=1, lr=1e-3):
    params = np.ones(3)
    return adam_step(params, np.ones(3), AdamState.zeros_like(params), step, lr)


def total(z=z, distances=distances, labels=(0, 1, 0, 1), target=target, lambda1=1.0, lambda2=1.0):
    return total_loss(z() if callable(z) else z, distances() if callable(distances) else distances,
                      labels, head(), target() if callable(target) else target, lambda1, lambda2,
                      SimLossConfig())


# (callable, argument, kind): (a call with the value in that argument and valid others,
# a valid value of the argument, with which the call returns)
SLOTS = {
    ("RngState.from_seed", "seed", "count"): (RngState.from_seed, 2**70),
    ("RngState.split", "n", "count"): (lambda v: rng().split(v), 3),
    ("beta_sample", "alpha", "real"): (lambda v: beta_sample(v, 0.1, (2, 2), rng()), 2.5),
    ("beta_sample", "beta", "real"): (lambda v: beta_sample(0.1, v, (2, 2), rng()), 2.5),
    ("beta_sample", "shape[0]", "count"): (lambda v: beta_sample(0.1, 0.1, (v, 2), rng()), 0),
    ("beta_sample", "shape", "count"): (lambda v: beta_sample(0.1, 0.1, v, rng()), (3,)),
    ("generate_synthetic", "per_class", "count"):
        (lambda v: generate_synthetic(TAX, v, 3, 0.5, rng()), np.int64(2)),
    ("generate_synthetic", "dim", "count"): (lambda v: generate_synthetic(TAX, 2, v, 0.5, rng()), 1),
    ("generate_synthetic", "noise", "real"): (lambda v: generate_synthetic(TAX, 2, 3, v, rng()), 0),
    ("Dataset", "features", "float array"): (lambda v: Dataset(v, [LEAVES[0]]), [[1, 2]]),
    ("Dataset", "labels", "integer array"): (lambda v: Dataset(np.zeros((1, 2)), v), [5]),
    ("HashCode", "code_length", "count"): (lambda v: HashCode((0,), v), 64),
    ("HashCode", "words[0]", "count"): (lambda v: HashCode((v,), 8), 255),
    ("HashIndex", "words", "integer array"): (lambda v: HashIndex(v, [0], [0], 8), [[255]]),
    ("HashIndex", "ids", "integer array"):
        (lambda v: HashIndex(np.zeros((1, 1), np.uint64), v, [0], 8), [2**63 - 1]),
    ("HashIndex", "labels", "integer array"):
        (lambda v: HashIndex(np.zeros((1, 1), np.uint64), [0], v, 8), [2**32 - 1]),
    ("HashIndex", "code_length", "count"):
        (lambda v: HashIndex(np.zeros((1, 1), np.uint64), [0], [0], v), 64),
    ("build_index", "ids", "integer array"):
        (lambda v: build_index(binarize(z()), v, LEAVES), [7, 5, 3, 1]),
    ("build_index", "labels", "integer array"):
        (lambda v: build_index(binarize(z()), range(4), v), [0, 0, 1, 1]),
    ("binarize", "z", "float array"): (binarize, [[0.2, 0.7]]),
    ("index_values", "values", "float array"): (lambda v: index_values(v, [0]), [[0.2, 0.7]]),
    ("index_values", "labels", "integer array"): (lambda v: index_values(z(), v), range(4)),
    ("query_topk", "k", "count"): (lambda v: query_topk(index(), index().codes()[0], v), 2**70),
    ("hamming_to_all", "words", "integer array"): (lambda v: hamming_to_all(index(), v), [[5], [0]]),
    ("distance_matrix", "labels", "integer array"):
        (lambda v: distance_matrix(TAX, v), np.array(LEAVES[:2])),
    ("semantic_distance", "a", "count"):
        (lambda v: semantic_distance(TAX, v, LEAVES[0]), np.int64(LEAVES[1])),
    ("relevance", "item_label", "count"): (lambda v: relevance(TAX, LEAVES[0], v), LEAVES[1]),
    ("Taxonomy.depth", "node_id", "count"): (lambda v: TAX.depth(v), 0),
    ("SimLossConfig", "gamma", "real"): (lambda v: SimLossConfig(gamma=v), 2.5),
    ("SimLossConfig", "rho", "real"): (lambda v: SimLossConfig(rho=v), 0),
    ("SimLossConfig", "tau_floor", "real"): (lambda v: SimLossConfig(tau_floor=v), 1e300),
    ("sim_loss", "z", "float array"): (lambda v: sim_loss(v, distances(), SimLossConfig()), z()),
    ("sim_loss", "distances", "float array"): (lambda v: sim_loss(z(), v, SimLossConfig()), np.eye(4)),
    ("kl_loss", "z", "float array"): (lambda v: kl_loss(v, target()), z()),
    ("kl_loss", "target", "float array"): (lambda v: kl_loss(z(), v), [[0.5, 0.5, 0.5]]),
    ("cls_loss", "logits", "float array"): (lambda v: cls_loss(v, [0, 1]), [[1, 2], [3, 4]]),
    ("cls_loss", "labels", "integer array"): (lambda v: cls_loss(np.zeros((2, 3)), v), [2, 0]),
    ("total_loss", "z", "float array"): (lambda v: total(z=v), z()),
    ("total_loss", "distances", "float array"): (lambda v: total(distances=v), np.eye(4)),
    ("total_loss", "labels", "integer array"): (lambda v: total(labels=v), np.array([1, 1, 0, 0])),
    ("total_loss", "target", "float array"): (lambda v: total(target=v), [[0.5, 0.5, 0.5]]),
    ("total_loss", "lambda1", "real"): (lambda v: total(lambda1=v), 1e300),
    ("total_loss", "lambda2", "real"): (lambda v: total(lambda2=v), 0),
    ("hp_at_k", "ranked_labels", "integer array"):
        (lambda v: hp_at_k(v, LEAVES[0], 1, TAX), LEAVES[::-1]),
    ("hp_at_k", "query_label", "count"): (lambda v: hp_at_k(LEAVES, v, 1, TAX), np.int64(LEAVES[2])),
    ("hp_at_k", "k", "count"): (lambda v: hp_at_k(LEAVES, LEAVES[0], v, TAX), 4),
    ("ahp_at_k", "k_max", "count"): (lambda v: ahp_at_k(LEAVES, LEAVES[0], v, TAX), np.int64(2)),
    ("evaluate", "k_max", "count"): (lambda v: evaluate(index(), None, TAX, v), 3),
    ("evaluate_embeddings", "values", "float array"):
        (lambda v: evaluate_embeddings(v, range(4), LEAVES, TAX, 1), np.ones((4, 2), np.float32)),
    ("evaluate_embeddings", "ids", "integer array"):
        (lambda v: evaluate_embeddings(z(), v, LEAVES, TAX, 1), [9, 0, 4, 2]),
    ("evaluate_embeddings", "labels", "integer array"):
        (lambda v: evaluate_embeddings(z(), range(4), v, TAX, 1), LEAVES[::-1]),
    ("evaluate_embeddings", "k_max", "count"):
        (lambda v: evaluate_embeddings(z(), range(4), LEAVES, TAX, v), 3),
    ("EmbeddingBatch", "values", "float array"): (EmbeddingBatch, [[0.5]]),
    ("classifier_forward", "z", "float array"): (lambda v: classifier_forward(head(), v), z()),
    ("encoder_forward", "x", "float array"): (lambda v: encoder_forward(encoder(), v), [[1, 2, 3]]),
    ("encoder_backward", "grad_z", "float array"): (backward, np.ones((4, 3), np.float32)),
    ("init_encoder", "in_dim", "count"): (lambda v: init_encoder(v, (4,), 3, rng()), 1),
    ("init_encoder", "hidden_sizes[0]", "count"):
        (lambda v: init_encoder(3, (v,), 3, rng()), np.uint8(2)),
    ("init_encoder", "code_length", "count"): (lambda v: init_encoder(3, (4,), v, rng()), 1),
    ("init_encoder", "hidden_sizes", "sequence"): (lambda v: init_encoder(3, v, 3, rng()), [4, 2]),
    ("init_classifier", "code_length", "count"): (lambda v: init_classifier(v, 2, rng()), 1),
    ("init_classifier", "n_classes", "count"): (lambda v: init_classifier(3, v, rng()), 1),
    ("adam_step", "step_index", "count"): (lambda v: adam(step=v), 2**70),
    ("adam_step", "lr", "real"): (lambda v: adam(lr=v), 1e300),
    ("TrainConfig", "code_length", "count"): (lambda v: TrainConfig(code_length=v), 1),
    ("TrainConfig", "hidden_sizes[0]", "count"): (lambda v: TrainConfig(hidden_sizes=(v,)), 1),
    ("TrainConfig", "batch_size", "count"): (lambda v: TrainConfig(batch_size=v), 2),
    ("TrainConfig", "epochs", "count"): (lambda v: TrainConfig(epochs=v), 0),
    ("TrainConfig", "seed", "count"): (lambda v: TrainConfig(seed=v), 2**70),
    ("TrainConfig", "learning_rate", "real"): (lambda v: TrainConfig(learning_rate=v), 1e-300),
    ("TrainConfig", "lambda_sim", "real"): (lambda v: TrainConfig(lambda_sim=v), 0),
    ("TrainConfig", "lambda1", "real"): (lambda v: TrainConfig(lambda1=v), np.float64(3)),
    ("TrainConfig", "lambda2", "real"): (lambda v: TrainConfig(lambda2=v, variant="shred"), 2),
}


class CallTimedOut(Exception):
    pass


def _time_out(signum, frame):
    raise CallTimedOut("the call did not return within 2 s")


def _address_space() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[0]) * resource.getpagesize()


def call_with_value(call, value, may_return: bool = True) -> None:
    """Run ``call(value)`` with warnings as errors, a 2 s alarm and at most 1 GiB more
    address space (where /proc is there to read it); a ``SemhashError`` is a pass, and
    so is a return if ``may_return``."""
    limit = resource.getrlimit(resource.RLIMIT_AS)
    previous = signal.signal(signal.SIGALRM, _time_out)
    failure = None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if os.path.exists("/proc/self/statm"):
                resource.setrlimit(resource.RLIMIT_AS, (_address_space() + 2**30, limit[1]))
            signal.setitimer(signal.ITIMER_REAL, 2.0)
            try:
                call(value)
                failure = None if may_return else "returned without an error"
            except SemhashError:
                pass
            except Exception as exc:  # reported below, without the frames that it holds
                failure = f"raised {type(exc).__name__}: {exc}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                resource.setrlimit(resource.RLIMIT_AS, limit)
    finally:
        signal.signal(signal.SIGALRM, previous)
    if failure is not None:
        pytest.fail(f"{value!r} {failure}", pytrace=False)


def test_the_table_covers_every_kind():
    assert {kind for _, _, kind in SLOTS} == {
        "count", "real", "sequence", "integer array", "float array"}


def zoo_examples(test):
    for value in ZOO:  # every zoo value runs for every slot, besides hypothesis's draws
        test = example(value=value)(test)
    return test


@pytest.mark.parametrize("slot", list(SLOTS), ids=lambda slot: f"{slot[0]}-{slot[1]}")
@given(value=st.sampled_from(ZOO))
@zoo_examples
@settings(max_examples=20, deadline=None, database=None)
def test_a_malformed_argument_is_a_semhash_error(slot, value):
    call_with_value(SLOTS[slot][0], value)


@pytest.mark.parametrize("slot", list(SLOTS), ids=lambda slot: f"{slot[0]}-{slot[1]}")
def test_the_valid_value_of_a_slot_returns(slot):
    # so that a slot's other arguments are valid, and its zoo calls test that argument alone
    call, valid = SLOTS[slot]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(valid)


# the float arrays whose NaN or inf is let through: the training step passes its computed
# embeddings and logits through both and runs no check of them (huge finite embeddings
# overflow the logits, and cls_loss's value is then NaN)
NOT_CHECKED_FOR_NAN = {("classifier_forward", "z"), ("cls_loss", "logits")}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "slot", [slot for slot in SLOTS if slot[2] == "float array" and slot[:2] not in NOT_CHECKED_FOR_NAN],
    ids=lambda slot: f"{slot[0]}-{slot[1]}")
def test_a_non_finite_entry_of_a_float_array_is_a_semhash_error(slot, bad):
    call, valid = SLOTS[slot]
    values = np.array(valid, dtype=np.float64)
    values.flat[values.size // 2] = bad
    call_with_value(call, values, may_return=False)


def with_a_bool(valid):
    """``valid`` as nested lists with its first 0 or 1 entry a bool, or None if it has no such
    entry or only one entry (a lone bool makes a bool array, which the array rule rejects)."""
    values = np.array(valid, dtype=object)
    flat = values.ravel()
    hits = [i for i, v in enumerate(flat) if v in (0, 1)]
    if values.size < 2 or not hits:
        return None
    flat[hits[0]] = bool(flat[hits[0]])
    return flat.reshape(values.shape).tolist()


# the integer-array slots whose valid value still holds after a 0 or 1 becomes a bool,
# had numpy read the bool as that integer
BOOL_SLOTS = [slot for slot in SLOTS if slot[2] == "integer array" and with_a_bool(SLOTS[slot][1])]


@pytest.mark.parametrize("slot", BOOL_SLOTS, ids=lambda slot: f"{slot[0]}-{slot[1]}")
def test_a_bool_among_the_integers_of_an_integer_array_is_a_semhash_error(slot):
    call, valid = SLOTS[slot]
    call_with_value(call, with_a_bool(valid), may_return=False)


@pytest.mark.parametrize("words", [[2.9], [-1], ["a"], [2**64], [0b1000]],
                         ids=["fraction", "negative", "text", "2**64", "padding bit"])
def test_query_words_that_are_no_code_are_a_semhash_error(words):
    # the index's codes have K = 3 bits, so bit 3 of a word is a padding bit
    call_with_value(lambda v: hamming_to_all(index(), v), words, may_return=False)
