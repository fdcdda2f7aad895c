import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semhash
import semhash._threads as threads_mod
import semhash.trainer as trainer_mod
from oracles import bf_adam, bf_train
from test_perfbench import load_spans
from semhash.benchmark import VARIANT_CONFIGS, balanced_taxonomy
from semhash.data import RngState, beta_sample, generate_synthetic
from semhash.errors import ConfigError, DivergedLoss, NonFiniteInput, ShapeMismatch, UnknownLabel
from semhash.hierarchy import distance_matrix, parse_taxonomy
from semhash.losses import SimLossConfig, cls_loss, kl_loss, sim_loss
from semhash.model import (
    ClassifierParams,
    EncoderParams,
    checkpoint_bytes,
    classifier_forward,
    init_classifier,
    init_encoder,
)
from semhash.trainer import (
    VARIANTS,
    AdamState,
    TrainConfig,
    adam_step,
    format_config,
    parse_config,
    train,
)


class TestAdamStep:
    def test_first_step_closed_form(self):
        g = np.array([0.3, -2.0, 1e-4])
        p = np.zeros(3)
        state = AdamState.zeros_like(p)
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        new_p, _ = adam_step(p, g, state, 1, lr, b1, b2, eps)
        # bias correction makes m_hat = g and v_hat = g^2 at step one
        expected = -lr * g / (np.abs(g) + eps)
        np.testing.assert_allclose(new_p, expected, rtol=1e-12)

    def test_zero_gradient_keeps_params_and_decays_moments(self):
        p = np.array([1.0, -2.0])
        state = AdamState(m=np.array([0.5, 0.5]), v=np.array([0.25, 0.25]))
        new_p, new_state = adam_step(p, np.zeros(2), state, 3, 0.0, 0.9, 0.999, 1e-8)
        np.testing.assert_array_equal(new_p, [1.0, -2.0])  # lr 0 isolates the moment update
        np.testing.assert_allclose(new_state.m, 0.9 * 0.5)
        np.testing.assert_allclose(new_state.v, 0.999 * 0.25)
        fresh = AdamState.zeros_like(p)
        same_p, _ = adam_step(p, np.zeros(2), fresh, 1, 1e-3, 0.9, 0.999, 1e-8)
        np.testing.assert_array_equal(same_p, [1.0, -2.0])

    def test_three_step_scalar_trace_matches_hand_unroll(self):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        grads = [0.4, -0.2, 0.1]
        p = np.array([0.5])
        state = AdamState.zeros_like(p)
        for t, g in enumerate(grads, start=1):
            p, state = adam_step(p, np.array([g]), state, t, lr, b1, b2, eps)
        # independent unroll of the recurrence
        theta, m, v = 0.5, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        assert p[0] == pytest.approx(theta, rel=1e-14)

    def test_shape_mismatch(self):
        state = AdamState.zeros_like(np.zeros(2))
        with pytest.raises(ShapeMismatch):
            adam_step(np.zeros(2), np.zeros(3), state, 1, 1e-3, 0.9, 0.999, 1e-8)

    def test_step_index_below_one_rejected(self):
        p = np.ones(2)
        state = AdamState.zeros_like(p)
        for step_index in (0, -1):
            with pytest.raises(ConfigError, match="step index"):
                adam_step(p, np.ones(2), state, step_index, 1e-3, 0.9, 0.999, 1e-8)
        np.testing.assert_array_equal(p, np.ones(2))
        assert not state.m.any() and not state.v.any()

    @pytest.mark.parametrize("setting, value, message", [
        ("lr", float("nan"), "lr must be a finite real number >= 0, got nan"),  # gave NaN params
        ("lr", "x", "lr must be a finite real number >= 0, got 'x'"),  # was numpy's error
        ("step_index", 2.5, "step index must be an integer >= 1, got 2.5"),  # was taken
        ("beta1", 1.0, "beta1 must be a finite real number in [0, 1), got 1.0"),
        ("beta2", True, "beta2 must be a finite real number in [0, 1), got True"),
        ("eps", 0.0, "eps must be a finite real number > 0, got 0.0"),
    ])
    def test_a_malformed_setting_is_a_config_error_before_any_write(self, setting, value, message):
        p = np.ones(2)
        state = AdamState.zeros_like(p)
        args = {"step_index": 1, "lr": 1e-3, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8, setting: value}
        with pytest.raises(ConfigError) as caught:
            adam_step(p, np.ones(2), state, **args)
        assert str(caught.value) == message
        np.testing.assert_array_equal(p, np.ones(2))
        assert not state.m.any() and not state.v.any()

    @pytest.mark.parametrize("seed", range(6))
    def test_flat_buffer_and_per_array_match_oracle_bitwise(self, seed):
        # one concatenated vector must reproduce the per-array, fresh-array
        # recurrence bit for bit, every step, moments included
        gen = np.random.default_rng(seed)
        shapes = [tuple(gen.integers(1, 6, size=gen.integers(1, 3))) for _ in range(4)]
        hyper = (10.0 ** gen.uniform(-4, -1), gen.uniform(0.5, 0.99), gen.uniform(0.9, 0.9999),
                 10.0 ** gen.uniform(-10, -6))
        ref = [gen.normal(size=s) for s in shapes]
        ref_m = [np.zeros(s) for s in shapes]
        ref_v = [np.zeros(s) for s in shapes]
        flat = np.concatenate([p.ravel() for p in ref])
        flat_state = AdamState.zeros_like(flat)
        for t in range(1, 6):
            grads = [gen.normal(scale=10.0 ** gen.uniform(-3, 1), size=s) for s in shapes]
            ref, ref_m, ref_v = bf_adam(ref, grads, ref_m, ref_v, t, *hyper)
            adam_step(flat, np.concatenate([g.ravel() for g in grads]), flat_state, t, *hyper)
            for got, want in ((flat, ref), (flat_state.m, ref_m), (flat_state.v, ref_v)):
                np.testing.assert_array_equal(got, np.concatenate([w.ravel() for w in want]))

    def test_updates_in_place_and_returns_the_given_objects(self):
        p, g = np.array([0.5, -1.0]), np.array([0.2, 0.3])
        state = AdamState.zeros_like(p)
        m, v = state.m, state.v
        out_params, out_state = adam_step(p, g, state, 1, 1e-2, 0.9, 0.999, 1e-8)
        assert out_params is p
        assert out_state is state and out_state.m is m and out_state.v is v
        assert np.all(p != [0.5, -1.0]) and np.all(m != 0) and np.all(v != 0)

    def test_shape_mismatch_leaves_every_array_untouched(self):
        # a wrong shape in the gradient or in either moment is caught before
        # any array is written
        for bad in ("grads", "m", "v"):
            arrays = {"params": np.ones(3), "grads": np.ones(3),
                      "m": np.full(3, 0.5), "v": np.full(3, 0.25)}
            arrays[bad] = np.full(4, arrays[bad][0])
            before = {name: a.copy() for name, a in arrays.items()}
            state = AdamState(m=arrays["m"], v=arrays["v"])
            with pytest.raises(ShapeMismatch):
                adam_step(arrays["params"], arrays["grads"], state, 1, 1e-3, 0.9, 0.999, 1e-8)
            for name, a in arrays.items():
                np.testing.assert_array_equal(a, before[name])

    def test_a_step_after_the_first_allocates_no_parameter_array(self):
        # the state keeps the update's two scratch arrays, so a step at
        # benchmark_config's parameter count allocates none of its own
        gen = np.random.default_rng(0)
        params, grads = gen.normal(size=18_160), gen.normal(size=18_160)
        state = AdamState.zeros_like(params)
        adam_step(params, grads, state, 1, 1e-3, 0.9, 0.999, 1e-8)
        tracemalloc.start()
        try:
            adam_step(params, grads, state, 2, 1e-3, 0.9, 0.999, 1e-8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < params.nbytes


CONFIG_KEYS = [f.name for f in dataclasses.fields(TrainConfig)]
CONFIG_VALUES = [
    "", "0", "1", "-1", "2", "8", "1.5", "1e-3", "0.9", "1e400", "-0.0", "nan", "inf",
    "-inf", "1_000", "0x10", "9" * 5000, "shred", "shrewd", "16,8", "4,,2", "4,-1", " 3 ",
    "\u0663", "=", "#", "x",
]
# one config line: a known or arbitrary key with a tricky or arbitrary value,
# a comment, or arbitrary text
CONFIG_LINE = st.one_of(
    st.builds(
        "{} {} {}".format,
        st.sampled_from(CONFIG_KEYS) | st.text(max_size=8),
        st.sampled_from(["=", "= ", " = ", ":"]),
        st.sampled_from(CONFIG_VALUES) | st.text(max_size=12),
    ),
    st.sampled_from(["", "# comment", "   "]),
    st.text(max_size=20),
)


INT_KEYS = ["code_length", "batch_size", "epochs", "seed"]
FLOAT_KEYS = ["lambda_sim", "lambda1", "lambda2", "learning_rate"]
# settings that no caller varied: SimLossConfig's defaults and trainer's constants
REMOVED_KEYS = ["gamma", "rho", "alpha", "beta", "adam_beta1", "adam_beta2", "adam_eps",
                "tau_floor"]


def non_default(f):
    """A valid value of TrainConfig field ``f`` other than its default."""
    if isinstance(f.default, str):
        return next(v for v in VARIANTS if v != f.default)
    if isinstance(f.default, tuple):
        return f.default[:1]
    return f.default + 1 if isinstance(f.default, int) else f.default / 2


class TestConfig:
    def test_roundtrip_through_text(self):
        cfg = TrainConfig(code_length=8, hidden_sizes=(32, 16), lambda2=0.0, variant="shrewd",
                          seed=17, epochs=3)
        assert parse_config(format_config(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("code_length = 8\nbogus = 1\n")

    def test_variant_consistency_enforced(self):
        with pytest.raises(ConfigError):
            TrainConfig(variant="shrewd", lambda2=0.5)
        with pytest.raises(ConfigError):
            TrainConfig(variant="shred", lambda2=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(variant="other")

    def test_batch_size_floor(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=1)

    @pytest.mark.parametrize("hidden", [(0,), (-3,), (16, 0)])
    def test_hidden_sizes_floor(self, hidden):
        with pytest.raises(ConfigError, match="^hidden_sizes must be an integer >= 1, got "):
            TrainConfig(hidden_sizes=hidden)

    @pytest.mark.parametrize("value", ["16,,32", ",16", "16,", ",", "16, ,32"])
    def test_hidden_sizes_with_an_empty_item_is_a_config_error_naming_its_line(self, value):
        with pytest.raises(ConfigError, match="^line 2: invalid value for hidden_sizes"):
            parse_config(f"seed = 1\nhidden_sizes = {value}\n")

    @pytest.mark.parametrize("value, sizes", [("", ()), ("16", (16,)), (" 16 , 32 ", (16, 32))])
    def test_hidden_sizes_list(self, value, sizes):
        # an empty value is a linear encoder, as format_config writes it
        assert parse_config(f"hidden_sizes = {value}\n").hidden_sizes == sizes

    @given(text=st.lists(CONFIG_LINE, max_size=8).map("\n".join))
    @settings(max_examples=400, deadline=None)
    def test_fuzzed_text_gives_a_config_or_config_error(self, text):
        try:
            cfg = parse_config(text)
        except ConfigError:
            return
        assert isinstance(cfg, TrainConfig)
        assert parse_config(format_config(cfg)) == cfg

    def test_schema_is_the_field_defaults(self):
        # a key's type is its default's type: int, float, a tuple of ints or str
        kinds = {f.name: type(f.default) for f in dataclasses.fields(TrainConfig)}
        assert sorted(k for k, t in kinds.items() if t is int) == sorted(INT_KEYS)
        assert sorted(k for k, t in kinds.items() if t is float) == sorted(FLOAT_KEYS)
        assert {k: t for k, t in kinds.items() if t not in (int, float)} == {
            "hidden_sizes": tuple, "variant": str,
        }

    @pytest.mark.parametrize("f", dataclasses.fields(TrainConfig), ids=lambda f: f.name)
    def test_every_key_round_trips_a_non_default_value(self, f):
        value = non_default(f)
        cfg = TrainConfig(**{"lambda2": 0.0} if f.name == "variant" else {}, **{f.name: value})
        assert value != f.default
        parsed = parse_config(format_config(cfg))
        assert parsed == cfg
        assert type(getattr(parsed, f.name)) is type(f.default)

    @pytest.mark.parametrize("key, value", [(key, "1.5") for key in INT_KEYS] + [
        (key, "x") for key in FLOAT_KEYS
    ])
    def test_bad_number_is_a_config_error_naming_its_line(self, key, value):
        with pytest.raises(ConfigError, match=f"^line 2: .*{key}"):
            parse_config(f"# one bad value\n{key} = {value}\nseed = 1\n")

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_in_a_config_fails_the_setting_check(self, key, value):
        # a number that parses is checked once, by TrainConfig
        low = "> 0" if key == "learning_rate" else ">= 0"
        with pytest.raises(ConfigError, match=f"^{key} must be a finite real number {low}, got {value}$"):
            parse_config(f"# one bad value\n{key} = {value}\nseed = 1\n")

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_setting_is_an_unknown_key(self, key):
        with pytest.raises(ConfigError, match=f"^line 2: unknown key '{key}'$"):
            parse_config(f"seed = 1\n{key} = 0.5\n")

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_setting_is_a_config_error(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be a finite real number"):
            TrainConfig(**{key: value})

    @pytest.mark.parametrize("key", INT_KEYS)
    @pytest.mark.parametrize("value", [2.0, 2.5, True, "2"])
    def test_integer_setting_that_is_not_an_integer_is_a_config_error(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be an integer"):
            TrainConfig(**{key: value})

    @pytest.mark.parametrize("hidden", [(16.0,), (16, 2.5), (True,)])
    def test_hidden_size_that_is_not_an_integer_is_a_config_error(self, hidden):
        with pytest.raises(ConfigError, match="^hidden_sizes must be an integer >= 1, got "):
            TrainConfig(hidden_sizes=hidden)

    def test_numpy_integer_settings_are_integers(self):
        cfg = TrainConfig(seed=np.int64(3), epochs=np.uint8(2), hidden_sizes=(np.int32(8),))
        assert (cfg.seed, cfg.epochs, cfg.hidden_sizes) == (3, 2, (8,))

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    @pytest.mark.parametrize("value", [True, False, np.bool_(True), "0.1", None, [0.1], 1j])
    def test_float_setting_that_is_not_a_real_number_is_a_config_error(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be a finite real number"):
            TrainConfig(**{key: value})

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    @pytest.mark.parametrize("value", [2, np.int64(2), np.float32(0.5), np.float64(0.5)])
    def test_float_setting_takes_python_and_numpy_numbers(self, key, value):
        assert getattr(TrainConfig(**{key: value}), key) == value

    @pytest.mark.parametrize("hidden", [[8], [], range(1, 3)])
    def test_hidden_sizes_that_are_not_a_tuple_are_a_config_error(self, hidden):
        with pytest.raises(ConfigError, match="^hidden_sizes must be a tuple, got "):
            TrainConfig(hidden_sizes=hidden)


def tiny_setup(seed=0, epochs=4):
    tax = balanced_taxonomy((4, 2))  # 8 leaves
    ds = generate_synthetic(tax, per_class=8, dim=8, noise=0.3,
                            rng=RngState.from_seed(100 + seed))
    cfg = TrainConfig(
        code_length=8, hidden_sizes=(16,), batch_size=8, epochs=epochs,
        learning_rate=1e-3, seed=seed,
    )
    return tax, ds, cfg


def three_step_chunks(monkeypatch, cfg, n_classes):
    """Lower train's chunk bound to three steps' arrays: a step's widest row holds B, K or C floats."""
    width = max(cfg.batch_size, cfg.code_length, n_classes)
    monkeypatch.setattr(trainer_mod, "_CHUNK_BYTES", 3 * 8 * cfg.batch_size * width)


def poison_the_similarity_value(monkeypatch):
    """Make train's loss kernel report a NaN similarity value at every step."""
    real = trainer_mod._step_loss

    def poisoned(*args):
        _, *rest = real(*args)
        return (float("nan"), *rest)

    monkeypatch.setattr(trainer_mod, "_step_loss", poisoned)


def readme_setup():
    """The README's taxonomy and ``gen-data --per-class 50 --dim 32 --seed 7`` dataset."""
    tax = parse_taxonomy("root animal\nroot object\nanimal cat\nanimal dog\nobject car\nobject cup\n")
    ds = generate_synthetic(tax, per_class=50, dim=32, noise=0.5,
                            rng=RngState.from_seed(7))
    return tax, ds


# trains one "BxK" (batch size x code length) argument after another in one
# process; prints each run's checkpoint bytes and log.csv
_TRAIN_IN_TURN = """
import json, sys
from semhash.benchmark import balanced_taxonomy
from semhash.data import RngState, generate_synthetic
from semhash.model import checkpoint_bytes
from semhash.trainer import TrainConfig, train

tax = balanced_taxonomy((4, 2))
ds = generate_synthetic(tax, per_class=8, dim=8, noise=0.3,
                        rng=RngState.from_seed(100))
runs = []
for arg in sys.argv[1:]:
    b, k = map(int, arg.split("x"))
    cfg = TrainConfig(code_length=k, hidden_sizes=(16,), batch_size=b, epochs=3, seed=0)
    encoder, classifier, log = train(cfg, ds, tax)
    runs.append([checkpoint_bytes(encoder, classifier).hex(), log.to_csv()])
print(json.dumps(runs))
"""


def train_in_turn(*shapes: str) -> list:
    src = Path(semhash.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c", _TRAIN_IN_TURN, *shapes], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


class TestTrain:
    def test_same_seed_gives_bit_identical_checkpoints(self):
        tax, ds, cfg = tiny_setup()
        e1, c1, log1 = train(cfg, ds, tax)
        e2, c2, log2 = train(cfg, ds, tax)
        assert checkpoint_bytes(e1, c1) == checkpoint_bytes(e2, c2)
        assert log1.params_digest == log2.params_digest
        assert log1.to_csv() == log2.to_csv()

    def test_a_train_after_another_shape_gives_the_bits_of_a_fresh_process(self):
        # train's sim_loss scratch is np.empty: what an earlier train of another
        # (B, K) left in the heap must not reach a later one, in either order
        shapes = ("8x8", "64x64")
        alone = [train_in_turn(shape)[0] for shape in shapes]
        assert train_in_turn(*shapes) == alone
        assert train_in_turn(*reversed(shapes)) == alone[::-1]

    def test_loss_decreases_over_training(self):
        # mean total over the final 10 steps beats the first 10, every seed
        tax = balanced_taxonomy((4, 2))
        for seed in range(5):
            ds = generate_synthetic(tax, per_class=8, dim=8, noise=0.3,
                                    rng=RngState.from_seed(200 + seed))
            cfg = TrainConfig(code_length=8, hidden_sizes=(16,), batch_size=8,
                              epochs=50, learning_rate=1e-3, seed=seed)
            _, _, log = train(cfg, ds, tax)
            totals = [r.total for r in log.records]
            assert np.mean(totals[-10:]) < np.mean(totals[:10])

    def test_component_accounting_identity(self):
        tax, ds, cfg = tiny_setup()
        _, _, log = train(cfg, ds, tax)
        for r in log.records:
            assert r.total == r.sim + cfg.lambda1 * r.kl + cfg.lambda2 * r.cls

    def test_step_counter_and_record_count(self):
        tax, ds, cfg = tiny_setup(epochs=3)
        _, _, log = train(cfg, ds, tax)
        steps_per_epoch = ds.n_samples // cfg.batch_size
        assert [r.step for r in log.records] == list(range(1, 3 * steps_per_epoch + 1))

    def test_ragged_batch_dropped(self):
        tax = balanced_taxonomy((4, 2))
        ds = generate_synthetic(tax, per_class=9, dim=8, noise=0.3,
                                rng=RngState.from_seed(5))  # 72 samples
        cfg = TrainConfig(code_length=8, hidden_sizes=(16,), batch_size=16, epochs=1,
                          learning_rate=1e-3, seed=0)
        _, _, log = train(cfg, ds, tax)
        assert len(log.records) == 72 // 16

    def test_dataset_smaller_than_batch_rejected(self):
        tax, ds, cfg = tiny_setup()
        small = type(ds)(features=ds.features[:4], labels=ds.labels[:4])
        cfg2 = TrainConfig(**{**cfg.__dict__, "batch_size": 8})
        with pytest.raises(ConfigError):
            train(cfg2, small, tax)

    def test_label_on_internal_node_rejected(self):
        # the head's classes are the taxonomy's leaves, so a label on any
        # other node has no class
        tax, ds, cfg = tiny_setup()
        labels = ds.labels.copy()
        labels[-1] = tax.parent(int(labels[0]))
        with pytest.raises(UnknownLabel, match=f"^dataset label {labels[-1]} is not a leaf"):
            train(cfg, type(ds)(features=ds.features, labels=labels), tax)

    def test_universe_with_out_of_range_id_rejected(self):
        # the class universe is the taxonomy's leaves; an id past the last
        # node arrives as a dataset label and has no class
        tax, ds, cfg = tiny_setup()
        labels = ds.labels.copy()
        labels[3] = len(tax)
        with pytest.raises(UnknownLabel, match=f"^dataset label {len(tax)} is not a leaf"):
            train(cfg, type(ds)(features=ds.features, labels=labels), tax)

    def test_non_finite_features_are_rejected_before_the_first_step(self, monkeypatch):
        # train checks the features once, at entry, not each step's rows
        tax, ds, cfg = tiny_setup()
        ds.features[-1] = np.nan  # after the Dataset's own check
        calls = []
        real = trainer_mod._step_loss
        monkeypatch.setattr(trainer_mod, "_step_loss", lambda *a: calls.append(1) or real(*a))
        with pytest.raises(NonFiniteInput, match="non-finite"):
            train(cfg, ds, tax)
        assert calls == []

    def test_diverged_loss_aborts_with_step_info(self, monkeypatch):
        tax, ds, cfg = tiny_setup()
        poison_the_similarity_value(monkeypatch)
        with pytest.raises(DivergedLoss, match=r"^step 1: non-finite total \(sim=nan, kl=\S+, cls=\d"):
            train(cfg, ds, tax)

    def test_logged_cls_is_each_steps_cls_loss_value_across_chunks(self, monkeypatch):
        # the log takes every cls from one call per chunk; at lambda2 > 0 each is the
        # bits of cls_loss on the step's logits, as the step's loss kernel returned it
        tax, ds, cfg = tiny_setup(epochs=2)
        assert cfg.lambda2 > 0
        three_step_chunks(monkeypatch, cfg, len(tax.leaves()))  # 8 steps an epoch: 3 chunks
        returned, recomputed = [], []
        real = trainer_mod._step_loss

        def record(*args):
            sim, kl, logits, cls, grad_z = real(*args)
            returned.append(cls)
            recomputed.append(cls_loss(logits, args[2])[0])
            return sim, kl, logits, cls, grad_z

        monkeypatch.setattr(trainer_mod, "_step_loss", record)
        _, _, log = train(cfg, ds, tax)
        assert len(log.records) == 16
        logged = [r.cls.hex() for r in log.records]
        assert logged == [c.hex() for c in returned] == [c.hex() for c in recomputed]

    def test_diverged_loss_at_zero_head_weight_reports_the_steps_cls(self, monkeypatch):
        # the head's value is otherwise computed per chunk: the step that raises computes its own
        tax, ds, cfg = tiny_setup()
        cfg = dataclasses.replace(cfg, **VARIANT_CONFIGS["shrewd"])
        poison_the_similarity_value(monkeypatch)
        with pytest.raises(DivergedLoss, match=r"^step 1: non-finite total \(sim=nan, kl=\S+, cls=\d"):
            train(cfg, ds, tax)

    def test_nonfinite_params_abort(self, monkeypatch):
        tax, ds, cfg = tiny_setup()
        real = trainer_mod.adam_step

        def poisoned(params, *args, **kwargs):
            new_params, state = real(params, *args, **kwargs)
            new_params = new_params.copy()
            new_params[0] = np.inf
            return new_params, state

        monkeypatch.setattr(trainer_mod, "adam_step", poisoned)
        with pytest.raises(DivergedLoss, match="non-finite"):
            train(cfg, ds, tax)

    @pytest.mark.parametrize("hidden", [(128, 64), ()], ids=["two_hidden", "linear"])
    def test_overflow_ends_in_diverged_loss_without_warnings(self, hidden):
        # at this rate the parameters overflow within two steps: with hidden layers
        # the forward pass turns them into NaN embeddings, without them Adam makes
        # them inf; either way the run ends in DivergedLoss, and numpy warns nothing
        tax, ds = readme_setup()
        cfg = TrainConfig(code_length=8, hidden_sizes=hidden, batch_size=8, epochs=2,
                          learning_rate=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergedLoss, match=r"^step \d+: "):
                train(cfg, ds, tax)

    def test_holds_no_float64_copy_of_the_features(self):
        # each step's rows are cast by encoder_forward, so the float32 dataset is
        # the only N x D feature matrix alive, and train's own peak stays below it
        tax = balanced_taxonomy((4, 2))  # 8 leaves, 500 rows each
        ds = generate_synthetic(tax, per_class=500, dim=256, noise=0.3,
                                rng=RngState.from_seed(0))
        cfg = TrainConfig(code_length=8, hidden_sizes=(8,), batch_size=4, epochs=1)
        tracemalloc.start()
        try:
            train(cfg, ds, tax)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.features.nbytes == 4000 * 256 * 4
        assert peak < ds.features.nbytes

    def test_encoder_and_head_are_views_of_one_buffer(self, monkeypatch):
        # parameters are rebuilt once, before the loop, as views of one base
        # array that every step updates in place
        tax, ds, cfg = tiny_setup(epochs=1)
        calls = []
        real = trainer_mod._unflatten
        monkeypatch.setattr(trainer_mod, "_unflatten", lambda *a: calls.append(a) or real(*a))
        encoder, classifier, log = train(cfg, ds, tax)
        assert len(calls) == 1 and len(log.records) > 1
        arrays = [a for pair in encoder.layers for a in pair]
        arrays += [classifier.weights, classifier.biases]
        base = arrays[0].base
        assert base is not None and base.ndim == 1
        assert all(a.base is base for a in arrays)
        assert base.size == sum(a.size for a in arrays)

    @pytest.mark.parametrize("hidden, variant, batch_size, chunked", [
        pytest.param(hidden, variant, 8, False, id=f"{name}-{variant}")
        for name, hidden in (("linear", ()), ("two_hidden", (16, 12)))
        for variant in VARIANT_CONFIGS
    ] + [
        pytest.param((), "shred", 6, False, id="linear-shred-ragged"),
        pytest.param((16, 12), "shrewd", 6, False, id="two_hidden-shrewd-ragged"),
    ] + [
        pytest.param((16, 12), variant, 6, True, id=f"two_hidden-{variant}-ragged-chunked")
        for variant in VARIANT_CONFIGS
    ])
    def test_matches_straight_line_oracle(self, monkeypatch, hidden, variant, batch_size, chunked):
        # the live buffer, its views, the gradient order, the in-place Adam and
        # the per-chunk target draw must reproduce training on separate, fresh
        # arrays with one draw per step bit for bit; 64 samples leave a ragged
        # batch of 4 at batch size 6, and chunked epochs of 10 steps end in a
        # chunk of 1.  The benchmark's variants set each loss weight to 0 in
        # turn: train skips that term's gradient, the oracle scales it
        tax, ds, cfg = tiny_setup(epochs=3)
        cfg = dataclasses.replace(cfg, hidden_sizes=hidden, batch_size=batch_size,
                                  **VARIANT_CONFIGS[variant])
        if chunked:
            three_step_chunks(monkeypatch, cfg, len(tax.leaves()))
        encoder, classifier, log = train(cfg, ds, tax)

        universe = tax.leaves()
        class_idx = np.array([universe.index(int(label)) for label in ds.labels])
        init_rng, shuffle_rng, target_rng = RngState.from_seed(cfg.seed).split(3)
        enc0 = init_encoder(ds.dim, cfg.hidden_sizes, cfg.code_length, init_rng)
        clf0 = init_classifier(cfg.code_length, len(universe), init_rng)

        # every term with its gradient, scaled by its weight even at 0; the settings
        # that train fixes are written out, so that a drift in its constants fails
        def loss(z, d, y, head_w, head_b, target):
            sim_v, sim_g = sim_loss(z, d, SimLossConfig())
            kl_v, kl_g = kl_loss(z, target)
            cls_v, grad_logits = cls_loss(classifier_forward(ClassifierParams(head_w, head_b), z), y)
            lam_s, lam1, lam2 = cfg.lambda_sim, cfg.lambda1, cfg.lambda2
            return (lam_s * sim_v + lam1 * kl_v + lam2 * cls_v, sim_v, kl_v, cls_v,
                    lam_s * sim_g + lam1 * kl_g + lam2 * (grad_logits @ head_w),
                    lam2 * (grad_logits.T @ z), lam2 * grad_logits.sum(axis=0))

        layers, head, records = bf_train(
            enc0.layers, (clf0.weights, clf0.biases), ds.features.astype(np.float64), class_idx,
            distance_matrix(tax, universe), cfg.batch_size, cfg.epochs,
            shuffle_rng.generator.permutation,
            lambda shape: beta_sample(0.1, 0.1, shape, target_rng),
            loss, (cfg.learning_rate, 0.9, 0.999, 1e-8),
        )
        assert [(r.step, r.sim, r.kl, r.cls, r.total) for r in log.records] == records
        want = checkpoint_bytes(EncoderParams(layers, cfg.code_length), ClassifierParams(*head))
        assert checkpoint_bytes(encoder, classifier) == want

    @pytest.mark.parametrize("variant", VARIANT_CONFIGS)
    def test_chunks_of_steps_give_the_bits_of_one_chunk_per_epoch(self, monkeypatch, variant):
        # 8 steps an epoch: one chunk by default, three (3, 3 and 2 steps) at the lowered bound
        tax, ds, cfg = tiny_setup(epochs=2)
        cfg = dataclasses.replace(cfg, **VARIANT_CONFIGS[variant])
        real = trainer_mod.beta_sample
        runs, draws = [], []
        monkeypatch.setattr(trainer_mod, "beta_sample",
                            lambda a, b, shape, rng: draws.append(shape) or real(a, b, shape, rng))
        for chunked in (False, True):
            if chunked:
                three_step_chunks(monkeypatch, cfg, len(tax.leaves()))
            encoder, classifier, log = train(cfg, ds, tax)
            runs.append((checkpoint_bytes(encoder, classifier), log.to_csv()))
        rows = [(8 * n, cfg.code_length) for n in (3, 3, 2)]
        assert draws == [(64, cfg.code_length)] * 2 + rows * 2
        assert runs[0] == runs[1]

    def test_memory_stays_bounded_at_many_rows_and_b64(self):
        # an epoch's distance blocks would take 8 * B bytes per row, 25 MiB here:
        # chunks of steps keep each per-step array within train's chunk bound of
        # 256 KiB (1 MiB chunks peaked at 4.8 MiB)
        tax = balanced_taxonomy((4, 4, 2))  # 32 leaves, 1600 rows each
        ds = generate_synthetic(tax, per_class=1600, dim=8, noise=0.3,
                                rng=RngState.from_seed(0))
        cfg = TrainConfig(code_length=8, hidden_sizes=(8,), batch_size=64, epochs=1)
        tracemalloc.start()
        try:
            train(cfg, ds, tax)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.n_samples == 51_200 and peak < 3 * 2**20

    @pytest.mark.parametrize("batch_size", [4, 64])
    def test_label_distances_need_no_table_of_all_leaf_pairs(self, batch_size):
        # each chunk's distance blocks come from the leaves' ancestor table: at
        # 1,000 leaves train peaks below their L x L float64 table (7.6 MiB)
        tax = balanced_taxonomy((10, 10, 10))  # 1,000 leaves, 2 rows each
        ds = generate_synthetic(tax, per_class=2, dim=16, noise=0.3,
                                rng=RngState.from_seed(0))
        cfg = TrainConfig(code_length=16, hidden_sizes=(16,), batch_size=batch_size, epochs=1)
        tracemalloc.start()
        try:
            train(cfg, ds, tax)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * len(tax.leaves()) ** 2

    def test_csv_header_and_shape(self):
        tax, ds, cfg = tiny_setup(epochs=1)
        _, _, log = train(cfg, ds, tax)
        lines = log.to_csv().splitlines()
        assert lines[0] == "step,sim,kl,cls,total"
        assert len(lines) == 1 + len(log.records)


def b64_setup(epochs=1):
    # cli_pipeline's batch size and code length; 128 samples make two steps an epoch
    tax = balanced_taxonomy((4, 2))
    ds = generate_synthetic(tax, per_class=16, dim=8, noise=0.3,
                            rng=RngState.from_seed(100))
    cfg = TrainConfig(code_length=64, hidden_sizes=(16,), batch_size=64, epochs=epochs, seed=0)
    return tax, ds, cfg


class TestTrainThreads:
    """``train`` runs on the caller's thread alone, even where eval may start a worker."""

    @pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
    def test_no_thread_is_started_at_b64_with_two_workers(self, monkeypatch, fails):
        monkeypatch.setattr(threads_mod, "WORKERS", 2)
        seen = []
        real = trainer_mod.adam_step

        def adam_step(*args, **kwargs):
            seen.append(set(threading.enumerate()))
            if fails:
                raise RuntimeError("adam failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(trainer_mod, "adam_step", adam_step)
        tax, ds, cfg = b64_setup()
        before = set(threading.enumerate())
        if fails:
            with pytest.raises(RuntimeError, match="^adam failed$"):
                train(cfg, ds, tax)
        else:
            _, _, log = train(cfg, ds, tax)
            assert len(log.records) == 2
        assert seen == [before] * (1 if fails else 2)
        assert set(threading.enumerate()) == before

    def test_traced_train_fills_every_span(self):
        tax, ds, cfg = b64_setup(epochs=2)
        tracer = load_spans().Tracer()
        tracer.rep = 1
        tracer.install()
        try:
            _, _, log = trainer_mod.train(cfg, ds, tax)
        finally:
            tracer.uninstall()
        assert None not in tracer.spans
        names = [span[0] for span in tracer.spans]
        assert names.count("losses.kl_loss") == names.count("trainer.adam_step") == len(log.records) == 4
        # train runs the loss kernel, which calls the public terms, not total_loss
        assert names.count("losses.sim_loss") == 4 and names.count("losses.total_loss") == 0
