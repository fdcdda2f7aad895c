import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semhash.model as model_mod
from conftest import overflowing_encoder
from oracles import bf_encoder_backward, bf_encoder_forward, bf_sigmoid
from semhash.data import _OPEN_HI, _OPEN_LO, RngState
from semhash.errors import (
    MalformedFile,
    NonDeterministicLoss,
    NonFiniteInput,
    ShapeMismatch,
    StaleCache,
    VersionMismatch,
)
from semhash.hashing import binarize
from semhash.hierarchy import parse_taxonomy
from semhash.losses import SimLossConfig, kl_loss, sim_loss, total_loss
from semhash.metrics import evaluate_embeddings
from semhash._args import MAX_ITEMS
from semhash.model import (
    ClassifierParams,
    _sigmoid,
    EmbeddingBatch,
    EncoderParams,
    checkpoint_bytes,
    classifier_forward,
    encoder_backward,
    encoder_forward,
    gradient_check,
    init_classifier,
    init_encoder,
    load_checkpoint,
    save_checkpoint,
)


def straight_line_forward(layers, x):
    """Duplicate-path reference: same math, no cache, no library calls."""
    a = np.asarray(x, dtype=np.float64)
    for i, (w, b) in enumerate(layers):
        s = a @ w.T + b
        if i == len(layers) - 1:
            a = np.where(s >= 0, 1.0 / (1.0 + np.exp(-s)), np.exp(s) / (1.0 + np.exp(s)))
        else:
            a = np.maximum(s, 0.0)
    return a


def make_encoder(seed, in_dim=5, hidden=(7, 6), k=4):
    return init_encoder(in_dim, hidden, k, RngState.from_seed(seed))


class TestEncoderForward:
    def test_all_zero_params_give_half(self):
        layers = [(np.zeros((3, 4)), np.zeros(3)), (np.zeros((2, 3)), np.zeros(2))]
        p = EncoderParams(layers=layers, code_length=2)
        z, _ = encoder_forward(p, np.random.default_rng(0).normal(size=(6, 4)))
        np.testing.assert_array_equal(z.values, 0.5)

    def test_single_layer_zero_weights_bias_only(self):
        b = np.array([-1.0, 0.0, 2.0])
        p = EncoderParams(layers=[(np.zeros((3, 5)), b)], code_length=3)
        z, _ = encoder_forward(p, np.ones((2, 5)))
        expected = np.tile(1.0 / (1.0 + np.exp(-b)), (2, 1))
        np.testing.assert_allclose(z.values, expected, atol=0)

    def test_matches_straight_line_reimplementation(self):
        rng = np.random.default_rng(11)
        p = make_encoder(3)
        x = rng.normal(size=(8, 5))
        z, _ = encoder_forward(p, x)
        np.testing.assert_array_equal(z.values, straight_line_forward(p.layers, x))

    def test_deterministic(self):
        p = make_encoder(4)
        x = np.random.default_rng(1).normal(size=(5, 5))
        z1, _ = encoder_forward(p, x)
        z2, _ = encoder_forward(p, x)
        np.testing.assert_array_equal(z1.values, z2.values)

    def test_output_open_interval_even_when_saturated(self):
        p = EncoderParams(layers=[(np.full((2, 3), 100.0), np.zeros(2))], code_length=2)
        z, _ = encoder_forward(p, np.array([[50.0, 50.0, 50.0], [-50.0, -50.0, -50.0]]))
        assert np.all(z.values > 0.0)
        assert np.all(z.values < 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            encoder_forward(make_encoder(0), np.zeros((2, 9)))

    def test_overflowing_forward_pass_saturates_without_warnings(self):
        # finite weights whose products overflow: a saturated unit is a valid output
        p = overflowing_encoder(3, [[1.0, 1.0], [-1.0, -1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z, _ = encoder_forward(p, np.random.default_rng(0).normal(size=(4, 3)))
        assert isinstance(z, EmbeddingBatch)
        np.testing.assert_array_equal(z.values, [[_OPEN_HI, _OPEN_LO]] * 4)

    def test_nan_forward_pass_is_a_shape_mismatch_not_a_warning(self):
        p = overflowing_encoder(3, [[1.0, -1.0]])  # inf - inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeMismatch, match="strictly inside"):
                encoder_forward(p, np.ones((2, 3)))

    def test_non_finite_input(self):
        x = np.zeros((2, 5))
        x[0, 0] = np.nan
        with pytest.raises(NonFiniteInput):
            encoder_forward(make_encoder(0), x)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_outputs_in_open_interval(self, seed):
        rng = np.random.default_rng(seed)
        p = make_encoder(seed % 17)
        x = rng.normal(scale=10.0, size=(4, 5))
        z, _ = encoder_forward(p, x)
        assert np.all((z.values > 0.0) & (z.values < 1.0))


SIGMOID_EDGES = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, np.inf, -np.inf, np.nan, -np.nan]


class TestSigmoid:
    @given(st.lists(
        st.one_of(
            st.sampled_from(SIGMOID_EDGES),
            st.floats(min_value=700.0, max_value=800.0),
            st.floats(min_value=-800.0, max_value=-700.0),
            st.floats(min_value=-40.0, max_value=40.0),
            st.floats(allow_nan=True, allow_infinity=True),
        ),
        min_size=1, max_size=64,
    ))
    @example(SIGMOID_EDGES + [700.0, -700.0, 745.0, -745.0, 800.0, -800.0])
    @settings(max_examples=300, deadline=None)
    def test_matches_masked_oracle_bitwise(self, values):
        s = np.array(values, dtype=np.float64)
        got, want = _sigmoid(s), bf_sigmoid(s)
        # a NaN keeps its place but not its sign bit, which nothing downstream
        # reads: EmbeddingBatch rejects any NaN output
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()


class TestEncoderBackward:
    def test_zero_grad_gives_zero(self):
        p = make_encoder(5)
        _, cache = encoder_forward(p, np.random.default_rng(2).normal(size=(3, 5)))
        grads = encoder_backward(p, cache, np.zeros((3, 4)))
        for gw, gb in grads:
            assert not gw.any()
            assert not gb.any()

    def test_scalar_chain_rule(self):
        # z = sigmoid(w2 * relu(w1*x + b1) + b2), all scalars, relu active
        w1, b1, w2, b2, x = 0.7, 0.2, -1.1, 0.4, 1.3
        p = EncoderParams(
            layers=[(np.array([[w1]]), np.array([b1])), (np.array([[w2]]), np.array([b2]))],
            code_length=1,
        )
        z, cache = encoder_forward(p, np.array([[x]]))
        (g1w, g1b), (g2w, g2b) = encoder_backward(p, cache, np.ones((1, 1)))
        a1 = w1 * x + b1
        s2 = w2 * a1 + b2
        sig = 1.0 / (1.0 + np.exp(-s2))
        dsig = sig * (1.0 - sig)
        assert g2w[0, 0] == pytest.approx(dsig * a1, rel=1e-12)
        assert g2b[0] == pytest.approx(dsig, rel=1e-12)
        assert g1w[0, 0] == pytest.approx(dsig * w2 * x, rel=1e-12)
        assert g1b[0] == pytest.approx(dsig * w2, rel=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        p = make_encoder(7)
        x = rng.normal(size=(4, 5))
        g_out = rng.normal(size=(4, 4))

        flat = [a for w, b in p.layers for a in (w, b)]

        def loss_fn(params):
            layers = [(params[2 * i], params[2 * i + 1]) for i in range(len(p.layers))]
            q = EncoderParams(layers=layers, code_length=p.code_length)
            z, cache = encoder_forward(q, x)
            grads = encoder_backward(q, cache, g_out)
            return float((z.values * g_out).sum()), [a for gw, gb in grads for a in (gw, gb)]

        report = gradient_check(loss_fn, flat)
        assert report.max_rel_error < 1e-4

    def test_matches_oracle_where_pre_activations_are_exactly_zero(self):
        # integer inputs and weights make many hidden pre-activations exactly
        # 0; the ReLU mask read from the activations must agree bit for bit
        # with the oracle's, read from the pre-activations
        gen = np.random.default_rng(12)
        layers = [
            (gen.integers(-2, 3, size=(n_out, n_in)).astype(float),
             gen.integers(-1, 2, size=n_out).astype(float))
            for n_in, n_out in ((5, 7), (7, 6), (6, 4))
        ]
        p = EncoderParams(layers=layers, code_length=4)
        x = gen.integers(-2, 3, size=(9, 5)).astype(float)
        grad_z = gen.normal(size=(9, 4))
        z, cache = encoder_forward(p, x)
        want_z, pre, act = bf_encoder_forward(layers, x)
        assert all((s == 0.0).any() and (s < 0.0).any() for s in pre[:-1])
        np.testing.assert_array_equal(z.values, want_z)
        got = encoder_backward(p, cache, grad_z)
        for got_pair, want_pair in zip(got, bf_encoder_backward(layers, x, pre, act, grad_z)):
            for g, w in zip(got_pair, want_pair):
                np.testing.assert_array_equal(g, w)

    def test_stale_cache(self):
        p1, p2 = make_encoder(1), make_encoder(2)
        _, cache = encoder_forward(p1, np.zeros((2, 5)))
        with pytest.raises(StaleCache):
            encoder_backward(p2, cache, np.zeros((2, 4)))

    def test_grad_shape_mismatch(self):
        p = make_encoder(1)
        _, cache = encoder_forward(p, np.zeros((2, 5)))
        with pytest.raises(ShapeMismatch):
            encoder_backward(p, cache, np.zeros((2, 9)))


class TestClassifierForward:
    def test_zero_params(self):
        c = ClassifierParams(weights=np.zeros((3, 4)), biases=np.zeros(3))
        logits = classifier_forward(c, np.random.default_rng(0).uniform(0.1, 0.9, (5, 4)))
        np.testing.assert_array_equal(logits, 0.0)

    def test_identity_weights(self):
        c = ClassifierParams(weights=np.eye(4), biases=np.zeros(4))
        z = np.random.default_rng(1).uniform(0.1, 0.9, (5, 4))
        np.testing.assert_array_equal(classifier_forward(c, z), z)

    def test_matches_duplicate_path(self):
        rng = np.random.default_rng(2)
        c = init_classifier(6, 9, RngState.from_seed(3))
        z = rng.uniform(0.01, 0.99, (7, 6))
        np.testing.assert_array_equal(classifier_forward(c, z), z @ c.weights.T + c.biases)

    def test_shape_mismatch(self):
        c = ClassifierParams(weights=np.zeros((3, 4)), biases=np.zeros(3))
        with pytest.raises(ShapeMismatch):
            classifier_forward(c, np.zeros((2, 5)))


HEAD = ClassifierParams(weights=np.zeros((2, 3)), biases=np.zeros(2))
TWO_LEAVES = parse_taxonomy("root a\nroot b")

# every function that takes embeddings, called on the values ``z``
EMBEDDING_ARGUMENTS = {
    "EmbeddingBatch": lambda z: EmbeddingBatch(values=z),
    "classifier_forward": lambda z: classifier_forward(HEAD, z),
    "binarize": binarize,
    "evaluate_embeddings": lambda z: evaluate_embeddings(
        z, range(len(z)), [TWO_LEAVES.node_id("a")] * len(z), TWO_LEAVES, k_max=1
    ),
    "sim_loss": lambda z: sim_loss(z, np.zeros((4, 4)), SimLossConfig()),
    "kl_loss": lambda z: kl_loss(z, np.full((5, 3), 0.5)),
    "total_loss": lambda z: total_loss(
        z, np.zeros((4, 4)), np.zeros(4, dtype=np.int64), HEAD, np.full((5, 3), 0.5),
        1.0, 1.0, SimLossConfig(),
    ),
}


@pytest.mark.parametrize("shape", [(4,), (4, 3, 1)], ids=["1-D", "3-D"])
@pytest.mark.parametrize("name", sorted(EMBEDDING_ARGUMENTS))
def test_embeddings_that_are_not_b_by_k_are_a_shape_mismatch(name, shape):
    with pytest.raises(ShapeMismatch):
        EMBEDDING_ARGUMENTS[name](np.full(shape, 0.5))


class TestGradientCheck:
    def test_quadratic_toy_loss(self):
        params = [np.random.default_rng(0).normal(size=(4, 3)), np.random.default_rng(1).normal(size=5)]

        def loss_fn(ps):
            return sum(float((p**2).sum()) for p in ps) / 2.0, [p.copy() for p in ps]

        report = gradient_check(loss_fn, params)
        assert report.max_rel_error < 1e-8

    def test_non_deterministic_loss_detected(self):
        state = {"n": 0}

        def loss_fn(ps):
            state["n"] += 1
            return float(state["n"]), [np.zeros_like(p) for p in ps]

        with pytest.raises(NonDeterministicLoss):
            gradient_check(loss_fn, [np.zeros(3)])

    def test_subsampling_above_limit(self, monkeypatch):
        monkeypatch.setattr(model_mod, "_GRAD_CHECK_COORDS", 100)
        big = [np.zeros((40, 40))]

        def loss_fn(ps):
            return float((ps[0] ** 2).sum()) / 2.0, [p.copy() for p in ps]

        report = gradient_check(loss_fn, big)
        assert report.n_checked == 100


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        enc = make_encoder(9)
        clf = init_classifier(4, 6, RngState.from_seed(10))
        path = tmp_path / "model.checkpoint"
        save_checkpoint(path, enc, clf)
        enc2, clf2 = load_checkpoint(path)
        assert len(enc2.layers) == len(enc.layers)
        for (w, b), (w2, b2) in zip(enc.layers, enc2.layers):
            np.testing.assert_array_equal(w, w2)
            np.testing.assert_array_equal(b, b2)
        np.testing.assert_array_equal(clf.weights, clf2.weights)
        np.testing.assert_array_equal(clf.biases, clf2.biases)

    def test_hand_built_fixture_bytes(self, tmp_path):
        # D=2 -> 3 -> K=2 encoder and a C=2 head: header, then per layer the
        # u32 out-dim, float64 weights (out x in, row-major) and biases, then
        # the head's weights and biases
        w1, b1 = [[0.5, -1.0], [2.0, 0.25], [-0.125, 3.0]], [0.0, 1.5, -2.0]
        w2, b2 = [[1.0, 2.0, 3.0], [-4.0, 5.0, -6.0]], [0.75, -0.5]
        cw, cb = [[0.25, -0.25], [8.0, 16.0]], [1.0, -1.0]
        raw = (
            b"SHRW" + struct.pack("<IIIII", 1, 2, 2, 2, 2)
            + struct.pack("<I", 3) + struct.pack("<6d", *w1[0], *w1[1], *w1[2]) + struct.pack("<3d", *b1)
            + struct.pack("<I", 2) + struct.pack("<6d", *w2[0], *w2[1]) + struct.pack("<2d", *b2)
            + struct.pack("<4d", *cw[0], *cw[1]) + struct.pack("<2d", *cb)
        )
        enc = EncoderParams(
            layers=[(np.array(w1), np.array(b1)), (np.array(w2), np.array(b2))], code_length=2
        )
        clf = ClassifierParams(weights=np.array(cw), biases=np.array(cb))
        assert checkpoint_bytes(enc, clf) == raw
        path = tmp_path / "hand.checkpoint"
        path.write_bytes(raw)
        enc2, clf2 = load_checkpoint(path)
        assert enc2.code_length == 2
        assert [(w.tolist(), b.tolist()) for w, b in enc2.layers] == [(w1, b1), (w2, b2)]
        assert (clf2.weights.tolist(), clf2.biases.tolist()) == (cw, cb)

    def test_truncated_file(self, tmp_path):
        enc = make_encoder(9)
        clf = init_classifier(4, 6, RngState.from_seed(10))
        path = tmp_path / "model.checkpoint"
        save_checkpoint(path, enc, clf)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(MalformedFile):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"NOPE" + bytes(24))
        with pytest.raises(MalformedFile):
            load_checkpoint(path)

    def test_content_error_is_malformed_and_names_the_file(self, tmp_path):
        raw = checkpoint_bytes(make_encoder(9), init_classifier(4, 6, RngState.from_seed(10)))
        path = tmp_path / "nan.checkpoint"
        for extra in (b"", b"\0"):  # the content error comes before the extra byte's
            path.write_bytes(raw[:-8] + struct.pack("<d", np.nan) + extra)  # the head's last bias
            with pytest.raises(MalformedFile, match="nan.checkpoint: classifier must not contain NaN or inf$"):
                load_checkpoint(path)
        bad_k = bytearray(raw)
        bad_k[12:16] = struct.pack("<I", 3)  # the header's K; the last layer is 4 wide
        path.write_bytes(bytes(bad_k))
        with pytest.raises(MalformedFile, match="nan.checkpoint: final layer out-dim 4 != code length 3"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        enc = make_encoder(9)
        clf = init_classifier(4, 6, RngState.from_seed(10))
        path = tmp_path / "model.checkpoint"
        save_checkpoint(path, enc, clf)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatch):
            load_checkpoint(path)


@pytest.mark.parametrize("in_dim, hidden, k", [(0, 3, 2), (2, 0, 2), (2, 3, 0)])
def test_zero_width_encoder_is_a_shape_mismatch(in_dim, hidden, k):
    layers = [(np.zeros((hidden, in_dim)), np.zeros(hidden)), (np.zeros((k, hidden)), np.zeros(k))]
    with pytest.raises(ShapeMismatch, match="weights"):
        EncoderParams(layers=layers, code_length=k)


@pytest.mark.parametrize("shape", [(0, 2), (2, 0)])  # no classes, K = 0
def test_zero_width_classifier_is_a_shape_mismatch(shape):
    with pytest.raises(ShapeMismatch, match="classifier weights"):
        ClassifierParams(weights=np.zeros(shape), biases=np.zeros(shape[0]))


def test_init_respects_fan_bound():
    p = init_encoder(10, (8,), 4, RngState.from_seed(0))
    w0 = p.layers[0][0]
    bound = np.sqrt(6.0 / (10 + 8))
    assert np.all(np.abs(w0) <= bound)
    assert not p.layers[0][1].any()


@pytest.mark.parametrize("width", [-1, 0, float("nan"), 2.5, True, 2**70])
def test_a_width_that_is_no_count_is_a_shape_mismatch(width):
    # these raised numpy's ValueError, OverflowError or TypeError
    rng = RngState.from_seed(0)
    for call in (lambda: init_encoder(width, (4,), 3, rng), lambda: init_encoder(3, (width,), 3, rng),
                 lambda: init_encoder(3, (4,), width, rng)):
        with pytest.raises(ShapeMismatch, match=r"^a layer width must be an integer in \[1, \d+\], got "):
            call()
    for name, call in (("code_length", lambda: init_classifier(width, 2, rng)),
                       ("n_classes", lambda: init_classifier(3, width, rng))):
        with pytest.raises(ShapeMismatch, match=rf"^{name} must be an integer in \[1, \d+\], got "):
            call()


def test_each_width_bounds_the_next_to_numpys_largest_array():
    # 2**31 x 2**31 float64 weights are over numpy's limit: rejected before any draw
    with pytest.raises(ShapeMismatch, match=rf"^a layer width must be an integer in \[1, {MAX_ITEMS // 2**31}\], "):
        init_encoder(2**31, (2**31,), 3, RngState.from_seed(0))
    with pytest.raises(ShapeMismatch, match=rf"^n_classes must be an integer in \[1, {MAX_ITEMS // 2**31}\], "):
        init_classifier(2**31, 2**31, RngState.from_seed(0))
