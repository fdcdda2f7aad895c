import functools
import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semhash.losses as losses_mod
from oracles import batch_scale, bf_kl_loss, bf_sim_loss, np_sim_loss, pair_weight
from semhash.benchmark import balanced_taxonomy
from semhash.data import RngState, beta_sample
from semhash.errors import BatchTooSmall, ConfigError, LabelOutOfRange, ShapeMismatch
from semhash.hierarchy import distance_matrix
from semhash.losses import (
    SimLossConfig,
    _cls_value,
    _label_side,
    _pairwise,
    cls_loss,
    kl_loss,
    sim_loss,
    total_loss,
)
from semhash.model import ClassifierParams, classifier_forward, init_classifier


def symmetric_distances(rng, b):
    d = rng.uniform(0.0, 1.0, (b, b))
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return d


def bits(value_and_grad):
    value, grad = value_and_grad
    return np.float64(value).tobytes(), grad.dtype, grad.shape, grad.tobytes()


def fd_grad(fn, z, step=1e-6):
    g = np.zeros_like(z)
    for idx in np.ndindex(*z.shape):
        zp, zm = z.copy(), z.copy()
        zp[idx] += step
        zm[idx] -= step
        g[idx] = (fn(zp) - fn(zm)) / (2.0 * step)
    return g


# pair_weight and batch_scale are the oracle pieces bf_sim_loss is built on


class TestPairWeight:
    def test_zero_distance(self):
        assert pair_weight(0.0, SimLossConfig()) == 1.0

    def test_at_gamma(self):
        assert pair_weight(0.1, SimLossConfig()) == pytest.approx(0.25, abs=0)

    def test_at_one(self):
        assert pair_weight(1.0, SimLossConfig()) == pytest.approx(0.01 / 1.21, rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100)
    def test_monotone_and_bounded(self, d1, d2):
        cfg = SimLossConfig()
        w1, w2 = pair_weight(d1, cfg), pair_weight(d2, cfg)
        assert 0.0 < w1 <= 1.0
        if d1 <= d2:
            assert w1 >= w2


@pytest.mark.parametrize("key", ["gamma", "rho", "tau_floor"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_similarity_setting_is_a_config_error(key, value):
    # NaN fails every range comparison, and tau_floor = inf would switch the term off
    with pytest.raises(ConfigError, match="need finite"):
        SimLossConfig(**{key: value})


@pytest.mark.parametrize("key, value", [
    ("gamma", 0.0), ("gamma", -0.1), ("rho", -1e-9), ("tau_floor", 0.0), ("tau_floor", -1.0),
])
def test_similarity_setting_out_of_range_is_a_config_error(key, value):
    with pytest.raises(ConfigError, match="need finite"):
        SimLossConfig(**{key: value})


def test_rho_zero_is_allowed():
    assert SimLossConfig(rho=0.0).rho == 0.0


class TestBatchScale:
    def test_constant_offdiagonal(self):
        m = np.full((4, 4), 2.0)
        np.fill_diagonal(m, 0.0)
        assert batch_scale(m, 1e-8) == 2.0

    def test_floor_clamp(self):
        assert batch_scale(np.zeros((2, 2)), 1e-8) == 1e-8

    def test_matches_direct_recount(self):
        rng = np.random.default_rng(3)
        m = symmetric_distances(rng, 8) * 3.0
        total = 0.0
        count = 0
        for i in range(8):
            for j in range(8):
                if i != j:
                    total += m[i, j]
                    count += 1
        assert batch_scale(m, 1e-8) == pytest.approx(total / count, rel=1e-14)

    def test_batch_too_small(self):
        with pytest.raises(ValueError):
            batch_scale(np.zeros((1, 1)), 1e-8)


class TestSimLoss:
    def test_perfectly_matched_pairs_give_zero(self):
        # both normalized distances equal 1 for the single off-diagonal pair
        z = np.array([[0.1, 0.1], [0.9, 0.9]])
        d = np.array([[0.0, 0.7], [0.7, 0.0]])
        value, _ = sim_loss(z, d, SimLossConfig())
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_hand_expanded_two_point_sum(self):
        # B=2, K=1: tau_z = 0.6, tau_y = floor; full 4-term sum written out
        cfg = SimLossConfig()
        z = np.array([[0.2], [0.8]])
        d = np.zeros((2, 2))
        manh = np.array([[0.0, 0.6], [0.6, 0.0]])
        tau_z, tau_y = 0.6, cfg.tau_floor
        expected = 0.0
        for i in range(2):
            for j in range(2):
                w = (cfg.gamma / (cfg.gamma + d[i, j])) ** cfg.rho
                expected += abs(manh[i, j] / tau_z - d[i, j] / tau_y) * w
        expected /= 4.0
        value, _ = sim_loss(z, d, cfg)
        assert expected == 0.5
        assert value == pytest.approx(expected, rel=1e-14)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        z = rng.uniform(0.05, 0.95, (4, 5))
        d = symmetric_distances(rng, 4)
        cfg = SimLossConfig()
        _, grad = sim_loss(z, d, cfg)
        numeric = fd_grad(lambda q: sim_loss(q, d, cfg)[0], z)
        np.testing.assert_allclose(grad, numeric, rtol=1e-4, atol=1e-8)

    def test_gradient_with_clamped_tau(self):
        # identical rows force the scale to its floor; gradient must stay finite
        z = np.full((3, 2), 0.4)
        d = symmetric_distances(np.random.default_rng(0), 3)
        value, grad = sim_loss(z, d, SimLossConfig())
        assert np.isfinite(value)
        assert np.all(np.isfinite(grad))

    def test_scale_invariance_of_raw_function(self):
        rng = np.random.default_rng(5)
        z = rng.uniform(0.1, 0.9, (5, 3))
        d = symmetric_distances(rng, 5)
        cfg = SimLossConfig()
        base, _ = sim_loss(z, d, cfg)
        for c in (0.5, 2.0, 17.0):
            scaled, _ = sim_loss(c * z, d, cfg)
            assert scaled == pytest.approx(base, rel=1e-12)

    def test_zero_iff_normalized_distances_match(self):
        # embedding gaps 0.3/0.6/0.3 are proportional to label gaps 0.4/0.8/0.4,
        # so every normalized pair matches; perturbing one point breaks it
        # (B=2 is always trivially matched, so three points are needed)
        z = np.array([[0.2], [0.5], [0.8]])
        d = np.array([[0.0, 0.4, 0.8], [0.4, 0.0, 0.4], [0.8, 0.4, 0.0]])
        cfg = SimLossConfig()
        assert sim_loss(z, d, cfg)[0] == pytest.approx(0.0, abs=1e-15)
        z2 = z.copy()
        z2[1, 0] = 0.6
        assert sim_loss(z2, d, cfg)[0] > 1e-6

    def test_batch_too_small(self):
        with pytest.raises(BatchTooSmall):
            sim_loss(np.array([[0.5]]), np.zeros((1, 1)), SimLossConfig())

    @given(
        seed=st.integers(0, 2**32 - 1),
        b=st.integers(2, 9),
        k=st.integers(1, 9),
        repeats=st.booleans(),
        symmetric=st.booleans(),
        cfg=st.sampled_from([SimLossConfig(), SimLossConfig(gamma=0.5, rho=0.0),
                             SimLossConfig(gamma=2.0, rho=3.5, tau_floor=0.5)]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_pair_oracle(self, seed, b, k, repeats, symmetric, cfg):
        rng = np.random.default_rng(seed)
        z = rng.uniform(0.0, 1.0, (b, k))
        # repeated rows give zero Manhattan distances, and when every row is
        # one row tau_z is floored; the label distances have no ties, so no
        # residual sits exactly at the kink of |.|.  With d_bp != d_pb, pairs
        # (b, p) and (p, b) weigh z_b differently.
        d = symmetric_distances(rng, b) if symmetric else rng.uniform(0.0, 1.0, (b, b))
        if repeats:
            z = z[rng.integers(0, max(1, b // 2), b)]
        value, grad = sim_loss(z, d, cfg)
        want_value, want_grad = bf_sim_loss(z, d, cfg)
        assert value == pytest.approx(want_value, rel=1e-12, abs=0)
        # entries whose pair terms cancel to ~0 are held to 1e-12 of a term's
        # scale, 1 / (B * tau_z)
        tau_z = batch_scale(np.abs(z[:, None] - z[None]).sum(axis=2), cfg.tau_floor)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12 / (b * tau_z))

    def test_asymmetric_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        z = rng.uniform(0.05, 0.95, (4, 3))
        d = rng.uniform(0.0, 1.0, (4, 4))
        cfg = SimLossConfig()
        _, grad = sim_loss(z, d, cfg)
        numeric = fd_grad(lambda q: sim_loss(q, d, cfg)[0], z)
        np.testing.assert_allclose(grad, numeric, rtol=1e-4, atol=1e-8)


class TestKlLoss:
    def test_hand_computed_two_point_case(self):
        z = np.array([[0.1], [0.9]])
        target = np.array([[0.05], [0.95]])
        value, _ = kl_loss(z, target)
        assert value == pytest.approx(math.log(0.05 / 0.8), rel=1e-12)

    def test_duplicate_points_stay_finite(self):
        z = np.array([[0.3, 0.3], [0.3, 0.3], [0.8, 0.8]])
        target = np.array([[0.5, 0.5]])
        value, grad = kl_loss(z, target)
        assert np.isfinite(value)
        assert np.all(np.isfinite(grad))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        z = rng.uniform(0.05, 0.95, (5, 4))
        target = rng.uniform(0.05, 0.95, (6, 4))
        _, grad = kl_loss(z, target)
        numeric = fd_grad(lambda q: kl_loss(q, target)[0], z)
        np.testing.assert_allclose(grad, numeric, rtol=1e-4, atol=1e-8)

    def test_batch_too_small(self):
        with pytest.raises(BatchTooSmall):
            kl_loss(np.array([[0.5]]), np.array([[0.5]]))
        with pytest.raises(BatchTooSmall):
            kl_loss(np.array([[0.5], [0.6]]), np.zeros((0, 1)))

    def test_near_zero_at_matched_distributions(self):
        values = []
        for seed in range(10):
            rng = RngState.from_seed(seed)
            z = beta_sample(0.1, 0.1, (256, 8), rng)
            target = beta_sample(0.1, 0.1, (256, 8), rng)
            values.append(kl_loss(z, target)[0])
        assert -0.2 < float(np.mean(values)) < 0.2

    def test_concentrated_batch_scores_higher(self):
        wins = 0
        for seed in range(10):
            rng = RngState.from_seed(seed)
            target = beta_sample(0.1, 0.1, (256, 8), rng)
            matched = beta_sample(0.1, 0.1, (256, 8), rng)
            concentrated = np.clip(
                0.5 + 0.01 * rng.generator.standard_normal((256, 8)), 1e-9, 1 - 1e-9
            )
            if kl_loss(concentrated, target)[0] > kl_loss(matched, target)[0]:
                wins += 1
        assert wins >= 9

    @given(
        st.integers(min_value=2, max_value=70),
        st.integers(min_value=1, max_value=70),
        st.integers(min_value=1, max_value=70),
        st.sampled_from([2, 3, 8, 0]),
        st.integers(min_value=0, max_value=70),
        st.integers(min_value=0, max_value=70),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_sample_oracle_bitwise(self, b, k, m, levels, n_dup, n_hit, seed):
        # levels > 0 puts every coordinate on a grid of (levels - 1) interior
        # points, which makes distance ties; duplicated rows and rows copied
        # from the target give nu <= 1e-12 on both sides of the estimate
        rng = np.random.default_rng(seed)
        if levels:
            z = rng.integers(1, levels, size=(b, k)) / levels
            target = rng.integers(1, levels, size=(m, k)) / levels
        else:
            z, target = rng.uniform(size=(b, k)), rng.uniform(size=(m, k))
        z[rng.integers(b, size=n_dup)] = z[rng.integers(b, size=n_dup)]
        z[rng.integers(b, size=n_hit)] = target[rng.integers(m, size=n_hit)]
        value, grad = kl_loss(z, target)
        want_value, want_grad = bf_kl_loss(z, target)
        assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
        assert grad.tobytes() == want_grad.tobytes()

    def test_overflowing_distances_match_oracle(self):
        # squares beyond float64 range make some nearest distances inf: such a
        # row gets a zero target pull and no neighbour push
        z = np.array([[0.0, 0.5], [1e200, 0.5], [-1e200, 0.5], [0.6, 0.5]])
        target = np.array([[0.25, 0.5], [3e200, 0.5]])
        with np.errstate(over="ignore", invalid="ignore"):
            want_value, want_grad = bf_kl_loss(z, target)
            value, grad = kl_loss(z, target)
        assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
        assert grad.tobytes() == want_grad.tobytes()

class TestClsLoss:
    def test_uniform_logits(self):
        value, _ = cls_loss(np.zeros((3, 4)), np.array([0, 1, 3]))
        assert value == pytest.approx(math.log(4.0), rel=1e-12)

    def test_dominant_true_logit(self):
        logits = np.zeros((2, 5))
        logits[0, 2] = 1000.0
        logits[1, 4] = 1000.0
        value, _ = cls_loss(logits, np.array([2, 4]))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_matches_high_precision_duplicate_path(self):
        rng = np.random.default_rng(17)
        logits = rng.normal(scale=30.0, size=(5, 7))
        labels = rng.integers(0, 7, 5)
        value, grad = cls_loss(logits, labels)
        # reference in extended precision
        ref = np.asarray(logits, dtype=np.longdouble)
        shifted = ref - ref.max(axis=1, keepdims=True)
        probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        expected = -np.log(probs[np.arange(5), labels]).mean()
        assert value == pytest.approx(float(expected), rel=1e-12)
        onehot = np.zeros((5, 7), dtype=np.longdouble)
        onehot[np.arange(5), labels] = 1.0
        np.testing.assert_allclose(grad, np.asarray((probs - onehot) / 5.0, dtype=np.float64), rtol=1e-10, atol=1e-18)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(4, 6))
        labels = rng.integers(0, 6, 4)
        _, grad = cls_loss(logits, labels)
        numeric = fd_grad(lambda q: cls_loss(q, labels)[0], logits)
        np.testing.assert_allclose(grad, numeric, rtol=1e-4, atol=1e-8)

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            cls_loss(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(LabelOutOfRange):
            cls_loss(np.zeros((2, 3)), np.array([-1, 0]))

    @pytest.mark.parametrize("labels", [[0.9, 1.9], [0.0, 1.0], np.array([True, False])])
    def test_labels_that_are_not_integers_are_rejected_not_truncated(self, labels):
        with pytest.raises(LabelOutOfRange, match="integers"):
            cls_loss(np.zeros((2, 3)), labels)

    def test_empty_batch_is_too_small(self):
        with pytest.raises(BatchTooSmall):
            cls_loss(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))


HEAD = ClassifierParams(weights=np.zeros((2, 3)), biases=np.zeros(2))


def total_loss_on(z, distances, target):
    labels = np.zeros(len(z), dtype=np.int64)
    return total_loss(z, distances, labels, HEAD, target, 1.0, 1.0, SimLossConfig())


# the loss entry points that take distances, a target, or both
WITH_DISTANCES = {
    "sim_loss": lambda z, d, t: sim_loss(z, d, SimLossConfig()),
    "total_loss": total_loss_on,
}
WITH_TARGET = {
    "kl_loss": lambda z, d, t: kl_loss(z, t),
    "total_loss": total_loss_on,
}


class TestLossInputChecks:
    Z = np.full((4, 3), 0.5)
    D = np.zeros((4, 4))
    T = np.full((5, 3), 0.5)

    @pytest.mark.parametrize("shape", [(3, 3), (4, 5), (4,)])
    @pytest.mark.parametrize("name", sorted(WITH_DISTANCES))
    def test_distance_matrix_not_b_by_b(self, name, shape):
        with pytest.raises(ShapeMismatch):
            WITH_DISTANCES[name](self.Z, np.zeros(shape), self.T)

    @pytest.mark.parametrize("shape", [(3,), (5, 2), (5, 4)], ids=["1-D", "K-1", "K+1"])
    @pytest.mark.parametrize("name", sorted(WITH_TARGET))
    def test_target_not_m_by_k(self, name, shape):
        with pytest.raises(ShapeMismatch):
            WITH_TARGET[name](self.Z, self.D, np.full(shape, 0.5))

    @pytest.mark.parametrize("name", ["sim_loss", "kl_loss", "total_loss"])
    def test_one_row_is_too_small(self, name):
        call = {**WITH_DISTANCES, **WITH_TARGET}[name]
        with pytest.raises(BatchTooSmall):
            call(self.Z[:1], self.D[:1, :1], self.T)

    @pytest.mark.parametrize("name", sorted(WITH_TARGET))
    def test_empty_target_is_too_small(self, name):
        with pytest.raises(BatchTooSmall):
            WITH_TARGET[name](self.Z, self.D, np.zeros((0, 3)))


def step_loss(z, d, labels, clf, target, lambda1, lambda2, cfg, sim_weight=1.0, *,
              work=None, worker=None):
    """``_step_loss``, the path ``train`` runs, with a sign slot and a worker: the total
    (summed as ``total_loss`` sums it), grad_z and the (sim, kl, cls) values."""
    sim, kl, _, cls, grad_z, _ = losses_mod._step_loss(
        z, _label_side(d, cfg), labels, clf, target, (sim_weight, lambda1, lambda2), cfg,
        work, worker)
    return sim_weight * sim + lambda1 * kl + lambda2 * cls, grad_z, (sim, kl, cls)


class TestTotalLoss:
    def _inputs(self, seed=0, b=5, k=4, c=3):
        rng = np.random.default_rng(seed)
        z = rng.uniform(0.05, 0.95, (b, k))
        d = symmetric_distances(rng, b)
        labels = rng.integers(0, c, b)
        clf = init_classifier(k, c, RngState.from_seed(seed))
        target = rng.uniform(0.05, 0.95, (b, k))
        return z, d, labels, clf, target

    def test_lambdas_zero_reduce_to_sim(self):
        z, d, labels, clf, target = self._inputs()
        cfg = SimLossConfig()
        lv = total_loss(z, d, labels, clf, target, 0.0, 0.0, cfg)
        assert lv.total == sim_loss(z, d, cfg)[0]
        assert not lv.grad_classifier[0].any()

    @pytest.mark.parametrize("zero", ["sim_loss", "kl_loss", "cls_loss"])
    def test_a_zero_weight_term_computes_only_its_value(self, monkeypatch, zero):
        # the term's value is still reported, its public loss (value and gradient)
        # is not called, and the gradients equal the weighted sum with that term at 0
        z, d, labels, clf, target = self._inputs()
        cfg = SimLossConfig()
        sim_v, sim_g = sim_loss(z, d, cfg)
        kl_v, kl_g = kl_loss(z, target)
        cls_v, grad_logits = cls_loss(classifier_forward(clf, z), labels)
        weights = {"sim_loss": 0.9, "kl_loss": 0.7, "cls_loss": 1.3, zero: 0.0}
        calls = []
        real = getattr(losses_mod, zero)
        monkeypatch.setattr(losses_mod, zero, lambda *a, **k: calls.append(1) or real(*a, **k))
        lv = total_loss(z, d, labels, clf, target, weights["kl_loss"], weights["cls_loss"], cfg,
                        weights["sim_loss"])
        assert calls == []
        assert (lv.sim, lv.kl, lv.cls) == (sim_v, kl_v, cls_v)
        w_sim, w_kl, w_cls = weights["sim_loss"], weights["kl_loss"], weights["cls_loss"]
        np.testing.assert_array_equal(
            lv.grad_z, w_sim * sim_g + w_kl * kl_g + w_cls * (grad_logits @ clf.weights))
        np.testing.assert_array_equal(lv.grad_classifier[0], w_cls * (grad_logits.T @ z))
        np.testing.assert_array_equal(lv.grad_classifier[1], w_cls * grad_logits.sum(axis=0))

    def test_labels_are_checked_at_zero_head_weight(self):
        z, d, labels, clf, target = self._inputs()
        labels[-1] = clf.n_classes
        with pytest.raises(LabelOutOfRange):
            total_loss(z, d, labels, clf, target, 1.0, 0.0, SimLossConfig())

    def test_total_is_exact_weighted_sum(self):
        for seed in range(5):
            z, d, labels, clf, target = self._inputs(seed)
            cfg = SimLossConfig()
            lv = total_loss(z, d, labels, clf, target, 0.7, 1.3, cfg, sim_weight=0.9)
            assert lv.total == 0.9 * lv.sim + 0.7 * lv.kl + 1.3 * lv.cls

    @pytest.mark.parametrize("b, k", [(2, 1), (9, 17), (64, 64)])
    def test_reused_work_gives_the_bits_of_fresh_arrays(self, b, k):
        # NaN on the first call, then what the previous call left behind
        cfg = SimLossConfig()
        work = np.full((b, b, k), np.nan)
        for seed in range(3):
            inputs = self._inputs(seed, b, k)
            total, grad_z, _ = step_loss(*inputs, 0.7, 1.3, cfg, work=work)
            want = total_loss(*inputs, 0.7, 1.3, cfg)
            assert bits((total, grad_z)) == bits((want.total, want.grad_z))

    def test_grad_z_matches_finite_differences(self):
        z, d, labels, clf, target = self._inputs(9)
        cfg = SimLossConfig()
        lv = total_loss(z, d, labels, clf, target, 0.8, 1.1, cfg)

        def value_at(q):
            return total_loss(q, d, labels, clf, target, 0.8, 1.1, cfg).total

        numeric = fd_grad(value_at, z)
        np.testing.assert_allclose(lv.grad_z, numeric, rtol=1e-4, atol=1e-8)

    def test_grad_classifier_matches_finite_differences(self):
        z, d, labels, clf, target = self._inputs(10)
        cfg = SimLossConfig()
        lv = total_loss(z, d, labels, clf, target, 0.8, 1.1, cfg)
        step = 1e-6

        gw = np.zeros_like(clf.weights)
        for idx in np.ndindex(*clf.weights.shape):
            wp = clf.weights.copy(); wp[idx] += step
            wm = clf.weights.copy(); wm[idx] -= step
            up = total_loss(z, d, labels, ClassifierParams(wp, clf.biases.copy()), target, 0.8, 1.1, cfg).total
            down = total_loss(z, d, labels, ClassifierParams(wm, clf.biases.copy()), target, 0.8, 1.1, cfg).total
            gw[idx] = (up - down) / (2 * step)
        np.testing.assert_allclose(lv.grad_classifier[0], gw, rtol=1e-4, atol=1e-8)


@pytest.fixture(scope="module")
def worker():
    with ThreadPoolExecutor(1) as pool:
        yield pool


def pass_inputs(kind, b, k, m, seed):
    """Embeddings, an m-row target and label distances of one kind."""
    rng = np.random.default_rng(seed)
    if kind == "ties":  # a quarter grid: equal coordinates and equal distances
        z, target = rng.integers(0, 5, (b, k)) / 4, rng.integers(0, 5, (m, k)) / 4
    elif kind == "huge":  # differences and squares beyond float64 range
        z = rng.choice([-1e308, -1.0, 0.0, 0.5, 1e308], (b, k))
        target = rng.choice([-1e308, 0.25, 1e308], (m, k))
    else:
        z, target = rng.uniform(0.0, 1.0, (b, k)), rng.uniform(0.0, 1.0, (m, k))
    if kind == "duplicates":  # equal rows, and rows equal to a target row
        z[rng.integers(b, size=b // 2)] = z[rng.integers(b, size=b // 2)]
        z[rng.integers(b, size=b // 4)] = target[rng.integers(m, size=b // 4)]
    return z, target, symmetric_distances(rng, b)


# (B, K) on both sides of train's two-thread bound of B * B * K = 2**17: odd B
# gives halves of unequal size; at B = 64 and K = 64 each half fills its rows in
# blocks of 8 (7 at M = 70), and a target of another row count M shares the
# scratch of the z - z differences
PASS_CASES = [
    pytest.param(kind, b, k, m, id=f"{kind}-b{b}k{k}m{m}")
    for kind in ("uniform", "ties", "duplicates", "huge")
    for b, k, m in ((2, 1, 2), (3, 5, 3), (4, 16, 4), (9, 17, 5), (64, 64, 64), (63, 64, 70))
]


class TestSharedPairwisePass:
    """One pairwise pass feeds both embedding terms, on one thread or on two row halves."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("kind, b, k, m", PASS_CASES)
    def test_sim_loss_on_the_pass_is_bitwise_the_straight_form(self, worker, threads, kind, b, k, m):
        z, target, d = pass_inputs(kind, b, k, m, seed=b * k + m)
        cfg = SimLossConfig()
        with np.errstate(over="ignore", invalid="ignore"):
            pairs = _pairwise(z, target, np.full((b, b, k), np.nan), worker if threads == 2 else None)
            got = sim_loss(z, d, cfg, pairs=pairs)
            want = np_sim_loss(z, d, cfg)
            assert bits(got) == bits(want) == bits(sim_loss(z, d, cfg))
        if kind != "huge" and b * b * k <= 2000:  # the per-pair oracle sums with fsum
            want_value, want_grad = bf_sim_loss(z, d, cfg)
            assert got[0] == pytest.approx(want_value, rel=1e-12, abs=0)
            tau_z = batch_scale(np.abs(z[:, None] - z[None]).sum(axis=2), cfg.tau_floor)
            np.testing.assert_allclose(got[1], want_grad, rtol=1e-12, atol=1e-12 / (b * tau_z))

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("kind, b, k, m", PASS_CASES)
    def test_kl_loss_on_the_pass_is_bitwise_the_oracle(self, worker, threads, kind, b, k, m):
        z, target, _ = pass_inputs(kind, b, k, m, seed=b * k + m)
        with np.errstate(over="ignore", invalid="ignore"):
            pairs = _pairwise(z, target, np.full((b, b, k), np.nan), worker if threads == 2 else None)
            got = kl_loss(z, target, pairs=pairs)
            assert bits(got) == bits(bf_kl_loss(z, target)) == bits(kl_loss(z, target))

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("kind, b, k, m", PASS_CASES)
    def test_total_loss_is_bitwise_the_sum_of_the_oracles(self, worker, threads, kind, b, k, m):
        z, target, d = pass_inputs(kind, b, k, m, seed=b * k + m)
        labels = np.arange(b) % 3
        clf = init_classifier(k, 3, RngState.from_seed(b))
        cfg = SimLossConfig()
        weights = (0.7, 1.3, 0.9)  # lambda1, lambda2, sim_weight
        with np.errstate(over="ignore", invalid="ignore"):
            total, grad_z, values = step_loss(
                z, d, labels, clf, target, *weights[:2], cfg, weights[2],
                work=np.full((b, b, k), np.nan), worker=worker if threads == 2 else None)
            sim_v, sim_g = np_sim_loss(z, d, cfg)
            kl_v, kl_g = bf_kl_loss(z, target)
            cls_v, grad_logits = cls_loss(z @ clf.weights.T + clf.biases, labels)
            want_total = weights[2] * sim_v + weights[0] * kl_v + weights[1] * cls_v
            want_grad = weights[2] * sim_g + weights[0] * kl_g + weights[1] * (grad_logits @ clf.weights)
        assert bits((total, grad_z)) == bits((want_total, want_grad))
        assert [np.float64(v).tobytes() for v in values] == [
            np.float64(v).tobytes() for v in (sim_v, kl_v, cls_v)]

    def test_the_worker_fills_the_second_half_of_the_rows(self, worker, monkeypatch):
        calls = []
        real = losses_mod._pair_rows

        def recorded(*args):
            calls.append((args[-1], threading.current_thread() is threading.main_thread()))
            return real(*args)

        monkeypatch.setattr(losses_mod, "_pair_rows", recorded)
        z, target, _ = pass_inputs("uniform", 7, 3, 7, seed=0)
        _pairwise(z, target, None, worker)
        assert sorted(calls, key=lambda c: c[0].start) == [(slice(0, 4), True), (slice(4, 7), False)]

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_an_error_on_either_half_reaches_the_caller_after_the_worker_is_done(
        self, worker, monkeypatch, failing
    ):
        real = losses_mod._pair_rows
        finished = []

        def failing_half(*args):
            on_worker = threading.current_thread() is not threading.main_thread()
            if on_worker == (failing == "worker"):
                raise FloatingPointError(f"{failing} half")
            real(*args)
            finished.append(on_worker)

        monkeypatch.setattr(losses_mod, "_pair_rows", failing_half)
        z, target, d = pass_inputs("uniform", 8, 4, 8, seed=1)
        labels = np.zeros(8, dtype=np.int64)
        clf = init_classifier(4, 2, RngState.from_seed(0))
        with pytest.raises(FloatingPointError, match=f"^{failing} half$"):
            step_loss(z, d, labels, clf, target, 1.0, 1.0, SimLossConfig(), worker=worker)
        assert finished == [failing == "caller"]  # the other half ran to its end

    def test_the_worker_keeps_the_callers_numpy_error_state(self, worker):
        # inf - inf happens only in the rows of the infinite point, which the
        # worker fills: the caller's rows take finite - inf = -inf
        z = np.zeros((6, 1))
        z[5, 0] = np.inf
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            _pairwise(z, z, None, worker)
        with np.errstate(invalid="ignore"):
            pairs = _pairwise(z, z, None, worker)
        assert np.isnan(pairs.sq_z[5, 5]) and np.isinf(pairs.sq_z[:5, 5]).all()

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("m", [64, 70])
    def test_the_pass_allocates_less_than_one_pairwise_array_beyond_the_sign_slot(
        self, worker, threads, m
    ):
        # the differences go through one block-sized scratch per thread, not a B x B x K slot
        b = k = 64
        z, target, d = pass_inputs("uniform", b, k, m, seed=2)
        labels = np.arange(b) % 3
        clf = init_classifier(k, 3, RngState.from_seed(0))
        work = np.empty((b, b, k))
        one_array = b * b * k * 8  # bytes of one B x B x K float64 array
        pool = worker if threads == 2 else None
        peaks = {}
        tracemalloc.start()
        try:
            for name, slot in (("fresh", None), ("work", work)):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                step_loss(z, d, labels, clf, target, 1.0, 1.0, SimLossConfig(), work=slot, worker=pool)
                peaks[name] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert one_array <= peaks["fresh"] < 2 * one_array  # numpy's buffers are traced
        assert peaks["work"] < one_array

    @pytest.mark.parametrize("b, k, m, blocks", [
        (4, 16, 4, 1), (64, 64, 64, 8), (63, 64, 70, 9), (2, 2**16, 2, 2),
    ])
    def test_each_block_of_rows_fits_the_scratch(self, monkeypatch, b, k, m, blocks):
        # on one thread, each block of rows makes two subtracts and two squares into the
        # scratch, which holds at most _PAIR_BLOCK_BYTES, or one row of differences if larger
        z, target, _ = pass_inputs("uniform", b, k, m, seed=3)
        outs = []
        for name in ("subtract", "square"):
            real = getattr(np, name)
            monkeypatch.setattr(np, name, functools.partial(
                lambda real, *a, **kw: outs.append(kw["out"].nbytes) or real(*a, **kw), real))
        _pairwise(z, target, None, None)
        monkeypatch.undo()
        assert len(outs) == 4 * blocks
        assert max(outs) <= max(losses_mod._PAIR_BLOCK_BYTES, 8 * max(b, m) * k)


@functools.cache
def leaf_distances(branching: tuple[int, ...]) -> np.ndarray:
    taxonomy = balanced_taxonomy(branching)
    return distance_matrix(taxonomy, taxonomy.leaves())


class TestStackedOverSteps:
    """train computes a chunk's label sides and frozen-head values over a leading step axis."""

    @settings(max_examples=60, deadline=None)
    @given(b=st.one_of(st.sampled_from([2, 3, 4, 63, 64, 65, 130]), st.integers(2, 130)),
           steps=st.integers(1, 5), branching=st.sampled_from([(4, 4, 2), (10, 10, 10)]),
           seed=st.integers(0, 2**32 - 1))
    @example(b=64, steps=5, branching=(4, 4, 2), seed=0)
    @example(b=130, steps=3, branching=(10, 10, 10), seed=1)
    def test_each_step_equals_its_own_call_bit_for_bit(self, b, steps, branching, seed):
        cfg = SimLossConfig()
        dist = leaf_distances(branching)
        rng = np.random.default_rng(seed)
        ys = rng.integers(0, len(dist), (steps, b))  # each step's classes
        blocks = dist[ys[:, :, None], ys[:, None, :]]
        w, d_scaled = _label_side(blocks, cfg)
        logits = rng.normal(0.0, 3.0, (steps, b, len(dist)))
        values, log_probs = _cls_value(logits, ys)
        for s, block in enumerate(blocks):
            one_w, one_scaled = _label_side(block, cfg)
            assert w[s].tobytes() == one_w.tobytes() == pair_weight(block, cfg).tobytes()
            want = block / batch_scale(block, cfg.tau_floor)  # the per-block form it replaced
            assert d_scaled[s].tobytes() == one_scaled.tobytes() == want.tobytes()
            one_value, one_log_probs = _cls_value(logits[s], ys[s])
            assert values[s].tobytes() == one_value.tobytes()
            assert log_probs[s].tobytes() == one_log_probs.tobytes()
            assert float(one_value) == cls_loss(logits[s], ys[s])[0]
