import math

import numpy as np
import pytest

import libags.model as model_module
from conftest import peak_bytes
from libags.data import FeatureMatrix, make_two_moons
from libags.errors import DivergenceError, ValidationError
from libags.label import soft_label
from libags.model import (
    LogisticModel,
    RffEncoder,
    _log_softmax,
    cross_entropy,
    fit_logistic,
    fit_logistic_soft,
    one_hot,
    predict_proba,
    rff_encode,
)


class TestRffEncoder:
    def test_zero_row_maps_to_cos_one_sin_zero(self):
        enc = RffEncoder.create(3, 8, 1.0, 0)
        out = rff_encode(enc, FeatureMatrix(np.zeros((1, 3))))
        scale = math.sqrt(2.0 / 8)
        np.testing.assert_allclose(out.values[0, :4], scale, atol=1e-15)
        np.testing.assert_allclose(out.values[0, 4:], 0.0, atol=1e-15)

    def test_deterministic(self):
        enc = RffEncoder.create(2, 10, 0.7, 3)
        x = FeatureMatrix(np.random.default_rng(0).normal(size=(5, 2)))
        assert np.array_equal(rff_encode(enc, x).values, rff_encode(enc, x).values)

    def test_unit_row_norm(self):
        enc = RffEncoder.create(4, 64, 1.3, 9)
        x = FeatureMatrix(np.random.default_rng(1).normal(size=(50, 4)))
        norms = (rff_encode(enc, x).values ** 2).sum(axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_dimension_mismatch(self):
        enc = RffEncoder.create(3, 8, 1.0, 0)
        with pytest.raises(ValidationError):
            rff_encode(enc, FeatureMatrix(np.zeros((1, 2))))

    def test_odd_output_dim_rejected(self):
        with pytest.raises(ValidationError):
            RffEncoder.create(2, 7, 1.0, 0)

    @pytest.mark.parametrize("d_in, bandwidth, seed, named", [
        (0, 1.0, 0, "d_in"),  # an encoder that rejects every matrix
        (-1, 1.0, 0, "d_in"),  # numpy's "negative dimensions are not allowed"
        (2, math.nan, 0, "bandwidth"),  # a nan projection
        (2, math.inf, 0, "bandwidth"),
        (2, 1e-320, 0, "bandwidth"),  # 1 / bandwidth overflows
        (2, 1.0, -1, "seed"),  # numpy's "expected non-negative integer"
    ])
    def test_bad_arguments_rejected_by_name(self, d_in, bandwidth, seed, named):
        with pytest.raises(ValidationError, match=f"^{named} must"):
            RffEncoder.create(d_in, 8, bandwidth, seed)

    @pytest.mark.parametrize("d_out", [2, 200])
    @pytest.mark.parametrize("rows", [1, 7, 3501])
    def test_bit_identical_to_the_stacked_expression(self, rows, d_out):
        enc = RffEncoder.create(2, d_out, 0.4, rows)
        x = FeatureMatrix(np.random.default_rng(rows).normal(size=(rows, 2)))
        phases = x.values @ enc.projection
        want = np.sqrt(2.0 / d_out) * np.hstack([np.cos(phases), np.sin(phases)])
        assert rff_encode(enc, x).values.tobytes() == want.tobytes()

    def test_memory_is_one_and_a_half_times_the_result(self):
        # One half-width phase buffer beside the result, which is frozen in
        # place rather than copied.
        _, _, pool = make_two_moons(1000, 0.3, 0.55, 0)
        enc = RffEncoder.create(2, 200, 0.4, 1)
        encoded, peak = peak_bytes(lambda: rff_encode(enc, pool.features))
        assert encoded.values.shape == (3500, 200)
        assert peak <= 1.6 * encoded.values.nbytes

    def test_projection_std_matches_bandwidth(self):
        enc = RffEncoder.create(50, 400, 2.0, 4)
        assert abs(enc.projection.std() - 0.5) < 0.02


class TestFitLogistic:
    def test_separable_toy_reaches_full_accuracy(self):
        x = FeatureMatrix(np.array([[-1.0, 0.0], [-2.0, 1.0], [1.0, 0.0], [2.0, 1.0]]))
        labels = np.array([0, 0, 1, 1])
        model = fit_logistic(x, labels, 2, 1e-4, 500, 0.5)
        pred = predict_proba(model, x).argmax(axis=1)
        assert pred.tolist() == labels.tolist()

    def test_huge_l2_pins_weights_near_zero(self):
        rng = np.random.default_rng(5)
        x = FeatureMatrix(rng.normal(size=(20, 3)))
        labels = np.array([0, 1] * 10)
        model = fit_logistic(x, labels, 2, 1e6, 200, 1e-7)
        assert np.abs(model.weights).max() < 1e-3
        probs = predict_proba(model, x)
        np.testing.assert_allclose(probs, 0.5, atol=1e-3)

    def test_zero_epochs_rejected(self):
        x = FeatureMatrix(np.ones((2, 2)))
        with pytest.raises(ValidationError):
            fit_logistic(x, np.array([0, 1]), 2, 0.0, 0, 0.5)

    def test_divergence_names_epoch(self):
        rng = np.random.default_rng(2)
        x = FeatureMatrix(rng.normal(size=(10, 2)))
        labels = rng.integers(0, 2, 10)
        with pytest.raises(DivergenceError, match="epoch"):
            fit_logistic(x, labels, 2, 1.0, 500, 1e4)

    def test_loss_non_increasing_under_stability_bound(self):
        rng = np.random.default_rng(11)
        x = FeatureMatrix(rng.normal(size=(30, 5)))
        labels = rng.integers(0, 3, 30)
        max_row_sq = float((x.values**2).sum(axis=1).max() + 1.0)
        l2 = 1e-3
        lr = 2.0 / (max_row_sq + 2.0 * l2)
        model = fit_logistic(x, labels, 3, l2, 300, lr)
        losses = np.array(model.loss_curve)
        assert np.all(np.diff(losses) <= 1e-12)

    def test_soft_one_hot_matches_hard_exactly(self):
        rng = np.random.default_rng(7)
        x = FeatureMatrix(rng.normal(size=(12, 3)))
        labels = rng.integers(0, 2, 12)
        hard = fit_logistic(x, labels, 2, 1e-3, 50, 0.3)
        soft = fit_logistic_soft(x, one_hot(labels, 2), 1e-3, 50, 0.3)
        assert np.array_equal(hard.weights, soft.weights)
        assert np.array_equal(hard.bias, soft.bias)


class TestPredictProba:
    def test_zero_model_uniform(self):
        model = LogisticModel(np.zeros((3, 2)), np.zeros(3))
        probs = predict_proba(model, FeatureMatrix(np.random.default_rng(0).normal(size=(4, 2))))
        np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        W = rng.normal(size=(3, 4))
        x = FeatureMatrix(rng.normal(size=(6, 4)))
        base = predict_proba(LogisticModel(W, np.zeros(3)), x)
        shifted = predict_proba(LogisticModel(W, np.full(3, 7.5)), x)
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    def test_log_three_logit_gap(self):
        model = LogisticModel(np.array([[math.log(3.0)], [0.0]]), np.zeros(2))
        probs = predict_proba(model, FeatureMatrix(np.array([[1.0]])))
        np.testing.assert_allclose(probs[0], [0.75, 0.25], atol=1e-9)

    def test_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(4)
        model = LogisticModel(rng.normal(size=(4, 3)) * 50, rng.normal(size=4))
        probs = predict_proba(model, FeatureMatrix(rng.normal(size=(100, 3))))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs > 0)


class TestGradient:
    def _finite_difference(self, W, b, X, T, l2, step=1e-5):
        gW = np.zeros_like(W)
        for idx in np.ndindex(W.shape):
            up, down = W.copy(), W.copy()
            up[idx] += step
            down[idx] -= step
            gW[idx] = (cross_entropy(up, b, X, T, l2)[0] - cross_entropy(down, b, X, T, l2)[0]) / (2 * step)
        gb = np.zeros_like(b)
        for i in range(b.size):
            up, down = b.copy(), b.copy()
            up[i] += step
            down[i] -= step
            gb[i] = (cross_entropy(W, up, X, T, l2)[0] - cross_entropy(W, down, X, T, l2)[0]) / (2 * step)
        return gW, gb

    @pytest.mark.parametrize("soft_targets", [False, True])
    def test_matches_central_differences(self, soft_targets):
        rng = np.random.default_rng(17 if soft_targets else 13)
        n, d, K = 12, 4, 3
        X = rng.normal(size=(n, d))
        T = rng.dirichlet(np.ones(K), size=n) if soft_targets else one_hot(rng.integers(0, K, n), K)
        W = rng.normal(size=(K, d))
        b = rng.normal(size=K)
        _, gW, gb = cross_entropy(W, b, X, T, 1e-3)
        fW, fb = self._finite_difference(W, b, X, T, 1e-3)
        num = np.linalg.norm(gW - fW) + np.linalg.norm(gb - fb)
        den = max(np.linalg.norm(fW) + np.linalg.norm(fb), 1e-12)
        assert num / den < 1e-4


def axis_log_softmax(logits):
    """Log-softmax by reductions along axis 1: the oracle the class-row passes must match bit for bit."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def reference_cross_entropy(weights, bias, features, targets, l2: float):
    """The loss and gradient with fresh temporaries, axis-1 reductions and the bias gradient by ``sum(axis=0)``."""
    logp = axis_log_softmax(features @ weights.T + bias)
    loss = float(-(targets * logp).sum() / features.shape[0] + 0.5 * l2 * (weights**2).sum())
    resid = (np.exp(logp) - targets) / features.shape[0]
    return loss, resid.T @ features + l2 * weights, resid.sum(axis=0)


def reference_fit(x, targets, l2: float, epochs: int, lr: float) -> LogisticModel:
    """The training loop as plain numpy, one fresh array per step: the oracle ``fit_logistic_soft`` must match bit for bit."""
    W = np.zeros((targets.shape[1], x.n_cols))
    b = np.zeros(targets.shape[1])
    losses = []
    for _ in range(epochs):
        loss, grad_w, grad_b = reference_cross_entropy(W, b, x.values, targets, l2)
        losses.append(loss)
        W -= lr * grad_w
        b -= lr * grad_b
    return LogisticModel(W, b, tuple(losses))


def reference_predict_proba(model, x):
    probs = np.maximum(np.exp(axis_log_softmax(x.values @ model.weights.T + model.bias)), 1e-300)
    return probs / probs.sum(axis=1, keepdims=True)


def assert_fit_matches_reference(x, labels, n_classes, epochs):
    got = fit_logistic(x, labels, n_classes, 1e-4, epochs, 0.5)
    want = reference_fit(x, one_hot(labels, n_classes), 1e-4, epochs, 0.5)
    assert np.array_equal(got.weights, want.weights)
    assert np.array_equal(got.bias, want.bias)
    assert got.loss_curve == want.loss_curve
    assert np.array_equal(predict_proba(got, x), reference_predict_proba(want, x))


def logit_cases(rng, K):
    """(n, K) logits at several row counts and scales, with tied and saturated rows."""
    cases = [rng.normal(size=(n, K)) * scale for n in (1, 7, 300) for scale in (0.1, 3.0, 100.0)]
    tied = rng.normal(size=(40, K))
    tied[:, -1] = tied[:, 0]
    cases.append(tied)
    cases.append(np.vstack([np.full(K, 5.0), np.append(800.0, np.zeros(K - 1))]))
    return cases


def banded_labels(raw, n_classes):
    return np.digitize(raw[:, 0] + 0.3 * raw[:, 1], np.linspace(-1.0, 1.0, n_classes + 1)[1:-1])


def bench_shaped_task(n_classes):
    """The bench's shape: 301 encoded rows of 200 random features, with labels banded into ``n_classes``."""
    rng = np.random.default_rng(n_classes)
    raw = rng.normal(size=(301, 2))
    x = rff_encode(RffEncoder.create(2, 200, 0.4, 0), FeatureMatrix(raw))
    return x, banded_labels(raw, n_classes)


def cli_shaped_task(n_classes):
    """The CLI scoring fit's shape: 1130 raw rows of 2 features, with labels banded into ``n_classes``."""
    raw = np.random.default_rng(50 + n_classes).normal(size=(1130, 2))
    return FeatureMatrix(raw), banded_labels(raw, n_classes)


class TestLogSoftmax:
    @pytest.mark.parametrize("K", [*range(2, 13), 129, 200])
    def test_bit_identical_to_axis_reductions(self, K):
        # K < 8 sums left to right; K >= 8 follows numpy's pairwise tree, split above 128
        rng = np.random.default_rng(K)
        for logits in logit_cases(rng, K):
            bias = rng.normal(size=K)
            assert np.array_equal(_log_softmax(logits, bias), axis_log_softmax(logits + bias))

    @pytest.mark.parametrize("K", range(2, 13))
    def test_cross_entropy_bit_identical_to_axis_reductions(self, K):
        rng = np.random.default_rng(100 + K)
        n, d = 50, 6
        X = rng.normal(size=(n, d))
        T = rng.dirichlet(np.ones(K), size=n)
        W = rng.normal(size=(K, d))
        b = rng.normal(size=K)
        got = cross_entropy(W, b, X, T, 1e-3)
        want = reference_cross_entropy(W, b, X, T, 1e-3)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])

    @pytest.mark.parametrize("n_classes, epochs", [(2, 2000), (3, 500)])
    def test_fit_bit_identical_to_axis_reduction_trainer(self, n_classes, epochs):
        assert_fit_matches_reference(*bench_shaped_task(n_classes), n_classes, epochs)


class TestBiasGradient:
    @pytest.mark.parametrize("K", [2, 3, 5, 9, 12])
    @pytest.mark.parametrize("n", [7, 8, 129, 301, 1161, 5000])
    def test_running_sum_bit_identical_to_axis0_sum(self, n, K):
        # numpy adds the rows of a C-contiguous (n, K) array one after another in both reductions
        rng = np.random.default_rng(1000 * K + n)
        rows = rng.normal(size=(n, K)) * 10.0 ** rng.uniform(-8.0, 8.0, size=(n, K))
        assert np.array_equal(np.add.accumulate(rows, axis=0)[-1], rows.sum(axis=0))
        X = rng.normal(size=(n, 6))
        T = rng.dirichlet(np.ones(K), size=n)
        W = rng.normal(size=(K, 6)) * 10.0 ** rng.uniform(-3.0, 2.0, size=(K, 1))
        b = rng.normal(size=K)
        got = cross_entropy(W, b, X, T, 1e-3)
        want = reference_cross_entropy(W, b, X, T, 1e-3)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])

    @pytest.mark.parametrize("n_classes, epochs", [(2, 2000), (3, 500)])
    def test_fit_bit_identical_to_axis0_trainer(self, n_classes, epochs):
        assert_fit_matches_reference(*cli_shaped_task(n_classes), n_classes, epochs)


class TestTrainer:
    @pytest.mark.parametrize("task", [bench_shaped_task, cli_shaped_task])
    @pytest.mark.parametrize("n_classes", [7, 8, 9, 12])
    def test_fit_bit_identical_to_reference_trainer(self, n_classes, task):
        # with the fits above this covers K = 2, 3, 7, 8, 9 and 12 at both shapes
        assert_fit_matches_reference(*task(n_classes), n_classes, 300)

    def test_work_arrays_reused_across_calls(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 3))
        T = one_hot(rng.integers(0, 2, 20), 2)
        W = rng.normal(size=(2, 3))
        b = rng.normal(size=2)
        work = model_module._Work(20, 2, 3)
        first = cross_entropy(W, b, X, T, 1e-3, work)
        second = cross_entropy(2.0 * W, b, X, T, 1e-3, work)
        assert first[1] is second[1] and first[2].base is second[2].base
        fresh = cross_entropy(2.0 * W, b, X, T, 1e-3)
        assert second[0] == fresh[0]
        assert np.array_equal(second[1], fresh[1]) and np.array_equal(second[2], fresh[2])

    def test_one_class_fit_is_all_zero(self):
        x = FeatureMatrix(np.random.default_rng(6).normal(size=(9, 3)))
        model = fit_logistic(x, np.zeros(9, dtype=int), 1, 1e-3, 20, 0.5)
        assert model.loss_curve == (0.0,) * 20
        assert not model.weights.any() and not model.bias.any()
        assert np.array_equal(predict_proba(model, x), np.ones((9, 1)))


class TestTargets:
    @pytest.mark.parametrize("bad", [[2.0, -1.0], [3.0, 0.0], [math.nan, 1.0], [math.inf, 0.0], [0.5, 0.499]])
    def test_non_distribution_row_rejected_by_index(self, bad):
        targets = one_hot([0, 1, 1, 0], 2)
        targets[2] = bad
        with pytest.raises(ValidationError, match="target probability row 2 "):
            fit_logistic_soft(FeatureMatrix(np.ones((4, 2))), targets, 0.0, 5, 0.1)

    def test_soft_label_rows_accepted(self):
        rng = np.random.default_rng(3)
        targets = np.array([soft_label(int(c), p, a) for c, p, a in zip(rng.integers(0, 3, 40), rng.dirichlet(np.ones(3), 40), rng.uniform(size=40))])
        model = fit_logistic_soft(FeatureMatrix(rng.normal(size=(40, 2))), targets, 1e-3, 5, 0.1)
        assert len(model.loss_curve) == 5

    @pytest.mark.parametrize("targets", [np.ones((3, 2)) / 2, np.ones(4) / 2])
    def test_misshapen_targets_rejected(self, targets):
        with pytest.raises(ValidationError, match="targets must be"):
            fit_logistic_soft(FeatureMatrix(np.ones((4, 2))), targets, 0.0, 5, 0.1)


class TestModelShapes:
    @pytest.mark.parametrize(
        "weights, bias",
        [(np.zeros((3, 2)), np.zeros(2)), (np.zeros(3), np.zeros(3)), (np.zeros((2, 3)), np.zeros((2, 1))), (np.zeros((1, 2, 3)), np.zeros(1))],
    )
    def test_inconsistent_shapes_rejected(self, weights, bias):
        with pytest.raises(ValidationError, match="weights must be"):
            LogisticModel(weights, bias)
