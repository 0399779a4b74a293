import math

import numpy as np
import pytest

from libags.data import FeatureMatrix
from libags.errors import DivergenceError, ValidationError
from libags.model import (
    LogisticModel,
    RffEncoder,
    cross_entropy,
    fit_logistic,
    fit_logistic_soft,
    load_model,
    one_hot,
    predict_proba,
    rff_encode,
    save_model,
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
        model = LogisticModel(np.zeros((3, 2)), np.zeros(3), 0.0)
        probs = predict_proba(model, FeatureMatrix(np.random.default_rng(0).normal(size=(4, 2))))
        np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        W = rng.normal(size=(3, 4))
        x = FeatureMatrix(rng.normal(size=(6, 4)))
        base = predict_proba(LogisticModel(W, np.zeros(3), 0.0), x)
        shifted = predict_proba(LogisticModel(W, np.full(3, 7.5), 0.0), x)
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    def test_log_three_logit_gap(self):
        model = LogisticModel(np.array([[math.log(3.0)], [0.0]]), np.zeros(2), 0.0)
        probs = predict_proba(model, FeatureMatrix(np.array([[1.0]])))
        np.testing.assert_allclose(probs[0], [0.75, 0.25], atol=1e-9)

    def test_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(4)
        model = LogisticModel(rng.normal(size=(4, 3)) * 50, rng.normal(size=4), 0.0)
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


class TestModelIo:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        model = LogisticModel(rng.normal(size=(3, 5)), rng.normal(size=3), 0.01)
        path = tmp_path / "model.json"
        save_model(path, model)
        back = load_model(path)
        np.testing.assert_allclose(back.weights, model.weights, atol=1e-15)
        np.testing.assert_allclose(back.bias, model.bias, atol=1e-15)
        assert back.l2 == model.l2
        assert back.n_classes == 3
