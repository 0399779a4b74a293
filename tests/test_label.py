import numpy as np
import pytest

from libags.errors import ValidationError
from libags.label import soft_label


def soft_label_bound_check(e_c, pi, rho, a_tau: float) -> tuple:
    """Both sides of the blended-label L1 stability bound.

    Returns ``(lhs, rhs)`` where lhs is the L1 distance of the blended
    label from the reference distribution rho and rhs is the matching
    convex combination of the component distances. The triangle
    inequality guarantees lhs <= rhs; the verification suite asserts it
    on randomized inputs.
    """
    e_c = np.asarray(e_c, dtype=np.float64)
    pi = np.asarray(pi, dtype=np.float64)
    rho = np.asarray(rho, dtype=np.float64)
    if not (e_c.shape == pi.shape == rho.shape):
        raise ValidationError("e_c, pi, rho must share a shape")
    blended = (1.0 - a_tau) * e_c + a_tau * pi
    lhs = float(np.abs(blended - rho).sum())
    rhs = float((1.0 - a_tau) * np.abs(e_c - rho).sum() + a_tau * np.abs(pi - rho).sum())
    return lhs, rhs


class TestSoftLabel:
    def test_far_from_boundary_keeps_generator_label(self):
        np.testing.assert_allclose(soft_label(1, [0.6, 0.4], 0.0), [0.0, 1.0], atol=0)

    def test_on_boundary_uses_model_probabilities(self):
        np.testing.assert_allclose(soft_label(0, [0.6, 0.4], 1.0), [0.6, 0.4], atol=0)

    def test_half_blend(self):
        np.testing.assert_allclose(soft_label(0, [0.6, 0.4], 0.5), [0.8, 0.2], atol=1e-15)

    def test_always_a_distribution(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            K = int(rng.integers(2, 6))
            pi = rng.dirichlet(np.ones(K))
            label = soft_label(int(rng.integers(0, K)), pi, float(rng.uniform(0, 1)))
            assert np.all(label >= 0)
            assert label.sum() == pytest.approx(1.0, abs=1e-9)

    def test_bad_class_index(self):
        with pytest.raises(ValidationError):
            soft_label(2, [0.5, 0.5], 0.3)

    def test_bad_mixing_weight(self):
        with pytest.raises(ValidationError):
            soft_label(0, [0.5, 0.5], 1.5)


class TestSoftLabelBound:
    def test_zero_distance_case(self):
        e = np.array([1.0, 0.0])
        pi = np.array([0.7, 0.3])
        blended = soft_label(0, pi, 0.25)
        lhs, rhs = soft_label_bound_check(e, pi, blended, 0.25)
        assert lhs == 0.0
        assert rhs >= 0.0

    def test_degenerate_weight_equality(self):
        e = np.array([0.0, 1.0])
        pi = np.array([0.2, 0.8])
        rho = np.array([0.5, 0.5])
        lhs, rhs = soft_label_bound_check(e, pi, rho, 0.0)
        assert lhs == pytest.approx(rhs, abs=1e-15)

    def test_bound_holds_on_random_triples(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            K = int(rng.integers(2, 7))
            e = np.zeros(K)
            e[int(rng.integers(0, K))] = 1.0
            pi = rng.dirichlet(np.ones(K))
            rho = rng.dirichlet(np.ones(K))
            a = float(rng.uniform(0, 1))
            lhs, rhs = soft_label_bound_check(e, pi, rho, a)
            assert lhs <= rhs + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            soft_label_bound_check([1.0, 0.0], [0.5, 0.5], [0.3, 0.3, 0.4], 0.5)
