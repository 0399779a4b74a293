import math

import numpy as np
import pytest

from libags.errors import ValidationError
from libags.score import TAU_FLOOR, boundary_weight, entropy_rows, importance, select_tau, top_two_margin_rows


def _check_distribution(pi) -> np.ndarray:
    pi = np.asarray(pi, dtype=np.float64)
    if pi.ndim != 1 or pi.size < 2:
        raise ValidationError("probability vector must be 1-D with at least 2 entries")
    if not np.all(np.isfinite(pi)) or np.any(pi < -1e-12) or abs(pi.sum() - 1.0) > 1e-6:
        raise ValidationError("entries must be nonnegative and sum to 1")
    return pi


def top_two_margin(pi) -> float:
    """Gap between the two largest class probabilities."""
    pi = _check_distribution(pi)
    top = np.partition(pi, -2)[-2:]
    return float(top[1] - top[0])


def entropy(pi) -> float:
    """Predictive entropy in nats, with 0*log(0) taken as 0."""
    pi = _check_distribution(pi)
    pos = pi[pi > 0]
    return float(-(pos * np.log(pos)).sum())


class TestTopTwoMargin:
    def test_simple(self):
        assert top_two_margin([0.7, 0.3]) == pytest.approx(0.4)

    def test_uniform_ties(self):
        assert top_two_margin([0.25] * 4) == pytest.approx(0.0)

    def test_three_class_sorted(self):
        assert top_two_margin([0.5, 0.3, 0.2]) == pytest.approx(0.2)

    def test_too_short(self):
        with pytest.raises(ValidationError):
            top_two_margin([1.0])

    def test_rows_match_scalar(self):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(5), size=40)
        rows = top_two_margin_rows(probs)
        singles = np.array([top_two_margin(p) for p in probs])
        np.testing.assert_allclose(rows, singles, atol=1e-15)


class TestSelectTau:
    def test_degenerate_floor(self):
        assert select_tau(np.zeros(10), 0.25) == TAU_FLOOR

    def test_interpolated_quantile(self):
        # hand computation: position 0.25*(4-1)=0.75 between 0.1 and 0.2
        assert select_tau(np.array([0.1, 0.2, 0.3, 0.4]), 0.25) == pytest.approx(0.175)

    def test_single_point(self):
        assert select_tau(np.array([0.5]), 0.9) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            select_tau(np.array([]))


class TestBoundaryWeight:
    def test_on_boundary(self):
        assert boundary_weight(0.0, 0.2) == pytest.approx(1.0)

    def test_known_value(self):
        assert boundary_weight(0.4, 0.2) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_far_limit_underflows_cleanly(self):
        assert boundary_weight(1.0, 0.05) < 1e-80

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(ValidationError):
            boundary_weight(0.5, 0.0)

    def test_monotone_in_margin_and_tau(self):
        deltas = np.linspace(0, 1, 30)
        weights = boundary_weight(deltas, 0.3)
        assert np.all(np.diff(weights) < 0)
        taus = np.linspace(0.05, 1.0, 20)
        by_tau = np.array([boundary_weight(0.4, t) for t in taus])
        assert np.all(np.diff(by_tau) > 0)


class TestEntropy:
    def test_one_hot_zero(self):
        assert entropy([1.0, 0.0, 0.0]) == 0.0

    def test_uniform_two_class(self):
        assert entropy([0.5, 0.5]) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_known_value_direct_sum(self):
        expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        assert entropy([0.75, 0.25]) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.562335, abs=1e-6)

    def test_permutation_invariant_and_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            assert entropy(p) == pytest.approx(entropy(p[::-1]), abs=1e-12)
            assert 0.0 <= entropy(p) <= math.log(4) + 1e-12

    def test_rows_match_scalar(self):
        rng = np.random.default_rng(2)
        probs = rng.dirichlet(np.ones(3), size=30)
        np.testing.assert_allclose(entropy_rows(probs), [entropy(p) for p in probs], atol=1e-12)


class TestImportance:
    def test_off_support_kills(self):
        assert importance(1.0, 0.5, 0.0) == 0.0

    def test_product(self):
        assert importance(1.0, math.log(2.0), 1.0) == pytest.approx(math.log(2.0))
        assert importance(0.5, 0.4, 0.8) == pytest.approx(0.16)

    def test_zero_whenever_any_factor_zero_and_monotone(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            a, u, b = rng.uniform(0, 1, 3)
            assert importance(0.0, u, b) == 0.0
            assert importance(a, 0.0, b) == 0.0
            assert importance(a * 1.1, u, b) >= importance(a, u, b)
            assert importance(a, u * 1.1, b) >= importance(a, u, b)
