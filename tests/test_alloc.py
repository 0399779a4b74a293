import numpy as np
import pytest

from libags.alloc import solve_lambda
from libags.errors import LibagsError, NoPositiveImportance, ValidationError


class OracleConvergenceError(LibagsError):
    """A reference-solver used for verification failed to converge.

    This signals broken test infrastructure, not a library failure.
    """


def gap_score(r_j: float, coverage_j: float, lambda_: float) -> float:
    """Clipped allocation score for one candidate."""
    if lambda_ <= 0:
        raise ValidationError(f"lambda must be positive, got {lambda_}")
    return max(0.0, np.sqrt(r_j / lambda_) - coverage_j)


def _project_simplex(y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, y.size + 1)
    rho = idx[u - css / idx > 0][-1]
    theta = css[rho - 1] / rho
    return np.maximum(y - theta, 0.0)


def continuous_allocation_oracle(r_bins, p_bins, n: int, m: int, grid: int = 200_000) -> np.ndarray:
    """Minimize the binned inverse-evidence objective by projected gradient.

    The domain is split into ``len(r_bins)`` equal bins of width
    ``1/len(r_bins)``; ``p_bins`` must satisfy ``sum(p_bins) * width == 1``.
    Returns the optimal allocation density per bin (``sum(q) * width == 1``).
    ``grid`` caps the number of projected-gradient iterations; steps use
    backtracking from an inverse-curvature scale, shrinking as iterates
    approach the minimizer, and the loop exits at first-order stationarity.
    """
    r = np.asarray(r_bins, dtype=np.float64)
    p = np.asarray(p_bins, dtype=np.float64)
    if r.shape != p.shape or r.ndim != 1 or r.size < 1:
        raise ValidationError("r_bins and p_bins must be vectors of equal length")
    if np.any(r < 0) or np.any(p < 0):
        raise ValidationError("r_bins and p_bins must be nonnegative")
    width = 1.0 / r.size
    if abs(p.sum() * width - 1.0) > 1e-9:
        raise ValidationError("p_bins must integrate to 1 over the unit domain")
    if np.any(p == 0):
        raise ValidationError("oracle requires strictly positive real density per bin")
    if not np.any(r > 0):
        return np.ones(r.size)  # objective is identically zero; return the uniform density

    # Optimize over s = q * width, the per-bin mass on the standard simplex.
    def objective(s):
        return float((width * r / (n * p + (m / width) * s)).sum())

    def gradient(s):
        return -m * r / (n * p + (m / width) * s) ** 2

    curvature = (2.0 * m * m * r / (width * (n * p) ** 3)).max()
    step = 1.0 / curvature if curvature > 0 else 1.0
    s = np.full(r.size, 1.0 / r.size)
    value = objective(s)
    stalled = 0
    for _ in range(grid):
        g = gradient(s)
        mu = g.min()
        if (g[s > 1e-12] - mu).max(initial=0.0) < 1e-8 * max(1.0, abs(mu)):
            return s / width
        trial_step = step
        for _ in range(200):
            s_new = _project_simplex(s - trial_step * g)
            value_new = objective(s_new)
            if value_new <= value + 1e-4 * float(g @ (s_new - s)) or bool((s_new == s).all()):
                break
            trial_step *= 0.5
        # At float resolution the projection stops moving; that iterate is
        # stationary to machine precision even if the residual test is not met.
        stalled = stalled + 1 if bool((s_new == s).all()) else 0
        if stalled >= 3:
            return s / width
        s, value, step = s_new, value_new, min(trial_step * 1.3, 1e6 / max(curvature, 1e-12))
    raise OracleConvergenceError(f"projected gradient did not reach stationarity in {grid} iterations")


class TestGapScore:
    def test_arithmetic(self):
        assert gap_score(1.0, 0.5, 1.0) == pytest.approx(0.5)

    def test_clipped_branch(self):
        assert gap_score(0.04, 0.5, 1.0) == 0.0

    def test_monotone_in_importance_at_zero_coverage(self):
        values = [gap_score(r, 0.0, 2.0) for r in (0.1, 0.4, 0.9)]
        assert values == sorted(values)
        np.testing.assert_allclose(values, [np.sqrt(r / 2.0) for r in (0.1, 0.4, 0.9)], rtol=1e-12)

    def test_lambda_must_be_positive(self):
        with pytest.raises(ValidationError):
            gap_score(1.0, 0.0, 0.0)


class TestSolveLambda:
    def test_single_candidate_closed_form(self):
        sol = solve_lambda(np.array([1.0]), np.array([0.0]), 2.0)
        assert sol.lambda_ == pytest.approx(0.25, rel=1e-6)
        np.testing.assert_allclose(sol.gap_scores, [2.0], rtol=1e-6)

    def test_symmetric_pair(self):
        sol = solve_lambda(np.array([1.0, 1.0]), np.zeros(2), 2.0)
        assert sol.lambda_ == pytest.approx(1.0, rel=1e-6)
        np.testing.assert_allclose(sol.gap_scores, [1.0, 1.0], rtol=1e-6)

    def test_zero_importance_candidate_gets_zero(self):
        sol = solve_lambda(np.array([1.0, 0.0]), np.zeros(2), 1.0)
        assert sol.gap_scores[1] == 0.0

    def test_all_zero_importance_raises(self):
        with pytest.raises(NoPositiveImportance):
            solve_lambda(np.zeros(4), np.zeros(4), 1.0)

    @pytest.mark.parametrize("target", [0.0, -1.0, np.inf, np.nan])
    def test_target_must_be_positive_and_finite(self, target):
        with pytest.raises(ValidationError, match="target_mass"):
            solve_lambda(np.ones(3), np.zeros(3), target)

    def test_mass_matches_target_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            size = int(rng.integers(1, 200))
            r = rng.uniform(0, 2, size)
            r[rng.random(size) < 0.2] = 0.0
            if not np.any(r > 0):
                r[0] = 1.0
            coverage = rng.uniform(0, 3, size)
            target = float(rng.uniform(0.1, 50))
            sol = solve_lambda(r, coverage, target)
            assert abs(sol.total_mass - target) <= 1e-6 * target

    def test_mass_exact_to_rounding_on_criterion_6_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            size = int(rng.integers(1, 501))
            r = rng.uniform(0, 2, size)
            r[rng.random(size) < 0.2] = 0.0
            if not np.any(r > 0):
                r[int(rng.integers(size))] = 1.0
            coverage = rng.uniform(0, 5, size)
            target = float(rng.uniform(0.05, 100.0))
            sol = solve_lambda(r, coverage, target)
            assert abs(sol.total_mass - target) <= 1e-12 * target

    @pytest.mark.parametrize("target", [0.5, 3.0, 12.0, 40.0])
    def test_tied_kinks_get_equal_scores(self, target):
        # Kinks c / sqrt(r): 1 for the first four, 2 for the next three.
        # Equal rows tie exactly; rows sharing a kink share G / sqrt(r).
        r = np.array([4.0, 1.0, 4.0, 1.0, 1.0, 0.25, 1.0, 9.0])
        coverage = np.array([2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 0.5])
        sol = solve_lambda(r, coverage, target)
        g = sol.gap_scores
        assert g[0] == g[2] and g[1] == g[3] and g[4] == g[6]
        per_a = g / np.sqrt(r)
        np.testing.assert_allclose(per_a[:4], per_a[0], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(per_a[4:7], per_a[4], rtol=1e-12, atol=1e-15)
        assert abs(sol.total_mass - target) <= 1e-12 * target

    def test_zero_coverage_splits_the_target_by_sqrt_importance(self):
        r = np.random.default_rng(3).uniform(0, 2, 40)
        r[::7] = 0.0
        a = np.sqrt(r)
        sol = solve_lambda(r, np.zeros(40), 17.0)
        np.testing.assert_allclose(sol.gap_scores, a * 17.0 / a.sum(), rtol=1e-14)
        assert sol.lambda_ == pytest.approx((a.sum() / 17.0) ** 2, rel=1e-14)

    def test_scores_consistent_with_gap_score(self):
        rng = np.random.default_rng(1)
        r = rng.uniform(0, 1, 50)
        coverage = rng.uniform(0, 2, 50)
        sol = solve_lambda(r, coverage, 10.0)
        recomputed = np.array([gap_score(ri, ci, sol.lambda_) for ri, ci in zip(r, coverage)])
        np.testing.assert_allclose(sol.gap_scores, recomputed, atol=1e-9)

    def test_monotonicity_in_coverage_and_importance(self):
        lam = 0.7
        assert gap_score(0.5, 0.2, lam) >= gap_score(0.5, 0.4, lam)
        assert gap_score(0.8, 0.2, lam) >= gap_score(0.5, 0.2, lam)


class TestContinuousAllocationOracle:
    def test_constant_field_uniform_allocation(self):
        B = 10
        q = continuous_allocation_oracle(np.full(B, 0.5), np.full(B, 1.0), 50, 20)
        np.testing.assert_allclose(q, 1.0, atol=1e-6)

    def test_single_active_bin_takes_all_mass(self):
        B = 8
        r = np.zeros(B)
        r[3] = 1.0
        q = continuous_allocation_oracle(r, np.full(B, 1.0), 50, 20)
        np.testing.assert_allclose(q[3], B, rtol=1e-3)
        assert q.sum() / B == pytest.approx(1.0, abs=1e-9)

    def test_matches_closed_form_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            B, n, m = 20, 100, 50
            r = rng.uniform(0, 1, B)
            r[rng.random(B) < 0.15] = 0.0
            if not np.any(r > 0):
                r[0] = 0.5
            p = rng.dirichlet(np.ones(B)) * B
            q_oracle = continuous_allocation_oracle(r, p, n, m)
            sol = solve_lambda(r, n * p, m * B)
            q_closed = sol.gap_scores / m
            assert np.abs(q_oracle - q_closed).sum() < 1e-3

    def test_rejects_non_normalized_density(self):
        with pytest.raises(ValidationError):
            continuous_allocation_oracle(np.ones(4), np.ones(4) * 2.0, 10, 5)
