"""Gap-score allocation: how much synthetic mass each candidate deserves.

Each candidate j gets ``G_j = max(0, sqrt(r_j / lambda) - coverage_j)``:
importance opens the budget, existing real coverage closes it. The
multiplier lambda is the unique value at which the total allocated mass
hits the requested target; since the total is continuous and strictly
decreasing in lambda wherever it is positive, bisection solves it. The
search runs in log(lambda) space, which keeps extreme coverage scales
(tiny or astronomically large density estimates) inside float range.

The test suite checks that this closed form minimizes the
inverse-evidence objective it is derived from, against an independent
projected-gradient solver on a binned domain (``tests/test_alloc.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoPositiveImportance, ValidationError

BISECT_REL_TOL = 1e-6
BISECT_MAX_ITER = 200


@dataclass(frozen=True)
class AllocationSolution:
    lambda_: float
    gap_scores: np.ndarray
    total_mass: float


def _mass_at(log_lambda: float, log_r, coverage) -> tuple:
    """Total allocated mass and per-candidate scores at exp(log_lambda).

    An overflow to inf is left unwarned: the bisection reads an infinite
    mass as above the target.
    """
    with np.errstate(over="ignore"):
        scores = np.exp(0.5 * (log_r - log_lambda)) - coverage
        np.maximum(scores, 0.0, out=scores)
        return float(scores.sum()), scores


def solve_lambda(r, coverage, target_mass: float) -> AllocationSolution:
    """Find lambda so the summed clipped scores equal ``target_mass``.

    The initial bracket is ``[min_pos_r / (max(coverage) + target)^2,
    max_r * 1e6]`` and is widened when an endpoint does not yet straddle
    the target. Terminates when the mass is within 1e-6 relative.
    """
    r = np.asarray(r, dtype=np.float64)
    coverage = np.asarray(coverage, dtype=np.float64)
    if r.shape != coverage.shape or r.ndim != 1:
        raise ValidationError("r and coverage must be vectors of equal length")
    if np.any(r < 0) or np.any(coverage < 0):
        raise ValidationError("r and coverage must be nonnegative")
    if not (0 < target_mass < np.inf):  # NaN fails too
        raise ValidationError(f"target_mass must be a positive finite number, got {target_mass}")
    positive = r > 0
    if not np.any(positive):
        raise NoPositiveImportance("all candidate importances are zero")

    # Work in log space; r == 0 rows contribute nothing at any lambda.
    log_r = np.full(r.shape, -np.inf)
    log_r[positive] = np.log(r[positive])
    tol = BISECT_REL_TOL * target_mass

    lo = np.log(r[positive].min()) - 2.0 * np.log(coverage.max() + target_mass)
    hi = np.log(r.max() * 1e6)
    mass_lo, scores = _mass_at(lo, log_r, coverage)
    for _ in range(200):
        if mass_lo >= target_mass - tol:
            break
        lo -= 45.0
        mass_lo, scores = _mass_at(lo, log_r, coverage)
    if abs(mass_lo - target_mass) <= tol:
        return AllocationSolution(float(np.exp(lo)), scores, mass_lo)
    mass_hi, scores = _mass_at(hi, log_r, coverage)
    for _ in range(200):
        if mass_hi <= target_mass + tol:
            break
        hi += 45.0
        mass_hi, scores = _mass_at(hi, log_r, coverage)
    if abs(mass_hi - target_mass) <= tol:
        return AllocationSolution(float(np.exp(hi)), scores, mass_hi)

    mid, mass_mid, scores = lo, mass_lo, scores
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        mass_mid, scores = _mass_at(mid, log_r, coverage)
        if abs(mass_mid - target_mass) <= tol:
            break
        if mass_mid > target_mass:
            lo = mid
        else:
            hi = mid
    return AllocationSolution(float(np.exp(mid)), scores, mass_mid)
