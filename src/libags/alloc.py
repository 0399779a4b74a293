"""Gap-score allocation: how much synthetic mass each candidate deserves.

Each candidate j gets ``G_j = max(0, sqrt(r_j / lambda) - coverage_j)``:
importance opens the budget, existing real coverage closes it. The
multiplier lambda is the value at which the total allocated mass hits
the requested target. With ``s = lambda ** -0.5`` and ``a = sqrt(r)``
the total ``sum_j max(0, a_j s - coverage_j)`` is piecewise linear in
``s``, and candidate j starts adding to it at the kink
``s_j = coverage_j / a_j``. One sort of the kinks and two cumulative
sums find the segment that holds the target, and one division solves
it there: the water-filling step of sort-based simplex projection
(Duchi et al. 2008, "Efficient projections onto the l1-ball").

The test suite checks that this closed form minimizes the
inverse-evidence objective it is derived from, against an independent
projected-gradient solver on a binned domain (``tests/test_alloc.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoPositiveImportance, ValidationError


@dataclass(frozen=True)
class AllocationSolution:
    lambda_: float
    gap_scores: np.ndarray
    total_mass: float


def solve_lambda(r, coverage, target_mass: float) -> AllocationSolution:
    """Find lambda so the summed clipped scores equal ``target_mass``.

    Exact up to rounding. Coverage so large that the target falls below
    its float resolution leaves the mass off the target, and kinks that
    overflow leave lambda at 0; both pass unwarned, for callers to check.
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

    # r == 0 rows contribute nothing at any lambda.
    a = np.sqrt(r[positive])
    c = coverage[positive]
    with np.errstate(over="ignore", invalid="ignore"):
        kinks = c / a
        order = np.argsort(kinks, kind="stable")
        a_sum = np.cumsum(a[order])
        c_sum = np.cumsum(c[order])
        # Mass at each kink, where the candidates sorted before it are on.
        # Kink 0 carries no mass, so the segment k that holds the target
        # ends at the first later kink whose mass reaches it (or is the last).
        kink_mass = a_sum * kinks[order] - c_sum
        k = int(np.searchsorted(kink_mass[1:], target_mass))
        s = (target_mass + c_sum[k]) / a_sum[k]
        scores = np.zeros(r.shape)
        scores[positive] = np.maximum(a * s - c, 0.0)
        return AllocationSolution(float((1.0 / s) ** 2), scores, float(scores.sum()))
