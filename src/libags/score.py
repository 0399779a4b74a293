"""Per-candidate scoring: margin, boundary weight, entropy, importance.

A candidate is worth synthesizing around when it sits close to the
decision boundary (small top-two margin), the scorer is uncertain about
it (high entropy), and it still looks like real data (support score
near 1). The product of those three factors is the importance that the
allocation stage converts into a gap score.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError

TAU_FLOOR = 1e-3


@dataclass(frozen=True)
class ScoreRecord:
    """Every per-candidate quantity the pipeline derives, in one bundle."""

    margin: float
    boundary_weight: float
    entropy: float
    density: float
    support: float
    importance: float
    gap_score: float
    value: float


# The field names in declaration order: the ``score`` CSV's columns.
ScoreRecord.FIELDS = tuple(f.name for f in fields(ScoreRecord))


def top_two_margin_rows(pi_matrix) -> np.ndarray:
    """Gap between the two largest class probabilities of each row."""
    pi = np.asarray(pi_matrix, dtype=np.float64)
    if pi.ndim != 2 or pi.shape[1] < 2:
        raise ValidationError("probability matrix must be 2-D with at least 2 columns")
    top = np.partition(pi, pi.shape[1] - 2, axis=1)[:, -2:]
    return top[:, 1] - top[:, 0]


def select_tau(margins, quantile: float = 0.25) -> float:
    """Data-driven boundary-neighborhood width: a lower quantile of the margins.

    Uses the linear-interpolation quantile and never returns less than
    TAU_FLOOR, so the boundary weight stays defined for degenerate pools.
    """
    margins = np.asarray(margins, dtype=np.float64)
    if margins.size == 0:
        raise ValidationError("margins must be nonempty")
    if not (0 < quantile < 1):
        raise ValidationError(f"quantile must lie in (0, 1), got {quantile}")
    return max(float(np.quantile(margins, quantile)), TAU_FLOOR)


def boundary_weight(delta, tau: float):
    """exp(-delta^2 / (2 tau^2)): 1 on the boundary, decaying with the margin."""
    if tau <= 0:
        raise ValidationError(f"tau must be positive, got {tau}")
    delta = np.asarray(delta, dtype=np.float64)
    out = np.exp(-(delta**2) / (2.0 * tau * tau))
    return float(out) if out.ndim == 0 else out


def entropy_rows(pi_matrix) -> np.ndarray:
    """Predictive entropy in nats of each row, with 0*log(0) taken as 0."""
    pi = np.asarray(pi_matrix, dtype=np.float64)
    terms = np.where(pi > 0, pi * np.log(np.where(pi > 0, pi, 1.0)), 0.0)
    return -terms.sum(axis=1)


def importance(a_tau, u, b):
    """Boundary-gap importance: the product a_tau * u * b."""
    out = np.asarray(a_tau, dtype=np.float64) * np.asarray(u, dtype=np.float64) * np.asarray(b, dtype=np.float64)
    return float(out) if out.ndim == 0 else out
