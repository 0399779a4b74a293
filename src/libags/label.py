"""Soft labels for selected candidates.

Near the boundary the generator's hard class is not trustworthy, so the
assigned label blends the generator's one-hot vector with the scoring
model's probability vector, weighted by boundary proximity.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def soft_label(proposed_class: int, pi, a_tau: float) -> np.ndarray:
    """(1 - a_tau) * one_hot(proposed_class) + a_tau * pi.

    A convex combination of two distributions, hence itself a
    distribution: far from the boundary (a_tau near 0) the generator
    label wins, on the boundary (a_tau near 1) the probability vector does.
    """
    pi = np.asarray(pi, dtype=np.float64)
    if pi.ndim != 1 or pi.size < 2:
        raise ValidationError("pi must be a probability vector")
    if not (0 <= proposed_class < pi.size):
        raise ValidationError(f"proposed class {proposed_class} outside [0, {pi.size})")
    if not (0.0 <= a_tau <= 1.0):
        raise ValidationError(f"a_tau must lie in [0, 1], got {a_tau}")
    e_c = np.zeros(pi.size)
    e_c[proposed_class] = 1.0
    return (1.0 - a_tau) * e_c + a_tau * pi
