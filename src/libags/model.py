"""Fixed random-feature encoder and the softmax classifier.

The classifier is trained by full-batch gradient descent on L2-regularized
cross-entropy from a zero initialization, so a fit is fully deterministic.
Targets may be hard class indices or full distributions; both paths share
one training core, which is what makes "train on real plus soft-labeled
synthetic" exactly reduce to plain training when the synthetic set is empty.

Stability: the loss is guaranteed non-increasing whenever
``lr <= 2 / (max_row_sq + 2*l2)`` where ``max_row_sq`` is the largest
``||x||^2 + 1`` over training rows (the +1 accounts for the bias column).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .data import FeatureMatrix
from .errors import DivergenceError, ValidationError


@dataclass(frozen=True)
class RffEncoder:
    """Random Fourier feature map approximating a Gaussian kernel."""

    projection: np.ndarray  # (d_in, d_out // 2)
    bandwidth: float
    seed: int

    @classmethod
    def create(cls, d_in: int, d_out: int, bandwidth: float, seed: int) -> "RffEncoder":
        if d_out < 2 or d_out % 2 != 0:
            raise ValidationError(f"d_out must be a positive even number, got {d_out}")
        if bandwidth <= 0:
            raise ValidationError(f"bandwidth must be positive, got {bandwidth}")
        rng = np.random.default_rng(seed)
        proj = rng.normal(0.0, 1.0 / bandwidth, size=(d_in, d_out // 2))
        proj.setflags(write=False)
        return cls(proj, float(bandwidth), int(seed))

    @property
    def input_dim(self) -> int:
        return self.projection.shape[0]

    @property
    def output_dim(self) -> int:
        return 2 * self.projection.shape[1]


def rff_encode(encoder: RffEncoder, x: FeatureMatrix) -> FeatureMatrix:
    """Map rows to sqrt(2/d_out) * [cos(xW), sin(xW)]; rows have unit squared norm."""
    if x.n_cols != encoder.input_dim:
        raise ValidationError(f"encoder expects {encoder.input_dim} columns, got {x.n_cols}")
    phases = x.values @ encoder.projection
    scale = np.sqrt(2.0 / encoder.output_dim)
    return FeatureMatrix(scale * np.hstack([np.cos(phases), np.sin(phases)]))


@dataclass(frozen=True)
class LogisticModel:
    weights: np.ndarray  # (n_classes, d_feat)
    bias: np.ndarray  # (n_classes,)
    l2: float
    loss_curve: tuple = field(default=(), repr=False)

    def __post_init__(self):
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ValidationError("model parameters must be finite")

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]


def _pairwise_sum(columns):
    """Elementwise sum of equal-length arrays, added in the order of numpy's pairwise ``sum``.

    For fewer than 8 terms that order is left to right; from 8 terms on
    it is eight running sums combined as a tree, split in halves above 128
    terms. ``_pairwise_sum`` of a matrix's columns is therefore bit for
    bit its ``sum(axis=1)``.
    """
    n = len(columns)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _pairwise_sum(columns[:half]) + _pairwise_sum(columns[half:])
    if n < 8:
        total = columns[0]
        for column in columns[1:]:
            total = total + column
        return total
    stop = n - n % 8
    acc = list(columns[:8])
    for start in range(8, stop, 8):
        acc = [a + column for a, column in zip(acc, columns[start:start + 8])]
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for column in columns[stop:]:
        total = total + column
    return total


def _log_softmax(logits):
    """Row-wise log-softmax of an (n, K) logit matrix, shifted by the row maximum.

    The row maximum and the row sum of the exponentials run over the K
    class columns, a maximum chained from class 0 up and the sum in
    ``_pairwise_sum``'s order, which is left to right from class 0 for
    K < 8. That costs O(K) numpy calls on length-n columns, far cheaper
    for a few classes than a reduction along axis 1, and gives the same
    bits as ``max(axis=1)`` and ``sum(axis=1)``. ``exp`` runs once on
    the whole matrix.
    """
    columns = [logits[:, k] for k in range(logits.shape[1])]
    peak = columns[0]
    for column in columns[1:]:
        peak = np.maximum(peak, column)
    shifted = logits - peak[:, None]
    exp = np.exp(shifted)
    total = _pairwise_sum([exp[:, k] for k in range(exp.shape[1])])
    return shifted - np.log(total)[:, None]


def predict_proba(model: LogisticModel, features: FeatureMatrix) -> np.ndarray:
    """Row-wise softmax probabilities; strictly positive, rows sum to 1."""
    if features.n_cols != model.weights.shape[1]:
        raise ValidationError(f"model expects {model.weights.shape[1]} columns, got {features.n_cols}")
    probs = np.exp(_log_softmax(features.values @ model.weights.T + model.bias))
    # exp can underflow to exact zero for extreme logits; keep rows strictly positive
    probs = np.maximum(probs, 1e-300)
    return probs / probs.sum(axis=1, keepdims=True)


def one_hot(labels, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValidationError(f"labels must lie in [0, {n_classes})")
    out = np.zeros((labels.shape[0], n_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def cross_entropy(weights, bias, features, targets, l2: float):
    """Mean cross-entropy against distribution targets plus (l2/2)*||W||^2.

    Returns ``(loss, grad_w, grad_b)``, the loss and its analytic gradient
    with respect to the weights and the bias; this is what training runs.
    """
    X = np.asarray(features, dtype=np.float64)
    T = np.asarray(targets, dtype=np.float64)
    W = np.asarray(weights, dtype=np.float64)
    logp = _log_softmax(X @ W.T + bias)
    loss = float(-(T * logp).sum() / X.shape[0] + 0.5 * l2 * (W**2).sum())
    resid = (np.exp(logp) - T) / X.shape[0]
    # The last running sum adds the rows in the order sum(axis=0) does, in half the time.
    return loss, resid.T @ X + l2 * W, resid.cumsum(axis=0)[-1]


def _fit_core(X, T, n_classes, l2, epochs, lr):
    if epochs < 1:
        raise ValidationError(f"epochs must be at least 1, got {epochs}")
    if lr <= 0:
        raise ValidationError(f"lr must be positive, got {lr}")
    if l2 < 0:
        raise ValidationError(f"l2 must be nonnegative, got {l2}")
    W = np.zeros((n_classes, X.shape[1]))
    b = np.zeros(n_classes)
    losses = []
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is detected, not warned about
        for epoch in range(epochs):
            loss, grad_w, grad_b = cross_entropy(W, b, X, T, l2)
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite training loss at epoch {epoch}")
            losses.append(loss)
            W -= lr * grad_w
            b -= lr * grad_b
    return W, b, losses


def fit_logistic(features: FeatureMatrix, labels, n_classes: int, l2: float, epochs: int, lr: float) -> LogisticModel:
    """Fit on hard class labels; the optimizer is deterministic (zero init, fixed iteration order)."""
    return fit_logistic_soft(features, one_hot(labels, n_classes), l2, epochs, lr)


def fit_logistic_soft(features: FeatureMatrix, targets, l2: float, epochs: int, lr: float) -> LogisticModel:
    """Fit on distribution targets (rows of ``targets`` sum to 1)."""
    T = np.asarray(targets, dtype=np.float64)
    if T.ndim != 2 or T.shape[0] != features.n_rows:
        raise ValidationError("targets must be a (rows, n_classes) matrix")
    W, b, losses = _fit_core(features.values, T, T.shape[1], l2, epochs, lr)
    return LogisticModel(W, b, float(l2), tuple(losses))


def save_model(path, model: LogisticModel) -> None:
    payload = {
        "weights": model.weights.tolist(),
        "bias": model.bias.tolist(),
        "l2": model.l2,
        "n_classes": model.n_classes,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> LogisticModel:
    """Read a model written by save_model; a malformed file raises ValidationError."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"{path}: invalid model JSON: {exc}") from None
    keys = ("weights", "bias", "l2", "n_classes")
    if not isinstance(payload, dict) or any(key not in payload for key in keys):
        raise ValidationError(f"{path}: model JSON must be an object with keys {', '.join(keys)}")
    try:
        W = np.asarray(payload["weights"], dtype=np.float64)
        b = np.asarray(payload["bias"], dtype=np.float64)
        l2 = float(payload["l2"])
    except (TypeError, ValueError):
        raise ValidationError(f"{path}: weights, bias and l2 must be numbers in rectangular arrays") from None
    n_classes = payload["n_classes"]
    if not (isinstance(n_classes, int) and n_classes >= 2):
        raise ValidationError(f"{path}: n_classes must be an integer of at least 2, got {n_classes!r}")
    if W.ndim != 2 or b.shape != (W.shape[0],) or W.shape[0] != n_classes:
        raise ValidationError(f"{path}: inconsistent model shapes")
    return LogisticModel(W, b, l2)
