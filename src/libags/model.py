"""Fixed random-feature encoder and the softmax classifier.

The classifier is trained by full-batch gradient descent on L2-regularized
cross-entropy from a zero initialization, so a fit is fully deterministic.
Targets may be hard class indices or full distributions; hard labels are
one-hot encoded and run the same training loop, which is what makes "train on
real plus soft-labeled synthetic" exactly reduce to plain training when the
synthetic set is empty. Target rows must be distributions: finite,
nonnegative and summing to 1.

One fit allocates its per-epoch temporaries once (``_Work``) and every
epoch rewrites them with ``out=``. Below 8 classes the log-softmax runs on
a class-major (K, n) copy of the logits, so its passes run along the rows
rather than along the short class axis. The loss, the two matrix products
and the bias gradient's row-order running sum use the operand layouts and
summation orders of the plain-numpy reference trainer in
``tests/test_model.py``, so weights, bias, loss curve and probabilities
match it bit for bit.

Stability: the loss is guaranteed non-increasing whenever
``lr <= 2 / (max_row_sq + 2*l2)`` where ``max_row_sq`` is the largest
``||x||^2 + 1`` over training rows (the +1 accounts for the bias column).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import FeatureMatrix
from .errors import DivergenceError, ValidationError


@dataclass(frozen=True)
class RffEncoder:
    """Random Fourier feature map approximating a Gaussian kernel."""

    projection: np.ndarray  # (d_in, d_out // 2)

    @classmethod
    def create(cls, d_in: int, d_out: int, bandwidth: float, seed: int) -> "RffEncoder":
        if d_out < 2 or d_out % 2 != 0:
            raise ValidationError(f"d_out must be a positive even number, got {d_out}")
        if d_in < 1:
            raise ValidationError(f"d_in must be at least 1, got {d_in}")
        if not (0 < bandwidth < math.inf and 1.0 / float(bandwidth) < math.inf):
            raise ValidationError(f"bandwidth must be positive and finite with 1/bandwidth finite, got {bandwidth}")
        if seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {seed}")
        rng = np.random.default_rng(seed)
        proj = rng.normal(0.0, 1.0 / bandwidth, size=(d_in, d_out // 2))
        proj.setflags(write=False)
        return cls(proj)

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
    half = phases.shape[1]
    scale = np.sqrt(2.0 / encoder.output_dim)
    out = np.empty((phases.shape[0], 2 * half))
    # cos and sin run in place on the contiguous phases, as numpy's strided
    # loops may round differently; only the exactly rounded products fill
    # the halves. Recomputing the phases for sin, the same product into the
    # same buffer, keeps the peak at 1.5 times the result instead of 2.
    np.multiply(scale, np.cos(phases, out=phases), out=out[:, :half])
    np.matmul(x.values, encoder.projection, out=phases)
    np.multiply(scale, np.sin(phases, out=phases), out=out[:, half:])
    del phases  # before _adopt's finiteness check adds its boolean temporary
    return FeatureMatrix._adopt(out)


@dataclass(frozen=True)
class LogisticModel:
    weights: np.ndarray  # (n_classes, d_feat)
    bias: np.ndarray  # (n_classes,)
    loss_curve: tuple = field(default=(), repr=False)

    def __post_init__(self):
        shapes = np.shape(self.weights), np.shape(self.bias)
        if len(shapes[0]) != 2 or shapes[1] != shapes[0][:1]:
            raise ValidationError(f"weights must be (n_classes, n_features) and bias (n_classes,), got shapes {shapes[0]} and {shapes[1]}")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ValidationError("model parameters must be finite")

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]


class _Work:
    """The temporaries of one epoch, allocated once per fit and rewritten with ``out=``.

    Below 8 classes the log-softmax runs on ``shifted`` and ``exp`` laid out
    class-major, (K, n): each class is one contiguous row, so every pass
    runs along the n rows instead of along the short class axis. From 8
    classes on they are (n, K), the layout whose axis-1 reductions keep
    numpy's pairwise summation tree. Every other (n, K) array is C-order:
    the loss sums its terms in row order, and ``resid.T @ X`` uses the
    operand layout of the reference trainer in ``tests/test_model.py``,
    since OpenBLAS kernels may round another layout differently.
    """

    def __init__(self, n_rows: int, n_classes: int, n_cols: int):
        by_class = (n_classes, n_rows) if n_classes < 8 else (n_rows, n_classes)
        self.logits = np.empty((n_rows, n_classes))  # X @ W.T, without the bias
        self.shifted = np.empty(by_class)  # logits plus bias, minus their row maximum
        self.exp = np.empty(by_class)
        self.peak = np.empty(n_rows)  # row maximum
        self.total = np.empty(n_rows)  # row sum of exp, then its log
        self.logp = np.empty((n_rows, n_classes))  # log-probabilities, then the residual
        self.terms = np.empty((n_rows, n_classes))  # loss terms, then running sums of the residual rows
        self.grad_w = np.empty((n_classes, n_cols))
        self.decay = np.empty((n_classes, n_cols))  # W**2, then l2 * W


def _log_softmax(logits, bias, work: _Work | None = None) -> np.ndarray:
    """Row-wise log-softmax of ``logits + bias``, (n, K), shifted by the row maximum.

    The result is ``work.logp``. Below 8 classes the bias is added while
    copying the logits class-major, and the row maximum and the row sum
    of the exponentials reduce over axis 0 of that copy, which numpy runs
    as elementwise passes over the class rows from class 0 up: its
    ``sum(axis=1)`` adds fewer than 8 terms left to right, so this gives
    its bits, and passes along contiguous rows of length n are far
    cheaper than a reduction along a short axis. From 8 classes on
    numpy's pairwise summation tree sets the order, and ``max(axis=1)``
    and ``sum(axis=1)`` run on the (n, K) layout.
    """
    n_rows, n_classes = logits.shape
    if work is None:
        work = _Work(n_rows, n_classes, 0)
    shifted, peak, total = work.shifted, work.peak, work.total
    if n_classes >= 8:
        np.add(logits, bias, out=shifted)
        shifted -= np.max(shifted, axis=1, out=peak)[:, None]
        np.sum(np.exp(shifted, out=work.exp), axis=1, out=total)
        return np.subtract(shifted, np.log(total, out=total)[:, None], out=work.logp)
    np.add(logits.T, bias[:, None], out=shifted)
    shifted -= np.maximum.reduce(shifted, axis=0, out=peak)
    np.add.reduce(np.exp(shifted, out=work.exp), axis=0, out=total)
    # written through the transpose, so the loop runs along the rows
    np.subtract(shifted, np.log(total, out=total), out=work.logp.T)
    return work.logp


def predict_proba(model: LogisticModel, features: FeatureMatrix) -> np.ndarray:
    """Row-wise softmax probabilities; strictly positive, rows sum to 1."""
    if features.n_cols != model.weights.shape[1]:
        raise ValidationError(f"model expects {model.weights.shape[1]} columns, got {features.n_cols}")
    probs = np.exp(_log_softmax(features.values @ model.weights.T, np.asarray(model.bias, dtype=np.float64)))
    # exp can underflow to exact zero for extreme logits; keep rows strictly positive
    probs = np.maximum(probs, 1e-300)
    return probs / probs.sum(axis=1, keepdims=True)


def validate_proba(proba, rows: int, n_classes: int, what: str) -> np.ndarray:
    """``proba`` as a float (rows, n_classes) matrix whose rows are distributions.

    A row is a distribution when its entries are finite and nonnegative and
    sum to 1 within 1e-6; the error names the first row that is not.
    """
    proba = np.asarray(proba, dtype=np.float64)
    if proba.shape != (rows, n_classes):
        raise ValidationError(f"{what} probabilities must have shape ({rows}, {n_classes}), got {proba.shape}")
    # NaN and -inf fail the first test, +inf the second
    with np.errstate(invalid="ignore"):  # inf - inf in a row sum
        ok = (proba >= 0.0).all(axis=1) & (np.abs(proba.sum(axis=1) - 1.0) <= 1e-6)
    if not ok.all():
        row = int(ok.argmin())
        raise ValidationError(f"{what} probability row {row} must be finite and nonnegative and sum to 1, got {proba[row].tolist()}")
    return proba


def one_hot(labels, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValidationError(f"labels must lie in [0, {n_classes})")
    out = np.zeros((labels.shape[0], n_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def cross_entropy(weights, bias, features, targets, l2: float, work: _Work | None = None):
    """Mean cross-entropy against distribution targets plus (l2/2)*||W||^2.

    Returns ``(loss, grad_w, grad_b)``, the loss and its analytic gradient
    with respect to the weights and the bias; this is what training runs.
    The gradients are views of ``work``, which the next call overwrites.
    """
    X = np.asarray(features, dtype=np.float64)
    T = np.asarray(targets, dtype=np.float64)
    W = np.asarray(weights, dtype=np.float64)
    b = np.asarray(bias, dtype=np.float64)
    n_rows = X.shape[0]
    if work is None:
        work = _Work(n_rows, W.shape[0], X.shape[1])
    logp = _log_softmax(np.matmul(X, W.T, out=work.logits), b, work)
    loss = -float(np.multiply(T, logp, out=work.terms).sum()) / n_rows + 0.5 * l2 * float(np.square(W, out=work.decay).sum())
    resid = np.exp(logp, out=logp)
    resid -= T
    resid /= n_rows
    grad_w = np.matmul(resid.T, X, out=work.grad_w)
    grad_w += np.multiply(l2, W, out=work.decay)
    # The last running sum adds the rows in the order sum(axis=0) does, in half the time.
    return loss, grad_w, np.add.accumulate(resid, axis=0, out=work.terms)[-1]


def fit_logistic(features: FeatureMatrix, labels, n_classes: int, l2: float, epochs: int, lr: float) -> LogisticModel:
    """Fit on hard class labels; the optimizer is deterministic (zero init, fixed iteration order)."""
    return fit_logistic_soft(features, one_hot(labels, n_classes), l2, epochs, lr)


def fit_logistic_soft(features: FeatureMatrix, targets, l2: float, epochs: int, lr: float) -> LogisticModel:
    """Fit on distribution targets: each row of ``targets`` is finite, nonnegative and sums to 1."""
    T = np.asarray(targets, dtype=np.float64)
    if T.ndim != 2 or T.shape[0] != features.n_rows:
        raise ValidationError("targets must be a (rows, n_classes) matrix")
    validate_proba(T, *T.shape, "target")
    if epochs < 1:
        raise ValidationError(f"epochs must be at least 1, got {epochs}")
    if lr <= 0:
        raise ValidationError(f"lr must be positive, got {lr}")
    if l2 < 0:
        raise ValidationError(f"l2 must be nonnegative, got {l2}")
    X = features.values
    W = np.zeros((T.shape[1], X.shape[1]))
    b = np.zeros(T.shape[1])
    work = _Work(X.shape[0], *W.shape)
    losses = []
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is detected, not warned about
        for epoch in range(epochs):
            loss, grad_w, grad_b = cross_entropy(W, b, X, T, l2, work)
            if not math.isfinite(loss):
                raise DivergenceError(f"non-finite training loss at epoch {epoch}")
            losses.append(loss)
            W -= np.multiply(lr, grad_w, out=grad_w)
            b -= np.multiply(lr, grad_b, out=grad_b)
    return LogisticModel(W, b, tuple(losses))

