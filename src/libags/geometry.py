"""Neighborhood machinery: pairwise distances, kNN queries, kNN density,
support validity, kernels.

Neighbor search is brute force over a Euclidean reference set, which is
the right trade at the few-thousand-candidate scale this package targets
(the full candidate-candidate similarity matrix is quadratic anyway).

Every pairwise distance matrix comes from ``sq_distances``, the expansion
||a||^2 + ||b||^2 - 2 a.b evaluated with one matrix product. The
kernel bandwidth and the similarity kernel use it as is, and the kernel
overwrites it with the similarities (or with only the columns asked
for, in the same buffer). Nearest-neighbor answers
(``knn_distances`` and the k-means assignment) must equal those of the
direct differences formula sum((a - b)^2) bit for bit, so ``nearest``
screens with the expansion, bounds its rounding error, and recomputes
with the direct formula only the pairs that the bound cannot settle.

The kNN statistics are functions of one query's distances: the pipeline
asks ``knn_distances`` once for the candidates' distances to the real
data, and ``knn_density`` and ``support_validity`` both read that matrix.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import FeatureMatrix
from .errors import ValidationError

SUPPORT_SIGMA_FLOOR = 1e-9
# Elements per working block (512 KiB of float64): bounds the temporaries
# of the blocked computations below and keeps each elementwise pass over
# a block in cache.
_BLOCK = 1 << 16
# Elements per screening block in ``nearest`` (16 MiB of float64): larger
# than _BLOCK because each block pays for some twenty numpy calls.
_SCREEN_BLOCK = 1 << 21
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)


def _openblas_thread_count():
    """Getter and setter of the thread count of the OpenBLAS numpy loaded, or None."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype = ctypes.c_int
                put.argtypes = [ctypes.c_int]
                return get, put
    return None


_BLAS_THREADS = _openblas_thread_count()
_blas_lock = threading.Lock()
_blas_users = 0
_blas_saved = 1


@contextlib.contextmanager
def _one_blas_thread():
    """Run the enclosed matrix products on the calling thread.

    OpenBLAS keeps its worker threads spinning for about 0.1 s after each
    product it hands them. On a 2-core virtual machine that halved the
    speed of the elementwise work that followed, and a selection over
    2000 candidates took 1.7 times as long as with one thread. One
    thread also keeps the bits independent of the host: OpenBLAS's
    threaded rank-k update rounds some shapes differently. The previous
    thread count is restored when the last concurrent user leaves.
    """
    global _blas_users, _blas_saved
    if _BLAS_THREADS is None:
        yield
        return
    get, put = _BLAS_THREADS
    with _blas_lock:
        if _blas_users == 0:
            _blas_saved = get()
            put(1)
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0:
                put(_blas_saved)


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian similarity kernel exp(-||u-j||^2 / (2 bandwidth^2))."""

    bandwidth: float

    def __post_init__(self):
        if not usable_bandwidth(self.bandwidth):
            raise ValidationError(f"kernel bandwidth must be positive with 2*bandwidth**2 a finite positive float, got {self.bandwidth}")


def usable_bandwidth(bandwidth) -> bool:
    """Whether ``bandwidth`` is positive and ``2 * bandwidth**2``, the kernel's divisor, is a finite positive float."""
    try:
        scale = 2.0 * float(bandwidth) ** 2
    except OverflowError:
        return False
    return bandwidth > 0 and 0.0 < scale < math.inf


def sq_distances(A) -> np.ndarray:
    """Squared Euclidean distances between every pair of rows of ``A``.

    Expansion form ||a||^2 + ||b||^2 - 2 a.b, one matrix product on one
    BLAS thread, clamped at 0; the only extra memory is one block. The
    product is A @ A.T, which numpy evaluates as a symmetric rank-k
    update, so the result is exactly symmetric.
    """
    sq_a = (A * A).sum(axis=1)
    return _expansion(A, A, sq_a, sq_a)


def _expansion(A, B, sq_a, sq_b) -> np.ndarray:
    """``sq_distances`` given the squared row norms of ``A`` and ``B``."""
    with _one_blas_thread():
        d2 = A @ B.T
    rows = max(1, _BLOCK // d2.shape[1])
    for start in range(0, d2.shape[0], rows):
        block = d2[start:start + rows]
        block *= 2.0
        np.subtract(sq_a[start:start + rows, None] + sq_b[None, :], block, out=block)
        np.maximum(block, 0.0, out=block)
    return d2


def direct_sq_distances(A, B) -> np.ndarray:
    """Row-wise squared distances sum((a - b)^2) of paired (or broadcast) rows."""
    diff = A - B
    diff *= diff
    return diff.sum(axis=-1)


def nearest(A, B, k: int, exclude_self: bool = False, distances: bool = True):
    """The k nearest rows of ``B`` for each row of ``A``, by the direct formula.

    Returns ``(dist2, index)``, both of shape (len(A), k): squared
    distances from ``direct_sq_distances`` in ascending order with ties
    toward the lower index, exactly what a stable sort of each row of
    the full direct-formula matrix would give. With ``exclude_self``
    ``A`` holds the rows of ``B`` in order and row i skips row i of ``B``.
    With ``distances=False`` ``dist2`` is None, and for k = 1 the rows
    the screening leaves with a single candidate skip the direct formula
    and the sort.

    The expansion E = ``sq_distances`` screens the pairs. Write u = eps/2,
    s = ||a||^2 + ||b||^2, D the exact squared distance and F the direct
    formula's value. In floating point every dot product of length d,
    in any summation order, is off by at most gamma_d = d u / (1 - d u)
    times the dot product of the absolute values (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, ch. 3). So ||a||^2, ||b||^2
    and 2 a.b (|a|.|b| <= s/2) are together off by at most 2 gamma_d s,
    and the final add and subtract add 3u s: |E - D| <= (2d + 3) u s to
    first order. F rounds each difference, each square and the sum:
    |F - D| <= (d + 2) u D and D <= 2s. Hence |E - F| <= (4d + 7) u s.
    tau = 3 (d + 2) eps s = (6d + 12) u s covers that, the second-order
    terms and the rounding of the threshold below, with s taken at the
    largest ||b||^2 so one tau serves a whole row; an absolute term
    covers gradual underflow. If E_k is the k-th smallest E of a row,
    the k pairs that attain it all have F <= E_k + tau, and every pair
    with E > E_k + 2 tau has F > E_k + tau, so the k smallest F (ties
    included) lie among the pairs with E <= E_k + 2 tau. Only those
    are recomputed with the direct formula. Overflow makes E or tau
    non-finite; such pairs fail the comparison and are recomputed too.
    """
    n, d = A.shape
    sq_a = (A * A).sum(axis=1)
    sq_b = (B * B).sum(axis=1)
    sq_b_max = float(sq_b.max())
    dist2 = np.empty((n, k))
    index = np.empty((n, k), dtype=np.intp)
    rows = max(1, _SCREEN_BLOCK // B.shape[0])
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        E = _expansion(A[start:stop], B, sq_a[start:stop], sq_b)
        local = np.arange(stop - start)
        if exclude_self:
            E[local, start + local] = np.inf
        kth = E.min(axis=1) if k == 1 else np.partition(E, k - 1, axis=1)[:, k - 1]
        tau = 3.0 * (d + 2) * (_EPS * (sq_a[start:stop] + sq_b_max) + _TINY)
        refine = ~(E > (kth + 2.0 * tau)[:, None])
        if exclude_self:
            refine[local, start + local] = False
        if distances or k > 1:
            dist2[start:stop], index[start:stop] = _refine(A[start:stop], B, refine, k)
            continue
        # A row with one pair left takes its column (argmax of the mask: the
        # excluded self may hold the row's smallest E); the others refine.
        index[start:stop, 0] = refine.argmax(axis=1)
        multi = np.flatnonzero(refine.sum(axis=1) > 1)
        if multi.size:
            index[start + multi] = _refine(A[start + multi], B, refine[multi], 1)[1]
    return (dist2 if distances else None), index


def _refine(A, B, refine, k: int) -> tuple:
    """The k nearest rows of ``B`` among each row's ``refine`` pairs, by the direct formula."""
    r, c = np.nonzero(refine)  # row-major: by row, then by column
    counts = np.bincount(r, minlength=refine.shape[0])
    f = np.empty(r.size)
    step = max(1, _BLOCK // A.shape[1])
    for p in range(0, r.size, step):
        f[p:p + step] = direct_sq_distances(A[r[p:p + step]], B[c[p:p + step]])
    # Sort by row, then by distance; the sort is stable, so ties keep the lower column.
    order = np.lexsort((f, r))
    pick = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
    return f[pick], c[pick]


def knn_distances(reference: FeatureMatrix, query: FeatureMatrix, k: int, exclude_self: bool = False) -> np.ndarray:
    """k smallest reference distances per query row, ascending.

    The values are those of the direct formula sqrt(sum((q - r)^2)),
    bit for bit (see ``nearest``). With ``exclude_self=True`` the query
    rows must be the reference rows in order; each row then ignores its
    own reference entry.
    """
    if query.n_cols != reference.n_cols:
        raise ValidationError(f"query has {query.n_cols} columns, reference has {reference.n_cols}")
    available = reference.n_rows - (1 if exclude_self else 0)
    if exclude_self and query.n_rows != reference.n_rows:
        raise ValidationError("exclude_self requires the query rows to be the reference rows")
    if k < 1 or k > available:
        raise ValidationError(f"k must lie in [1, {available}], got {k}")
    dist2, _ = nearest(query.values, reference.values, k, exclude_self=exclude_self)
    return np.sqrt(dist2)


def unit_ball_volume(dim: int) -> float:
    """Volume of the unit Euclidean ball in ``dim`` dimensions."""
    if dim < 1:
        raise ValidationError(f"dim must be at least 1, got {dim}")
    try:
        return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
    except OverflowError:  # from dim 342 on
        raise ValidationError(
            f"{dim} feature columns are too many for the kNN density: the unit-ball volume in {dim} dimensions "
            f"overflows; pass external probabilities and keep the geometry in a low-dimensional space"
        ) from None


def knn_density(distances, n_reference: int, dim: int) -> np.ndarray:
    """kNN density estimate k / (n * V_dim * R_k^dim) per query row.

    ``dim`` is the volume exponent and is passed explicitly so callers
    can use the intrinsic data dimension when the ambient one would be
    numerically meaningless. A zero k-th distance (duplicate points) is
    replaced by the smallest positive distance seen in the batch, so
    the estimate stays finite. ``distances`` is a ``knn_distances``
    result over ``n_reference`` reference rows; k is its column count.
    """
    dists = np.asarray(distances)
    k = dists.shape[1]
    radius = dists[:, k - 1].copy()
    if np.any(radius == 0):
        positive = dists[dists > 0]
        fallback = positive.min() if positive.size else 1.0
        radius[radius == 0] = fallback
    log_density = math.log(k) - math.log(n_reference) - math.log(unit_ball_volume(dim)) - dim * np.log(radius)
    return np.exp(log_density)


def support_validity(distances, calibration) -> np.ndarray:
    """Score in [0, 1]: 1 when a query is as close to real data as a typical real point.

    ``calibration`` holds the k-th neighbor distances among the real
    points themselves (self-excluded). The score decays with the excess
    of the query's k-th real-neighbor distance over the calibration
    median. The decay scale is the calibration's upper spread, floored
    at the median itself: the raw upper spread collapses for evenly
    sampled data, which would reject every candidate more than a hair
    beyond the sampled region instead of fading out over the same
    distance scale the data itself exhibits. ``distances`` is a
    ``knn_distances`` result against the real points for the same k.
    """
    calibration = np.asarray(calibration, dtype=np.float64)
    if calibration.size == 0:
        raise ValidationError("calibration must be nonempty")
    rho = float(np.median(calibration))
    sigma = max(float(np.quantile(calibration, 0.9)) - rho, rho, SUPPORT_SIGMA_FLOOR)
    excess = np.maximum(np.asarray(distances)[:, -1] - rho, 0.0)
    return np.exp(-(excess**2) / (2.0 * sigma * sigma))


def similarity_matrix(kernel: KernelSpec, features: FeatureMatrix, sq_dists=None, columns=None) -> np.ndarray:
    """Pairwise similarity matrix with exact unit diagonal.

    ``sq_dists`` may carry ``sq_distances(features.values)``; it is
    consumed: its entries are overwritten with the similarities, so the
    kernel stage holds one M x M buffer. Without ``columns`` the same
    (M, M) array is returned.

    ``columns`` (strictly increasing indices) asks for the (M, u) matrix
    of those u columns only, S[:, columns], with 1.0 where row
    ``columns[c]`` meets column c. Only those M * u similarities are
    computed. They are written row-major into the start of the distance
    buffer, each row block gathered before its positions are
    overwritten, so the result is a view of that buffer. When
    ``columns`` names every column this is the in-place pass above.
    """
    S = sq_distances(features.values) if sq_dists is None else sq_dists
    M = S.shape[0]
    scale = 2.0 * kernel.bandwidth**2
    if columns is not None:
        columns = np.asarray(columns, dtype=np.intp)
        if columns.ndim != 1 or columns.size and (columns[0] < 0 or columns[-1] >= M or np.any(columns[1:] <= columns[:-1])):
            raise ValidationError(f"columns must be strictly increasing indices in [0, {M})")
    if columns is None or columns.size == M:
        rows = max(1, _BLOCK // M)
        for start in range(0, M, rows):
            block = S[start:start + rows]
            np.negative(block, out=block)
            with np.errstate(over="ignore"):  # a subnormal scale: exp(-inf) = 0 is the limit
                block /= scale
            np.exp(block, out=block)
        np.fill_diagonal(S, 1.0)
        return S
    u = columns.size
    # Output rows [start, stop) overwrite only input rows below stop, which
    # are already gathered: rows * u <= rows * M.
    out = S.reshape(-1)[:M * u].reshape(M, u)
    rows = max(1, _BLOCK // max(u, 1))
    gathered = np.empty((min(rows, M), u))
    for start in range(0, M, rows):
        block = gathered[:min(rows, M - start)]
        np.take(S[start:start + rows], columns, axis=1, out=block, mode="clip")
        dest = out[start:start + rows]
        np.negative(block, out=dest)
        with np.errstate(over="ignore"):
            dest /= scale
        np.exp(dest, out=dest)
    out[columns, np.arange(u)] = 1.0
    return out


def median_knn_distance(features: FeatureMatrix, k: int, sq_dists=None) -> float:
    """Local median heuristic: the median k-th neighbor distance within a set.

    This is the near-duplicate scale the diversity kernel needs; the
    classic pairwise median sits at the dataset diameter scale instead.
    Uses the expansion distances of ``sq_distances``, which are plenty
    for a bandwidth heuristic; ``sq_dists`` may carry that matrix.
    """
    X = features.values
    M = X.shape[0]
    if M < 2:
        return 1.0
    k = min(k, M - 1)
    d2 = sq_distances(X) if sq_dists is None else sq_dists
    kth = np.empty(M)
    rows = min(M, max(1, _BLOCK // M))
    # One reused buffer: a fresh copy per block would briefly hold two.
    buffer = np.empty((rows, M))
    for start in range(0, M, rows):
        block = buffer[:min(rows, M - start)]
        block[...] = d2[start:start + rows]
        local = np.arange(block.shape[0])
        block[local, start + local] = np.inf
        block.partition(k - 1, axis=1)
        kth[start:start + rows] = block[:, k - 1]
    return max(float(np.median(np.sqrt(kth))), SUPPORT_SIGMA_FLOOR)
