"""Neighborhood machinery: pairwise distances, kNN queries, kNN density,
support validity, kernels.

Neighbor search is brute force over a Euclidean reference set, which is
the right trade at the few-thousand-candidate scale this package targets
(the candidate-candidate kernel is quadratic anyway).

Pairwise distances are the expansion ||a||^2 + ||b||^2 - 2 a.b, one
matrix product per block of rows (``_expansion``). Every streaming pass
holds, besides its result, the buffers of one block of about ``_BLOCK``
elements at a time: a block's buffers are freed or reused before the
next block's are allocated. The pool kernel (``pool_kernel``) streams
the pool's Gram product in row blocks: it keeps only the columns asked
for, reads each row's k-th distance for the ``median-knn`` bandwidth,
and never holds the whole M x M distance matrix unless every column is
asked for.
``nearest`` answers the two neighbor questions the package asks: the k
smallest squared distances per row (``knn_distances``, where excluding
each row's self is one more neighbor) and the index of the nearest row
(the k-means assignment). Both must equal those of the direct formula
sum((a - b)^2) bit for bit, so ``nearest`` screens with the expansion,
bounds its rounding error, and recomputes with the direct formula only
the pairs that the bound cannot settle.

The kNN statistics are functions of one query's distances: the pipeline
asks ``knn_distances`` once for the candidates' distances to the real
data, and ``knn_density`` and ``support_validity`` both read that matrix.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import threading
from pathlib import Path

import numpy as np

from .data import FeatureMatrix
from .errors import ValidationError

SUPPORT_SIGMA_FLOOR = 1e-9
# Elements per working block (512 KiB of float64): bounds every temporary
# of the streaming passes below (the screening blocks of ``nearest``, the
# product blocks of the pool kernel, their sub-blocks and chunks) and keeps
# each elementwise pass over a block in cache.
_BLOCK = 1 << 16
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


def usable_bandwidth(bandwidth) -> bool:
    """Whether ``bandwidth`` is positive and ``2 * bandwidth**2``, the kernel's divisor, is a finite positive float."""
    try:
        scale = 2.0 * float(bandwidth) ** 2
    except OverflowError:
        return False
    return bandwidth > 0 and 0.0 < scale < math.inf


def _expansion(A, B, sq_a, sq_b) -> np.ndarray:
    """Squared distances between the rows of ``A`` and ``B`` given their squared row norms.

    Expansion form ||a||^2 + ||b||^2 - 2 a.b, one matrix product on one
    BLAS thread, clamped at 0; the only extra memory is one scratch of
    the result's shape, so callers pass blocks of about ``_BLOCK`` pairs.
    """
    with _one_blas_thread():
        d2 = A @ B.T
    _expand(d2, sq_a, sq_b, np.empty_like(d2))
    return d2


def _expand(block, sq_rows, sq_cols, scratch) -> None:
    """Turn a block of products a.b into squared distances in place; ``scratch`` has its shape."""
    block *= 2.0
    np.add(sq_rows[:, None], sq_cols[None, :], out=scratch)
    np.subtract(scratch, block, out=block)
    np.maximum(block, 0.0, out=block)


def direct_sq_distances(A, B) -> np.ndarray:
    """Row-wise squared distances sum((a - b)^2) of paired (or broadcast) rows."""
    diff = A - B
    diff *= diff
    return diff.sum(axis=-1)


def nearest(A, B, k: int, index: bool = False) -> np.ndarray:
    """The (len(A), k) squared distances from each row of ``A`` to its k nearest rows of ``B``.

    The values are those of ``direct_sq_distances``, ascending, exactly
    what a stable sort of each row of the full direct-formula matrix
    would give. With ``index=True`` (k must be 1) it returns instead the
    (len(A),) index of each row's nearest row of ``B``, ties toward the
    lower index; the rows the screening leaves with a single candidate
    skip the direct formula and the sort. Rows of ``A`` go through in
    blocks of about ``_BLOCK`` screening distances (``_nearest_block``),
    so the expansion, its partition copy and its masks each stay
    cache-sized, and only one block's buffers are held at a time: they
    are freed before the next block's expansion is allocated.

    The expansion E = ``_expansion`` screens the pairs. Write u = eps/2,
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
    if index and k != 1:
        raise ValidationError(f"the index form answers k = 1 only, got k = {k}")
    n = A.shape[0]
    sq_a = (A * A).sum(axis=1)
    sq_b = (B * B).sum(axis=1)
    sq_b_max = float(sq_b.max())
    out = np.empty(n, dtype=np.intp) if index else np.empty((n, k))
    rows = max(1, _BLOCK // B.shape[0])
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        out[block] = _nearest_block(A[block], B, sq_a[block], sq_b, sq_b_max, k, index)
    return out


def _nearest_block(A, B, sq_a, sq_b, sq_b_max: float, k: int, index: bool) -> np.ndarray:
    """One screening block of ``nearest``: its squared distances, or with ``index`` its nearest indices.

    The block's expansion, partition copy and masks live only in this
    call, so ``nearest`` holds one block's buffers at a time.
    """
    E = _expansion(A, B, sq_a, sq_b)
    kth = E.min(axis=1) if k == 1 else np.partition(E, k - 1, axis=1)[:, k - 1]
    tau = 3.0 * (A.shape[1] + 2) * (_EPS * (sq_a + sq_b_max) + _TINY)
    refine = ~(E > (kth + 2.0 * tau)[:, None])
    if not index:
        return _refine(A, B, refine, k, False)
    # A row with one pair left takes its column; the others refine.
    found = refine.argmax(axis=1)
    multi = np.flatnonzero(refine.sum(axis=1) > 1)
    if multi.size:
        found[multi] = _refine(A[multi], B, refine[multi], 1, True)[:, 0]
    return found


def _refine(A, B, refine, k: int, index: bool) -> np.ndarray:
    """The k nearest rows of ``B`` among each row's ``refine`` pairs, by the direct formula: distances or indices."""
    r, c = np.divmod(np.flatnonzero(refine), refine.shape[1])  # row-major: by row, then by column
    counts = np.bincount(r, minlength=refine.shape[0])
    f = np.empty(r.size)
    step = max(1, _BLOCK // A.shape[1])
    for p in range(0, r.size, step):
        f[p:p + step] = direct_sq_distances(A[r[p:p + step]], B[c[p:p + step]])
    # Sort by row, then by distance; the sort is stable, so ties keep the lower column.
    order = np.lexsort((f, r))
    pick = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
    return c[pick] if index else f[pick]


def knn_distances(reference: FeatureMatrix, query: FeatureMatrix, k: int, exclude_self: bool = False) -> np.ndarray:
    """k smallest reference distances per query row, ascending.

    The values are those of the direct formula sqrt(sum((q - r)^2)),
    bit for bit (see ``nearest``). With ``exclude_self=True`` the query
    must be the reference and each row ignores its own entry: a finite
    row lies at distance exactly 0 from itself, the least any distance
    can be, so it asks for k + 1 neighbors and drops the first.
    """
    if query.n_cols != reference.n_cols:
        raise ValidationError(f"query has {query.n_cols} columns, reference has {reference.n_cols}")
    skip = int(exclude_self)
    if skip and not np.array_equal(query.values, reference.values):
        raise ValidationError("exclude_self requires the query rows to be the reference rows")
    if k < 1 or k > reference.n_rows - skip:
        raise ValidationError(f"k must lie in [1, {reference.n_rows - skip}], got {k}")
    return np.sqrt(nearest(query.values, reference.values, k + skip)[:, skip:])


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


def _product_rows(M: int, u: int) -> int:
    """Rows per Gram product block of ``_pool_distances`` over M pool rows keeping u columns.

    With every column kept, the whole product X @ X.T goes into the
    result: numpy evaluates it as a symmetric rank-k update, so the
    distances are exactly symmetric. Otherwise (0 < u < M) a block holds
    about _BLOCK elements and at most u rows, so it never outgrows the
    (M, u) result.
    """
    if u == M:
        return M
    return max(1, min(_BLOCK // M, u))


def _pool_distances(X, columns, k: int) -> tuple:
    """Squared pool distances to ``columns`` and each row's k-th distance, in one streaming pass.

    Returns ``(d2, kth)``: ``d2`` is the (M, u) matrix of the expansion
    distances ``_expansion(X, X[columns], ...)`` would give, and ``kth``
    (None for k = 0) holds each row's k-th smallest distance to the
    other rows. The pass walks ``_product_rows`` blocks of the Gram
    product X[rows] @ X.T on one BLAS thread, expands them, gathers the
    kept columns and partitions cache-sized sub-blocks with the diagonal
    set to inf. Besides ``d2`` only the product block (with every column
    kept, the result itself) and one sub-block are held. The
    products of a block's rows may round differently from the symmetric
    update, depending on the BLAS kernels and the block height, so
    ``d2`` need not be symmetric when some columns are left out.
    """
    M = X.shape[0]
    u = columns.size
    sq = (X * X).sum(axis=1)
    d2 = np.empty((M, u))
    kth = np.empty(M) if k else None
    rows = _product_rows(M, u)
    # With every column kept the product goes straight into the result (one
    # block of M rows), and the partition works on a copy of each sub-block.
    product = d2 if u == M else np.empty((rows, M))
    sub = max(1, _BLOCK // M)
    scratch = np.empty((min(sub, M), M))
    for start in range(0, M, rows):
        stop = min(start + rows, M)
        block = product[:stop - start]
        with _one_blas_thread():
            np.matmul(X[start:stop], X.T, out=block)
        for first in range(start, stop, sub):
            last = min(first + sub, stop)
            part = block[first - start:last - start]
            _expand(part, sq[first:last], sq, scratch[:last - first])
            if u < M:
                np.take(part, columns, axis=1, out=d2[first:last])
            if not k:
                continue
            if u == M:
                part = scratch[:last - first]
                part[...] = d2[first:last]
            local = np.arange(last - first)
            part[local, first + local] = np.inf
            part.partition(k - 1, axis=1)
            kth[first:last] = part[:, k - 1]
    return d2, kth


def _median_bandwidth(kth) -> float:
    """The median of the k-th distances ``sqrt(kth)``, floored; 1.0 without any (a one-row pool)."""
    if kth is None:
        return 1.0
    return max(float(np.median(np.sqrt(kth))), SUPPORT_SIGMA_FLOOR)


def pool_kernel(features: FeatureMatrix, columns, bandwidth=None, k: int = 10) -> np.ndarray:
    """The pool's Gaussian similarities to ``columns``, an (M, u) array.

    The result is S[:, columns] of the kernel exp(-d^2 / (2 bandwidth^2))
    over the expansion distances d^2, with 1.0 where row ``columns[c]``
    meets column c; ``columns`` holds strictly increasing indices.
    ``bandwidth=None`` takes the median over the rows of each row's k-th
    neighbor distance, read off the same pass (see ``_pool_distances``):
    the near-duplicate scale the diversity kernel needs, where the classic
    pairwise median sits at the dataset's diameter. Memory is the (M, u)
    result plus one product block; with no columns nothing is computed.
    """
    X = features.values
    M = X.shape[0]
    columns = np.asarray(columns, dtype=np.intp)
    if columns.ndim != 1 or columns.size and (columns[0] < 0 or columns[-1] >= M or np.any(columns[1:] <= columns[:-1])):
        raise ValidationError(f"columns must be strictly increasing indices in [0, {M})")
    u = columns.size
    if u == 0:
        return np.empty((M, 0))
    if bandwidth is not None and not usable_bandwidth(bandwidth):
        raise ValidationError(f"kernel bandwidth must be positive with 2*bandwidth**2 a finite positive float, got {bandwidth}")
    if bandwidth is None and k < 1:
        raise ValidationError(f"k must be at least 1, got {k}")
    S, kth = _pool_distances(X, columns, min(k, M - 1) if bandwidth is None else 0)
    if bandwidth is None:
        bandwidth = _median_bandwidth(kth)
    scale = 2.0 * bandwidth**2
    rows = max(1, _BLOCK // u)
    for start in range(0, M, rows):
        block = S[start:start + rows]
        np.negative(block, out=block)
        with np.errstate(over="ignore"):  # a subnormal scale: exp(-inf) = 0 is the limit
            block /= scale
        np.exp(block, out=block)
    S[columns, np.arange(u)] = 1.0
    return S
