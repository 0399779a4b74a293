"""Diversity-aware greedy selection with adaptive stopping.

The selector maximizes a facility-location coverage objective
``F(S) = sum_u v_u * max_{j in S} k(u, j)`` plus a per-region
diminishing-returns term that tracks how many synthetic samples each
region has already received. Both gain components shrink as the
selection grows (F by submodularity, the region term by construction),
which is what makes lazy evaluation with stale heap bounds exact.
Each heap bound keeps its two parts apart (Minoux's lazy greedy applied
per term): a pick that only lowers a candidate's region term refreshes
its bound from the per-region gain at no cost, and only a stale facility
part costs a pass over a similarity row.

Selection stops when the best remaining combined gain drops below the
threshold ``eta`` or stops being strictly positive. By default ``eta``
is learned in the same greedy pass as the knee of its own gain curve
(see ``select_eta``), so the selected count is learned from the pool
rather than fixed up front.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .data import FeatureMatrix
from .errors import ValidationError
from .geometry import direct_sq_distances, nearest


@dataclass
class RegionTable:
    """Per-region bookkeeping for the diminishing-returns stopping rule."""

    assignment: np.ndarray  # region index per candidate
    c: np.ndarray  # real coverage per region, smoothed to stay positive
    r_region: np.ndarray  # mean candidate importance per region

    @property
    def n_regions(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True)
class GainStep:
    step: int
    candidate: int
    facility_gain: float
    region_gain: float
    combined_gain: float


@dataclass
class SelectionState:
    selected: list
    gains_log: list
    eta: float
    stop_reason: str
    evaluations: int = 0  # facility-gain passes over a similarity row


def _kmeans_pp_init(X, k, rng):
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(X.shape[0])]
    d2 = direct_sq_distances(X, centroids[0])
    for i in range(1, k):
        total = d2.sum()
        probs = d2 / total if total > 0 else None
        centroids[i] = X[rng.choice(X.shape[0], p=probs)]
        d2 = np.minimum(d2, direct_sq_distances(X, centroids[i]))
    return centroids


def _assign(X, centroids):
    """Nearest centroid per row by the direct formula, ties to the lower index."""
    return nearest(X, centroids, 1, index=True)


def build_regions(real_features: FeatureMatrix, candidate_features: FeatureMatrix, r, n_regions: int, seed: int) -> RegionTable:
    """Cluster candidates with seeded k-means and count real coverage per cluster.

    k-means++ init, at most 50 Lloyd iterations, empty clusters keep
    their previous centroid. Real points are assigned to their nearest
    candidate centroid; coverage gets +1 smoothing so it stays positive.
    """
    r = np.asarray(r, dtype=np.float64)
    M = candidate_features.n_rows
    if not (1 <= n_regions <= M):
        raise ValidationError(f"n_regions must lie in [1, {M}], got {n_regions}")
    if r.shape != (M,):
        raise ValidationError("importance vector must have one entry per candidate")
    X = candidate_features.values
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(X, n_regions, rng)
    assignment = _assign(X, centroids)
    for _ in range(50):
        # A stable argsort lists each cluster's rows in ascending order, the
        # rows and order X[assignment == j] reads, so the means keep their bits.
        counts = np.bincount(assignment, minlength=n_regions)
        order = np.argsort(assignment, kind="stable")
        ends = np.cumsum(counts)
        for j in np.flatnonzero(counts):
            centroids[j] = X[order[ends[j] - counts[j]:ends[j]]].mean(axis=0)
        new_assignment = _assign(X, centroids)
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment

    real_assignment = _assign(real_features.values, centroids)
    c = np.bincount(real_assignment, minlength=n_regions).astype(np.float64) + 1.0
    r_region = np.zeros(n_regions)
    for j in range(n_regions):
        members = assignment == j
        if members.any():
            r_region[j] = r[members].mean()
    return RegionTable(assignment, c, r_region)


def marginal_gain(r_j: float, c_j: float, t_j: int) -> float:
    """Gain of the (t_j+1)-th synthetic sample in a region with coverage c_j."""
    if c_j <= 0:
        raise ValidationError(f"region coverage must be positive, got {c_j}")
    return r_j / ((c_j + t_j) * (c_j + t_j + 1.0))


# Gains this far below the curve maximum are float residue (kernel tails),
# not signal; they would otherwise drag the knee search into noise.
ETA_DYNAMIC_RANGE = 1e-9
# Rows per block of the greedy's cover-0 heap initialisation: a small block
# keeps its buffer far below the similarity matrix it reads.
_INIT_ROWS = 16


def select_eta(sorted_gains_desc) -> float:
    """Stopping threshold: gain value at the knee of the descending gain curve.

    The knee is the interior index of the log-gain curve farthest below
    the chord joining the curve's endpoints, i.e. the corner where the
    steep head turns into the flat tail; ties go to the earliest interior
    index. Gain curves decay multiplicatively, so the corner must be
    found on the log scale: on the raw scale the first couple of steps
    dwarf everything and the knee would always sit at the top.

    Only gains within ETA_DYNAMIC_RANGE of the maximum participate.
    Curves with fewer than 3 such entries have no interior, so eta is 0
    and every positive gain is accepted.
    """
    gains = np.asarray(sorted_gains_desc, dtype=np.float64)
    if gains.size == 0:
        raise ValidationError("gain curve must be nonempty")
    if np.any(np.diff(gains) > 1e-12):
        raise ValidationError("gain curve must be sorted descending")
    positive = gains[gains > max(gains.max(), 0.0) * ETA_DYNAMIC_RANGE] if gains.max() > 0 else gains[:0]
    if positive.size < 3:
        return 0.0
    log_gains = np.log(positive)
    span = np.arange(positive.size)
    chord = log_gains[0] + (log_gains[-1] - log_gains[0]) * span / (positive.size - 1)
    below = chord - log_gains  # positive where the curve dips under the chord
    elbow = int(below[1:-1].argmax()) + 1
    return float(positive[elbow])


def greedy_select(values, similarity, regions: RegionTable, eta: float | None = None, max_budget=None) -> SelectionState:
    """Lazy greedy maximization of coverage value plus region gains.

    Accepts the candidate with the largest combined gain while that gain
    is strictly positive and at least ``eta``; ties break toward the
    lower candidate index. The result (sequence and logged gains) is
    identical to re-scoring every candidate at every step.

    Each heap entry bounds its candidate's gain by a facility part and a
    region part, refreshed separately. A heap top whose region part is
    out of date is replaced by one with the region's current gain and its
    old facility part, which costs no pass over the similarity row; one
    whose facility part is out of date is evaluated afresh; only a top
    that is current in both parts is accepted. The bounds stay
    valid in floating point because the computed facility gain never
    increases as the cover grows: the subtraction, the clamp at 0, the
    product with nonnegative values, the pairwise sum and the final
    addition all round monotonically. ``evaluations`` counts the
    facility passes.

    ``eta=None`` learns the threshold in the same pass: the result is
    what an unthresholded pilot run followed by ``select_eta`` on its
    gain curve and a rerun at that ``eta`` would return. Greedy gains
    never increase, so the pilot stops where ``select_eta`` stops
    looking (at a gain within ETA_DYNAMIC_RANGE of the first), and the
    rerun is the prefix of the pilot at or above ``eta``. When the knee
    search finds no interior, ``eta`` is 0 and the pass goes on to
    accept every positive gain.

    ``similarity`` holds the (M, u) valued columns: the u columns of the
    candidates with nonzero value, in index order, as
    ``pool_kernel(features, np.flatnonzero(values), ...)`` builds them.
    Candidate j's similarities are read from row j; they must be finite.

    A zero-valued column adds nothing to F, so the cover and each
    facility pass cover the valued columns only. Each pass's terms are
    scattered into a length-M buffer that holds ``values * 0.0``, the
    signed zeros those columns contribute, before the sum: the summed
    vector, and so every gain, keeps the bits of a pass over all M
    columns.
    """
    values = np.asarray(values, dtype=np.float64)
    M = values.size
    if not np.all(values >= 0):  # NaN fails too
        raise ValidationError("candidate values must be nonnegative")
    if regions.assignment.shape != (M,):
        raise ValidationError("regions must cover exactly the candidate pool")
    valued = np.flatnonzero(values)
    u = valued.size
    similarity = np.asarray(similarity)
    if similarity.shape != (M, u):
        raise ValidationError(f"similarity must be the ({M}, {u}) valued columns, got shape {similarity.shape}")
    budget = M if max_budget is None else min(int(max_budget), M)
    assignment = regions.assignment.tolist()
    valued_values = values[valued]
    cover = np.zeros(u)
    terms = np.empty(u)
    # With every candidate valued the terms are the whole summed vector.
    summed = terms if u == M else values * 0.0
    t = np.zeros(regions.n_regions, dtype=np.int64)
    # Current region gain per region; marginal_gain rejects c <= 0 here, up front.
    region_now = [float(marginal_gain(r_j, c_j, 0)) for r_j, c_j in zip(regions.r_region, regions.c)]
    if any(math.isnan(gain) for gain in region_now):  # a NaN bound would never read as current
        raise ValidationError("region gains must be numbers: r_region or c holds NaN")
    gains_log: list = []
    selected: list = []

    def facility_gain(j):
        """Marginal coverage gain of candidate j given the current cover."""
        nonlocal evaluations
        evaluations += 1
        np.subtract(similarity[j], cover, out=terms)
        np.maximum(terms, 0.0, out=terms)
        np.multiply(terms, valued_values, out=terms)
        if summed is not terms:
            summed[valued] = terms
        return float(summed.sum())

    # Heap entries: (-(facility + region), candidate, facility, region, n_selected when facility was computed).
    # At cover 0 a pass is max(S[j], 0) * values (S[j] - 0 is S[j]). The
    # rows go _INIT_ROWS at a time through one buffer whose zero-valued
    # columns hold values * 0.0; sum(axis=1) of a C-contiguous block equals
    # each row's sum(), so the bounds keep facility_gain's bits.
    heap = []
    block = np.empty((min(_INIT_ROWS, M), M))
    if summed is terms:
        gathered = block
    else:
        gathered = np.empty((block.shape[0], u))
        block[...] = summed
    for start in range(0, M, _INIT_ROWS):
        rows = gathered[:min(_INIT_ROWS, M - start)]
        np.maximum(similarity[start:start + _INIT_ROWS], 0.0, out=rows)
        rows *= valued_values
        part = block[:rows.shape[0]]
        if summed is not terms:
            part[:, valued] = rows
        for j, facility in enumerate(part.sum(axis=1).tolist(), start):
            region_g = region_now[assignment[j]]
            heap.append((-(facility + region_g), j, facility, region_g, 0))
    del block, gathered
    evaluations = M  # one initial pass per candidate
    heapq.heapify(heap)

    def advance(threshold):
        """Accept heap tops until one fails; returns why the pass stopped.

        A fresh top below ``threshold`` (or not positive) stays on the
        heap unaccepted, so a later call resumes where this one stopped.
        """
        while heap:
            if len(selected) >= budget:
                return "budget"
            # Keys (-bound, j) are unique, so replacing the top in place pops
            # in the same order as a pop followed by a push.
            neg_bound, j, facility, region_g, stamp = heap[0]
            current = region_now[assignment[j]]
            if region_g != current:
                heapq.heapreplace(heap, (-(facility + current), j, facility, current, stamp))
                continue
            if stamp != len(selected):
                facility = facility_gain(j)
                heapq.heapreplace(heap, (-(facility + current), j, facility, current, len(selected)))
                continue
            best = -neg_bound
            if best < threshold or best <= 0.0:
                return "threshold"
            heapq.heappop(heap)
            selected.append(j)
            region = assignment[j]
            t[region] += 1
            region_now[region] = float(marginal_gain(regions.r_region[region], regions.c[region], int(t[region])))
            np.maximum(cover, similarity[j], out=cover)
            gains_log.append(GainStep(len(selected), j, facility, region_g, best))
        return "exhausted"

    if eta is not None:
        stop_reason = advance(eta)
    else:
        # The first accepted gain is the fresh top of the initial heap; the
        # pilot accepts only gains above ETA_DYNAMIC_RANGE times it.
        first = -heap[0][0] if heap else 0.0
        stop_reason = advance(math.nextafter(first * ETA_DYNAMIC_RANGE, math.inf))
        eta = select_eta([g.combined_gain for g in gains_log]) if gains_log else 0.0
        if eta == 0.0:  # no knee: go on accepting every positive gain
            stop_reason = advance(0.0)
        else:
            # A rerun at eta is the prefix of the pilot at or above it.
            keep = next((i for i, g in enumerate(gains_log) if g.combined_gain < eta), len(gains_log))
            if keep < len(gains_log):
                stop_reason = "threshold"
                del selected[keep:], gains_log[keep:]
    return SelectionState(selected, gains_log, float(eta), stop_reason, evaluations)
