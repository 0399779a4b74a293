"""Diversity-aware greedy selection with adaptive stopping.

The selector maximizes a facility-location coverage objective
``F(S) = sum_u v_u * max_{j in S} k(u, j)`` plus a per-region
diminishing-returns term that tracks how many synthetic samples each
region has already received. Both gain components shrink as the
selection grows (F by submodularity, the region term by construction),
which is what makes lazy evaluation with stale heap bounds exact.

Selection stops when the best remaining combined gain drops below the
threshold ``eta`` or stops being strictly positive. By default ``eta``
is learned in the same greedy pass as the knee of its own gain curve
(see ``select_eta``), so the selected count is learned from the pool
rather than fixed up front.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

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
    centroids: np.ndarray = field(default=None, repr=False)

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
    cover: np.ndarray
    gains_log: list
    eta: float
    region_counts: np.ndarray
    objective: float
    stop_reason: str


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
    return nearest(X, centroids, 1, distances=False)[1][:, 0]


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
        for j in range(n_regions):
            members = assignment == j
            if members.any():
                centroids[j] = X[members].mean(axis=0)
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
    return RegionTable(assignment, c, r_region, centroids)


def marginal_gain(r_j: float, c_j: float, t_j: int) -> float:
    """Gain of the (t_j+1)-th synthetic sample in a region with coverage c_j."""
    if c_j <= 0:
        raise ValidationError(f"region coverage must be positive, got {c_j}")
    return r_j / ((c_j + t_j) * (c_j + t_j + 1.0))


# Gains this far below the curve maximum are float residue (kernel tails),
# not signal; they would otherwise drag the knee search into noise.
ETA_DYNAMIC_RANGE = 1e-9


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


def _facility_gain(sim_row, cover, values) -> float:
    """Marginal coverage gain of one candidate given the current cover."""
    return float(np.sum(values * np.maximum(sim_row - cover, 0.0)))


def greedy_select(values, similarity, regions: RegionTable, eta: float | None = None, max_budget=None) -> SelectionState:
    """Lazy greedy maximization of coverage value plus region gains.

    Accepts the candidate with the largest combined gain while that gain
    is strictly positive and at least ``eta``; ties break toward the
    lower candidate index. Lazy re-evaluation is exact because every
    stale heap entry is an upper bound on the current gain. The result
    (sequence and logged gains) is identical to re-scoring every
    candidate at every step.

    ``eta=None`` learns the threshold in the same pass: the result is
    what an unthresholded pilot run followed by ``select_eta`` on its
    gain curve and a rerun at that ``eta`` would return. Greedy gains
    never increase, so the pilot stops where ``select_eta`` stops
    looking (at a gain within ETA_DYNAMIC_RANGE of the first), and the
    rerun is the prefix of the pilot at or above ``eta``. When the knee
    search finds no interior, ``eta`` is 0 and the pass goes on to
    accept every positive gain.

    ``similarity`` is the symmetric (M, M) matrix ``similarity_matrix``
    builds: the selector reads candidate j's similarities from row j.
    """
    values = np.asarray(values, dtype=np.float64)
    M = values.size
    if np.any(values < 0):
        raise ValidationError("candidate values must be nonnegative")
    if regions.assignment.shape != (M,):
        raise ValidationError("regions must cover exactly the candidate pool")
    budget = M if max_budget is None else min(int(max_budget), M)
    cover = np.zeros(M)
    t = np.zeros(regions.n_regions, dtype=np.int64)
    gains_log: list = []
    selected: list = []

    def combined_gain(j):
        region = regions.assignment[j]
        facility = _facility_gain(similarity[j], cover, values)
        region_g = marginal_gain(regions.r_region[region], regions.c[region], int(t[region]))
        return facility, region_g, facility + region_g

    # Heap entries: (-combined, candidate, facility, region, n_selected at evaluation)
    heap = []
    for j in range(M):
        facility, region_g, combined = combined_gain(j)
        heap.append((-combined, j, facility, region_g, 0))
    heapq.heapify(heap)

    def advance(threshold, floor=None):
        """Accept heap tops until one fails; returns why the pass stopped.

        A fresh top at or below ``floor`` goes back on the heap unaccepted
        and the pass reports "cut", so it can resume where it left off.
        """
        while heap:
            if len(selected) >= budget:
                return "budget"
            entry = heapq.heappop(heap)
            neg_gain, j, facility, region_g, stamp = entry
            if stamp != len(selected):
                facility, region_g, combined = combined_gain(j)
                heapq.heappush(heap, (-combined, j, facility, region_g, len(selected)))
                continue
            best = -neg_gain
            if best < threshold or best <= 0.0:
                return "threshold"
            if floor is not None and best <= floor:
                heapq.heappush(heap, entry)
                return "cut"
            selected.append(j)
            t[regions.assignment[j]] += 1
            np.maximum(cover, similarity[j], out=cover)
            gains_log.append(GainStep(len(selected), j, facility, region_g, best))
        return "exhausted"

    if eta is not None:
        stop_reason = advance(eta)
    else:
        # The first accepted gain is the fresh top of the initial heap.
        floor = -heap[0][0] * ETA_DYNAMIC_RANGE if heap else None
        stop_reason = advance(0.0, floor)
        eta = select_eta([g.combined_gain for g in gains_log]) if gains_log else 0.0
        if eta == 0.0:
            if stop_reason == "cut":  # no knee: go on accepting every positive gain
                stop_reason = advance(0.0)
        else:
            keep = next((i for i, g in enumerate(gains_log) if g.combined_gain < eta), len(gains_log))
            if keep < len(gains_log) or stop_reason == "cut":
                # A rerun at eta stops on the first gain below it; rebuild its state.
                stop_reason = "threshold"
                del selected[keep:], gains_log[keep:]
                cover[:] = 0.0
                t[:] = 0
                for j in selected:
                    t[regions.assignment[j]] += 1
                    np.maximum(cover, similarity[j], out=cover)

    objective = float(np.sum(values * cover))
    return SelectionState(selected, cover, gains_log, float(eta), t, objective, stop_reason)
