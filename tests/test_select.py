import heapq
import itertools

import numpy as np
import pytest

from conftest import peak_bytes, valued_columns
from libags import geometry
from libags.data import FeatureMatrix, make_two_moons
from libags.errors import ValidationError
from libags.geometry import pool_kernel
from libags.pipeline import PipelineConfig, run_selection
from libags.select import (
    ETA_DYNAMIC_RANGE,
    GainStep,
    SelectionState,
    _assign,
    _cluster_means,
    _kmeans_pp_init,
    build_regions,
    greedy_select,
    marginal_gain,
    select_eta,
)


def naive_greedy(values, sim, regions, eta, max_budget=None):
    """Full-recompute reference selector: no heap, no stale bounds."""
    values = np.asarray(values, dtype=np.float64)
    M = values.size
    budget = M if max_budget is None else min(max_budget, M)
    cover = np.zeros(M)
    t = np.zeros(regions.n_regions, dtype=np.int64)
    selected, gains = [], []
    remaining = list(range(M))
    while len(selected) < budget and remaining:
        best = None
        for j in remaining:
            region = regions.assignment[j]
            fac = float(np.sum(values * np.maximum(sim[:, j] - cover, 0.0)))
            reg = regions.r_region[region] / ((regions.c[region] + t[region]) * (regions.c[region] + t[region] + 1.0))
            combined = fac + reg
            if best is None or combined > best[0]:
                best = (combined, j, fac, reg)
        combined, j, fac, reg = best
        if combined < eta or combined <= 0.0:
            break
        selected.append(j)
        remaining.remove(j)
        t[regions.assignment[j]] += 1
        cover = np.maximum(cover, sim[:, j])
        gains.append((combined, fac, reg))
    return selected, gains


def two_pass_selection(values, similarity, regions, max_budget=None):
    """Reference for learned-eta selection: exhaustive pilot, knee, thresholded rerun; ``similarity`` as greedy_select takes it."""
    pilot = greedy_select(values, similarity, regions, 0.0, max_budget=max_budget)
    curve = [g.combined_gain for g in pilot.gains_log]
    eta = select_eta(curve) if curve else 0.0
    return greedy_select(values, similarity, regions, eta, max_budget=max_budget), curve


def assert_same_state(got, want):
    assert got.selected == want.selected
    assert got.gains_log == want.gains_log
    assert got.eta == want.eta
    assert got.stop_reason == want.stop_reason


def initial_combined_gains(values, similarity, regions):
    """Per-candidate combined gain at the empty selection."""
    values = np.asarray(values, dtype=np.float64)
    cover = np.zeros(values.size)
    gains = np.empty(values.size)
    for j in range(values.size):
        region = regions.assignment[j]
        facility = float(np.sum(values * np.maximum(similarity[:, j] - cover, 0.0)))
        gains[j] = facility + marginal_gain(regions.r_region[region], regions.c[region], 0)
    return gains


def facility_value(values, sim, subset):
    if not subset:
        return 0.0
    return float(np.sum(values * sim[:, list(subset)].max(axis=1)))


def random_instance(rng, max_m=60):
    M = int(rng.integers(5, max_m + 1))
    feats = FeatureMatrix(rng.normal(size=(M, 2)))
    values = rng.uniform(0.0, 1.0, M)
    values[rng.random(M) < 0.3] = 0.0
    bandwidth = float(rng.uniform(0.2, 1.5))
    n_regions = int(rng.integers(1, max(2, M // 2)))
    real = FeatureMatrix(rng.normal(size=(int(rng.integers(5, 30)), 2)))
    regions = build_regions(real, feats, rng.uniform(0.0, 1.0, M), n_regions, int(rng.integers(10**6)))
    return values, bandwidth, feats, regions


def direct_assign(X, centroids):
    """Direct-formula oracle: full (rows, centroids, d) differences, first argmin."""
    d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def direct_rows_sq(A, b):
    """Direct-formula oracle for the k-means++ seeding distances."""
    return ((A - b) ** 2).sum(axis=1)


def assignment_cases(rng, d):
    """(rows, centroids) pairs that stress the expansion's rounding bound."""
    X = rng.normal(size=(300, d))
    grid = rng.integers(-2, 3, size=(300, d)).astype(np.float64)
    C = X[rng.choice(300, 12, replace=False)].copy()
    coincident = C.copy()
    coincident[5] = coincident[2]
    coincident[9] = coincident[2]
    return [
        ("random", X, C),
        ("offset 1e4", X + 1e4, C + 1e4),
        ("duplicated rows", np.vstack([X[:150], X[:150]]), C),
        ("integer grid", grid, np.unique(grid, axis=0)[:12]),  # exact ties
        ("coincident centroids", X, coincident),
        ("centroids on rows", C, C),
    ]


def mask_means_regions(R, X, r, n_regions, seed, assign):
    """Reference k-means whose Lloyd means gather each cluster with a boolean mask; ``assign`` is ``_assign`` or a wrapper of it."""
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(X, n_regions, rng)
    assignment = assign(X, centroids)
    for _ in range(50):
        for j in range(n_regions):
            members = assignment == j
            if members.any():
                centroids[j] = X[members].mean(axis=0)
        new_assignment = assign(X, centroids)
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
    c = np.bincount(assign(R, centroids), minlength=n_regions) + 1.0
    r_region = np.array([r[assignment == j].mean() if np.any(assignment == j) else 0.0 for j in range(n_regions)])
    return assignment, c, r_region


def regions_cases(rng, d):
    """(real rows, candidate rows, region count) triples for the k-means checks."""
    cases = [(rng.normal(size=(40, d)), rng.normal(size=(400, d)), 16)]
    cases.append((cases[0][0] + 1e4, cases[0][1] + 1e4, 16))
    grid = rng.integers(-1, 2, size=(200, d)).astype(np.float64)
    cases.append((grid[:30], grid, 9))
    cases.append((cases[0][0], np.vstack([cases[0][1][:100]] * 3), 20))
    return cases


class TestBuildRegions:
    @pytest.mark.parametrize("d", [1, 2, 64])
    def test_assignment_bit_identical_to_direct_formula(self, d):
        rng = np.random.default_rng(d)
        for name, X, C in assignment_cases(rng, d):
            assert np.array_equal(_assign(X, C), direct_assign(X, C)), name

    @pytest.mark.parametrize("d", [1, 2, 64])
    def test_regions_bit_identical_to_direct_formula(self, d, monkeypatch):
        import libags.select as select_module

        cases = regions_cases(np.random.default_rng(100 + d), d)
        got = [build_regions(FeatureMatrix(R), FeatureMatrix(X), np.arange(len(X)) % 7 / 7.0, K, 5) for R, X, K in cases]
        monkeypatch.setattr(select_module, "_assign", direct_assign)
        monkeypatch.setattr(select_module, "direct_sq_distances", direct_rows_sq)
        for table, (R, X, K) in zip(got, cases):
            want = build_regions(FeatureMatrix(R), FeatureMatrix(X), np.arange(len(X)) % 7 / 7.0, K, 5)
            for name in ("assignment", "c", "r_region"):
                assert np.array_equal(getattr(table, name), getattr(want, name)), name

    @pytest.mark.parametrize("d", [1, 2, 64])
    def test_lloyd_means_bit_identical_to_mask_means(self, d, monkeypatch):
        import libags.select as select_module

        centroids = []

        def recording_assign(X, C):
            centroids.append(C.copy())
            return _assign(X, C)

        monkeypatch.setattr(select_module, "_assign", recording_assign)
        rng = np.random.default_rng(100 + d)
        cases = regions_cases(rng, d)
        # five distinct rows for eight regions: the seeding repeats centroids,
        # so some regions end up empty and keep their centroid
        distinct = rng.normal(size=(5, d))
        cases.append((distinct[:3], np.repeat(distinct, 20, axis=0), 8))
        for R, X, K in cases:
            r = np.arange(len(X)) % 7 / 7.0
            table = build_regions(FeatureMatrix(R), FeatureMatrix(X), r, K, 5)
            got = centroids[:]
            centroids.clear()
            want = mask_means_regions(R, X, r, K, 5, recording_assign)
            for name, value in zip(("assignment", "c", "r_region"), want):
                assert np.array_equal(getattr(table, name), value), (name, K)
            # every iteration's centroids, not only the assignments they give
            assert len(got) == len(centroids) and all(np.array_equal(a, b) for a, b in zip(got, centroids)), K
            centroids.clear()
        assert np.bincount(table.assignment, minlength=8).min() == 0

    @pytest.mark.parametrize("shape", [(), (3,)])
    def test_cluster_means_bit_identical_to_mask_means(self, shape):
        rng = np.random.default_rng(23)
        values = rng.normal(size=(500, *shape)) * 10.0 ** rng.uniform(-8.0, 8.0, size=(500, *shape))
        assignment = rng.integers(0, 40, 500)
        assignment[assignment == 7] = 8  # cluster 7 is empty
        out = np.full((41, *shape), 2.5)  # and so is cluster 40
        _cluster_means(values, assignment, out)
        for j in range(41):
            want = values[assignment == j].mean(axis=0) if j in assignment else np.full(shape, 2.5)
            assert out[j].tobytes() == np.asarray(want).tobytes(), j

    def test_memory_is_a_few_blocks(self):
        # Each k-means assignment screens one block of about _BLOCK distances
        # at a time and frees it before the next.
        real, _, pool = make_two_moons(1000, 0.3, 0.55, 0)
        r = np.random.default_rng(0).random(pool.n_rows)
        table, peak = peak_bytes(lambda: build_regions(real.features, pool.features, r, 60, 0))
        assert table.n_regions == 60
        assert peak < 3 * geometry._BLOCK * 8

    def test_single_region_counts_all_reals(self):
        rng = np.random.default_rng(0)
        real = FeatureMatrix(rng.normal(size=(17, 2)))
        cands = FeatureMatrix(rng.normal(size=(9, 2)))
        table = build_regions(real, cands, np.ones(9), 1, 0)
        assert table.n_regions == 1
        assert table.c[0] == pytest.approx(18.0)  # 17 reals + 1 smoothing
        assert np.all(table.assignment == 0)

    def test_two_blobs_split_cleanly(self):
        rng = np.random.default_rng(1)
        blob_a = rng.normal(0.0, 0.1, size=(20, 2))
        blob_b = rng.normal(10.0, 0.1, size=(20, 2))
        cands = FeatureMatrix(np.vstack([blob_a, blob_b]))
        real = FeatureMatrix(np.vstack([blob_a + 0.01, blob_b + 0.01]))
        table = build_regions(real, cands, np.ones(40), 2, 3)
        first, second = table.assignment[:20], table.assignment[20:]
        assert len(set(first.tolist())) == 1
        assert len(set(second.tolist())) == 1
        assert first[0] != second[0]
        np.testing.assert_allclose(np.sort(table.c), [21.0, 21.0])

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        real = FeatureMatrix(rng.normal(size=(30, 3)))
        cands = FeatureMatrix(rng.normal(size=(50, 3)))
        imp = rng.uniform(0, 1, 50)
        a = build_regions(real, cands, imp, 7, 11)
        b = build_regions(real, cands, imp, 7, 11)
        assert np.array_equal(a.assignment, b.assignment)
        assert np.array_equal(a.c, b.c)
        assert np.array_equal(a.r_region, b.r_region)

    def test_region_importance_is_mean(self):
        cands = FeatureMatrix(np.array([[0.0], [0.1], [10.0]]))
        real = FeatureMatrix(np.array([[0.05]]))
        imp = np.array([0.2, 0.4, 0.9])
        table = build_regions(real, cands, imp, 2, 0)
        left = table.assignment[0]
        assert table.r_region[left] == pytest.approx(0.3)
        assert table.r_region[table.assignment[2]] == pytest.approx(0.9)


class TestMarginalGain:
    def test_known_values(self):
        assert marginal_gain(1.0, 1.0, 0) == pytest.approx(0.5)
        assert marginal_gain(1.0, 1.0, 1) == pytest.approx(1.0 / 6.0)

    def test_strictly_decreasing_in_t(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            r, c = rng.uniform(0.01, 2.0), rng.uniform(0.1, 5.0)
            gains = [marginal_gain(r, c, t) for t in range(6)]
            assert all(a > b for a, b in zip(gains, gains[1:]))

    def test_difference_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            r, c, t = rng.uniform(0, 1), rng.uniform(0.5, 10.0), int(rng.integers(0, 20))
            direct = r / (c + t) - r / (c + t + 1.0)
            assert abs(direct - marginal_gain(r, c, t)) <= 1e-12

    def test_requires_positive_coverage(self):
        with pytest.raises(ValidationError):
            marginal_gain(1.0, 0.0, 0)


class TestSelectEta:
    def test_spec_curve(self):
        assert select_eta([1.0, 0.9, 0.1, 0.09, 0.08]) == pytest.approx(0.1)

    def test_flat_curve_returns_common_value(self):
        assert select_eta([0.4] * 8) == pytest.approx(0.4)

    def test_short_curve_zero(self):
        assert select_eta([1.0, 0.5]) == 0.0
        assert select_eta([0.7]) == 0.0

    def test_rejects_unsorted(self):
        with pytest.raises(ValidationError):
            select_eta([0.1, 0.5, 0.4])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            select_eta([])

    def test_knee_lands_at_plateau_break(self):
        curve = [5.0, 4.5, 4.2, 4.0, 0.02, 0.018, 0.017, 0.016, 0.015]
        eta = select_eta(curve)
        assert eta == pytest.approx(0.02)


class TestGreedySelect:
    def test_no_positive_gain_selects_nothing(self):
        feats = FeatureMatrix(np.random.default_rng(0).normal(size=(8, 2)))
        regions = build_regions(feats, feats, np.zeros(8), 2, 0)
        regions.r_region[:] = 0.0
        values = np.zeros(8)
        state = greedy_select(values, valued_columns(values, pool_kernel(feats, np.arange(feats.n_rows), 1.0)), regions, 0.0)
        assert state.selected == []

    def test_duplicate_candidate_facility_gain_zero(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
        feats = FeatureMatrix(pts)
        values = np.array([1.0, 1.0, 0.8])
        regions = build_regions(feats, feats, values, 1, 0)
        state = greedy_select(values, valued_columns(values, pool_kernel(feats, np.arange(feats.n_rows), 0.5)), regions, 0.0, max_budget=3)
        steps = {g.candidate: g for g in state.gains_log}
        assert 0 in steps and 1 in steps
        assert steps[1].facility_gain == 0.0

    def test_lazy_equals_naive_on_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            values, bandwidth, feats, regions = random_instance(rng)
            sim = pool_kernel(feats, np.arange(feats.n_rows), bandwidth)
            eta = float(rng.choice([0.0, 0.01, 0.1, 0.5]))
            budget = int(rng.integers(1, values.size + 1)) if rng.random() < 0.5 else None
            state = greedy_select(values, valued_columns(values, sim), regions, eta, max_budget=budget)
            ref_selected, ref_gains = naive_greedy(values, sim, regions, eta, budget)
            assert state.selected == ref_selected
            for step, (combined, fac, reg) in zip(state.gains_log, ref_gains):
                assert step.combined_gain == combined
                assert step.facility_gain == fac
                assert step.region_gain == reg

    def test_objective_monotone_over_steps(self):
        rng = np.random.default_rng(6)
        values, bandwidth, feats, regions = random_instance(rng)
        sim = pool_kernel(feats, np.arange(feats.n_rows), bandwidth)
        state = greedy_select(values, valued_columns(values, sim), regions, 0.0)
        fvals = [facility_value(values, sim, state.selected[: i + 1]) for i in range(len(state.selected))]
        assert all(b >= a - 1e-12 for a, b in zip(fvals, fvals[1:]))

    def test_submodularity_and_monotonicity_spot_checks(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            values, bandwidth, feats, _ = random_instance(rng, max_m=25)
            sim = pool_kernel(feats, np.arange(feats.n_rows), bandwidth)
            M = values.size
            perm = rng.permutation(M)
            cut_a = int(rng.integers(0, M - 1))
            cut_b = int(rng.integers(cut_a, M - 1))
            A = set(perm[:cut_a].tolist())
            B = set(perm[:cut_b].tolist())
            extra = int(perm[-1])
            fa, fb = facility_value(values, sim, A), facility_value(values, sim, B)
            assert fb >= fa - 1e-9  # monotone
            gain_a = facility_value(values, sim, A | {extra}) - fa
            gain_b = facility_value(values, sim, B | {extra}) - fb
            assert gain_a >= gain_b - 1e-9  # submodular

    def test_facility_gain_upper_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            values, bandwidth, feats, regions = random_instance(rng, max_m=40)
            sim = pool_kernel(feats, np.arange(feats.n_rows), bandwidth)
            state = greedy_select(values, valued_columns(values, sim), regions, 0.0)
            for step in state.gains_log:
                bound = float(np.sum(values * sim[:, step.candidate]))
                assert step.facility_gain <= bound + 1e-9

    def test_greedy_vs_exhaustive_optimum(self):
        rng = np.random.default_rng(9)
        for _ in range(12):
            M = int(rng.integers(5, 13))
            budget = int(rng.integers(1, 5))
            feats = FeatureMatrix(rng.normal(size=(M, 2)))
            values = rng.uniform(0, 1, M)
            bandwidth = float(rng.uniform(0.3, 1.2))
            sim = pool_kernel(feats, np.arange(feats.n_rows), bandwidth)
            regions = build_regions(feats, feats, np.zeros(M), 1, 0)
            regions.r_region[:] = 0.0  # pure coverage objective
            state = greedy_select(values, valued_columns(values, sim), regions, 0.0, max_budget=budget)
            best = max(facility_value(values, sim, c) for c in itertools.combinations(range(M), budget))
            achieved = facility_value(values, sim, state.selected)
            assert achieved >= (1.0 - 1.0 / np.e) * best - 1e-9

    def test_stopping_invariants(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            values, bandwidth, feats, regions = random_instance(rng)
            sim = pool_kernel(feats, np.arange(feats.n_rows), bandwidth)
            eta = float(rng.uniform(0.01, 0.3))
            state = greedy_select(values, valued_columns(values, sim), regions, eta)
            for step in state.gains_log:
                assert step.combined_gain >= eta
            if state.stop_reason == "threshold":
                cover = sim[:, state.selected].max(axis=1) if state.selected else np.zeros(values.size)
                t = np.bincount(regions.assignment[state.selected], minlength=regions.n_regions)
                best_remaining = -np.inf
                for j in range(values.size):
                    if j in state.selected:
                        continue
                    region = regions.assignment[j]
                    fac = float(np.sum(values * np.maximum(sim[:, j] - cover, 0.0)))
                    reg = regions.r_region[region] / ((regions.c[region] + t[region]) * (regions.c[region] + t[region] + 1.0))
                    best_remaining = max(best_remaining, fac + reg)
                assert best_remaining < eta or best_remaining <= 0.0

    def test_far_low_value_candidate_filtered(self):
        # isolated zero-value candidate: neighborhood value ~0, so it can
        # only enter through its region term, which eta blocks here
        pts = np.vstack([np.random.default_rng(11).normal(size=(10, 2)), [[500.0, 500.0]]])
        feats = FeatureMatrix(pts)
        values = np.append(np.full(10, 1.0), 0.0)
        regions = build_regions(feats, feats, np.append(np.full(10, 0.5), 0.0), 3, 0)
        state = greedy_select(values, valued_columns(values, pool_kernel(feats, np.arange(feats.n_rows), 0.8)), regions, eta=0.05)
        assert 10 not in state.selected

    def test_negative_values_rejected(self):
        feats = FeatureMatrix(np.ones((3, 2)))
        regions = build_regions(feats, feats, np.ones(3), 1, 0)
        values = np.array([0.5, -0.1, 0.2])
        with pytest.raises(ValidationError):
            greedy_select(values, valued_columns(values, pool_kernel(feats, np.arange(feats.n_rows), 1.0)), regions, 0.0)


class TestInitialCombinedGains:
    def test_matches_first_greedy_evaluation(self):
        rng = np.random.default_rng(12)
        _, bandwidth, feats, regions = random_instance(rng, max_m=30)
        M = feats.n_rows
        sim = pool_kernel(feats, np.arange(M), bandwidth)
        for zero in (None, 0.0, -0.0):  # u = M, then u < M with +0.0 or -0.0 values
            values = rng.uniform(0.01, 1.0, M)
            if zero is not None:
                values[rng.random(M) < 0.3] = zero
                assert 0 < np.count_nonzero(values) < M
            gains = initial_combined_gains(values, sim, regions)
            for j in range(M):
                region = regions.assignment[j]
                fac = float(np.sum(values * np.maximum(sim[:, j] - 0.0, 0.0)))
                reg = regions.r_region[region] / (regions.c[region] * (regions.c[region] + 1.0))
                assert gains[j] == fac + reg
            valued = valued_columns(values, sim)
            first = greedy_select(values, valued, regions, 0.0, max_budget=1).gains_log[0]
            assert first.candidate == int(gains.argmax())
            assert first.combined_gain == gains.max()
            assert greedy_select(values, valued, regions, 0.0, max_budget=0).evaluations == M


def wide_range_instance(rng, max_m=60):
    """Random instance whose gains span many decades, so the knee search's range cuts the curve."""
    values, bandwidth, feats, regions = random_instance(rng, max_m)
    values = values * 10.0 ** rng.uniform(-14.0, 0.0, values.size)
    regions.r_region[:] = regions.r_region * 10.0 ** rng.uniform(-14.0, 0.0, regions.n_regions)
    return values, bandwidth, feats, regions


class TestLearnedEta:
    """``eta=None`` (one pass) against the two-pass reference, field by field."""

    def test_matches_two_pass_on_random_instances(self):
        rng = np.random.default_rng(13)
        paths = {"full curve": 0, "cut": 0, "truncated": 0}  # eta == 0 after a cut has its own test
        for trial in range(160):
            make = wide_range_instance if trial % 2 else random_instance
            values, bandwidth, feats, regions = make(rng)
            sim = valued_columns(values, pool_kernel(feats, np.arange(feats.n_rows), bandwidth))
            budget = int(rng.integers(1, values.size + 1)) if rng.random() < 0.5 else None
            want, curve = two_pass_selection(values, sim, regions, max_budget=budget)
            got = greedy_select(values, sim, regions, None, max_budget=budget)
            assert_same_state(got, want)
            cut = bool(curve) and curve[-1] <= curve[0] * ETA_DYNAMIC_RANGE
            paths["cut" if cut else "full curve"] += 1
            paths["truncated"] += len(want.selected) < len(curve)
        assert all(count > 0 for count in paths.values()), paths

    def test_fewer_than_three_gains_in_range_accepts_every_positive_gain(self):
        # two far-apart valuable candidates; every other gain sits below
        # ETA_DYNAMIC_RANGE of the first, so the knee search sees two points
        rng = np.random.default_rng(14)
        pts = np.vstack([[[0.0, 0.0], [100.0, 0.0]], rng.normal(50.0, 1.0, size=(8, 2))])
        feats = FeatureMatrix(pts)
        values = np.append([1.0, 1.0], np.full(8, 1e-14))
        regions = build_regions(feats, feats, np.ones(10), 3, 0)
        regions.r_region[:] = 1e-14
        sim = valued_columns(values, pool_kernel(feats, np.arange(feats.n_rows), 1.0))
        for budget, reason in ((None, "exhausted"), (6, "budget"), (2, "budget")):
            want, curve = two_pass_selection(values, sim, regions, max_budget=budget)
            got = greedy_select(values, sim, regions, None, max_budget=budget)
            assert_same_state(got, want)
            assert got.eta == 0.0
            assert got.stop_reason == reason
            assert len(got.selected) == (10 if budget is None else budget)

    def test_cut_right_after_a_flat_knee_stops_on_threshold(self):
        # isolated candidates, so facility gains are exact: [5, .01, .01, .01]
        # in range, knee at .01 keeps all four, and the cut gain is below eta
        rng = np.random.default_rng(16)
        far = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0]])
        feats = FeatureMatrix(np.vstack([far, rng.normal(50.0, 0.5, size=(6, 2))]))
        values = np.append([5.0, 0.01, 0.01, 0.01], np.full(6, 1e-13))
        regions = build_regions(feats, feats, np.ones(10), 2, 0)
        regions.r_region[:] = 0.0
        sim = valued_columns(values, pool_kernel(feats, np.arange(feats.n_rows), 1.0))
        want, curve = two_pass_selection(values, sim, regions)
        got = greedy_select(values, sim, regions, None)
        assert_same_state(got, want)
        assert got.selected == [0, 1, 2, 3] and got.eta == 0.01
        assert got.stop_reason == "threshold"

    def test_all_zero_values(self):
        rng = np.random.default_rng(15)
        feats = FeatureMatrix(rng.normal(size=(12, 2)))
        regions = build_regions(feats, feats, rng.uniform(0.1, 1.0, 12), 4, 0)
        values = np.zeros(12)
        sim = valued_columns(values, pool_kernel(feats, np.arange(feats.n_rows), 0.5))
        # region terms alone still give a curve with a knee
        want, _ = two_pass_selection(values, sim, regions)
        got = greedy_select(values, sim, regions, None)
        assert_same_state(got, want)
        assert got.selected
        # with no region importance either, nothing has positive gain
        regions.r_region[:] = 0.0
        want, _ = two_pass_selection(values, sim, regions)
        got = greedy_select(values, sim, regions, None)
        assert_same_state(got, want)
        assert got.selected == [] and got.eta == 0.0
        assert got.stop_reason == "threshold"


def full_reevaluation_greedy(values, similarity, regions, eta=None, max_budget=None):
    """Reference lazy greedy: a stale entry re-evaluates both gain parts at once.

    It counts its facility evaluations, so the split-bound selector can
    be checked against it field by field and by evaluation count.
    """
    values = np.asarray(values, dtype=np.float64)
    M = values.size
    budget = M if max_budget is None else min(int(max_budget), M)
    cover = np.zeros(M)
    t = np.zeros(regions.n_regions, dtype=np.int64)
    gains_log: list = []
    selected: list = []
    evaluations = 0

    def combined_gain(j):
        nonlocal evaluations
        evaluations += 1
        region = regions.assignment[j]
        facility = float(np.sum(values * np.maximum(similarity[j] - cover, 0.0)))
        region_g = marginal_gain(regions.r_region[region], regions.c[region], int(t[region]))
        return facility, region_g, facility + region_g

    heap = []
    for j in range(M):
        facility, region_g, combined = combined_gain(j)
        heap.append((-combined, j, facility, region_g, 0))
    heapq.heapify(heap)

    def advance(threshold, floor=None):
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
        floor = -heap[0][0] * ETA_DYNAMIC_RANGE if heap else None
        stop_reason = advance(0.0, floor)
        eta = select_eta([g.combined_gain for g in gains_log]) if gains_log else 0.0
        if eta == 0.0:
            if stop_reason == "cut":
                stop_reason = advance(0.0)
        else:
            keep = next((i for i, g in enumerate(gains_log) if g.combined_gain < eta), len(gains_log))
            if keep < len(gains_log) or stop_reason == "cut":
                stop_reason = "threshold"
                del selected[keep:], gains_log[keep:]
                cover[:] = 0.0
                t[:] = 0
                for j in selected:
                    t[regions.assignment[j]] += 1
                    np.maximum(cover, similarity[j], out=cover)

    return SelectionState(selected, gains_log, float(eta), stop_reason, evaluations)


def crowded_instance(rng):
    """Many candidates per region and 90% zero values, so most stale bounds are stale in the region term only."""
    M = int(rng.integers(20, 121))
    feats = FeatureMatrix(rng.normal(size=(M, 2)))
    values = rng.uniform(0.0, 1.0, M) * (rng.random(M) < 0.1)
    if rng.random() < 0.1:
        values[:] = 0.0
    bandwidth = float(rng.uniform(0.05, 1.0))
    real = FeatureMatrix(rng.normal(size=(int(rng.integers(5, 30)), 2)))
    regions = build_regions(real, feats, rng.uniform(0.0, 1.0, M), int(rng.integers(1, 5)), int(rng.integers(10**6)))
    return values, pool_kernel(feats, np.arange(feats.n_rows), bandwidth), regions


class TestSplitBounds:
    """The split-bound selector against the full re-evaluation oracle."""

    def test_matches_full_reevaluation_on_random_instances(self):
        rng = np.random.default_rng(17)
        evaluations = {"split": 0, "full": 0}
        stop_reasons = set()
        all_zero = 0
        for _ in range(100):
            values, sim, regions = crowded_instance(rng)
            all_zero += not values.any()
            eta = None if rng.random() < 0.5 else float(rng.choice([0.0, 1e-3, 0.01, 0.1]))
            budget = int(rng.integers(0, values.size + 1)) if rng.random() < 0.3 else None
            got = greedy_select(values, valued_columns(values, sim), regions, eta, max_budget=budget)
            want = full_reevaluation_greedy(values, sim, regions, eta, max_budget=budget)
            assert_same_state(got, want)
            assert got.evaluations <= want.evaluations
            evaluations["split"] += got.evaluations
            evaluations["full"] += want.evaluations
            stop_reasons.add(got.stop_reason)
        assert stop_reasons == {"budget", "threshold", "exhausted"}
        assert all_zero > 0
        # the region-only refresh fired: many stale bounds cost no facility pass
        assert evaluations["split"] < 0.8 * evaluations["full"], evaluations

    def test_two_moons_pool_needs_under_half_the_evaluations(self):
        train, _, pool = make_two_moons(200, 0.3, 0.55, 0)
        assert pool.n_rows >= 700
        report = run_selection(train, pool, PipelineConfig(epochs=200, rff_dim=32))
        values = np.array([s.value for s in report.scores])
        r = np.array([s.importance for s in report.scores])
        regions = build_regions(train.features, pool.features, r, 27, 0)
        sim = pool_kernel(pool.features, np.arange(pool.n_rows), None, 10)
        got = greedy_select(values, valued_columns(values, sim), regions)
        want = full_reevaluation_greedy(values, sim, regions)
        assert_same_state(got, want)
        assert got.selected == report.selected
        assert got.evaluations < want.evaluations / 2, (got.evaluations, want.evaluations)

    @pytest.mark.parametrize("zeros", ["mostly zero", "negative zero", "all zero", "none zero"])
    def test_valued_columns_match_full_reevaluation(self, zeros):
        rng = np.random.default_rng(21)
        for trial in range(30):
            values, sim, regions = crowded_instance(rng)
            M = values.size
            if zeros == "negative zero":
                values[(values == 0.0) & (rng.random(M) < 0.5)] = -0.0
            elif zeros == "all zero":
                values[:] = 0.0
            elif zeros == "none zero":
                values = rng.uniform(0.01, 1.0, M)
            eta, budget = ((None, None), (None, int(rng.integers(0, M + 1))), (0.0, int(rng.integers(0, M + 1))))[trial % 3]
            got = greedy_select(values, valued_columns(values, sim), regions, eta, max_budget=budget)
            assert_same_state(got, full_reevaluation_greedy(values, sim, regions, eta, max_budget=budget))

    @pytest.mark.parametrize("shape", [(5, 6), (6, 7), (6, 6), (6, 3), (6, 5), (6,), (6, 6, 1)])
    def test_similarity_of_another_shape_rejected(self, shape):
        feats = FeatureMatrix(np.random.default_rng(22).normal(size=(6, 2)))
        regions = build_regions(feats, feats, np.ones(6), 2, 0)
        values = np.array([0.5, 0.0, 0.2, 0.0, 0.1, 0.3])  # 4 valued columns
        with pytest.raises(ValidationError, match=r"the \(6, 4\) valued columns"):
            greedy_select(values, np.ones(shape), regions, None)

    @pytest.mark.parametrize("field", ["values", "r_region", "c"])
    def test_nan_input_rejected(self, field):
        feats = FeatureMatrix(np.random.default_rng(20).normal(size=(6, 2)))
        regions = build_regions(feats, feats, np.ones(6), 2, 0)
        values = np.ones(6)
        (values if field == "values" else getattr(regions, field))[1] = np.nan
        with pytest.raises(ValidationError):
            greedy_select(values, valued_columns(values, pool_kernel(feats, np.arange(feats.n_rows), 1.0)), regions, None)

    def test_nonpositive_coverage_rejected_up_front(self):
        feats = FeatureMatrix(np.random.default_rng(19).normal(size=(6, 2)))
        regions = build_regions(feats, feats, np.ones(6), 2, 0)
        regions.c[1] = 0.0
        values = np.ones(6)
        with pytest.raises(ValidationError, match="coverage must be positive"):
            greedy_select(values, valued_columns(values, pool_kernel(feats, np.arange(feats.n_rows), 1.0)), regions, 0.0, max_budget=0)
