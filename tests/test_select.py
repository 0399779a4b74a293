import itertools

import numpy as np
import pytest

from libags.data import FeatureMatrix
from libags.errors import ValidationError
from libags.geometry import KernelSpec, similarity_matrix
from libags.select import ETA_DYNAMIC_RANGE, build_regions, greedy_select, marginal_gain, select_eta


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


def two_pass_selection(values, kernel, features, regions, max_budget=None, similarity=None):
    """Reference for learned-eta selection: exhaustive pilot, knee, thresholded rerun."""
    pilot = greedy_select(values, kernel, features, regions, 0.0, max_budget=max_budget, similarity=similarity)
    curve = [g.combined_gain for g in pilot.gains_log]
    eta = select_eta(curve) if curve else 0.0
    return greedy_select(values, kernel, features, regions, eta, max_budget=max_budget, similarity=similarity), curve


def assert_same_state(got, want):
    assert got.selected == want.selected
    assert got.gains_log == want.gains_log
    assert got.eta == want.eta
    assert np.array_equal(got.cover, want.cover)
    assert got.objective == want.objective
    assert np.array_equal(got.region_counts, want.region_counts)
    assert got.stop_reason == want.stop_reason


def initial_combined_gains(values, kernel, features, regions, similarity=None):
    """Per-candidate combined gain at the empty selection."""
    values = np.asarray(values, dtype=np.float64)
    S = similarity_matrix(kernel, features) if similarity is None else similarity
    cover = np.zeros(values.size)
    gains = np.empty(values.size)
    for j in range(values.size):
        region = regions.assignment[j]
        facility = float(np.sum(values * np.maximum(S[:, j] - cover, 0.0)))
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
    kern = KernelSpec(float(rng.uniform(0.2, 1.5)))
    n_regions = int(rng.integers(1, max(2, M // 2)))
    real = FeatureMatrix(rng.normal(size=(int(rng.integers(5, 30)), 2)))
    regions = build_regions(real, feats, rng.uniform(0.0, 1.0, M), n_regions, int(rng.integers(10**6)))
    return values, kern, feats, regions


class TestBuildRegions:
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
        state = greedy_select(np.zeros(8), KernelSpec(1.0), feats, regions, 0.0)
        assert state.selected == []

    def test_duplicate_candidate_facility_gain_zero(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
        feats = FeatureMatrix(pts)
        values = np.array([1.0, 1.0, 0.8])
        regions = build_regions(feats, feats, values, 1, 0)
        state = greedy_select(values, KernelSpec(0.5), feats, regions, 0.0, max_budget=3)
        steps = {g.candidate: g for g in state.gains_log}
        assert 0 in steps and 1 in steps
        assert steps[1].facility_gain == 0.0

    def test_lazy_equals_naive_on_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            values, kern, feats, regions = random_instance(rng)
            sim = similarity_matrix(kern, feats)
            eta = float(rng.choice([0.0, 0.01, 0.1, 0.5]))
            budget = int(rng.integers(1, values.size + 1)) if rng.random() < 0.5 else None
            state = greedy_select(values, kern, feats, regions, eta, max_budget=budget, similarity=sim)
            ref_selected, ref_gains = naive_greedy(values, sim, regions, eta, budget)
            assert state.selected == ref_selected
            for step, (combined, fac, reg) in zip(state.gains_log, ref_gains):
                assert step.combined_gain == combined
                assert step.facility_gain == fac
                assert step.region_gain == reg

    def test_objective_monotone_over_steps(self):
        rng = np.random.default_rng(6)
        values, kern, feats, regions = random_instance(rng)
        sim = similarity_matrix(kern, feats)
        state = greedy_select(values, kern, feats, regions, 0.0, similarity=sim)
        fvals = [facility_value(values, sim, state.selected[: i + 1]) for i in range(len(state.selected))]
        assert all(b >= a - 1e-12 for a, b in zip(fvals, fvals[1:]))

    def test_submodularity_and_monotonicity_spot_checks(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            values, kern, feats, _ = random_instance(rng, max_m=25)
            sim = similarity_matrix(kern, feats)
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
            values, kern, feats, regions = random_instance(rng, max_m=40)
            sim = similarity_matrix(kern, feats)
            state = greedy_select(values, kern, feats, regions, 0.0, similarity=sim)
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
            kern = KernelSpec(float(rng.uniform(0.3, 1.2)))
            sim = similarity_matrix(kern, feats)
            regions = build_regions(feats, feats, np.zeros(M), 1, 0)
            regions.r_region[:] = 0.0  # pure coverage objective
            state = greedy_select(values, kern, feats, regions, 0.0, max_budget=budget, similarity=sim)
            best = max(facility_value(values, sim, c) for c in itertools.combinations(range(M), budget))
            achieved = facility_value(values, sim, state.selected)
            assert achieved >= (1.0 - 1.0 / np.e) * best - 1e-9

    def test_stopping_invariants(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            values, kern, feats, regions = random_instance(rng)
            sim = similarity_matrix(kern, feats)
            eta = float(rng.uniform(0.01, 0.3))
            state = greedy_select(values, kern, feats, regions, eta, similarity=sim)
            for step in state.gains_log:
                assert step.combined_gain >= eta
            if state.stop_reason == "threshold":
                cover = sim[:, state.selected].max(axis=1) if state.selected else np.zeros(values.size)
                t = state.region_counts
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
        state = greedy_select(values, KernelSpec(0.8), feats, regions, eta=0.05)
        assert 10 not in state.selected

    def test_negative_values_rejected(self):
        feats = FeatureMatrix(np.ones((3, 2)))
        regions = build_regions(feats, feats, np.ones(3), 1, 0)
        with pytest.raises(ValidationError):
            greedy_select(np.array([0.5, -0.1, 0.2]), KernelSpec(1.0), feats, regions, 0.0)


class TestInitialCombinedGains:
    def test_matches_first_greedy_evaluation(self):
        rng = np.random.default_rng(12)
        values, kern, feats, regions = random_instance(rng, max_m=30)
        sim = similarity_matrix(kern, feats)
        gains = initial_combined_gains(values, kern, feats, regions, similarity=sim)
        for j in range(values.size):
            region = regions.assignment[j]
            fac = float(np.sum(values * np.maximum(sim[:, j] - 0.0, 0.0)))
            reg = regions.r_region[region] / (regions.c[region] * (regions.c[region] + 1.0))
            assert gains[j] == fac + reg
        first = greedy_select(values, kern, feats, regions, 0.0, max_budget=1, similarity=sim).gains_log[0]
        assert first.candidate == int(gains.argmax())
        assert first.combined_gain == gains.max()


def wide_range_instance(rng, max_m=60):
    """Random instance whose gains span many decades, so the knee search's range cuts the curve."""
    values, kern, feats, regions = random_instance(rng, max_m)
    values = values * 10.0 ** rng.uniform(-14.0, 0.0, values.size)
    regions.r_region[:] = regions.r_region * 10.0 ** rng.uniform(-14.0, 0.0, regions.n_regions)
    return values, kern, feats, regions


class TestLearnedEta:
    """``eta=None`` (one pass) against the two-pass reference, field by field."""

    def test_matches_two_pass_on_random_instances(self):
        rng = np.random.default_rng(13)
        paths = {"full curve": 0, "cut": 0, "truncated": 0}  # eta == 0 after a cut has its own test
        for trial in range(160):
            make = wide_range_instance if trial % 2 else random_instance
            values, kern, feats, regions = make(rng)
            sim = similarity_matrix(kern, feats)
            budget = int(rng.integers(1, values.size + 1)) if rng.random() < 0.5 else None
            want, curve = two_pass_selection(values, kern, feats, regions, max_budget=budget, similarity=sim)
            got = greedy_select(values, kern, feats, regions, None, max_budget=budget, similarity=sim)
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
        sim = similarity_matrix(KernelSpec(1.0), feats)
        for budget, reason in ((None, "exhausted"), (6, "budget"), (2, "budget")):
            want, curve = two_pass_selection(values, KernelSpec(1.0), feats, regions, max_budget=budget, similarity=sim)
            got = greedy_select(values, KernelSpec(1.0), feats, regions, None, max_budget=budget, similarity=sim)
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
        want, curve = two_pass_selection(values, KernelSpec(1.0), feats, regions)
        got = greedy_select(values, KernelSpec(1.0), feats, regions, None)
        assert_same_state(got, want)
        assert got.selected == [0, 1, 2, 3] and got.eta == 0.01
        assert got.stop_reason == "threshold"

    def test_all_zero_values(self):
        rng = np.random.default_rng(15)
        feats = FeatureMatrix(rng.normal(size=(12, 2)))
        regions = build_regions(feats, feats, rng.uniform(0.1, 1.0, 12), 4, 0)
        values = np.zeros(12)
        # region terms alone still give a curve with a knee
        want, _ = two_pass_selection(values, KernelSpec(0.5), feats, regions)
        got = greedy_select(values, KernelSpec(0.5), feats, regions, None)
        assert_same_state(got, want)
        assert got.selected
        # with no region importance either, nothing has positive gain
        regions.r_region[:] = 0.0
        want, _ = two_pass_selection(values, KernelSpec(0.5), feats, regions)
        got = greedy_select(values, KernelSpec(0.5), feats, regions, None)
        assert_same_state(got, want)
        assert got.selected == [] and got.eta == 0.0 and got.objective == 0.0
        assert got.stop_reason == "threshold"
