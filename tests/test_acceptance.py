"""Acceptance gate: every release-blocking criterion, one test each.

Each test prints a single pass/fail line (visible with ``pytest -s`` or on
failure) and asserts the criterion at its stated tolerance.
"""

import itertools
import json
import statistics
import subprocess
import sys
import time

import numpy as np

from libags.alloc import solve_lambda
from libags.bench import auroc, run_bench
from libags.data import FeatureMatrix, make_two_moons, write_candidate_csv, write_labeled_csv
from libags.geometry import pool_kernel
from libags.model import cross_entropy, one_hot
from libags.pipeline import PipelineConfig, run_selection
from libags.select import build_regions, greedy_select, marginal_gain

from conftest import criterion_10_inputs, valued_columns
from test_alloc import continuous_allocation_oracle
from test_bench import brute_force_auroc
from test_label import soft_label_bound_check
from test_select import facility_value, naive_greedy


def _verdict(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_1_allocation_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        B, n, m = 20, 100, 50
        r = rng.uniform(0.0, 1.0, B)
        r[rng.random(B) < 0.15] = 0.0
        if not np.any(r > 0):
            r[0] = 0.5
        p = rng.dirichlet(np.ones(B)) * B  # integrates to 1 over unit domain
        q_oracle = continuous_allocation_oracle(r, p, n, m)
        closed = solve_lambda(r, n * p, m * B)  # target mass m / binwidth
        q_closed = closed.gap_scores / m
        worst = max(worst, float(np.abs(q_oracle - q_closed).sum()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-3 and elapsed < 30.0
    assert _verdict("1 allocation oracle equivalence", ok, f"worst L1 {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_marginal_gain_identity():
    rng = np.random.default_rng(2)
    r = rng.uniform(0.01, 2.0, 10_000)
    c = rng.uniform(0.1, 10.0, 10_000)
    t = rng.integers(0, 30, 10_000).astype(np.float64)
    difference_form = r / (c + t) - r / (c + t + 1.0)
    product_form = r / ((c + t) * (c + t + 1.0))
    worst = float(np.abs(difference_form - product_form).max())
    next_gain = r / ((c + t + 1.0) * (c + t + 2.0))
    decreasing = bool(np.all(next_gain < product_form))
    spot = all(
        abs(marginal_gain(r[i], c[i], int(t[i])) - product_form[i]) <= 1e-15 for i in range(0, 10_000, 997)
    )
    ok = worst <= 1e-12 and decreasing and spot
    assert _verdict("2 stopping-gain identity", ok, f"max|diff| {worst:.2e}, strictly decreasing {decreasing}")


def test_criterion_3_soft_label_bound():
    rng = np.random.default_rng(3)
    worst = -np.inf
    for _ in range(10_000):
        K = int(rng.integers(2, 7))
        e = np.zeros(K)
        e[int(rng.integers(0, K))] = 1.0
        pi = rng.dirichlet(np.ones(K))
        rho = rng.dirichlet(np.ones(K))
        lhs, rhs = soft_label_bound_check(e, pi, rho, float(rng.uniform(0, 1)))
        worst = max(worst, lhs - rhs)
    ok = worst <= 1e-12
    assert _verdict("3 soft-label stability bound", ok, f"max lhs-rhs {worst:.2e}")


def test_criterion_4_coverage_objective_properties():
    rng = np.random.default_rng(4)
    worst_mono = worst_sub = worst_bound = np.inf
    exhaustive_checked = 0
    min_ratio = np.inf
    for trial in range(200):
        M = int(rng.integers(5, 41))
        feats = FeatureMatrix(rng.normal(size=(M, 2)))
        values = rng.uniform(0, 1, M)
        values[rng.random(M) < 0.25] = 0.0
        kern = float(rng.uniform(0.3, 1.5))
        sim = pool_kernel(feats, np.arange(M), kern)

        perm = rng.permutation(M)
        cut_a = int(rng.integers(0, M - 1))
        cut_b = int(rng.integers(cut_a, M - 1))
        A, B = set(perm[:cut_a].tolist()), set(perm[:cut_b].tolist())
        extra = int(perm[-1])
        fa, fb = facility_value(values, sim, A), facility_value(values, sim, B)
        worst_mono = min(worst_mono, fb - fa)
        gain_a = facility_value(values, sim, A | {extra}) - fa
        gain_b = facility_value(values, sim, B | {extra}) - fb
        worst_sub = min(worst_sub, gain_a - gain_b)
        worst_bound = min(worst_bound, float(np.sum(values * sim[:, extra])) - gain_b)

        if M <= 12:
            budget = int(rng.integers(1, 5))
            regions = build_regions(feats, feats, np.zeros(M), 1, 0)
            regions.r_region[:] = 0.0
            state = greedy_select(values, valued_columns(values, sim), regions, 0.0, max_budget=budget)
            best = max(facility_value(values, sim, combo) for combo in itertools.combinations(range(M), budget))
            if best > 0:
                min_ratio = min(min_ratio, facility_value(values, sim, state.selected) / best)
            exhaustive_checked += 1
    ok = (
        worst_mono >= -1e-9
        and worst_sub >= -1e-9
        and worst_bound >= -1e-9
        and min_ratio >= (1.0 - 1.0 / np.e) - 1e-9
        and exhaustive_checked >= 20
    )
    assert _verdict(
        "4 coverage objective properties",
        ok,
        f"mono {worst_mono:.1e}, submod {worst_sub:.1e}, bound {worst_bound:.1e}, "
        f"greedy/OPT {min_ratio:.4f} over {exhaustive_checked} exhaustive instances",
    )


def test_criterion_5_lazy_equals_naive():
    rng = np.random.default_rng(5)
    mismatches = 0
    for _ in range(100):
        M = int(rng.integers(5, 61))
        feats = FeatureMatrix(rng.normal(size=(M, 2)))
        values = rng.uniform(0, 1, M)
        values[rng.random(M) < 0.3] = 0.0
        kern = float(rng.uniform(0.2, 1.5))
        sim = pool_kernel(feats, np.arange(M), kern)
        real = FeatureMatrix(rng.normal(size=(int(rng.integers(5, 30)), 2)))
        regions = build_regions(real, feats, rng.uniform(0, 1, M), int(rng.integers(1, max(2, M // 2))), int(rng.integers(10**6)))
        eta = float(rng.choice([0.0, 0.02, 0.1, 0.4]))
        budget = int(rng.integers(1, M + 1)) if rng.random() < 0.5 else None
        state = greedy_select(values, valued_columns(values, sim), regions, eta, max_budget=budget)
        ref_selected, ref_gains = naive_greedy(values, sim, regions, eta, budget)
        same = state.selected == ref_selected and all(
            step.combined_gain == combined and step.facility_gain == fac and step.region_gain == reg
            for step, (combined, fac, reg) in zip(state.gains_log, ref_gains)
        )
        mismatches += 0 if same else 1
    ok = mismatches == 0
    assert _verdict("5 lazy-naive greedy equivalence", ok, f"{mismatches} mismatching instances of 100")


def test_criterion_6_allocation_mass():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        size = int(rng.integers(1, 501))
        r = rng.uniform(0, 2, size)
        r[rng.random(size) < 0.2] = 0.0
        if not np.any(r > 0):
            r[int(rng.integers(size))] = 1.0
        coverage = rng.uniform(0, 5, size)
        target = float(rng.uniform(0.05, 100.0))
        solution = solve_lambda(r, coverage, target)
        worst = max(worst, abs(solution.total_mass - target) / target)
    ok = worst <= 1e-6
    assert _verdict("6 allocation mass constraint", ok, f"worst relative error {worst:.2e}")


def test_criterion_7_two_moons_benchmark():
    start = time.perf_counter()
    results = run_bench(["erm", "random", "noise", "uncertainty_only", "libags"], [0, 1, 2, 3, 4], PipelineConfig())
    elapsed = time.perf_counter() - start
    by = {result.method: result for result in results}
    gap_vs_erm = by["libags"].mean_accuracy - by["erm"].mean_accuracy
    gap_vs_random = by["libags"].mean_accuracy - by["random"].mean_accuracy
    ok = gap_vs_erm >= 0.02 and gap_vs_random >= 0.0 and elapsed < 120.0
    assert _verdict(
        "7 two-moons benchmark ordering",
        ok,
        f"libags {by['libags'].mean_accuracy:.4f} vs erm {by['erm'].mean_accuracy:.4f} (+{gap_vs_erm:.4f}) "
        f"vs random {by['random'].mean_accuracy:.4f} (+{gap_vs_random:.4f}), m_hat {by['libags'].m_hats}, {elapsed:.0f}s",
    )


def test_criterion_8_gradient_check():
    rng = np.random.default_rng(8)
    step = 1e-5
    worst = 0.0
    for trial in range(20):
        n, d, K = int(rng.integers(5, 25)), int(rng.integers(2, 7)), int(rng.integers(2, 5))
        X = rng.normal(size=(n, d))
        if trial % 2 == 0:
            T = one_hot(rng.integers(0, K, n), K)
        else:
            T = rng.dirichlet(np.ones(K), size=n)
        W = rng.normal(size=(K, d))
        b = rng.normal(size=K)
        l2 = float(rng.uniform(0, 0.01))
        _, gW, gb = cross_entropy(W, b, X, T, l2)
        fW = np.zeros_like(W)
        for idx in np.ndindex(W.shape):
            up, down = W.copy(), W.copy()
            up[idx] += step
            down[idx] -= step
            fW[idx] = (cross_entropy(up, b, X, T, l2)[0] - cross_entropy(down, b, X, T, l2)[0]) / (2 * step)
        fb = np.zeros_like(b)
        for i in range(K):
            up, down = b.copy(), b.copy()
            up[i] += step
            down[i] -= step
            fb[i] = (cross_entropy(W, up, X, T, l2)[0] - cross_entropy(W, down, X, T, l2)[0]) / (2 * step)
        err = (np.linalg.norm(gW - fW) + np.linalg.norm(gb - fb)) / max(np.linalg.norm(fW) + np.linalg.norm(fb), 1e-12)
        worst = max(worst, err)
    ok = worst < 1e-4
    assert _verdict("8 cross-entropy gradient check", ok, f"worst relative error {worst:.2e}")


def test_criterion_9_auroc_oracle():
    rng = np.random.default_rng(9)
    mismatches = 0
    for trial in range(50):
        n = int(rng.integers(5, 501))
        scores = rng.normal(size=n)
        if trial % 3 == 0:
            scores = np.round(scores, 1)  # force ties
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        if auroc(scores, labels) != brute_force_auroc(scores, labels):
            mismatches += 1
    ok = mismatches == 0
    assert _verdict("9 auroc pairwise oracle", ok, f"{mismatches} mismatching instances of 50")


def _perf_run(M):
    real, pool, external = criterion_10_inputs(M)
    config = PipelineConfig(max_budget=300)
    # The wall time of the call: stage_seconds entries overlap across the two threads.
    t0 = time.perf_counter()
    run_selection(real, pool, config, external_proba=external)
    return time.perf_counter() - t0


def test_criterion_10_quadratic_cost_profile():
    _perf_run(500)  # warm caches before timing
    # The median of three timings per M: one timing of a shared host's
    # noise moved the ratio across the gate's lower bound now and then.
    t_1000 = statistics.median(_perf_run(1000) for _ in range(3))
    t_2000 = statistics.median(_perf_run(2000) for _ in range(3))
    ratio = t_2000 / t_1000
    ok = t_2000 < 10.0 and 2.0 < ratio < 6.0
    assert _verdict("10 cost profile", ok, f"M=2000 in {t_2000:.2f}s, M=2000/M=1000 ratio {ratio:.2f}")


def test_criterion_11_cli_determinism(tmp_path):
    train, _, pool = make_two_moons(30, 0.25, 0.4, 0)
    real_path, cand_path = tmp_path / "real.csv", tmp_path / "cands.csv"
    write_labeled_csv(real_path, train)
    write_candidate_csv(cand_path, pool)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"epochs": 150, "rff_dim": 16}))
    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "libags", "select", "--real", str(real_path), "--candidates", str(cand_path),
             "--out", str(out), "--seed", "7", "--config", str(config_path), "--reproducible"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    assert _verdict("11 reproducible CLI reports", ok, f"{len(outputs[0])} bytes, identical {ok}")
