import dataclasses
import json
import math
import sys
import threading
import weakref
from concurrent.futures import Future

import numpy as np
import pytest

from conftest import peak_bytes
import libags.geometry as geometry
import libags.pipeline as pipeline_module
from libags.data import CandidatePool, FeatureMatrix, LabeledDataset, make_two_moons
from libags.errors import ValidationError
from libags.geometry import pool_kernel
from libags.model import fit_logistic, one_hot, predict_proba
from libags.pipeline import STAGES, PipelineConfig, REPORT_FORMAT, fit_with_extra, run_selection, score_pool, select_scored, train_final
from libags.score import ScoreRecord
from libags.select import GainStep, build_regions, greedy_select


def tiny_config(**overrides):
    base = dict(epochs=200, rff_dim=32)
    base.update(overrides)
    return PipelineConfig(**base)


def count_pool_products(monkeypatch):
    """Record the size u of every streaming pass over the pool (each runs the pool's Gram products)."""
    calls = []
    original = geometry._pool_distances

    def counting(X, columns, k):
        calls.append(columns.size)
        return original(X, columns, k)

    monkeypatch.setattr(geometry, "_pool_distances", counting)
    return calls


class TestPipelineConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError, match="unknown config keys"):
            PipelineConfig.from_dict({"tau_quantile": 0.2, "bogus": 1})

    def test_range_checks(self):
        with pytest.raises(ValidationError):
            PipelineConfig(tau_quantile=0.0)
        with pytest.raises(ValidationError):
            PipelineConfig(kernel_bandwidth=-1.0)
        with pytest.raises(ValidationError):
            PipelineConfig(knn_k=0)
        with pytest.raises(ValidationError):
            PipelineConfig(rff_dim=3)

    def test_json_round_trip(self, tmp_path):
        config = PipelineConfig(tau_quantile=0.2, knn_k=5, seed=9)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.as_dict()))
        assert PipelineConfig.from_json_file(path) == config

    def test_replace(self):
        assert PipelineConfig().replace(seed=4).seed == 4


class TestRunSelection:
    def test_confident_pool_selects_nothing(self):
        # candidates sit exactly on well-separated real clusters and the
        # scoring model is fully confident there: importance collapses to 0
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 0.05, size=(40, 2))
        b = rng.normal(8.0, 0.05, size=(40, 2))
        real = LabeledDataset(FeatureMatrix(np.vstack([a, b])), np.repeat([0, 1], 40), 2)
        pool = CandidatePool(FeatureMatrix(np.vstack([a[:10], b[:10]])), np.repeat([0, 1], 10), (), 2)
        report = run_selection(
            real, pool, tiny_config(),
            external_proba=(one_hot(real.labels, 2), one_hot(pool.proposed_labels, 2)),
        )
        assert report.m_hat == 0
        assert report.lambda_ is None
        assert report.warnings

    @pytest.mark.parametrize("max_budget", ["none", 5, 0])
    def test_no_positive_importance_report(self, max_budget):
        # one-hot probabilities make every entropy, and so every importance, 0
        train, _, pool = make_two_moons(30, 0.25, 0.4, 0)
        report = run_selection(
            train, pool, tiny_config(max_budget=max_budget),
            external_proba=(one_hot(train.labels, 2), one_hot(pool.proposed_labels, 2)),
        )
        assert report.m_hat == 0 and report.selected == [] and report.soft_labels == []
        assert report.eta == 0.0
        assert report.lambda_ is None
        assert report.gains_log == []
        assert report.warnings == ["no candidate had positive importance (predictive entropy is 0 for every candidate); nothing to select"]

    @pytest.mark.parametrize("case", ["support", "underflow"])
    def test_no_positive_importance_warning_names_the_cause(self, case):
        train, _, pool = make_two_moons(40, 0.3, 0.55, 0)
        if case == "support":
            # every candidate lies far beyond the real data: its support
            # validity is 0, while the largest entropy is only tiny
            shift, external, why = 1e3, None, "support validity is 0 for every candidate"
        else:
            # support validity about 1e-9 times entropies about 1e-317: every
            # factor is positive, but the product is below the smallest float
            near_one_hot = np.column_stack([np.ones(pool.n_rows), np.full(pool.n_rows, 1e-320)])
            shift, external = 7.0, (one_hot(train.labels, 2), near_one_hot)
            why = "no one factor is 0 for every candidate; where none is 0, their product underflowed"
        shifted = CandidatePool(FeatureMatrix(pool.features.values + shift), pool.proposed_labels, (), 2)
        report = run_selection(train, shifted, tiny_config(), external_proba=external)
        assert report.m_hat == 0 and report.lambda_ is None
        assert report.warnings == [f"no candidate had positive importance ({why}); nothing to select"]
        support = np.array([s.support for s in report.scores])
        entropy = np.array([s.entropy for s in report.scores])
        assert (support.max() == 0) == (case == "support") and entropy.max() > 0

    @pytest.mark.parametrize("shift", [22.35, 22.45, 22.55])
    def test_subnormal_importances_that_zero_lambda_give_the_no_importance_report(self, shift):
        # Candidates at the edge of the real data's support: every importance
        # is subnormal. At +22.35 lambda is still a positive float and the run
        # selects, at +22.45 lambda underflows to 0, and at +22.55 every
        # importance is 0.
        train, _, pool = make_two_moons(40, 0.3, 0.55, 0)
        shifted = CandidatePool(FeatureMatrix(pool.features.values + shift), pool.proposed_labels, (), 2)
        report = run_selection(train, shifted, tiny_config())
        largest = max(s.importance for s in report.scores)
        tiny = float(np.finfo(np.float64).tiny)
        assert largest < tiny
        if shift == 22.35:
            assert report.m_hat > 0 and 0 < report.lambda_ < tiny
            return
        assert report.m_hat == 0 and report.selected == [] and report.lambda_ is None
        assert all(s.gap_score == 0 and s.value == 0 for s in report.scores)
        if shift == 22.45:
            assert largest > 0
            assert report.warnings == [
                f"no candidate had importance above the smallest normal float {tiny:g} (the largest is {largest:g}), "
                "so lambda underflowed to 0; nothing to select"
            ]
        else:
            why = "no one factor is 0 for every candidate; where none is 0, their product underflowed"
            assert largest == 0 and report.warnings == [f"no candidate had positive importance ({why}); nothing to select"]

    def test_widest_feature_space_with_a_finite_ball_volume_runs(self):
        # d=341 is the last width whose unit-ball volume is a finite float
        rng = np.random.default_rng(4)
        real = LabeledDataset(FeatureMatrix(rng.normal(size=(40, 341))), np.repeat([0, 1], 20), 2)
        pool = CandidatePool(FeatureMatrix(rng.normal(size=(60, 341))), np.repeat([0, 1], 30), (), 2)
        report = run_selection(real, pool, tiny_config(epochs=50))
        assert report.n_candidates == 60
        assert all(np.isfinite(s.density) for s in report.scores)

    @pytest.mark.parametrize("scale", [1.0, 2.0])
    def test_warns_when_every_coverage_is_below_the_smallest_normal_float(self, scale):
        # d=341 Gaussians: the coverage n_real * density reaches about 1e-248
        # at scale 1 and underflows for every candidate at scale 2
        rng = np.random.default_rng(4)
        real = LabeledDataset(FeatureMatrix(scale * rng.normal(size=(40, 341))), np.repeat([0, 1], 20), 2)
        pool = CandidatePool(FeatureMatrix(scale * rng.normal(size=(60, 341))), np.repeat([0, 1], 30), (), 2)
        report = run_selection(real, pool, tiny_config(epochs=50))
        underflow = all(40 * s.density < np.finfo(np.float64).tiny for s in report.scores)
        assert underflow == (scale == 2.0)
        warned = [w for w in report.warnings if "coverage n_real * density is below" in w]
        assert len(warned) == underflow and all("341 feature columns" in w for w in warned)

    @pytest.mark.parametrize("scale", [1.0, 1e-3])
    def test_warns_when_the_allocation_misses_its_target_mass(self, scale):
        # d=64 Gaussians at x1e-3: the coverage reaches about 1e150, and a
        # target of 400 is below its float resolution
        rng = np.random.default_rng(4)
        real = LabeledDataset(FeatureMatrix(scale * rng.normal(size=(40, 64))), np.repeat([0, 1], 20), 2)
        pool = CandidatePool(FeatureMatrix(scale * rng.normal(size=(60, 64))), np.repeat([0, 1], 30), (), 2)
        report = run_selection(real, pool, tiny_config(epochs=50))
        missed = abs(sum(s.gap_score for s in report.scores) - 400.0) > 1e-6 * 400.0
        assert missed == (scale == 1e-3)
        warned = [w for w in report.warnings if w.startswith("the allocation reached a total mass of")]
        assert len(warned) == missed and all("instead of its target 400" in w for w in warned)

    def test_two_moons_defaults_selects_supported_candidates(self):
        train, _, pool = make_two_moons(200, 0.3, 0.55, 0)
        report = run_selection(train, pool, PipelineConfig())
        assert report.m_hat > 0
        support = np.array([s.support for s in report.scores])
        assert support[report.selected].mean() >= support.mean()

    def test_byte_identical_reports(self):
        train, _, pool = make_two_moons(60, 0.25, 0.4, 3)
        config = tiny_config(seed=3)
        a = run_selection(train, pool, config).to_json()
        b = run_selection(train, pool, config).to_json()
        assert a == b

    def test_single_greedy_pass_matches_two_pass_report(self, monkeypatch):
        from test_select import two_pass_selection

        train, _, pool = make_two_moons(120, 0.3, 0.55, 3)
        config = tiny_config(seed=3)
        calls = []
        original = pipeline_module.greedy_select

        def counting(*args, **kwargs):
            calls.append(kwargs["eta"])
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, "greedy_select", counting)
        report = run_selection(train, pool, config)
        assert calls == [None]
        assert 0 < report.m_hat and report.eta > 0

        def two_pass(values, similarity, regions, eta, max_budget=None):
            assert eta is None
            return two_pass_selection(values, similarity, regions, max_budget=max_budget)[0]

        monkeypatch.setattr(pipeline_module, "greedy_select", two_pass)
        assert report.to_json() == run_selection(train, pool, config).to_json()

    def test_density_and_support_share_one_knn_query(self, monkeypatch):
        train, _, pool = make_two_moons(120, 0.3, 0.55, 3)
        calls = []
        original = pipeline_module.knn_distances

        def counting(reference, query, k, exclude_self=False):
            calls.append((query.n_rows, exclude_self))
            return original(reference, query, k, exclude_self)

        monkeypatch.setattr(pipeline_module, "knn_distances", counting)
        report = run_selection(train, pool, tiny_config(seed=3))
        assert report.m_hat > 0
        assert calls == [(train.n_rows, True), (pool.n_rows, False)]

    @pytest.mark.parametrize("case", ["two-moons", "gaussian-d64"])
    def test_certified_distances_match_direct_formula_report(self, case, monkeypatch):
        import libags.select as select_module
        from test_geometry import direct_knn_distances, expansion_median_knn_distance, expansion_similarity_matrix
        from test_select import direct_assign, direct_rows_sq

        if case == "two-moons":
            real, _, pool = make_two_moons(120, 0.3, 0.55, 3)
            config, external = tiny_config(seed=3), None
        else:
            rng = np.random.default_rng(4)
            real = LabeledDataset(FeatureMatrix(rng.normal(size=(80, 64))), rng.integers(0, 2, 80), 2)
            pool = CandidatePool(FeatureMatrix(rng.normal(size=(500, 64))), rng.integers(0, 2, 500), (), 2)
            config = tiny_config(max_budget=60)
            external = (rng.dirichlet(np.ones(2), 80), rng.dirichlet(np.ones(2), 500))
        report = run_selection(real, pool, config, external_proba=external)
        assert report.m_hat > 0

        def oracle_knn(reference, query, k, exclude_self=False):
            return direct_knn_distances(reference.values, query.values, k, exclude_self)

        def oracle_kernel(features, columns, bandwidth, k):
            if bandwidth is None:
                bandwidth = expansion_median_knn_distance(features, k, len(columns))
            return expansion_similarity_matrix(bandwidth, features, columns)

        monkeypatch.setattr(pipeline_module, "knn_distances", oracle_knn)
        monkeypatch.setattr(pipeline_module, "pool_kernel", oracle_kernel)
        monkeypatch.setattr(select_module, "_assign", direct_assign)
        monkeypatch.setattr(select_module, "direct_sq_distances", direct_rows_sq)
        assert report.to_json() == run_selection(real, pool, config, external_proba=external).to_json()

    def test_float_bandwidth_selects_under_that_kernel(self):
        train, _, pool = make_two_moons(120, 0.3, 0.55, 3)
        config = tiny_config(seed=3, n_regions=8, kernel_bandwidth=0.05)
        report = run_selection(train, pool, config)
        r = np.array([s.importance for s in report.scores])
        values = np.array([s.value for s in report.scores])
        regions = build_regions(train.features, pool.features, r, 8, 3)
        want = greedy_select(values, pool_kernel(pool.features, np.flatnonzero(values), 0.05), regions)
        assert report.m_hat > 0
        assert report.selected == want.selected
        assert report.eta == want.eta
        assert report.gains_log == want.gains_log
        assert report.selected != run_selection(train, pool, config.replace(kernel_bandwidth="median-knn")).selected

    def test_knee_less_pass_warns_instead_of_selecting_the_pool_silently(self):
        # One candidate takes a gain of 60 and the other two about 1e-299,
        # so the knee search sees fewer than 3 gains and eta falls back to 0.
        report = run_selection(*knee_less_case())
        assert report.eta == 0.0 and report.m_hat == 3
        assert len(report.warnings) == 1
        assert report.warnings[0].startswith("eta is 0:")
        assert "m_hat is 3 of 3 candidates" in report.warnings[0]

    @pytest.mark.parametrize("scale", [1e-150, 1e-152, 1e-153, 1e-154])
    def test_tiny_feature_scales_fail_naming_the_density(self, scale, monkeypatch):
        # kNN densities near 1e300 drove lambda to 0 (and the coverage to inf at 1e-154)
        train, _, pool = make_two_moons(30, 0.25, 0.4, 0)
        real = LabeledDataset(FeatureMatrix(train.features.values * scale), train.labels, 2)
        pool = CandidatePool(FeatureMatrix(pool.features.values * scale), pool.proposed_labels, pool.source_ids, 2)
        external = (np.random.default_rng(0).dirichlet(np.ones(2), real.n_rows), np.random.default_rng(1).dirichlet(np.ones(2), pool.n_rows))
        products = count_pool_products(monkeypatch)
        with pytest.raises(ValidationError, match=r"kNN density reaches [0-9.]+e\+[0-9]{3}") as error:
            run_selection(real, pool, PipelineConfig(epochs=50), external_proba=external)
        # At 1e-154 the kNN stage's own check fails; at the other scales the
        # allocation fails later. Either way the kernel stage is never queued.
        knn_failed = str(error.value).startswith("features too small")
        assert knn_failed == (scale == 1e-154)
        assert products == []

    def test_overflowing_knn_density_fails_without_a_numpy_warning(self):
        # The density's exp overflows on the worker thread, whose numpy error
        # state is its own; under filterwarnings = error a leaked
        # RuntimeWarning would replace the ValidationError.
        train, _, pool = make_two_moons(100, 0.25, 0.4, 0)
        real = LabeledDataset(FeatureMatrix(train.features.values * 1e-160), train.labels, 2)
        pool = CandidatePool(FeatureMatrix(pool.features.values * 1e-160), pool.proposed_labels, pool.source_ids, 2)
        with pytest.raises(ValidationError, match="features too small: the kNN density reaches inf"):
            run_selection(real, pool, PipelineConfig(epochs=50))

    @pytest.mark.parametrize("scale", [1e-170, 1e-200, 1e-300])
    def test_warns_when_every_knn_distance_underflows_to_zero(self, scale):
        # Every squared distance underflows, so each candidate's density
        # falls back to radius 1 and all densities are equal
        train, _, pool = make_two_moons(100, 0.25, 0.4, 0)
        real = LabeledDataset(FeatureMatrix(train.features.values * scale), train.labels, 2)
        pool = CandidatePool(FeatureMatrix(pool.features.values * scale), pool.proposed_labels, pool.source_ids, 2)
        report = run_selection(real, pool, PipelineConfig(epochs=50))
        assert len({s.density for s in report.scores}) == 1
        warned = [w for w in report.warnings if w.startswith("every candidate lies at distance 0 from its 10 nearest real rows")]
        assert len(warned) == 1

    def test_dimension_mismatch(self):
        real = LabeledDataset(FeatureMatrix(np.ones((4, 2))), np.array([0, 1, 0, 1]), 2)
        pool = CandidatePool(FeatureMatrix(np.ones((3, 3))), np.array([0, 1, 0]), (), 2)
        with pytest.raises(ValidationError):
            run_selection(real, pool, tiny_config())

    def test_external_proba_shape_validated(self):
        train, _, pool = make_two_moons(20, 0.2, 0.2, 0)
        bad = np.full((3, 2), 0.5)
        good_real = np.full((train.n_rows, 2), 0.5)
        with pytest.raises(ValidationError):
            run_selection(train, pool, tiny_config(), external_proba=(good_real, bad))

    def test_score_record_invariants(self):
        train, _, pool = make_two_moons(50, 0.25, 0.4, 1)
        report = run_selection(train, pool, tiny_config())
        for record in report.scores:
            assert abs(record.importance - record.boundary_weight * record.entropy * record.support) <= 1e-12
            assert abs(record.value - record.gap_score * record.support) <= 1e-12
            assert record.margin >= 0 and record.support >= 0

    def test_report_schema(self):
        train, _, pool = make_two_moons(30, 0.25, 0.3, 2)
        report = run_selection(train, pool, tiny_config())
        payload = json.loads(report.to_json())
        expected = {
            "format", "m_hat", "eta", "lambda", "tau", "selected", "soft_labels",
            "scores", "gains_log", "config", "warnings", "n_real", "n_candidates",
        }
        assert set(payload) == expected
        assert payload["format"] == REPORT_FORMAT
        assert payload["m_hat"] == len(payload["selected"])
        timed = json.loads(report.to_json(include_timings=True))
        assert "stage_seconds" in timed

    def test_selected_soft_labels_are_distributions(self):
        train, _, pool = make_two_moons(80, 0.3, 0.5, 4)
        report = run_selection(train, pool, tiny_config())
        soft = np.asarray(report.soft_labels)
        if soft.size:
            assert np.all(soft >= 0)
            np.testing.assert_allclose(soft.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("n_classes", [3, 9])
    def test_multi_class_soft_labels_are_distributions_and_reruns_identical(self, n_classes, blobs):
        # From 8 classes on the softmax reduces along numpy's own axis
        real, pool = blobs(n_classes)
        report = run_selection(real, pool, tiny_config())
        soft = np.asarray(report.soft_labels)
        assert report.m_hat > 0 and soft.shape == (report.m_hat, n_classes)
        assert np.all(soft >= 0)
        np.testing.assert_allclose(soft.sum(axis=1), 1.0, atol=1e-12)
        assert run_selection(real, pool, tiny_config()).to_json() == report.to_json()

    def test_max_budget_respected(self):
        train, _, pool = make_two_moons(60, 0.3, 0.5, 5)
        report = run_selection(train, pool, tiny_config(max_budget=4))
        assert report.m_hat <= 4

    def test_stage_order_follows_the_algorithm(self):
        train, _, pool = make_two_moons(30, 0.25, 0.3, 8)
        report = run_selection(train, pool, tiny_config())
        assert list(report.stage_seconds) == [
            "scoring_model", "candidate_scores", "geometry", "allocation",
            "regions", "similarity", "eta", "greedy", "soft_labels",
        ]


def reference_json(report, include_timings=False):
    """The report's payload through json.dumps: the text to_json must write."""
    payload = {
        "format": report.format,
        "m_hat": report.m_hat,
        "eta": report.eta,
        "lambda": report.lambda_,
        "tau": report.tau,
        "selected": report.selected,
        "soft_labels": report.soft_labels,
        "scores": [{name: getattr(record, name) for name in record.FIELDS} for record in report.scores],
        "gains_log": [
            {"step": g.step, "candidate": g.candidate, "facility_gain": g.facility_gain, "region_gain": g.region_gain, "combined_gain": g.combined_gain}
            for g in report.gains_log
        ],
        "config": report.config,
        "warnings": report.warnings,
        "n_real": report.n_real,
        "n_candidates": report.n_candidates,
    }
    if include_timings:
        payload["stage_seconds"] = report.stage_seconds
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestReportJson:
    def test_to_json_equals_json_dumps_of_the_payload(self):
        train, _, pool = make_two_moons(60, 0.25, 0.4, 3)
        picked = run_selection(train, pool, tiny_config(seed=3))
        empty = run_selection(train, pool, tiny_config(), external_proba=(one_hot(train.labels, 2), one_hot(pool.proposed_labels, 2)))
        assert picked.m_hat > 0 and empty.m_hat == 0 and empty.lambda_ is None
        # Non-finite floats, an int, a numpy float and awkward strings take json's own spelling.
        nonfinite = dataclasses.replace(
            picked,
            eta=math.nan,
            warnings=['a "quoted" warning', "back\\slash", "non-ASCII: \u03bb \u2265 0, na\u00efve", "line\nbreak"],
            scores=[ScoreRecord(math.nan, math.inf, -math.inf, 5e-324, -0.0, 0.0, 0.1, 1e308)] + picked.scores[1:],
            gains_log=[GainStep(1, picked.selected[0], math.nan, math.inf, -math.inf)] + picked.gains_log[1:],
            soft_labels=[[math.inf, -0.0]] + picked.soft_labels[1:],
        )
        mixed = dataclasses.replace(picked, scores=picked.scores[:-1] + [ScoreRecord(1, np.float64(0.1), 0.5, 0.5, 0.5, 0.5, 0.5, 0.5)])
        # Finite scores with an int keep the row template; a numpy float or a
        # bool in the gain log sends it through json.dumps; so does an int too
        # large for a float, beside -0.0 and the smallest subnormal.
        int_scores = dataclasses.replace(picked, scores=[ScoreRecord(1, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5)] + picked.scores[1:])
        j = picked.selected[0]
        numpy_gain, bool_gain, extreme_gain = (
            dataclasses.replace(picked, gains_log=[step] + picked.gains_log[1:])
            for step in (GainStep(1, j, np.float64(0.25), 0.5, 0.5), GainStep(1, j, 0.25, True, 0.5), GainStep(10**400, j, -0.0, 5e-324, 1e308))
        )
        for report in (picked, empty, nonfinite, mixed, int_scores, numpy_gain, bool_gain, extreme_gain):
            for include_timings in (False, True):
                assert report.to_json(include_timings) == reference_json(report, include_timings)


def knee_less_case():
    """Features scaled by 1e3 saturate the scoring fit, so the greedy finds no knee and warns (eta 0)."""
    rng = np.random.default_rng(20)
    real = LabeledDataset(FeatureMatrix(rng.normal(size=(6, 1)) * 1e3), rng.integers(0, 2, 6), 2)
    pool = CandidatePool(FeatureMatrix(rng.normal(size=(3, 1)) * 1e3), rng.integers(0, 2, 3), (), 2)
    return real, pool, PipelineConfig(epochs=300)


class TestScoredPool:
    @pytest.mark.parametrize("case", ["two-moons", "knee-less"])
    def test_selecting_twice_gives_equal_reports_and_leaves_the_pool_unchanged(self, case):
        if case == "knee-less":
            real, pool, config = knee_less_case()
            external = None
        else:
            real, pool, config, external = overlap_case(case)
        scored = score_pool(real, pool, config, external_proba=external)
        warnings, timings = list(scored.warnings), dict(scored.stage_seconds)
        arrays = {name: column.copy() for name, column in scored.scores.items()}
        first, second = select_scored(scored), select_scored(scored)
        assert first.m_hat > 0 and (first.warnings != []) == (case == "knee-less")
        assert first.to_json() == second.to_json() == run_selection(real, pool, config, external_proba=external).to_json()
        assert scored.warnings == warnings and scored.stage_seconds == timings
        assert list(scored.scores) == list(ScoreRecord.FIELDS)
        for name, column in scored.scores.items():
            assert np.array_equal(column, arrays[name])

    def test_scoring_half_times_its_stages_and_leaves_the_rest_at_zero(self):
        real, pool, config, _ = overlap_case("two-moons")
        scored = score_pool(real, pool, config)
        assert list(scored.stage_seconds) == list(STAGES)
        first_half = {"scoring_model", "candidate_scores", "geometry", "allocation"}
        assert all((seconds > 0) == (stage in first_half) for stage, seconds in scored.stage_seconds.items())
        report = select_scored(scored)
        assert [report.stage_seconds[stage] for stage in first_half] == [scored.stage_seconds[stage] for stage in first_half]


class InlineExecutor:
    """Stands in for ThreadPoolExecutor: runs each submitted call at once on the calling thread."""

    def __init__(self, max_workers):
        assert max_workers == 1

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args, **kwargs):
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:  # the future carries it, as the pool's would
            future.set_exception(exc)
        return future


def overlap_case(case):
    """(real, pool, config, external_proba) of one input the kernel worker is checked on."""
    if case == "gaussian-d64":
        rng = np.random.default_rng(4)
        real = LabeledDataset(FeatureMatrix(rng.normal(size=(80, 64))), rng.integers(0, 2, 80), 2)
        pool = CandidatePool(FeatureMatrix(rng.normal(size=(500, 64))), rng.integers(0, 2, 500), (), 2)
        return real, pool, tiny_config(max_budget=60), (rng.dirichlet(np.ones(2), 80), rng.dirichlet(np.ones(2), 500))
    real, _, pool = make_two_moons(120, 0.3, 0.55, 3)
    if case == "no-importance":
        # one-hot probabilities: every importance, and so every value, is 0
        return real, pool, tiny_config(seed=3), (one_hot(real.labels, 2), one_hot(pool.proposed_labels, 2))
    bandwidth = 0.05 if case == "float-bandwidth" else "median-knn"
    return real, pool, tiny_config(seed=3, kernel_bandwidth=bandwidth), None


def blas_threads():
    return None if geometry._BLAS_THREADS is None else geometry._BLAS_THREADS[0]()


def record_threads(monkeypatch) -> dict:
    """Record, for each of the kNN query, the kernel, k-means and the scoring fit, the thread and BLAS thread count of its last call."""
    seen = {}

    def recording(name, fn):
        def call(*args, **kwargs):
            seen[name] = (threading.get_ident(), blas_threads())
            return fn(*args, **kwargs)
        return call

    for name in ("knn_distances", "pool_kernel", "build_regions", "fit_logistic"):
        monkeypatch.setattr(pipeline_module, name, recording(name, getattr(pipeline_module, name)))
    return seen


class KernelFailure(RuntimeError):
    pass


class TestKernelWorker:
    @pytest.mark.parametrize("case", ["two-moons", "gaussian-d64", "float-bandwidth", "no-importance"])
    def test_report_bytes_equal_the_inline_run(self, case, monkeypatch):
        real, pool, config, external = overlap_case(case)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two threads finely
        try:
            threaded = run_selection(real, pool, config, external_proba=external)
        finally:
            sys.setswitchinterval(interval)
        assert (threaded.m_hat > 0) == (case != "no-importance")
        monkeypatch.setattr(pipeline_module, "ThreadPoolExecutor", InlineExecutor)
        assert threaded.to_json() == run_selection(real, pool, config, external_proba=external).to_json()

    def test_no_valued_candidate_runs_no_pool_product(self, monkeypatch):
        real, pool, config, external = overlap_case("no-importance")
        products = count_pool_products(monkeypatch)
        assert run_selection(real, pool, config, external_proba=external).m_hat == 0
        assert products == []

    def test_kernel_stage_holds_no_pool_matrix(self, monkeypatch):
        # The moons-cli input: u is about a tenth of M. The peak is the (M, u)
        # columns plus a few blocks of at most _BLOCK elements (the kernel's
        # product block, the k-means screening beside it) and the pipeline's
        # per-candidate arrays, far below the M x M distance matrix.
        real, _, pool = make_two_moons(1000, 0.3, 0.55, 0)
        M = pool.n_rows
        products = count_pool_products(monkeypatch)
        report, peak = peak_bytes(lambda: run_selection(real, pool, PipelineConfig()))
        assert report.m_hat > 0
        assert len(products) == 1 and 0 < products[0] < M / 4
        assert peak < M * products[0] * 8 + 10 * geometry._BLOCK * 8

    def test_kernel_columns_are_released_before_the_soft_labels(self, monkeypatch):
        # The greedy is the last reader of the (M, u) columns the worker built,
        # so neither the pipeline nor the kernel future may keep them alive
        # while the soft labels, the score records and the report are built.
        real, pool, config, _ = overlap_case("two-moons")
        similarity = []
        alive = []
        greedy, label = pipeline_module.greedy_select, pipeline_module.soft_label

        def recording_greedy(values, sim, *args, **kwargs):
            similarity.append(weakref.ref(sim))
            return greedy(values, sim, *args, **kwargs)

        def recording_label(*args):
            if not alive:
                alive.append(similarity[0]() is not None)
            return label(*args)

        monkeypatch.setattr(pipeline_module, "greedy_select", recording_greedy)
        monkeypatch.setattr(pipeline_module, "soft_label", recording_label)
        assert run_selection(real, pool, config).m_hat > 0
        assert len(similarity) == 1 and alive == [False]

    def test_kernel_runs_off_the_calling_thread_on_one_blas_thread(self, monkeypatch):
        real, pool, config, _ = overlap_case("two-moons")
        seen = record_threads(monkeypatch)
        before = blas_threads()
        assert run_selection(real, pool, config).m_hat > 0
        caller = threading.get_ident()
        assert seen["knn_distances"][0] != caller and seen["pool_kernel"][0] != caller
        assert seen["build_regions"][0] == caller and seen["fit_logistic"][0] == caller
        if before is not None:
            assert {threads for _, threads in seen.values()} == {1}
            assert blas_threads() == before

    def test_score_pool_runs_knn_off_the_calling_thread_on_one_blas_thread(self, monkeypatch):
        real, pool, config, _ = overlap_case("two-moons")
        seen = record_threads(monkeypatch)
        before = blas_threads()
        score_pool(real, pool, config)
        caller = threading.get_ident()
        assert set(seen) == {"knn_distances", "fit_logistic"}
        assert seen["knn_distances"][0] != caller and seen["fit_logistic"][0] == caller
        if before is not None:
            assert {threads for _, threads in seen.values()} == {1}
            assert blas_threads() == before

    @pytest.mark.parametrize("failing", ["knn_distances", "fit_logistic"])
    def test_score_pool_error_propagates_and_the_worker_is_joined(self, failing, monkeypatch):
        real, pool, config, _ = overlap_case("two-moons")
        baseline = threading.active_count()
        before = blas_threads()

        def fail(*args, **kwargs):
            raise KernelFailure(failing)

        monkeypatch.setattr(pipeline_module, failing, fail)
        with pytest.raises(KernelFailure, match=failing):
            score_pool(real, pool, config)
        assert threading.active_count() == baseline
        assert blas_threads() == before

    @pytest.mark.parametrize("failing", ["knn_distances", "pool_kernel", "build_regions"])
    def test_error_in_either_thread_propagates_and_threads_are_joined(self, failing, monkeypatch):
        real, pool, config, _ = overlap_case("two-moons")
        baseline = threading.active_count()
        before = blas_threads()

        def fail(*args, **kwargs):
            raise KernelFailure(failing)

        monkeypatch.setattr(pipeline_module, failing, fail)
        with pytest.raises(KernelFailure, match=failing):
            run_selection(real, pool, config)
        assert threading.active_count() == baseline
        assert blas_threads() == before
        monkeypatch.undo()
        assert run_selection(real, pool, config).m_hat > 0
        assert threading.active_count() == baseline
        assert blas_threads() == before


class TestTrainFinal:
    def test_empty_selection_equals_plain_fit(self):
        rng = np.random.default_rng(1)
        real = LabeledDataset(FeatureMatrix(rng.normal(size=(30, 2))), rng.integers(0, 2, 30), 2)
        pool = CandidatePool(FeatureMatrix(rng.normal(size=(10, 2))), rng.integers(0, 2, 10), (), 2)
        proba_real = np.full((30, 2), 0.5)
        config = tiny_config()
        report = run_selection(real, pool, config, external_proba=(proba_real, one_hot(pool.proposed_labels, 2)))
        assert report.m_hat == 0
        final = train_final(real, report, pool, config)
        erm = fit_logistic(real.features, real.labels, 2, config.l2, config.epochs, config.lr)
        np.testing.assert_allclose(final.weights, erm.weights, atol=1e-9)
        np.testing.assert_allclose(final.bias, erm.bias, atol=1e-9)

    def test_training_set_size_is_n_plus_m(self, monkeypatch):

        train, _, pool = make_two_moons(60, 0.3, 0.5, 6)
        config = tiny_config()
        report = run_selection(train, pool, config)
        assert report.m_hat > 0
        sizes = []
        original = pipeline_module.fit_logistic_soft

        def recording_fit(features, targets, *args, **kwargs):
            sizes.append((features.n_rows, len(targets)))
            return original(features, targets, *args, **kwargs)

        monkeypatch.setattr(pipeline_module, "fit_logistic_soft", recording_fit)
        final = train_final(train, report, pool, config)
        assert sizes == [(train.n_rows + report.m_hat, train.n_rows + report.m_hat)]
        pred = predict_proba(final, train.features)
        assert pred.shape == (train.n_rows, 2)

    def test_no_extra_rows_fit_the_real_features_themselves(self, monkeypatch):
        train, _, _ = make_two_moons(30, 0.3, 0.4, 7)
        seen = []
        original = pipeline_module.fit_logistic_soft

        def recording_fit(features, *args, **kwargs):
            seen.append(features)
            return original(features, *args, **kwargs)

        monkeypatch.setattr(pipeline_module, "fit_logistic_soft", recording_fit)
        fit_with_extra(train, [], [], tiny_config())
        assert len(seen) == 1 and seen[0] is train.features

    @pytest.mark.parametrize("case, message", [("repeated-index", "repeats a candidate index"),
                                               ("rows-without-selection", "soft labels do not match the selection"),
                                               ("ragged-rows", "soft labels do not match the selection")],
                             ids=["repeated-index", "rows-without-selection", "ragged-rows"])
    def test_selection_no_run_produces_rejected(self, case, message):
        train, _, pool = make_two_moons(30, 0.3, 0.4, 7)
        config = tiny_config()
        report = run_selection(train, pool, config)
        assert report.m_hat > 1
        if case == "repeated-index":
            bad = dataclasses.replace(report, selected=report.selected[:1] * 2, soft_labels=report.soft_labels[:1] * 2)
        elif case == "rows-without-selection":
            bad = dataclasses.replace(report, selected=[], soft_labels=report.soft_labels[:1])
        else:
            bad = dataclasses.replace(report, selected=report.selected[:2], soft_labels=[report.soft_labels[0], [1.0]])
        with pytest.raises(ValidationError, match=message):
            train_final(train, bad, pool, config)

    def test_pool_mismatch_rejected(self):
        train, _, pool = make_two_moons(30, 0.3, 0.4, 7)
        config = tiny_config()
        report = run_selection(train, pool, config)
        smaller = CandidatePool(FeatureMatrix(pool.features.values[:5]), pool.proposed_labels[:5], (), 2)
        with pytest.raises(ValidationError):
            train_final(train, report, smaller, config)
