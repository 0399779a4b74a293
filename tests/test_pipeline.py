import json

import numpy as np
import pytest

from libags.data import CandidatePool, FeatureMatrix, LabeledDataset, make_two_moons
from libags.errors import ValidationError
from libags.model import fit_logistic, one_hot, predict_proba
from libags.pipeline import PipelineConfig, REPORT_FORMAT, run_selection, train_final


def tiny_config(**overrides):
    base = dict(epochs=200, rff_dim=32)
    base.update(overrides)
    return PipelineConfig(**base)


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
        import libags.pipeline as pipeline_module
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
        import libags.pipeline as pipeline_module

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
        import libags.pipeline as pipeline_module
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

        monkeypatch.setattr(pipeline_module, "knn_distances", oracle_knn)
        monkeypatch.setattr(pipeline_module, "median_knn_distance", expansion_median_knn_distance)
        monkeypatch.setattr(pipeline_module, "similarity_matrix", expansion_similarity_matrix)
        monkeypatch.setattr(select_module, "_assign", direct_assign)
        monkeypatch.setattr(select_module, "direct_sq_distances", direct_rows_sq)
        assert report.to_json() == run_selection(real, pool, config, external_proba=external).to_json()

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
        import libags.pipeline as pipeline_module

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

    def test_pool_mismatch_rejected(self):
        train, _, pool = make_two_moons(30, 0.3, 0.4, 7)
        config = tiny_config()
        report = run_selection(train, pool, config)
        smaller = CandidatePool(FeatureMatrix(pool.features.values[:5]), pool.proposed_labels[:5], (), 2)
        with pytest.raises(ValidationError):
            train_final(train, report, smaller, config)
