import tracemalloc

import numpy as np
import pytest

import libags.bench as bench_module
from libags.bench import METHODS, BenchResult, auroc, export_boundary_grid, run_bench, write_bench_csv
from libags.data import FeatureMatrix, make_two_moons
from libags.errors import ValidationError
from libags.model import LogisticModel, RffEncoder, predict_proba, rff_encode
from libags.pipeline import PipelineConfig


def brute_force_auroc(scores, labels):
    """Pairwise oracle: wins plus half ties over all positive-negative pairs."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == 1.0

    def test_hand_counted_pairs(self):
        # pairs: (.9,.8) win, (.9,.3) win, (.4,.8) loss, (.4,.3) win -> 3/4
        assert auroc(np.array([0.9, 0.8, 0.4, 0.3]), np.array([1, 0, 1, 0])) == pytest.approx(0.75)

    def test_chance_level_for_independent_scores(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=4000)
        labels = rng.integers(0, 2, 4000)
        assert abs(auroc(scores, labels) - 0.5) < 0.03

    def test_ties_count_half(self):
        assert auroc(np.array([0.5, 0.5]), np.array([1, 0])) == pytest.approx(0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            auroc(np.array([0.1, bad, 0.3]), np.array([1, 0, 1]))

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            auroc(np.array([0.1, 0.2]), np.array([1, 1]))

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(10, 200))
            # force ties sometimes by quantizing
            scores = np.round(rng.normal(size=n), 1 if rng.random() < 0.5 else 6)
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert auroc(scores, labels) == brute_force_auroc(scores, labels)


class TestRunBench:
    def test_bookkeeping_and_determinism(self):
        config = PipelineConfig(epochs=150, rff_dim=32)
        seeds = [0, 1]
        results = run_bench(["erm", "random", "uncertainty_only", "libags"], seeds, config, n_per_class=40)
        by = {r.method: r for r in results}
        for result in results:
            assert len(result.accuracies) == len(seeds)
            assert all(0.0 <= a <= 1.0 for a in result.accuracies)
            assert all(0.0 <= a <= 1.0 for a in result.aurocs)
        assert by["erm"].m_hats == [0, 0]
        assert by["uncertainty_only"].m_hats == by["libags"].m_hats
        again = run_bench(["erm", "random", "uncertainty_only", "libags"], seeds, config, n_per_class=40)
        for a, b in zip(results, again):
            assert a.accuracies == b.accuracies

    def test_method_independent_of_requested_set(self):
        config = PipelineConfig(epochs=120, rff_dim=32)
        solo = run_bench(["random"], [0], config, n_per_class=40)[0]
        paired = run_bench(["noise", "random"], [0], config, n_per_class=40)[1]
        assert solo.accuracies == paired.accuracies

    def test_every_method_trains_on_n_plus_m_rows(self, monkeypatch):
        import libags.pipeline as pipeline_module

        sizes = []
        original = pipeline_module.fit_logistic_soft

        def recording_fit(features, targets, *args, **kwargs):
            sizes.append(features.n_rows)
            return original(features, targets, *args, **kwargs)

        monkeypatch.setattr(pipeline_module, "fit_logistic_soft", recording_fit)
        config = PipelineConfig(epochs=100, rff_dim=16)
        results = run_bench(["erm", "random", "noise", "uncertainty_only", "libags"], [0], config, n_per_class=40)
        m_hat = results[-1].m_hats[0]
        from libags.data import make_two_moons

        train, _, _ = make_two_moons(40, 0.3, 0.55, 0)
        assert sizes == [train.n_rows] + [train.n_rows + m_hat] * 4

    def test_no_encoded_pool_or_test_split_is_alive_while_a_method_fits(self, monkeypatch):
        # The pool is encoded only to score it, after the scoring fit, and the
        # test split after the last fit, so no block of either size is traced
        # when a fit starts: not the world's scoring fit, nor any method's.
        rff_dim, seeds = 32, [0, 1]
        encoded_sizes, train_rows = set(), []
        for seed in seeds:
            train, test, pool = make_two_moons(40, 0.3, 0.55, seed)
            encoded_sizes |= {pool.n_rows * rff_dim * 8, test.n_rows * rff_dim * 8}
            train_rows.append(train.n_rows)
        traced_at_entry = []
        original = bench_module.fit_with_extra

        def recording_fit(*args, **kwargs):
            traced_at_entry.append({trace.size for trace in tracemalloc.take_snapshot().traces})
            return original(*args, **kwargs)

        monkeypatch.setattr(bench_module, "fit_with_extra", recording_fit)
        tracemalloc.start()
        try:
            results = run_bench(METHODS, seeds, PipelineConfig(epochs=50, rff_dim=rff_dim), n_per_class=40)
        finally:
            tracemalloc.stop()
        assert len(traced_at_entry) == len(seeds) * len(METHODS)
        # the encoded train split and the extra rows stay alive by design;
        # neither may pass for a pool or test encoding
        assert all(rows * rff_dim * 8 not in encoded_sizes for rows in train_rows + results[-1].m_hats)
        for sizes in traced_at_entry:
            assert not sizes & encoded_sizes

    @staticmethod
    def record_bench_calls(monkeypatch):
        """One list per world built through ``bench.moons_world``, filled as the bench runs.

        Each list holds the world's ``m_hat``, then, in call order, the row
        count of each ``rff_encode`` call and a ``"fit"`` for each
        ``fit_with_extra`` call made in the bench's namespace after the
        world returned.
        """
        worlds, building = [], []
        world_fn, fit_fn, encode_fn = bench_module.moons_world, bench_module.fit_with_extra, bench_module.rff_encode

        def recording_world(*args, **kwargs):
            building.append(True)
            try:
                world = world_fn(*args, **kwargs)
            finally:
                building.pop()
            worlds.append([world.report.m_hat])
            return world

        def recording_fit(*args, **kwargs):
            if worlds and not building:
                worlds[-1].append("fit")
            return fit_fn(*args, **kwargs)

        def recording_encode(encoder, x):
            if worlds and not building:
                worlds[-1].append(x.n_rows)
            return encode_fn(encoder, x)

        monkeypatch.setattr(bench_module, "moons_world", recording_world)
        monkeypatch.setattr(bench_module, "fit_with_extra", recording_fit)
        monkeypatch.setattr(bench_module, "rff_encode", recording_encode)
        return worlds

    def test_each_method_encodes_only_the_rows_it_adds(self, monkeypatch):
        # moons_world encodes the pool once, to score it; after that, up to a
        # seed's last fit, no encoding reads more than the m_hat rows a method
        # adds. The test split is encoded once, after the last fit.
        worlds = self.record_bench_calls(monkeypatch)
        seeds = [0, 1]
        run_bench(METHODS, seeds, PipelineConfig(epochs=50, rff_dim=16), n_per_class=40)
        assert len(worlds) == len(seeds)
        for seed, (m_hat, *calls) in zip(seeds, worlds):
            assert m_hat > 0
            assert calls.count("fit") == len(METHODS) - 1
            last_fit = len(calls) - 1 - calls[::-1].index("fit")
            encoded = [rows for rows in calls[:last_fit] if rows != "fit"]
            assert encoded == [m_hat] * (len(METHODS) - 1)
            assert calls[last_fit + 1:] == [make_two_moons(40, 0.3, 0.55, seed)[1].n_rows]

    def test_the_demo_fit_encodes_only_the_selection(self, monkeypatch):
        worlds = self.record_bench_calls(monkeypatch)
        config = PipelineConfig(epochs=50, rff_dim=16)
        world = bench_module.moons_world(0, config, n_per_class=40)
        world.libags_model(config)
        assert worlds == [[world.report.m_hat, world.report.m_hat, "fit"]] and world.report.m_hat > 0

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            run_bench(["bogus"], [0], PipelineConfig())

    @pytest.mark.parametrize("methods, seeds, match", [
        (["erm", "random", "erm"], [0], "method 'erm' is listed more than once"),
        (["erm"], [0, 1, 0], "seed 0 is listed more than once"),
    ], ids=["method", "seed"])
    def test_repeated_method_rejected(self, methods, seeds, match):
        with pytest.raises(ValidationError, match=match):
            run_bench(methods, seeds, PipelineConfig())

    def test_csv_export(self, tmp_path):
        result = BenchResult("erm", [0.9, 0.8], [0.95, 0.9], [0, 0])
        path = tmp_path / "results.csv"
        write_bench_csv(path, [result])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "method,seed_index,accuracy,auroc,m_hat"
        assert len(lines) == 3

    def test_csv_export_is_utf8(self, tmp_path):
        path = tmp_path / "results.csv"
        write_bench_csv(path, [BenchResult("café", [0.5], [0.75], [4])])
        assert path.read_text(encoding="utf-8") == "method,seed_index,accuracy,auroc,m_hat\ncafé,0,0.5,0.75,4\n"


class TestExportBoundaryGrid:
    def test_grid_row_count(self, tmp_path):
        model = LogisticModel(np.zeros((2, 2)), np.zeros(2))
        path = tmp_path / "grid.csv"
        export_boundary_grid(model, None, (0.0, 1.0, 0.0, 1.0), 2, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 5  # header + 4 points

    def test_uniform_model_gives_half(self, tmp_path):
        model = LogisticModel(np.zeros((2, 2)), np.zeros(2))
        path = tmp_path / "grid.csv"
        export_boundary_grid(model, None, (-1.0, 1.0, -1.0, 1.0), 3, path)
        probs = [float(line.split(",")[2]) for line in path.read_text().strip().splitlines()[1:]]
        assert all(p == 0.5 for p in probs)

    def test_matches_predict_proba(self, tmp_path):
        rng = np.random.default_rng(2)
        encoder = RffEncoder.create(2, 16, 1.0, 0)
        model = LogisticModel(rng.normal(size=(2, 16)), rng.normal(size=2))
        path = tmp_path / "grid.csv"
        export_boundary_grid(model, encoder, (0.0, 1.0, 0.0, 1.0), 3, path)
        rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
        points = FeatureMatrix(np.array([[float(r[0]), float(r[1])] for r in rows]))
        expected = predict_proba(model, rff_encode(encoder, points))[:, 1]
        np.testing.assert_allclose([float(r[2]) for r in rows], expected, atol=1e-15)

    def test_resolution_must_be_at_least_two(self, tmp_path):
        model = LogisticModel(np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ValidationError):
            export_boundary_grid(model, None, (0, 1, 0, 1), 1, tmp_path / "g.csv")

    def test_model_must_have_two_classes(self, tmp_path):
        model = LogisticModel(np.zeros((1, 2)), np.zeros(1))
        with pytest.raises(ValidationError, match="at least 2 classes"):
            export_boundary_grid(model, None, (0, 1, 0, 1), 2, tmp_path / "g.csv")
        assert not (tmp_path / "g.csv").exists()
