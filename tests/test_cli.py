import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import libags.cli as cli_module
import libags.pipeline as pipeline_module
from libags.cli import build_parser, main
from libags.data import CandidatePool, FeatureMatrix, LabeledDataset, make_two_moons, write_candidate_csv, write_labeled_csv, load_candidate_csv, load_labeled_csv
from libags.pipeline import PipelineConfig, run_selection
from libags.score import ScoreRecord


@pytest.fixture()
def moon_files(tmp_path):
    train, _, pool = make_two_moons(30, 0.25, 0.4, 0)
    real_path = tmp_path / "real.csv"
    cand_path = tmp_path / "cands.csv"
    write_labeled_csv(real_path, train)
    write_candidate_csv(cand_path, pool)
    return real_path, cand_path


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"epochs": 120, "rff_dim": 16}))
    return path


class TestSelectCommand:
    def test_writes_report_and_exits_zero(self, moon_files, fast_config, tmp_path, capsys):
        real, cands = moon_files
        out = tmp_path / "report.json"
        code = main(["select", "--real", str(real), "--candidates", str(cands), "--out", str(out), "--seed", "1", "--config", str(fast_config)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["format"] == "libags-report/1"
        assert "m_hat=" in capsys.readouterr().out

    def test_missing_required_flag_exits_one(self, capsys):
        assert main(["select", "--out", "x.json"]) == 1

    def test_unknown_flag_exits_one(self, moon_files, tmp_path):
        real, cands = moon_files
        code = main(["select", "--real", str(real), "--candidates", str(cands), "--out", str(tmp_path / "r.json"), "--frobnicate", "3"])
        assert code == 1

    def test_dimension_mismatch_exits_one(self, moon_files, tmp_path, capsys):
        real, _ = moon_files
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c,proposed_label\n1,2,3,0\n")
        code = main(["select", "--real", str(real), "--candidates", str(bad), "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "columns" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path):
        code = main(["select", "--real", str(tmp_path / "nope.csv"), "--candidates", str(tmp_path / "nope2.csv"), "--out", str(tmp_path / "r.json")])
        assert code == 2

    def test_proba_flags_must_pair(self, moon_files, tmp_path):
        real, cands = moon_files
        code = main(["select", "--real", str(real), "--candidates", str(cands), "--out", str(tmp_path / "r.json"), "--proba-real", "x.csv"])
        assert code == 1

    def test_reproducible_runs_are_byte_identical(self, moon_files, fast_config, tmp_path):
        real, cands = moon_files
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["select", "--real", str(real), "--candidates", str(cands), "--seed", "5", "--config", str(fast_config), "--reproducible"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_three_class_pool(self, blobs, fast_config, tmp_path):
        real, pool = blobs(3)
        real_path, cand_path, out = tmp_path / "real.csv", tmp_path / "cands.csv", tmp_path / "report.json"
        write_labeled_csv(real_path, real)
        write_candidate_csv(cand_path, pool)
        code = main([
            "select", "--real", str(real_path), "--candidates", str(cand_path), "--out", str(out),
            "--n-classes", "3", "--config", str(fast_config), "--reproducible",
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["m_hat"] > 0
        assert all(len(row) == 3 for row in payload["soft_labels"])

    def test_external_probability_csvs(self, moon_files, fast_config, tmp_path):
        real, cands = moon_files
        train, _, pool = make_two_moons(30, 0.25, 0.4, 0)
        rng = np.random.default_rng(0)

        def write_proba(path, rows):
            proba = rng.dirichlet(np.ones(2), rows)
            path.write_text("prob_0,prob_1\n" + "\n".join(f"{p[0]:.17g},{p[1]:.17g}" for p in proba) + "\n")

        pr, pc = tmp_path / "pr.csv", tmp_path / "pc.csv"
        write_proba(pr, train.n_rows)
        write_proba(pc, pool.n_rows)
        out = tmp_path / "ext.json"
        code = main([
            "select", "--real", str(real), "--candidates", str(cands), "--out", str(out),
            "--config", str(fast_config), "--proba-real", str(pr), "--proba-cand", str(pc),
        ])
        assert code == 0
        assert json.loads(out.read_text())["n_candidates"] == pool.n_rows

    def test_wrong_shape_probability_csv_exits_one(self, moon_files, fast_config, tmp_path):
        real, cands = moon_files
        pr = tmp_path / "pr.csv"
        pr.write_text("prob_0,prob_1\n0.5,0.5\n")
        code = main([
            "select", "--real", str(real), "--candidates", str(cands), "--out", str(tmp_path / "r.json"),
            "--config", str(fast_config), "--proba-real", str(pr), "--proba-cand", str(pr),
        ])
        assert code == 1


BAD_CONFIGS = [
    '{"knn_k": "3"}',
    '{"knn_k": true}',
    '{"knn_k": 2.5}',
    '{"n_regions": true}',
    '{"n_regions": 4.0}',
    '{"max_budget": false}',
    '{"max_budget": null}',
    '{"epochs": null}',
    '{"epochs": 100.0}',
    '{"seed": 1.5}',
    '{"seed": -1}',
    '{"seed": "7"}',
    '{"tau_quantile": "0.1"}',
    '{"lr": null}',
    '{"l2": false}',
    '{"coverage_ratio": true}',
    '{"coverage_ratio": NaN}',
    '{"coverage_ratio": 1e308}',  # n_real * coverage_ratio overflows to inf
    '{"rff_bandwidth": Infinity}',
    '{"lr": 1' + '0' * 400 + '}',
    '{"kernel_bandwidth": 1' + '0' * 400 + '}',
    '{"rff_dim": [16]}',
    '{"kernel_bandwidth": true}',
    '{"kernel_bandwidth": null}',
    '{"kernel_bandwidth": "wide"}',
    '{"kernel_bandwidth": "median"}',
    '{"kernel_bandwidth": 1e200}',  # 2 * bandwidth**2 overflows
    '{"kernel_bandwidth": 1e-300}',  # 2 * bandwidth**2 underflows to 0
    '{"bogus": 1}',
    '[1, 2]',
    '{"epochs": ',
    b'{"epochs": "\xff"}',
]
# The config key an error line must name, for rows that fail past the config parser
BAD_CONFIG_NAMES = {'{"coverage_ratio": 1e308}': "coverage_ratio"}


@pytest.mark.parametrize("text", BAD_CONFIGS)
def test_bad_config_exits_one_with_one_error_line(text, moon_files, tmp_path, capsys):
    real, cands = moon_files
    config = tmp_path / "bad.json"
    config.write_bytes(text if isinstance(text, bytes) else text.encode())
    code = main(["select", "--real", str(real), "--candidates", str(cands), "--out", str(tmp_path / "r.json"), "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert BAD_CONFIG_NAMES.get(text, "") in err
    assert "Traceback" not in err


# Two-moons with 30 per class scaled by a factor: (factor, what the error line names)
BAD_FEATURE_SCALES = {
    "squared-distances-overflow": (1e160, "squared distances"),
    "knn-density-near-overflow": (1e-150, "kNN density"),  # drives lambda to 0
}


@pytest.mark.parametrize("case", sorted(BAD_FEATURE_SCALES))
def test_bad_feature_scale_exits_one_with_one_error_line(case, tmp_path, capsys):
    scale, named = BAD_FEATURE_SCALES[case]
    train, _, pool = make_two_moons(30, 0.25, 0.4, 0)
    train = LabeledDataset(FeatureMatrix(train.features.values * scale), train.labels, train.n_classes)
    pool = CandidatePool(FeatureMatrix(pool.features.values * scale), pool.proposed_labels, pool.source_ids, pool.n_classes)
    paths = {name: tmp_path / f"{name}.csv" for name in ("real", "cands", "pr", "pc", "config")}
    write_labeled_csv(paths["real"], train)
    write_candidate_csv(paths["cands"], pool)
    for name, seed, rows in (("pr", 0, train.n_rows), ("pc", 1, pool.n_rows)):
        proba = np.random.default_rng(seed).dirichlet(np.ones(2), rows)
        paths[name].write_text("prob_0,prob_1\n" + "".join(f"{p[0]:.17g},{p[1]:.17g}\n" for p in proba))
    paths["config"].write_text(json.dumps({"epochs": 50}))
    code = main([
        "select", "--real", str(paths["real"]), "--candidates", str(paths["cands"]), "--out", str(tmp_path / "r.json"),
        "--config", str(paths["config"]), "--proba-real", str(paths["pr"]), "--proba-cand", str(paths["pc"]),
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert named in err
    assert "Traceback" not in err


def test_too_many_feature_columns_exits_one_with_one_error_line(tmp_path, capsys):
    # 342 columns: the kNN density's unit-ball volume leaves float range
    rng = np.random.default_rng(0)
    real = LabeledDataset(FeatureMatrix(rng.normal(size=(40, 342))), np.repeat([0, 1], 20), 2)
    pool = CandidatePool(FeatureMatrix(rng.normal(size=(60, 342))), np.repeat([0, 1], 30), (), 2)
    paths = {name: tmp_path / f"{name}.csv" for name in ("real", "cands", "config")}
    write_labeled_csv(paths["real"], real)
    write_candidate_csv(paths["cands"], pool)
    paths["config"].write_text(json.dumps({"epochs": 50}))
    code = main(["select", "--real", str(paths["real"]), "--candidates", str(paths["cands"]), "--out", str(tmp_path / "r.json"), "--config", str(paths["config"])])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "342 feature columns" in err
    assert "Traceback" not in err


# Commands whose arrays cannot fit in memory: (extra arguments, the size the error line names)
TOO_LARGE = {
    "demo-grid": (["demo-two-moons", "--resolution", "3000000"], "65.5 TiB"),
    "select-one-hot": (["select", "--n-classes", "100000000000"], "TiB"),
}


@pytest.mark.parametrize("case", sorted(TOO_LARGE))
def test_allocation_too_large_exits_one_with_one_error_line(case, moon_files, fast_config, tmp_path, capsys):
    extra, named = TOO_LARGE[case]
    real, cands = moon_files
    paths = ["--out", str(tmp_path / "demo")] if extra[0] == "demo-two-moons" else ["--real", str(real), "--candidates", str(cands), "--out", str(tmp_path / "r.json")]
    code = main([*extra, *paths, "--config", str(fast_config)])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert named in err
    assert "Traceback" not in err


REAL_HEADER = b"feature_0,feature_1,label\n"
PROBA_HEADER = b"prob_0,prob_1\n"

# (flag the bad file is passed with, its bytes)
BAD_CSVS = {
    "non-utf8": ("--real", REAL_HEADER + b"0.5,\xff\xfe,1\n"),
    "over-long-field": ("--real", REAL_HEADER + b"1" * 131073 + b",2,0\n"),
    "empty": ("--real", b""),
    "header-only": ("--real", REAL_HEADER),
    "ragged-row": ("--real", REAL_HEADER + b"1,2,0\n1,2\n"),
    "trailing-blank-line": ("--real", REAL_HEADER + b"1,2,0\n0,1,1\n\n"),
    "non-numeric-cell": ("--real", REAL_HEADER + b"1,abc,0\n"),
    "overflowing-number": ("--real", REAL_HEADER + b"1e999,2,0\n"),
    "float-label": ("--real", REAL_HEADER + b"1,2,1.0\n"),
    "label-out-of-range": ("--real", REAL_HEADER + b"1,2,2\n"),
    "no-label-column": ("--real", b"feature_0,feature_1,y\n1,2,0\n"),
    "no-proposed-label-column": ("--candidates", REAL_HEADER + b"1,2,0\n"),
    "candidate-non-utf8": ("--candidates", b"feature_0,feature_1,proposed_label\n1,2,0\n\xe9,2,0\n"),
    "proba-ragged": ("--proba-real", PROBA_HEADER + b"0.5,0.5\n0.5\n"),
    "proba-non-numeric": ("--proba-real", PROBA_HEADER + b"0.5,half\n"),
    "proba-header-only": ("--proba-real", PROBA_HEADER),
    "proba-header-narrower-than-rows": ("--proba-real", b"prob\n0.5,0.5\n"),
    "proba-header-wider-than-rows": ("--proba-real", b"prob_0,prob_1,prob_2\n0.5,0.5\n"),
}


@pytest.mark.parametrize("case", sorted(BAD_CSVS))
def test_bad_csv_exits_one_with_one_error_line(case, moon_files, tmp_path, capsys):
    real, cands = moon_files
    flag, content = BAD_CSVS[case]
    bad = tmp_path / "bad.csv"
    bad.write_bytes(content)
    good = tmp_path / "proba.csv"
    good.write_text("prob_0,prob_1\n0.5,0.5\n")
    paths = {"--real": str(real), "--candidates": str(cands), "--proba-real": str(good), "--proba-cand": str(good), flag: str(bad)}
    argv = ["select", "--out", str(tmp_path / "r.json")]
    for name, path in paths.items():
        argv += [name, path]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert str(bad) in err
    assert "Traceback" not in err


class TestScoreCommand:
    def test_emits_per_candidate_csv(self, moon_files, fast_config, tmp_path):
        real, cands = moon_files
        out = tmp_path / "scores.csv"
        code = main(["score", "--real", str(real), "--candidates", str(cands), "--out", str(out), "--config", str(fast_config)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["index", "source_id"]
        assert "importance" in header and "gap_score" in header
        n_pool = load_candidate_csv(cands, 2).n_rows
        assert len(lines) == 1 + n_pool

    def test_runs_no_selection_and_writes_the_report_score_records(self, moon_files, fast_config, tmp_path, monkeypatch):
        real_path, cand_path = moon_files
        out = tmp_path / "scores.csv"

        def refuse(*args, **kwargs):
            raise AssertionError("score ran a stage of the selection half")

        for name in ("build_regions", "pool_kernel", "greedy_select", "soft_label"):
            monkeypatch.setattr(pipeline_module, name, refuse)
        assert main(["score", "--real", str(real_path), "--candidates", str(cand_path), "--out", str(out), "--config", str(fast_config)]) == 0
        monkeypatch.undo()
        pool = load_candidate_csv(cand_path, 2)
        report = run_selection(load_labeled_csv(real_path, 2), pool, PipelineConfig.from_json_file(fast_config))
        with open(out, newline="", encoding="utf-8") as fh:
            header, *body = csv.reader(fh)
        assert header == ["index", "source_id", *ScoreRecord.FIELDS]
        want = [[str(i), source_id, *dataclasses.astuple(record)] for i, (source_id, record) in enumerate(zip(pool.source_ids, report.scores))]
        assert [[index, source_id, *map(float, cells)] for index, source_id, *cells in body] == want

    def test_source_ids_with_commas_quotes_and_newlines_keep_their_column(self, fast_config, tmp_path):
        train, _, pool = make_two_moons(30, 0.25, 0.4, 0)
        ids = tuple(f'gen,"{i}"' if i % 3 == 0 else (f"line\nbreak {i}" if i % 3 == 1 else f"plain{i}") for i in range(pool.n_rows))
        pool = CandidatePool(pool.features, pool.proposed_labels, ids, 2)
        real, cands, out = tmp_path / "real.csv", tmp_path / "cands.csv", tmp_path / "scores.csv"
        write_labeled_csv(real, train)
        write_candidate_csv(cands, pool)
        assert main(["score", "--real", str(real), "--candidates", str(cands), "--out", str(out), "--config", str(fast_config)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert all(len(row) == len(header) for row in body)
        assert tuple(row[header.index("source_id")] for row in body) == ids

    def test_non_ascii_source_id_under_an_ascii_locale(self, fast_config, tmp_path):
        # Under the C locale the default file encoding is ASCII; the CSV is written as UTF-8 anyway.
        train, _, pool = make_two_moons(30, 0.25, 0.4, 0)
        pool = CandidatePool(pool.features, pool.proposed_labels, ("café",) + pool.source_ids[1:], 2)
        real, cands, out = tmp_path / "real.csv", tmp_path / "cands.csv", tmp_path / "scores.csv"
        write_labeled_csv(real, train)
        write_candidate_csv(cands, pool)
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        proc = subprocess.run(
            [sys.executable, "-m", "libags", "score", "--real", str(real), "--candidates", str(cands), "--out", str(out), "--config", str(fast_config)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "\n0,café," in out.read_text(encoding="utf-8")


# Each command, the function in cli's namespace its work starts with, and
# whether its --out names a directory rather than a file.
OUT_COMMANDS = {
    "select": ("run_selection", False),
    "score": ("score_pool", False),
    "bench": ("run_bench", True),
    "demo-two-moons": ("moons_world", True),
}


# A directory output is created with its missing parents, so only a file output has a missing parent.
UNUSABLE_OUTS = [(command, where) for command, (_, directory) in sorted(OUT_COMMANDS.items())
                 for where in ["under-a-file", "taken", "empty"] + ([] if directory else ["missing-parent"])]


@pytest.mark.parametrize("command, where", UNUSABLE_OUTS)
def test_unusable_out_exits_two_before_any_work(command, where, moon_files, tmp_path, capsys, monkeypatch):
    real, cands = moon_files
    work, directory = OUT_COMMANDS[command]
    (tmp_path / "file").write_text("kept")
    (tmp_path / "dir").mkdir()
    # taken: a file output that is a directory, or a directory output that is a file
    out = {"under-a-file": tmp_path / "file" / "out", "taken": tmp_path / ("file" if directory else "dir"), "empty": "",
           "missing-parent": tmp_path / "missing" / "out"}[where]
    argv = {"bench": ["bench", "--methods", "erm", "--seeds", "0"], "demo-two-moons": ["demo-two-moons", "--resolution", "4"]}.get(
        command, [command, "--real", str(real), "--candidates", str(cands)])
    calls = []
    monkeypatch.setattr(cli_module, work, lambda *args, **kwargs: calls.append(args))
    before = sorted(tmp_path.rglob("*"))
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("i/o error: ") and repr(str(out)) in err
    assert calls == []
    assert sorted(tmp_path.rglob("*")) == before and (tmp_path / "file").read_text() == "kept"


class TestBenchCommand:
    def test_small_bench_writes_outputs(self, fast_config, tmp_path):
        out_dir = tmp_path / "bench"
        code = main([
            "bench", "--methods", "erm,libags", "--seeds", "0",
            "--out", str(out_dir), "--config", str(fast_config), "--n-per-class", "30",
        ])
        assert code == 0
        results = (out_dir / "results.csv").read_text().strip().splitlines()
        assert results[0] == "method,seed_index,accuracy,auroc,m_hat"
        assert len(results) == 3
        assert (out_dir / "summary.txt").exists()

    def test_unknown_method_exits_one(self, tmp_path):
        assert main(["bench", "--methods", "bogus", "--seeds", "0", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("methods, seeds, named", [("erm,erm", "0", "'erm'"), ("erm", "0,0", "seed 0")],
                             ids=["method", "seed"])
    def test_repeated_method_exits_one(self, tmp_path, capsys, methods, seeds, named):
        assert main(["bench", "--methods", methods, "--seeds", seeds, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and named in err
        assert not (tmp_path / "results.csv").exists()

    def test_seed_flag_rejected(self, fast_config, tmp_path, capsys):
        # bench takes its seeds from --seeds alone; --seed is neither a flag nor an abbreviation of --seeds.
        out_dir = tmp_path / "bench"
        argv = ["bench", "--methods", "erm", "--seeds", "0", "--seed", "3", "--out", str(out_dir), "--config", str(fast_config)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "--seed" in errors[0]
        assert "Traceback" not in err
        assert not out_dir.exists()

    def test_bad_seed_list_exits_one(self, tmp_path):
        assert main(["bench", "--methods", "erm", "--seeds", "zero", "--out", str(tmp_path)]) == 1

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        assert main(["bench", "--methods", "erm", "--seeds", "0,-1", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nonnegative" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_bad_noise_exits_one(self, noise, tmp_path, capsys):
        assert main(["bench", "--methods", "erm", "--seeds", "0", "--noise-sd", noise, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "noise_sd" in err

    def test_rerun_produces_identical_csv_bytes(self, fast_config, tmp_path):
        args = ["bench", "--methods", "erm,random", "--seeds", "0", "--config", str(fast_config), "--n-per-class", "30"]
        assert main(args + ["--out", str(tmp_path / "one")]) == 0
        assert main(args + ["--out", str(tmp_path / "two")]) == 0
        assert (tmp_path / "one" / "results.csv").read_bytes() == (tmp_path / "two" / "results.csv").read_bytes()


class TestDemoCommand:
    def test_demo_writes_manifest(self, fast_config, tmp_path):
        out_dir = tmp_path / "demo"
        code = main(["demo-two-moons", "--seed", "0", "--out", str(out_dir), "--config", str(fast_config), "--resolution", "8"])
        assert code == 0
        for name in ("erm_grid.csv", "libags_grid.csv", "selected.csv", "report.json"):
            assert (out_dir / name).exists()

    def test_reproducible_demo_writes_identical_bytes(self, tmp_path):
        for run in ("one", "two"):
            assert main(["demo-two-moons", "--seed", "0", "--out", str(tmp_path / run), "--reproducible"]) == 0
        for name in ("erm_grid.csv", "libags_grid.csv", "selected.csv", "report.json"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_selected_rows_are_pool_rows(self, fast_config, tmp_path):
        out_dir = tmp_path / "demo"
        assert main(["demo-two-moons", "--seed", "2", "--out", str(out_dir), "--config", str(fast_config), "--resolution", "6"]) == 0
        selected = load_candidate_csv(out_dir / "selected.csv", 2)
        _, _, pool = make_two_moons(200, 0.3, 0.55, 2)
        pool_rows = {tuple(row) for row in np.round(pool.features.values, 10).tolist()}
        for row in np.round(selected.features.values, 10).tolist():
            assert tuple(row) in pool_rows
        indices = json.loads((out_dir / "report.json").read_text())["selected"]
        assert selected.source_ids == tuple(pool.source_ids[j] for j in indices)
        assert b"\r" not in (out_dir / "selected.csv").read_bytes()

    def test_config_seed_applies_without_seed_flag(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"epochs": 120, "rff_dim": 16, "seed": 3}))
        out_dir = tmp_path / "demo"
        assert main(["demo-two-moons", "--out", str(out_dir), "--config", str(config), "--resolution", "4", "--reproducible"]) == 0
        assert json.loads((out_dir / "report.json").read_text())["config"]["seed"] == 3

    def test_empty_selection_writes_the_header_alone(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_budget": 0}))
        out_dir = tmp_path / "demo"
        assert main(["demo-two-moons", "--out", str(out_dir), "--config", str(config), "--resolution", "4", "--reproducible"]) == 0
        assert json.loads((out_dir / "report.json").read_text())["selected"] == []
        assert (out_dir / "selected.csv").read_bytes() == b"feature_0,feature_1,proposed_label,source_id\n"

    @pytest.mark.parametrize("resolution", ["0", "1"])
    def test_bad_resolution_exits_before_any_work(self, resolution, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli_module, "moons_world", lambda *args, **kwargs: calls.append(args))
        out_dir = tmp_path / "demo"
        assert main(["demo-two-moons", "--out", str(out_dir), "--resolution", resolution]) == 1
        err = capsys.readouterr().err
        assert err == f"error: resolution must be at least 2, got {resolution}\n"
        assert not out_dir.exists()
        assert calls == []

    def test_seed_changes_the_selection(self, fast_config, tmp_path):
        for seed in ("7", "8"):
            assert main(["demo-two-moons", "--seed", seed, "--out", str(tmp_path / seed), "--config", str(fast_config), "--resolution", "4"]) == 0
        assert (tmp_path / "7" / "selected.csv").read_bytes() != (tmp_path / "8" / "selected.csv").read_bytes()


# Encoder arguments RffEncoder.create rejects, which numpy would otherwise turn
# into a traceback or an error about the features: (the bench config, the
# argument the error line names)
BAD_ENCODERS = {
    "bench-subnormal-bandwidth": ({"rff_bandwidth": 1e-320}, "bandwidth"),
}


@pytest.mark.parametrize("case", sorted(BAD_ENCODERS))
def test_bad_encoder_exits_one_with_one_error_line(case, tmp_path, capsys):
    extra, named = BAD_ENCODERS[case]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(extra))
    argv = ["bench", "--methods", "erm", "--seeds", "0", "--n-per-class", "30", "--out", str(tmp_path), "--config", str(config)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {named} must")
    assert "Traceback" not in err


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, moon_files, fast_config, tmp_path):
        real, cands = moon_files
        out = tmp_path / "viasub.json"
        proc = subprocess.run(
            [sys.executable, "-m", "libags", "select", "--real", str(real), "--candidates", str(cands),
             "--out", str(out), "--seed", "0", "--config", str(fast_config), "--reproducible"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()


class TestCommandList:
    def test_readme_synopsis_names_exactly_the_parser_commands(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = re.search(r"^## Command line\n\n```\n(.*?)^```", readme, re.M | re.S).group(1)
        listed = [line.split()[1] for line in block.splitlines() if line.startswith("libags ")]
        commands = re.search(r"\{([^}]*)\}", build_parser().format_usage()).group(1).split(",")
        assert sorted(listed) == sorted(commands)
        assert len(listed) == len(set(listed))

    def test_unknown_command_exits_one(self, capsys):
        assert main(["export-grid"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "invalid choice" in err and "export-grid" in err
