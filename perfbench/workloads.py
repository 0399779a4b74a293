"""The benchmark's workloads: inputs from a seed, one timed call, output checks.

Each workload builds its inputs in ``setup`` (which ends with one warm-up
call at a reduced size), runs one iteration per ``iterate`` call through
the public API, and adds workload-specific checks in ``check``.
``quality`` scores the final classifier, trained on the real rows plus the
selected soft-labelled candidates, on held-out rows.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

import libags
from libags import bench, cli, pipeline
from libags.data import CandidatePool, FeatureMatrix, LabeledDataset

# Two-moons shape shared by both moons workloads (the bundled benchmark's
# defaults, pinned here so the workloads do not move if those defaults do).
NOISE_SD = 0.3
GAP_HALFWIDTH = 0.55


@dataclass
class Outcome:
    """What one iteration produced: reproducible report texts keyed by input."""

    reports: dict  # input key -> report JSON text (no timings)
    n_candidates: int
    extra: object = None


def check_report(payload: dict, n_classes: int = 2) -> list:
    """Invariants every selection report must satisfy; returns the violations."""
    problems = []
    selected = payload["selected"]
    m_hat = payload["m_hat"]
    if m_hat != len(selected):
        problems.append(f"m_hat {m_hat} != {len(selected)} selected")
    if len(set(selected)) != len(selected):
        problems.append("selected indices repeat")
    if any(not (0 <= j < payload["n_candidates"]) for j in selected):
        problems.append("selected index out of range")
    soft = np.asarray(payload["soft_labels"], dtype=np.float64).reshape(-1, n_classes)
    if soft.shape[0] != len(selected):
        problems.append(f"{soft.shape[0]} soft-label rows for {len(selected)} selected")
    if np.any(soft < 0) or np.any(np.abs(soft.sum(axis=1) - 1.0) > 1e-9):
        problems.append("soft-label row off the simplex")
    gains = [step["combined_gain"] for step in payload["gains_log"]]
    if any(later > earlier for earlier, later in zip(gains, gains[1:])):
        problems.append("gains_log increases")
    if [step["candidate"] for step in payload["gains_log"]] != selected:
        problems.append("gains_log does not follow the selection")
    lam = payload["lambda"]
    if m_hat > 0 and not (isinstance(lam, float) and math.isfinite(lam) and lam > 0):
        problems.append(f"lambda {lam!r} is not finite and positive")
    return problems


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _held_out_scores(real, pool, payload: dict, config, test_x, test_y) -> tuple:
    """Fit ``train_final`` on the report's selection; (accuracy, AUROC) on held-out rows."""
    model = libags.train_final(real, SimpleNamespace(**payload), pool, config)
    proba = libags.predict_proba(model, FeatureMatrix(test_x))
    return float((proba.argmax(axis=1) == test_y).mean()), libags.auroc(proba[:, 1], test_y)


def _criterion10_inputs(seed: int, M: int, n: int, d: int):
    """The synthetic pool of the acceptance suite's cost-profile criterion."""
    rng = np.random.default_rng(seed)
    real = LabeledDataset(FeatureMatrix(rng.normal(size=(n, d))), rng.integers(0, 2, n), 2)
    pool = CandidatePool(FeatureMatrix(rng.normal(size=(M, d))), rng.integers(0, 2, M), (), 2)
    proba_real = rng.dirichlet(np.ones(2), n)
    proba_pool = rng.dirichlet(np.ones(2), M)
    return real, pool, (proba_real, proba_pool)


class Workload:
    """A run cycles through ``inputs_per_run`` inputs made from its seed.

    Iteration ``i`` uses input ``i % inputs_per_run``; averaging over a few
    inputs keeps a run's figures from hanging on one draw of the data.
    """

    name = ""
    root = None  # (module, function name) of the entry point, the root span
    inputs_per_run = 3

    def __init__(self, seed: int, scale: str, workdir):
        self.size = self.SIZES[scale]
        self.workdir = workdir
        self.keys = [seed * self.inputs_per_run + k for k in range(self.inputs_per_run)]

    @property
    def min_iterations(self) -> int:
        return self.inputs_per_run

    def key(self, i: int) -> int:
        return self.keys[i % self.inputs_per_run]

    def finish(self, outcome: Outcome) -> None:
        """Turn the iteration's reports into their reproducible JSON text."""
        outcome.reports = {key: report.to_json() for key, report in outcome.reports.items()}

    def check(self, outcome: Outcome) -> list:
        """Workload-specific checks beyond ``check_report``; returns violations."""
        return []

    def quality(self, reports: dict) -> tuple:
        """Mean held-out (accuracy, AUROC) over the run's inputs that passed their checks."""
        scores = [self.score(key, json.loads(reports[key])) for key in self.keys if key in reports]
        accuracies, aurocs = zip(*scores)
        return float(np.mean(accuracies)), float(np.mean(aurocs))


class PoolD64(Workload):
    """n=400 real rows, M=4000 Gaussian candidates in d=64, external scores."""

    name = "pool-d64"
    root = (pipeline, "run_selection")
    SIZES = {"full": dict(n=400, M=4000, d=64, budget=300, warm_M=500, held_out=8000),
             "smoke": dict(n=60, M=200, d=8, budget=30, warm_M=100, held_out=400)}

    def setup(self) -> None:
        s = self.size
        self.config = libags.PipelineConfig(max_budget=s["budget"])
        self.inputs = {key: _criterion10_inputs(key, s["M"], s["n"], s["d"]) for key in self.keys}
        warm_real, warm_pool, warm_proba = _criterion10_inputs(self.keys[0], s["warm_M"], s["n"], s["d"])
        pipeline.run_selection(warm_real, warm_pool, self.config, external_proba=warm_proba)

    def iterate(self, i: int) -> Outcome:
        key = self.key(i)
        real, pool, proba = self.inputs[key]
        report = pipeline.run_selection(real, pool, self.config, external_proba=proba)
        return Outcome({key: report}, pool.n_rows)

    def score(self, key: int, payload: dict) -> tuple:
        # Labels in this generator are coin flips independent of the
        # features, so the held-out scores sit at chance (about 0.5).
        real, pool, _ = self.inputs[key]
        s = self.size
        rng = np.random.default_rng([key, 1])
        test_x = rng.normal(size=(s["held_out"], s["d"]))
        test_y = rng.integers(0, 2, s["held_out"])
        return _held_out_scores(real, pool, payload, self.config, test_x, test_y)


class MoonsCli(Workload):
    """Two-moons CSVs selected by the command line with the default config."""

    name = "moons-cli"
    root = (cli, "main")
    SIZES = {"full": dict(n_per_class=1000, warm_per_class=100, config=None),
             "smoke": dict(n_per_class=30, warm_per_class=15, config={"epochs": 50, "rff_dim": 16})}

    def _write_inputs(self, prefix: str, n_per_class: int, seed: int):
        data = libags.make_two_moons(n_per_class, NOISE_SD, GAP_HALFWIDTH, seed)
        real_path, cand_path = self.workdir / f"{prefix}real.csv", self.workdir / f"{prefix}cands.csv"
        libags.write_labeled_csv(real_path, data[0])
        libags.write_candidate_csv(cand_path, data[2])
        out_path = self.workdir / f"{prefix}report.json"
        argv = ["select", "--real", str(real_path), "--candidates", str(cand_path), "--out", str(out_path), "--reproducible"]
        return data, argv + self.config_args, out_path

    def setup(self) -> None:
        self.config_args = []
        if self.size["config"] is not None:
            config_path = self.workdir / "config.json"
            config_path.write_text(json.dumps(self.size["config"]))
            self.config_args = ["--config", str(config_path)]
        self.config = libags.PipelineConfig.from_dict(self.size["config"] or {})
        self.inputs = {key: self._write_inputs(f"{key}-", self.size["n_per_class"], key) for key in self.keys}
        _, warm_argv, _ = self._write_inputs("warm-", self.size["warm_per_class"], self.keys[0])
        self._main(warm_argv)

    def _main(self, argv) -> None:
        with contextlib.redirect_stdout(io.StringIO()):  # keep the command's summary line off our stdout
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"libags select exited with {code}")

    def iterate(self, i: int) -> Outcome:
        key = self.key(i)
        (_, _, pool), argv, _ = self.inputs[key]
        self._main(argv)
        return Outcome({key: None}, pool.n_rows)

    def finish(self, outcome: Outcome) -> None:
        """The report is the file the command wrote."""
        outcome.reports = {key: self.inputs[key][2].read_text() for key in outcome.reports}

    def score(self, key: int, payload: dict) -> tuple:
        (train, test, pool), _, _ = self.inputs[key]
        return _held_out_scores(train, pool, payload, self.config, test.features.values, test.labels)


class MoonsBench(Workload):
    """The bundled two-moons benchmark, one bench seed per iteration."""

    name = "moons-bench"
    root = (bench, "run_bench")
    inputs_per_run = 5
    SIZES = {"full": dict(n_per_class=200, warm_per_class=50, config={}),
             "smoke": dict(n_per_class=20, warm_per_class=15, config={"epochs": 50, "rff_dim": 16})}

    def setup(self) -> None:
        self.config = libags.PipelineConfig.from_dict(self.size["config"])
        self.results = {}  # bench seed -> (libags accuracy, libags auroc)
        self._run_bench(self.keys[:1], self.size["warm_per_class"])

    def _run_bench(self, seeds, n_per_class):
        return bench.run_bench(bench.METHODS, seeds, self.config, n_per_class, NOISE_SD, GAP_HALFWIDTH)

    def iterate(self, i: int) -> Outcome:
        key = self.key(i)
        reports = []
        inner = bench.run_selection

        def keep(*args, **kwargs):
            report = inner(*args, **kwargs)
            reports.append(report)
            return report

        bench.run_selection = keep
        try:
            results = self._run_bench([key], self.size["n_per_class"])
        finally:
            bench.run_selection = inner
        return Outcome({key: reports[0]}, reports[0].n_candidates, results)

    def check(self, outcome: Outcome) -> list:
        (key, text), = outcome.reports.items()
        m_hat = json.loads(text)["m_hat"]
        problems = []
        for result in outcome.extra:
            if not all(0.0 <= v <= 1.0 for v in result.accuracies + result.aurocs):
                problems.append(f"{result.method}: accuracy or AUROC outside [0, 1]")
            if result.method != "erm" and result.m_hats != [m_hat]:
                problems.append(f"{result.method}: used {result.m_hats} candidates, selection has {m_hat}")
        libags_result = next(r for r in outcome.extra if r.method == "libags")
        self.results[key] = (libags_result.accuracies[0], libags_result.aurocs[0])
        return problems

    def score(self, key: int, payload: dict) -> tuple:
        """``run_bench``'s own libags score for this bench seed."""
        return self.results[key]


WORKLOADS = {w.name: w for w in (PoolD64, MoonsCli, MoonsBench)}
