"""Desk-scale benchmark harness on the gapped two-moons task.

One seed, one shared world: ``moons_world`` generates the data, the
random-feature encoder, the scoring model, and the test set once per
seed, every method reuses them, and the two-moons demo draws its seed's
world from the same function. The adaptive selector runs first so its
learned count can be handed to each fixed-count baseline, which keeps
the comparison about *which* candidates were chosen rather than how many.

Scoring happens on encoded features while the selector's geometry runs
in the raw 2-D input space (probabilities injected via the pipeline's
external-probability path), where nearest-neighbor density is well posed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CandidatePool, FeatureMatrix, LabeledDataset, make_two_moons
from .errors import ValidationError
from .model import LogisticModel, RffEncoder, one_hot, predict_proba, rff_encode
from .pipeline import PipelineConfig, SelectionReport, fit_with_extra, run_selection
from .score import entropy_rows

METHODS = ("erm", "random", "noise", "uncertainty_only", "libags")

# Fixed offsets so each random role gets its own documented stream.
_ENCODER_SEED_OFFSET = 1_000_003
_BASELINE_SEED_OFFSET = 2_000_003

DEFAULT_N_PER_CLASS = 200
DEFAULT_NOISE_SD = 0.3
DEFAULT_GAP_HALFWIDTH = 0.55


@dataclass
class BenchResult:
    method: str
    accuracies: list
    aurocs: list
    m_hats: list

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def std_accuracy(self) -> float:
        return float(np.std(self.accuracies, ddof=1)) if len(self.accuracies) > 1 else 0.0

    @property
    def mean_auroc(self) -> float:
        return float(np.mean(self.aurocs))

    @property
    def std_auroc(self) -> float:
        return float(np.std(self.aurocs, ddof=1)) if len(self.aurocs) > 1 else 0.0


def auroc(scores, labels) -> float:
    """Probability a random positive outscores a random negative, ties at 1/2.

    Rank-based: average ranks of tied scores make the rank-sum formula
    agree exactly with pairwise counting.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValidationError("scores and labels must be vectors of equal length")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0 or n_pos + n_neg != labels.size:
        raise ValidationError("labels must be binary with both classes present")
    if not np.all(np.isfinite(scores)):
        raise ValidationError("scores must be finite")
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    end = np.cumsum(counts)  # a tie group holds the sorted positions [end - count, end)
    ranks = (0.5 * (2 * end - counts - 1) + 1.0)[group]
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _evaluate(model: LogisticModel, test_encoded: FeatureMatrix, test_labels) -> tuple:
    proba = predict_proba(model, test_encoded)
    accuracy = float((proba.argmax(axis=1) == test_labels).mean())
    return accuracy, auroc(proba[:, 1], test_labels)


@dataclass(frozen=True)
class MoonsWorld:
    """One seed's two-moons task, encoded, scored and selected once."""

    train: LabeledDataset
    test: LabeledDataset
    pool: CandidatePool
    encoder: RffEncoder
    z_train: LabeledDataset  # train with RFF-encoded features
    z_pool: FeatureMatrix
    erm: LogisticModel  # the scoring model: the plain fit on real data
    proba_pool: np.ndarray
    report: SelectionReport

    def libags_model(self, config: PipelineConfig) -> LogisticModel:
        """The final classifier: real data plus the selection under its soft labels."""
        return fit_with_extra(self.z_train, self.z_pool.values[self.report.selected], self.report.soft_labels, config)


def moons_world(seed: int, config: PipelineConfig, n_per_class: int = DEFAULT_N_PER_CLASS,
                noise_sd: float = DEFAULT_NOISE_SD, gap_halfwidth: float = DEFAULT_GAP_HALFWIDTH) -> MoonsWorld:
    """The world every method of one bench seed shares; the test split stays unencoded."""
    train, test, pool = make_two_moons(n_per_class, noise_sd, gap_halfwidth, seed)
    encoder = RffEncoder.create(2, config.rff_dim, config.rff_bandwidth, seed + _ENCODER_SEED_OFFSET)
    z_train = LabeledDataset(rff_encode(encoder, train.features), train.labels, 2)
    z_pool = rff_encode(encoder, pool.features)
    erm = fit_with_extra(z_train, [], [], config)
    proba_pool = predict_proba(erm, z_pool)
    # Geometry in raw input space, scoring signal from the encoded model.
    external = (predict_proba(erm, z_train.features), proba_pool)
    report = run_selection(train, pool, config.replace(seed=seed), external_proba=external)
    return MoonsWorld(train, test, pool, encoder, z_train, z_pool, erm, proba_pool, report)


def run_bench(methods, seeds, config: PipelineConfig, n_per_class: int = DEFAULT_N_PER_CLASS,
              noise_sd: float = DEFAULT_NOISE_SD, gap_halfwidth: float = DEFAULT_GAP_HALFWIDTH):
    """Run the requested methods over the seeds; returns one BenchResult each."""
    methods = list(methods)
    for name in methods:
        if name not in METHODS:
            raise ValidationError(f"unknown method '{name}'; choose from {METHODS}")
        if methods.count(name) > 1:
            raise ValidationError(f"method '{name}' is listed more than once")
    seeds = list(seeds)
    for seed in seeds:
        if seeds.count(seed) > 1:
            raise ValidationError(f"seed {seed} is listed more than once")
    results = {name: BenchResult(name, [], [], []) for name in methods}

    for seed in seeds:
        world = moons_world(seed, config, n_per_class, noise_sd, gap_halfwidth)
        train, pool, z_pool = world.train, world.pool, world.z_pool
        z_test = rff_encode(world.encoder, world.test.features)
        m_hat = world.report.m_hat

        for name in methods:
            # Per-(seed, method) stream so a method's draws do not depend
            # on which other methods were requested.
            rng = np.random.default_rng(seed + _BASELINE_SEED_OFFSET + METHODS.index(name))
            if name == "erm":
                model = world.erm
            elif name == "libags":
                model = world.libags_model(config)
            elif name == "random":
                chosen = rng.choice(pool.n_rows, size=m_hat, replace=False) if m_hat else np.empty(0, dtype=int)
                model = fit_with_extra(world.z_train, z_pool.values[chosen], one_hot(pool.proposed_labels[chosen], 2), config)
            elif name == "noise":
                rows = rng.integers(0, train.n_rows, size=m_hat)
                scale = float(train.features.values.std(axis=0).mean())
                jitter = rng.normal(0.0, 0.1 * scale, size=(m_hat, 2))
                noisy = FeatureMatrix(train.features.values[rows] + jitter) if m_hat else None
                extra = rff_encode(world.encoder, noisy).values if m_hat else []
                model = fit_with_extra(world.z_train, extra, one_hot(train.labels[rows], 2), config)
            else:  # uncertainty_only
                top = np.argsort(-entropy_rows(world.proba_pool), kind="stable")[:m_hat]
                model = fit_with_extra(world.z_train, z_pool.values[top], one_hot(pool.proposed_labels[top], 2), config)
            accuracy, roc = _evaluate(model, z_test, world.test.labels)
            results[name].accuracies.append(accuracy)
            results[name].aurocs.append(roc)
            results[name].m_hats.append(m_hat if name != "erm" else 0)

    return [results[name] for name in methods]


def export_boundary_grid(model: LogisticModel, encoder, bounds, resolution: int, path) -> None:
    """Write (x1, x2, p_class1) over a uniform grid for external plotting.

    ``encoder`` may be None when the model consumes raw 2-D inputs.
    ``bounds`` is (x_min, x_max, y_min, y_max).
    """
    if resolution < 2:
        raise ValidationError(f"resolution must be at least 2, got {resolution}")
    x_min, x_max, y_min, y_max = bounds
    xs = np.linspace(x_min, x_max, resolution)
    ys = np.linspace(y_min, y_max, resolution)
    gx, gy = np.meshgrid(xs, ys)
    points = FeatureMatrix(np.column_stack([gx.ravel(), gy.ravel()]))
    encoded = rff_encode(encoder, points) if encoder is not None else points
    proba = predict_proba(model, encoded)
    with open(path, "w", newline="") as fh:
        fh.write("x1,x2,p_class1\n")
        for (x1, x2), p in zip(points.values, proba[:, 1]):
            fh.write(f"{x1:.17g},{x2:.17g},{p:.17g}\n")


def write_bench_csv(path, results) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("method,seed_index,accuracy,auroc,m_hat\n")
        for result in results:
            for i, (acc, roc, m) in enumerate(zip(result.accuracies, result.aurocs, result.m_hats)):
                fh.write(f"{result.method},{i},{acc:.17g},{roc:.17g},{m}\n")


def format_bench_summary(results) -> str:
    lines = ["method              accuracy            auroc               mean_m_hat"]
    for result in results:
        mean_m = float(np.mean(result.m_hats)) if result.m_hats else 0.0
        lines.append(
            f"{result.method:<18}  {result.mean_accuracy:.4f} +/- {result.std_accuracy:.4f}   "
            f"{result.mean_auroc:.4f} +/- {result.std_auroc:.4f}   {mean_m:.1f}"
        )
    return "\n".join(lines) + "\n"
