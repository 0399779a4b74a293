"""Desk-scale benchmark harness on the gapped two-moons task.

One seed, one shared world: ``moons_world`` generates the data, the
random-feature encoder, the scoring model, the selection and the test
set once per seed, and the two-moons demo draws its seed's world from
the same function. The adaptive selector runs first so its learned
count can be handed to each fixed-count baseline, which keeps the
comparison about *which* candidates were chosen rather than how many.

The world holds neither an encoded pool nor an encoded test split, the
seed's largest arrays: the pool is encoded only to score it, each method
encodes only the rows it adds, and the test split is encoded once, after
the seed's last fit.

Scoring happens on encoded features while the selector's geometry runs
in the raw 2-D input space (probabilities injected via the pipeline's
external-probability path), where nearest-neighbor density is well posed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CandidatePool, FeatureMatrix, LabeledDataset, make_two_moons, write_csv
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
    """One seed's two-moons task, scored and selected once; each method encodes only the rows it adds."""

    train: LabeledDataset
    test: LabeledDataset
    pool: CandidatePool
    encoder: RffEncoder
    z_train: LabeledDataset  # train with RFF-encoded features
    erm: LogisticModel  # the scoring model: the plain fit on real data
    proba_pool: np.ndarray
    report: SelectionReport

    def libags_model(self, config: PipelineConfig) -> LogisticModel:
        """The final classifier: real data plus the selection under its soft labels."""
        return fit_with_extra(self.z_train, *_extra_rows("libags", self, None), config)


def moons_world(seed: int, config: PipelineConfig, n_per_class: int = DEFAULT_N_PER_CLASS,
                noise_sd: float = DEFAULT_NOISE_SD, gap_halfwidth: float = DEFAULT_GAP_HALFWIDTH) -> MoonsWorld:
    """The world every method of one bench seed shares; the pool is encoded only to score it."""
    train, test, pool = make_two_moons(n_per_class, noise_sd, gap_halfwidth, seed)
    encoder = RffEncoder.create(2, config.rff_dim, config.rff_bandwidth, seed + _ENCODER_SEED_OFFSET)
    z_train = LabeledDataset(rff_encode(encoder, train.features), train.labels, 2)
    erm = fit_with_extra(z_train, [], [], config)
    proba_pool = predict_proba(erm, rff_encode(encoder, pool.features))
    # Geometry in raw input space, scoring signal from the encoded model.
    external = (predict_proba(erm, z_train.features), proba_pool)
    report = run_selection(train, pool, config.replace(seed=seed), external_proba=external)
    return MoonsWorld(train, test, pool, encoder, z_train, erm, proba_pool, report)


def _extra_rows(name: str, world: MoonsWorld, rng) -> tuple:
    """The encoded rows and target distributions a method other than erm adds to the real data."""
    train, pool, m_hat = world.train, world.pool, world.report.m_hat
    if m_hat == 0:  # a FeatureMatrix needs a row
        return [], []
    if name == "libags":
        raw, targets = pool.features.values[world.report.selected], world.report.soft_labels
    elif name == "random":
        chosen = rng.choice(pool.n_rows, size=m_hat, replace=False)
        raw, targets = pool.features.values[chosen], one_hot(pool.proposed_labels[chosen], 2)
    elif name == "noise":
        rows = rng.integers(0, train.n_rows, size=m_hat)
        scale = float(train.features.values.std(axis=0).mean())
        raw = train.features.values[rows] + rng.normal(0.0, 0.1 * scale, size=(m_hat, 2))
        targets = one_hot(train.labels[rows], 2)
    else:  # uncertainty_only
        top = np.argsort(-entropy_rows(world.proba_pool), kind="stable")[:m_hat]
        raw, targets = pool.features.values[top], one_hot(pool.proposed_labels[top], 2)
    return rff_encode(world.encoder, FeatureMatrix._adopt(raw)).values, targets


def _bench_seed(seed: int, methods, config: PipelineConfig, n_per_class: int, noise_sd: float, gap_halfwidth: float) -> tuple:
    """One seed's ``m_hat`` and each method's (accuracy, auroc).

    The seed's arrays die when this returns, before the next seed's world
    is built. Each (seed, method) pair draws from its own stream, so a
    method's draws do not depend on which other methods were requested.
    """
    world = moons_world(seed, config, n_per_class, noise_sd, gap_halfwidth)
    rngs = {name: np.random.default_rng(seed + _BASELINE_SEED_OFFSET + METHODS.index(name)) for name in methods}
    models = {name: world.erm if name == "erm" else fit_with_extra(world.z_train, *_extra_rows(name, world, rngs[name]), config) for name in methods}
    # The test split is encoded once every model is fit.
    z_test = rff_encode(world.encoder, world.test.features)
    return world.report.m_hat, {name: _evaluate(models[name], z_test, world.test.labels) for name in methods}


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
        m_hat, scores = _bench_seed(seed, methods, config, n_per_class, noise_sd, gap_halfwidth)
        for name, (accuracy, roc) in scores.items():
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
    if model.n_classes < 2:
        raise ValidationError(f"the grid holds p_class1, so the model needs at least 2 classes, got {model.n_classes}")
    x_min, x_max, y_min, y_max = bounds
    xs = np.linspace(x_min, x_max, resolution)
    ys = np.linspace(y_min, y_max, resolution)
    gx, gy = np.meshgrid(xs, ys)
    points = FeatureMatrix._adopt(np.column_stack([gx.ravel(), gy.ravel()]))
    encoded = rff_encode(encoder, points) if encoder is not None else points
    proba = predict_proba(model, encoded)
    write_csv(path, ["x1", "x2", "p_class1"], np.column_stack([points.values, proba[:, 1]]).tolist())


def write_bench_csv(path, results) -> None:
    rows = ([result.method, i, *cells] for result in results for i, cells in enumerate(zip(result.accuracies, result.aurocs, result.m_hats)))
    write_csv(path, ["method", "seed_index", "accuracy", "auroc", "m_hat"], rows)


def format_bench_summary(results) -> str:
    lines = ["method              accuracy            auroc               mean_m_hat"]
    for result in results:
        mean_m = float(np.mean(result.m_hats)) if result.m_hats else 0.0
        lines.append(
            f"{result.method:<18}  {result.mean_accuracy:.4f} +/- {result.std_accuracy:.4f}   "
            f"{result.mean_auroc:.4f} +/- {result.std_auroc:.4f}   {mean_m:.1f}"
        )
    return "\n".join(lines) + "\n"
