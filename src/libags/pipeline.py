"""End-to-end selection pipeline and its configuration.

``run_selection`` wires the stages together: score candidates under a
model trained on real data only (or accept externally computed
probabilities), estimate real-data coverage, solve the allocation, run
the diversity-aware greedy selector, which reads its stopping threshold
off its own marginal-gain curve, and soft-label what it picked.

Two threads share the work. One worker runs the kNN stage (``geometry``:
the candidates' kNN density and support validity) and then the first
half of the kernel stage (``similarity``): the M x M pool distances and
the bandwidth. Meanwhile the calling thread fits the scoring model
(``scoring_model``), reads the kNN results, scores the candidates and
solves the allocation, which gives each candidate's value. It then
queues the second half of the kernel stage on the worker: the
similarities to the u candidates with nonzero value, the only columns
the greedy reads, which overwrite the distances in their own buffer (an
(M, u) block in the M x M one). The calling thread goes on to build
the k-means regions (``regions``); the greedy and the soft labels start
once both sides are done. A failed kNN stage leaves the distances
unbuilt. The worker spends most of its time in matrix products and in
elementwise passes that release the interpreter lock. The two sides
share no writable array, and every matrix product in either runs on
one BLAS thread, so the report's bytes do not depend on how the threads
interleave. ``stage_seconds`` times each stage on its own thread, so its
entries overlap and may add up to more than the wall time.

Features handed to the pipeline are treated as the representation
space: encode first (e.g. with RffEncoder) if raw inputs need a map.
Density estimation uses the feature count as its volume exponent, which
is only meaningful for low-dimensional representations; with wide
encodings, score in the encoded space via ``external_proba`` and keep
the geometry in the original low-dimensional space, as the bundled
benchmark does.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from itertools import chain
from operator import attrgetter

import numpy as np

from .alloc import solve_lambda
from .data import CandidatePool, FeatureMatrix, LabeledDataset
from .errors import NoPositiveImportance, ValidationError
from .geometry import KernelSpec, _one_blas_thread, knn_density, knn_distances, median_knn_distance, similarity_matrix, sq_distances, support_validity, unit_ball_volume, usable_bandwidth
from .label import soft_label
from .model import LogisticModel, fit_logistic, fit_logistic_soft, one_hot, predict_proba
from .score import ScoreRecord, boundary_weight, entropy_rows, importance, select_tau, top_two_margin_rows
from .select import ETA_DYNAMIC_RANGE, build_regions, greedy_select

REPORT_FORMAT = "libags-report/1"
STAGES = ("scoring_model", "candidate_scores", "geometry", "allocation", "regions", "similarity", "eta", "greedy", "soft_labels")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


@dataclass(frozen=True)
class PipelineConfig:
    tau_quantile: float = 0.1
    knn_k: int = 10
    kernel_bandwidth: object = "median-knn"  # "median-knn" or a positive float
    coverage_ratio: float = 10.0
    n_regions: object = "auto"  # "auto" or a positive int
    max_budget: object = "none"  # "none" or a positive int
    rff_dim: int = 200
    rff_bandwidth: float = 0.4
    l2: float = 1e-4
    epochs: int = 2000
    lr: float = 0.5
    seed: int = 0

    def __post_init__(self):
        # JSON configs reach here unchecked: true is not 1, "3" is not 3.
        for name in ("tau_quantile", "coverage_ratio", "rff_bandwidth", "l2", "lr"):
            if not _is_number(getattr(self, name)):
                raise ValidationError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        for name in ("knn_k", "rff_dim", "epochs", "seed"):
            if not _is_int(getattr(self, name)):
                raise ValidationError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not (0 < self.tau_quantile < 1):
            raise ValidationError(f"tau_quantile must lie in (0, 1), got {self.tau_quantile}")
        if self.knn_k < 1:
            raise ValidationError(f"knn_k must be at least 1, got {self.knn_k}")
        if self.kernel_bandwidth != "median-knn" and not (_is_number(self.kernel_bandwidth) and usable_bandwidth(self.kernel_bandwidth)):
            raise ValidationError(
                f"kernel_bandwidth must be 'median-knn' or a positive number with 2*bandwidth**2 a finite positive float, "
                f"got {self.kernel_bandwidth!r}"
            )
        if self.n_regions != "auto" and not (_is_int(self.n_regions) and self.n_regions >= 1):
            raise ValidationError(f"n_regions must be 'auto' or a positive integer, got {self.n_regions!r}")
        if self.max_budget != "none" and not (_is_int(self.max_budget) and self.max_budget >= 0):
            raise ValidationError(f"max_budget must be 'none' or a nonnegative integer, got {self.max_budget!r}")
        if self.coverage_ratio <= 0:
            raise ValidationError(f"coverage_ratio must be positive, got {self.coverage_ratio}")
        if self.rff_dim < 2 or self.rff_dim % 2:
            raise ValidationError(f"rff_dim must be a positive even number, got {self.rff_dim}")
        if self.rff_bandwidth <= 0 or self.lr <= 0 or self.epochs < 1 or self.l2 < 0:
            raise ValidationError("rff_bandwidth and lr must be positive, epochs >= 1, l2 >= 0")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")

    @classmethod
    def from_dict(cls, payload: dict) -> "PipelineConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**payload)

    @classmethod
    def from_json_file(cls, path) -> "PipelineConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}: invalid JSON config: {exc}") from None
            except UnicodeDecodeError as exc:
                raise ValidationError(f"{path}: config is not UTF-8 text: {exc.reason}") from None
        if not isinstance(payload, dict):
            raise ValidationError(f"{path}: config must be a JSON object")
        return cls.from_dict(payload)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def replace(self, **kwargs) -> "PipelineConfig":
        merged = self.as_dict()
        merged.update(kwargs)
        return PipelineConfig.from_dict(merged)


@dataclass
class SelectionReport:
    format: str
    m_hat: int
    eta: float
    lambda_: object  # float, or None when nothing had positive importance
    tau: float
    selected: list
    soft_labels: list
    scores: list
    gains_log: list
    config: dict
    warnings: list
    n_real: int
    n_candidates: int
    stage_seconds: dict = field(default_factory=dict)

    def to_json(self, include_timings: bool = False) -> str:
        """The report as ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, byte for byte.

        The per-candidate and per-step arrays, most of the text, are
        written from one template per row, filled with the values' reprs
        (json's own spelling of finite floats and ints); every other value
        goes through ``json.dumps`` itself.
        """
        payload = {
            "format": self.format,
            "m_hat": self.m_hat,
            "eta": self.eta,
            "lambda": self.lambda_,
            "tau": self.tau,
            "config": self.config,
            "warnings": self.warnings,
            "n_real": self.n_real,
            "n_candidates": self.n_candidates,
        }
        if include_timings:
            payload["stage_seconds"] = self.stage_seconds
        # A value one level down is json's own text with every line indented once more.
        text = {key: json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ") for key, value in payload.items()}
        text["scores"] = _json_objects(self.scores, ScoreRecord.FIELDS)
        text["gains_log"] = _json_objects(self.gains_log, _GAIN_FIELDS)
        text["soft_labels"] = _json_list([_json_list([_json_value(p, 3) for p in row], 2) for row in self.soft_labels], 1)
        text["selected"] = _json_list([_json_value(j, 2) for j in self.selected], 1)
        return "{\n" + ",\n".join(f"  {json.dumps(key)}: {text[key]}" for key in sorted(text)) + "\n}\n"


_GAIN_FIELDS = ("step", "candidate", "facility_gain", "region_gain", "combined_gain")


def _json_value(value, level: int) -> str:
    """``value`` as json.dumps(indent=2) writes it ``level`` levels deep."""
    if type(value) is float and value - value == 0.0:  # finite: json writes NaN and Infinity itself
        return float.__repr__(value)
    if type(value) is int:
        return int.__repr__(value)
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + "  " * level)


def _json_list(items: list, level: int) -> str:
    """A list of already written items as json.dumps(indent=2) writes it ``level`` levels deep."""
    if not items:
        return "[]"
    pad = "\n" + "  " * level
    return "[" + pad + "  " + ("," + pad + "  ").join(items) + pad + "]"


def _json_objects(rows, names) -> str:
    """The top-level list of ``{name: row.name}`` objects, one template per row."""
    names = sorted(names)
    template = "{" + ",".join(f"\n      {json.dumps(name)}: %s" for name in names) + "\n    }"
    values = list(chain.from_iterable(map(attrgetter(*names), rows)))
    if set(map(type, values)) == {float} and math.isfinite(sum(values)):
        text = list(map(float.__repr__, values))  # all finite floats: repr is json's spelling
    else:
        text = [_json_value(value, 3) for value in values]
    return _json_list([template] * len(rows), 1) % tuple(text)


def _auto_regions(n_candidates: int) -> int:
    return min(max(8, int(np.ceil(np.sqrt(n_candidates)))), n_candidates)


def _validate_proba(proba, rows: int, n_classes: int, what: str) -> np.ndarray:
    proba = np.asarray(proba, dtype=np.float64)
    if proba.shape != (rows, n_classes):
        raise ValidationError(f"{what} probabilities must have shape ({rows}, {n_classes}), got {proba.shape}")
    if not np.all(np.isfinite(proba)) or np.any(proba < 0) or np.any(np.abs(proba.sum(axis=1) - 1.0) > 1e-6):
        raise ValidationError(f"{what} probability rows must be nonnegative and sum to 1")
    return proba


def _knn_stage(real: LabeledDataset, candidates: CandidatePool, config: PipelineConfig) -> tuple:
    """Each candidate's kNN density and support validity, the report's kNN warnings, and the seconds they took."""
    t0 = time.perf_counter()
    k = min(config.knn_k, real.n_rows - 1)
    calibration = knn_distances(real.features, real.features, k, exclude_self=True)[:, k - 1]
    cand_dists = knn_distances(real.features, candidates.features, k)
    # An overflowing density is reported below; numpy's error state is per
    # thread, so the caller's cannot silence it here.
    with np.errstate(over="ignore"):
        density = knn_density(cand_dists, real.n_rows, real.features.n_cols)
    peak_density = float(density.max())
    if not math.isfinite(real.n_rows * peak_density):
        raise ValidationError(
            f"features too small: the kNN density reaches {peak_density:g}, so the real-data coverage n_real * density overflows"
        )
    warnings = []
    if not cand_dists[:, k - 1].any():
        warnings.append(
            f"every candidate lies at distance 0 from its {k} nearest real rows (the features are too small or "
            f"duplicated), so the kNN density falls back to radius 1 and reads {peak_density:g} for every candidate"
        )
    support = support_validity(cand_dists, calibration)
    return density, support, warnings, time.perf_counter() - t0


def _distance_stage(neighbors, features: FeatureMatrix, config: PipelineConfig):
    """The pool distances, the kernel bandwidth and the seconds they took.

    Runs after the kNN stage on the same worker, so ``neighbors`` is done;
    if it failed, the calling thread raises its error and the M x M matrix
    is not built (None).
    """
    if neighbors.exception() is not None:
        return None
    t0 = time.perf_counter()
    pool_sq = sq_distances(features.values)
    if config.kernel_bandwidth == "median-knn":
        # Near-duplicate scale: the typical k-th neighbor distance within the pool.
        bandwidth = median_knn_distance(features, config.knn_k, sq_dists=pool_sq)
    else:
        bandwidth = float(config.kernel_bandwidth)
    return pool_sq, bandwidth, time.perf_counter() - t0


def _kernel_stage(distances, features: FeatureMatrix, columns) -> tuple:
    """The similarity matrix's valued columns and the seconds the kernel stage took.

    Runs after ``_distance_stage`` on the same worker, so ``distances`` is
    done. The similarities overwrite the pool distances, so one M x M
    buffer is held.
    """
    pool_sq, bandwidth, seconds = distances.result()
    t0 = time.perf_counter()
    sim = similarity_matrix(KernelSpec(bandwidth), features, sq_dists=pool_sq, columns=columns)
    return sim, seconds + time.perf_counter() - t0


def run_selection(real: LabeledDataset, candidates: CandidatePool, config: PipelineConfig, external_proba=None) -> SelectionReport:
    """Score, allocate, select, and soft-label a candidate pool.

    ``external_proba`` is an optional ``(real_proba, candidate_proba)``
    pair from any scoring model; without it a softmax classifier is fit
    on the real data. When no candidate has positive importance the
    report comes back with ``m_hat == 0`` and a warning instead of an error.
    """
    if real.features.n_cols != candidates.features.n_cols:
        raise ValidationError(
            f"real features have {real.features.n_cols} columns, candidates have {candidates.features.n_cols}"
        )
    if real.n_rows < 2:
        raise ValidationError("need at least 2 real rows")
    n_real = real.n_rows
    n_cand = candidates.n_rows
    with np.errstate(over="ignore"):
        peak_sq = max(float(np.square(m.values).sum(axis=1).max(initial=0.0)) for m in (real.features, candidates.features))
    # 4 * peak_sq bounds every pairwise squared distance; the k-means++
    # seeding also sums one such distance per candidate.
    if not math.isfinite(4.0 * peak_sq * n_cand):
        raise ValidationError(f"features too large: squared distances between rows overflow (largest squared row norm {peak_sq:g})")
    unit_ball_volume(real.features.n_cols)  # too many columns fail here, before the scoring fit
    target_mass = n_real * config.coverage_ratio
    if not math.isfinite(target_mass):
        raise ValidationError(
            f"coverage_ratio {config.coverage_ratio:g} is too large: the allocation target n_real * coverage_ratio "
            f"overflows with n_real = {n_real}"
        )
    if external_proba is not None:
        real_proba, cand_proba = external_proba
        _validate_proba(real_proba, n_real, real.n_classes, "real")
        cand_proba = _validate_proba(cand_proba, n_cand, real.n_classes, "candidate")
    warnings: list = []
    timings = dict.fromkeys(STAGES, 0.0)
    clock = time.perf_counter

    # The kNN and kernel stages run on the worker beside scoring, allocation
    # and k-means (see the module docstring). One worker runs its tasks in
    # submission order, so the kNN screening blocks are freed before the
    # M x M distance matrix exists, and each task finds the one before it done.
    with _one_blas_thread(), ThreadPoolExecutor(max_workers=1) as executor:
        neighbors = executor.submit(_knn_stage, real, candidates, config)
        distances = executor.submit(_distance_stage, neighbors, candidates.features, config)

        t0 = clock()
        if external_proba is None:
            scoring = fit_logistic(real.features, real.labels, real.n_classes, config.l2, config.epochs, config.lr)
            cand_proba = predict_proba(scoring, candidates.features)
        timings["scoring_model"] = clock() - t0

        density, support, knn_warnings, timings["geometry"] = neighbors.result()
        warnings.extend(knn_warnings)
        peak_density = float(density.max())

        t0 = clock()
        margins = top_two_margin_rows(cand_proba)
        tau = select_tau(margins, config.tau_quantile)
        weights = boundary_weight(margins, tau)
        entropies = entropy_rows(cand_proba)
        timings["candidate_scores"] = clock() - t0

        t0 = clock()
        r = importance(weights, entropies, support)
        coverage = n_real * density
        tiny = float(np.finfo(np.float64).tiny)
        if np.all(coverage < tiny):
            warnings.append(
                f"the real-data coverage n_real * density is below {tiny:g} for every candidate (the kNN density "
                f"is at most {peak_density:g} in {real.features.n_cols} feature columns), so the allocation ignores the real data"
            )
        lambda_: object
        try:
            solution = solve_lambda(r, coverage, target_mass)
            gap_scores = solution.gap_scores
            lambda_ = solution.lambda_
        except NoPositiveImportance:
            gap_scores = np.zeros(n_cand)
            lambda_ = None
            warnings.append("no candidate had positive importance; nothing to select")
        if lambda_ is not None and not (math.isfinite(lambda_) and lambda_ > 0):
            raise ValidationError(
                f"allocation failed: lambda is {lambda_!r}, not a positive finite number; the kNN density reaches "
                f"{peak_density:g}, so rescale the features"
            )
        if lambda_ is not None and not abs(solution.total_mass - target_mass) <= 1e-6 * target_mass:
            warnings.append(
                f"the allocation reached a total mass of {solution.total_mass:g} instead of its target "
                f"{target_mass:g}: the real-data coverage n_real * density spans {coverage.min():g} to "
                f"{coverage.max():g}, and at that scale float rounding swamps the target; rescale the features"
            )
        values = gap_scores * support
        timings["allocation"] = clock() - t0
        # A zero-valued candidate adds nothing to any facility gain, so the
        # kernel computes only the valued columns (see greedy_select).
        kernel = executor.submit(_kernel_stage, distances, candidates.features, np.flatnonzero(values))

        t0 = clock()
        n_regions = _auto_regions(n_cand) if config.n_regions == "auto" else min(config.n_regions, n_cand)
        regions = build_regions(real.features, candidates.features, r, n_regions, config.seed)
        timings["regions"] = clock() - t0

        sim, timings["similarity"] = kernel.result()

    # One greedy pass learns eta as the flattening point of its own
    # marginal-gain curve (greedy gains are non-increasing) and keeps
    # exactly the steps at or above it. The pass runs only as far as the
    # knee search looks, so its whole time is booked under "greedy";
    # "eta" stays in stage_seconds at zero to keep the report's layout.
    # With no positive importance every gain is 0, so the pass accepts nothing.
    t0 = clock()
    budget = None if config.max_budget == "none" else config.max_budget
    state = greedy_select(values, sim, regions, eta=None, max_budget=budget)
    selected = state.selected
    if state.eta == 0.0 and selected:
        warnings.append(
            f"eta is 0: fewer than 3 greedy gains exceeded {ETA_DYNAMIC_RANGE:g} times the first, so every "
            f"positive gain was accepted without a threshold; m_hat is {len(selected)} of {n_cand} candidates"
        )
    timings["greedy"] = clock() - t0

    t0 = clock()
    soft_labels = [soft_label(int(candidates.proposed_labels[j]), cand_proba[j], float(weights[j])).tolist() for j in selected]
    timings["soft_labels"] = clock() - t0

    # Columns in ScoreRecord.FIELDS order.
    columns = (margins, weights, entropies, density, support, r, gap_scores, values)
    records = [ScoreRecord(*row) for row in zip(*(column.tolist() for column in columns))]
    return SelectionReport(
        format=REPORT_FORMAT,
        m_hat=len(selected),
        eta=state.eta,
        lambda_=lambda_,
        tau=float(tau),
        selected=selected,
        soft_labels=soft_labels,
        scores=records,
        gains_log=state.gains_log,
        config=config.as_dict(),
        warnings=warnings,
        n_real=n_real,
        n_candidates=n_cand,
        stage_seconds=timings,
    )


def fit_with_extra(real: LabeledDataset, extra_features, extra_targets, config: PipelineConfig) -> LogisticModel:
    """Fit a classifier on one-hot real labels plus extra rows with target distributions."""
    features = real.features.values
    targets = one_hot(real.labels, real.n_classes)
    if len(extra_features):
        features = np.vstack([features, extra_features])
        targets = np.vstack([targets, extra_targets])
    return fit_logistic_soft(FeatureMatrix(features), targets, config.l2, config.epochs, config.lr)


def train_final(real: LabeledDataset, report: SelectionReport, candidates: CandidatePool, config: PipelineConfig) -> LogisticModel:
    """Fit the final classifier on real labels plus the selected soft labels."""
    if report.n_candidates != candidates.n_rows:
        raise ValidationError("report was produced from a different candidate pool")
    for j in report.selected:
        if not (0 <= j < candidates.n_rows):
            raise ValidationError(f"selected index {j} outside the candidate pool")
    soft = np.asarray(report.soft_labels, dtype=np.float64)
    if report.selected and soft.shape != (len(report.selected), real.n_classes):
        raise ValidationError("soft labels do not match the selection")
    return fit_with_extra(real, candidates.features.values[report.selected], soft, config)
