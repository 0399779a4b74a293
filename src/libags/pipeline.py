"""End-to-end selection pipeline and its configuration.

``run_selection`` wires the stages together: score candidates under a
model trained on real data only (or accept externally computed
probabilities), estimate real-data coverage, solve the allocation, run
the diversity-aware greedy selector, which reads its stopping threshold
off its own marginal-gain curve, and soft-label what it picked.

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
from dataclasses import dataclass, field, fields

import numpy as np

from .alloc import solve_lambda
from .data import CandidatePool, FeatureMatrix, LabeledDataset
from .errors import NoPositiveImportance, ValidationError
from .geometry import KernelSpec, knn_density, knn_distances, median_knn_distance, median_pairwise_distance, similarity_matrix, sq_distances, support_validity
from .label import soft_label
from .model import LogisticModel, fit_logistic, fit_logistic_soft, one_hot, predict_proba
from .score import ScoreRecord, boundary_weight, entropy_rows, importance, select_tau, top_two_margin_rows
from .select import build_regions, greedy_select

REPORT_FORMAT = "libags-report/1"


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
    kernel_bandwidth: object = "median-knn"  # "median-knn", "median", or a positive float
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
        if self.kernel_bandwidth not in ("median", "median-knn") and not (
            _is_number(self.kernel_bandwidth) and self.kernel_bandwidth > 0
        ):
            raise ValidationError(
                f"kernel_bandwidth must be 'median-knn', 'median', or a positive number, got {self.kernel_bandwidth!r}"
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
        payload = {
            "format": self.format,
            "m_hat": self.m_hat,
            "eta": self.eta,
            "lambda": self.lambda_,
            "tau": self.tau,
            "selected": self.selected,
            "soft_labels": self.soft_labels,
            "scores": [record.as_dict() for record in self.scores],
            "gains_log": [
                {
                    "step": g.step,
                    "candidate": g.candidate,
                    "facility_gain": g.facility_gain,
                    "region_gain": g.region_gain,
                    "combined_gain": g.combined_gain,
                }
                for g in self.gains_log
            ],
            "config": self.config,
            "warnings": self.warnings,
            "n_real": self.n_real,
            "n_candidates": self.n_candidates,
        }
        if include_timings:
            payload["stage_seconds"] = self.stage_seconds
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _auto_regions(n_candidates: int) -> int:
    return min(max(8, int(np.ceil(np.sqrt(n_candidates)))), n_candidates)


def _validate_proba(proba, rows: int, n_classes: int, what: str) -> np.ndarray:
    proba = np.asarray(proba, dtype=np.float64)
    if proba.shape != (rows, n_classes):
        raise ValidationError(f"{what} probabilities must have shape ({rows}, {n_classes}), got {proba.shape}")
    if not np.all(np.isfinite(proba)) or np.any(proba < 0) or np.any(np.abs(proba.sum(axis=1) - 1.0) > 1e-6):
        raise ValidationError(f"{what} probability rows must be nonnegative and sum to 1")
    return proba


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
    warnings: list = []
    timings: dict = {}
    clock = time.perf_counter

    t0 = clock()
    if external_proba is not None:
        real_proba, cand_proba = external_proba
        _validate_proba(real_proba, n_real, real.n_classes, "real")
        cand_proba = _validate_proba(cand_proba, n_cand, real.n_classes, "candidate")
    else:
        scoring = fit_logistic(real.features, real.labels, real.n_classes, config.l2, config.epochs, config.lr)
        cand_proba = predict_proba(scoring, candidates.features)
    timings["scoring_model"] = clock() - t0

    t0 = clock()
    margins = top_two_margin_rows(cand_proba)
    tau = select_tau(margins, config.tau_quantile)
    weights = boundary_weight(margins, tau)
    entropies = entropy_rows(cand_proba)
    timings["candidate_scores"] = clock() - t0

    t0 = clock()
    k = min(config.knn_k, n_real - 1)
    calibration = knn_distances(real.features, real.features, k, exclude_self=True)[:, k - 1]
    cand_dists = knn_distances(real.features, candidates.features, k)
    density = knn_density(cand_dists, n_real, real.features.n_cols)
    support = support_validity(cand_dists, calibration)
    timings["geometry"] = clock() - t0

    t0 = clock()
    r = importance(weights, entropies, support)
    coverage = n_real * density
    target_mass = n_real * config.coverage_ratio
    lambda_: object
    try:
        solution = solve_lambda(r, coverage, target_mass)
        gap_scores = solution.gap_scores
        lambda_ = solution.lambda_
    except NoPositiveImportance:
        gap_scores = np.zeros(n_cand)
        lambda_ = None
        warnings.append("no candidate had positive importance; nothing to select")
    values = gap_scores * support
    timings["allocation"] = clock() - t0

    t0 = clock()
    n_regions = _auto_regions(n_cand) if config.n_regions == "auto" else min(config.n_regions, n_cand)
    regions = build_regions(real.features, candidates.features, r, n_regions, config.seed)
    timings["regions"] = clock() - t0

    t0 = clock()
    pool_sq = sq_distances(candidates.features.values)  # shared by the bandwidth and the kernel
    if config.kernel_bandwidth == "median-knn":
        # Near-duplicate scale: the typical k-th neighbor distance within
        # the pool. The dataset-scale pairwise median makes every pair
        # look similar, which saturates the coverage objective in one pick.
        kernel = KernelSpec(median_knn_distance(candidates.features, config.knn_k, sq_dists=pool_sq))
    elif config.kernel_bandwidth == "median":
        kernel = KernelSpec(median_pairwise_distance(candidates.features, sq_dists=pool_sq))
    else:
        kernel = KernelSpec(float(config.kernel_bandwidth))
    sim = similarity_matrix(kernel, candidates.features, sq_dists=pool_sq)
    timings["similarity"] = clock() - t0

    # One greedy pass learns eta as the flattening point of its own
    # marginal-gain curve (greedy gains are non-increasing) and keeps
    # exactly the steps at or above it. The pass runs only as far as the
    # knee search looks, so its whole time is booked under "greedy";
    # "eta" stays in stage_seconds at zero to keep the report's layout.
    timings["eta"] = 0.0
    t0 = clock()
    if lambda_ is None:
        eta = 0.0
        state = None
    else:
        budget = None if config.max_budget == "none" else config.max_budget
        state = greedy_select(values, sim, regions, eta=None, max_budget=budget)
        eta = state.eta
    timings["greedy"] = clock() - t0

    t0 = clock()
    selected = state.selected if state is not None else []
    soft_labels = [soft_label(int(candidates.proposed_labels[j]), cand_proba[j], float(weights[j])).tolist() for j in selected]
    timings["soft_labels"] = clock() - t0

    records = [
        ScoreRecord(
            margin=float(margins[j]),
            boundary_weight=float(weights[j]),
            entropy=float(entropies[j]),
            density=float(density[j]),
            support=float(support[j]),
            importance=float(r[j]),
            gap_score=float(gap_scores[j]),
            value=float(values[j]),
        )
        for j in range(n_cand)
    ]
    return SelectionReport(
        format=REPORT_FORMAT,
        m_hat=len(selected),
        eta=float(eta),
        lambda_=lambda_,
        tau=float(tau),
        selected=list(selected),
        soft_labels=soft_labels,
        scores=records,
        gains_log=state.gains_log if state is not None else [],
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
