"""End-to-end selection pipeline and its configuration.

``run_selection`` runs two halves in turn. ``score_pool`` scores the
candidates under a model trained on real data only (or takes externally
computed probabilities), estimates the real-data coverage and solves
the allocation, which fixes each candidate's value; ``libags score``
runs only this half. ``select_scored`` runs the diversity-aware greedy
selector, which reads its stopping threshold off its own marginal-gain
curve, and soft-labels what it picked.

Each half has one worker task beside its calling thread. In the first,
the worker runs the kNN stage (``geometry``: kNN density and support
validity) while the caller fits the scoring model (``scoring_model``);
a failed kNN stage or allocation raises there, before any pool distance
is computed. In the second, the worker runs the kernel stage
(``similarity``): ``pool_kernel``'s one streaming pass, which keeps the
columns of the u candidates with nonzero value, the only ones the greedy
reads, and computes nothing when u = 0. Meanwhile the caller builds the
k-means regions (``regions``). The greedy and the soft labels start once
both sides are done; the greedy is the columns' last reader, so they are
dropped before the soft labels are built. The two sides share no
writable array, and every matrix product runs on one BLAS thread, so
the report's bytes do not depend on how the threads interleave.
``stage_seconds`` times each stage on its own thread, so its entries
overlap and may add up to more than the wall time.

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
from .geometry import _one_blas_thread, knn_density, knn_distances, pool_kernel, support_validity, unit_ball_volume, usable_bandwidth
from .label import soft_label
from .model import LogisticModel, fit_logistic, fit_logistic_soft, one_hot, predict_proba, validate_proba
from .score import ScoreRecord, boundary_weight, entropy_rows, importance, select_tau, top_two_margin_rows
from .select import ETA_DYNAMIC_RANGE, GainStep, build_regions, greedy_select

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

        The score records and the gain log, most of the text, go through
        ``_json_rows``; every other value goes through ``json.dumps`` itself.
        """
        payload = {
            "format": self.format,
            "m_hat": self.m_hat,
            "eta": self.eta,
            "lambda": self.lambda_,
            "tau": self.tau,
            "selected": self.selected,
            "soft_labels": self.soft_labels,
            "config": self.config,
            "warnings": self.warnings,
            "n_real": self.n_real,
            "n_candidates": self.n_candidates,
        }
        if include_timings:
            payload["stage_seconds"] = self.stage_seconds
        # A value one level down is json's own text with every line indented once more.
        text = {key: json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ") for key, value in payload.items()}
        text["scores"] = _json_rows(self.scores, ScoreRecord)
        text["gains_log"] = _json_rows(self.gains_log, GainStep)
        return "{\n" + ",\n".join(f"  {json.dumps(key)}: {text[key]}" for key in sorted(text)) + "\n}\n"


def _json_rows(rows: list, cls) -> str:
    """The top-level list of ``{name: value}`` objects of ``rows``, instances of the dataclass ``cls``.

    When every value is an exact int or a finite float, each row fills one
    template with the values' reprs, json's own spelling of both. Anything
    else (NaN, infinities, bools, numpy scalars, no rows) goes through
    ``json.dumps`` of the whole list.
    """
    names = sorted(f.name for f in fields(cls))
    row_values = list(map(attrgetter(*names), rows))
    values = tuple(chain.from_iterable(row_values))
    try:
        fast = rows and set(map(type, values)) <= {int, float} and math.isfinite(sum(values))
    except OverflowError:  # an int too large for a float
        fast = False
    if not fast:
        return json.dumps([dict(zip(names, row)) for row in row_values], indent=2, sort_keys=True).replace("\n", "\n  ")
    template = "{" + ",".join(f"\n      {json.dumps(name)}: %r" for name in names) + "\n    }"
    return "[\n    " + ",\n    ".join([template] * len(rows)) % values + "\n  ]"


def _auto_regions(n_candidates: int) -> int:
    return min(max(8, int(np.ceil(np.sqrt(n_candidates)))), n_candidates)


def _knn_stage(real: LabeledDataset, candidates: CandidatePool, config: PipelineConfig) -> tuple:
    """Each candidate's kNN density and support validity, the density's peak, the report's kNN warnings, and the seconds they took."""
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
    return density, support, peak_density, warnings, time.perf_counter() - t0


def _kernel_stage(features: FeatureMatrix, config: PipelineConfig, columns) -> tuple:
    """The similarity matrix's valued columns and the seconds the kernel stage took.

    ``median-knn`` is the near-duplicate scale: the typical k-th neighbor
    distance within the pool, read in the same pass.
    """
    t0 = time.perf_counter()
    bandwidth = None if config.kernel_bandwidth == "median-knn" else float(config.kernel_bandwidth)
    sim = pool_kernel(features, columns, bandwidth, config.knn_k)
    return sim, time.perf_counter() - t0


@dataclass
class ScoredPool:
    """``score_pool``'s result: a scored and allocated pool, which ``select_scored`` reads and leaves as it is."""

    real: LabeledDataset
    candidates: CandidatePool
    config: PipelineConfig
    proba: np.ndarray  # the candidates' class probabilities
    scores: dict  # each ScoreRecord field name, in declaration order -> its per-candidate array
    tau: float
    lambda_: object  # float, or None when nothing had positive importance
    warnings: list
    stage_seconds: dict  # every STAGES key; the selection half's stages read 0


def run_selection(real: LabeledDataset, candidates: CandidatePool, config: PipelineConfig, external_proba=None) -> SelectionReport:
    """Score, allocate, select, and soft-label a candidate pool: ``select_scored(score_pool(...))``.

    ``external_proba`` is an optional ``(real_proba, candidate_proba)``
    pair from any scoring model; without it a softmax classifier is fit
    on the real data. Only the candidate half is read: the real half is
    checked for shape and values, then unused. When no candidate has
    positive importance, or every importance is so far below the smallest
    normal float that lambda underflows to 0, the report comes back with
    ``m_hat == 0`` and a warning naming the cause instead of an error.
    """
    return select_scored(score_pool(real, candidates, config, external_proba))


def score_pool(real: LabeledDataset, candidates: CandidatePool, config: PipelineConfig, external_proba=None) -> ScoredPool:
    """Check the inputs, score every candidate and solve the allocation; ``run_selection``'s first half.

    Of ``external_proba``, the candidate half gives the scores; the real half is checked, then unused.
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
        validate_proba(real_proba, n_real, real.n_classes, "real")
        cand_proba = validate_proba(cand_proba, n_cand, real.n_classes, "candidate")
    warnings: list = []
    timings = dict.fromkeys(STAGES, 0.0)
    clock = time.perf_counter

    # The kNN stage runs on the worker beside the scoring fit (see the module docstring).
    with _one_blas_thread(), ThreadPoolExecutor(max_workers=1) as executor:
        neighbors = executor.submit(_knn_stage, real, candidates, config)

        t0 = clock()
        if external_proba is None:
            scoring = fit_logistic(real.features, real.labels, real.n_classes, config.l2, config.epochs, config.lr)
            cand_proba = predict_proba(scoring, candidates.features)
        timings["scoring_model"] = clock() - t0

        density, support, peak_density, knn_warnings, timings["geometry"] = neighbors.result()
        warnings.extend(knn_warnings)

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
            zero = [name for name, f in (("boundary weight", weights), ("predictive entropy", entropies), ("support validity", support)) if not f.any()]
            if zero:
                why = f"{' and '.join(zero)} {'is' if len(zero) == 1 else 'are'} 0 for every candidate"
            else:
                why = "no one factor is 0 for every candidate; where none is 0, their product underflowed"
            warnings.append(f"no candidate had positive importance ({why}); nothing to select")
        if lambda_ == 0.0 and r.max() < tiny:
            # Subnormal importances, not the feature scale, drove lambda to 0.
            gap_scores = np.zeros(n_cand)
            lambda_ = None
            warnings.append(
                f"no candidate had importance above the smallest normal float {tiny:g} (the largest is {r.max():g}), "
                f"so lambda underflowed to 0; nothing to select"
            )
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

    scores = dict(margin=margins, boundary_weight=weights, entropy=entropies, density=density,
                  support=support, importance=r, gap_score=gap_scores, value=values)
    return ScoredPool(real, candidates, config, cand_proba, scores, float(tau), lambda_, warnings, timings)


def select_scored(scored: ScoredPool) -> SelectionReport:
    """Build the regions and the kernel columns, run the greedy and soft-label its picks; ``run_selection``'s second half."""
    real, candidates, config, scores = scored.real, scored.candidates, scored.config, scored.scores
    n_cand = candidates.n_rows
    warnings = list(scored.warnings)
    timings = dict(scored.stage_seconds)
    clock = time.perf_counter

    # The worker computes the kernel's valued columns beside the k-means regions: a
    # zero-valued candidate adds nothing to any facility gain (see greedy_select).
    with _one_blas_thread(), ThreadPoolExecutor(max_workers=1) as executor:
        kernel = executor.submit(_kernel_stage, candidates.features, config, np.flatnonzero(scores["value"]))

        t0 = clock()
        n_regions = _auto_regions(n_cand) if config.n_regions == "auto" else min(config.n_regions, n_cand)
        regions = build_regions(real.features, candidates.features, scores["importance"], n_regions, config.seed)
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
    state = greedy_select(scores["value"], sim, regions, eta=None, max_budget=budget)
    del sim, kernel  # the (M, u) columns are not read again; the future held them too
    selected = state.selected
    if state.eta == 0.0 and selected:
        warnings.append(
            f"eta is 0: fewer than 3 greedy gains exceeded {ETA_DYNAMIC_RANGE:g} times the first, so every "
            f"positive gain was accepted without a threshold; m_hat is {len(selected)} of {n_cand} candidates"
        )
    timings["greedy"] = clock() - t0

    t0 = clock()
    weights = scores["boundary_weight"]
    soft_labels = [soft_label(int(candidates.proposed_labels[j]), scored.proba[j], float(weights[j])).tolist() for j in selected]
    timings["soft_labels"] = clock() - t0

    records = [ScoreRecord(*row) for row in zip(*(scores[name].tolist() for name in ScoreRecord.FIELDS))]
    return SelectionReport(
        format=REPORT_FORMAT,
        m_hat=len(selected),
        eta=state.eta,
        lambda_=scored.lambda_,
        tau=scored.tau,
        selected=selected,
        soft_labels=soft_labels,
        scores=records,
        gains_log=state.gains_log,
        config=config.as_dict(),
        warnings=warnings,
        n_real=real.n_rows,
        n_candidates=n_cand,
        stage_seconds=timings,
    )


def fit_with_extra(real: LabeledDataset, extra_features, extra_targets, config: PipelineConfig) -> LogisticModel:
    """Fit a classifier on one-hot real labels plus extra rows with target distributions."""
    features = real.features
    targets = one_hot(real.labels, real.n_classes)
    if len(extra_features):
        features = FeatureMatrix._adopt(np.vstack([features.values, extra_features]))
        targets = np.vstack([targets, extra_targets])
    return fit_logistic_soft(features, targets, config.l2, config.epochs, config.lr)


def train_final(real: LabeledDataset, report: SelectionReport, candidates: CandidatePool, config: PipelineConfig) -> LogisticModel:
    """Fit the final classifier on real labels plus the selected soft labels."""
    if report.n_candidates != candidates.n_rows:
        raise ValidationError("report was produced from a different candidate pool")
    for j in report.selected:
        if not (0 <= j < candidates.n_rows):
            raise ValidationError(f"selected index {j} outside the candidate pool")
    if len(set(report.selected)) < len(report.selected):
        raise ValidationError("selected repeats a candidate index")
    if len(report.soft_labels) != len(report.selected) or any(np.shape(row) != (real.n_classes,) for row in report.soft_labels):
        raise ValidationError("soft labels do not match the selection")
    soft = np.asarray(report.soft_labels, dtype=np.float64)
    return fit_with_extra(real, candidates.features.values[report.selected], soft, config)
