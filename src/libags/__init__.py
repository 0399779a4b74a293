"""Boundary-gap scoring, allocation, and selection of synthetic candidates."""

from .alloc import AllocationSolution, solve_lambda
from .bench import BenchResult, auroc, export_boundary_grid, run_bench
from .data import (
    CandidatePool,
    FeatureMatrix,
    LabeledDataset,
    load_candidate_csv,
    load_labeled_csv,
    make_two_moons,
    write_candidate_csv,
    write_labeled_csv,
)
from .errors import (
    DivergenceError,
    LibagsError,
    NoPositiveImportance,
    ParseError,
    SchemaError,
    ValidationError,
)
from .geometry import knn_density, knn_distances, pool_kernel, support_validity, unit_ball_volume
from .label import soft_label
from .model import LogisticModel, RffEncoder, fit_logistic, fit_logistic_soft, one_hot, predict_proba, rff_encode
from .pipeline import PipelineConfig, SelectionReport, run_selection, train_final
from .score import ScoreRecord, boundary_weight, entropy_rows, importance, select_tau, top_two_margin_rows
from .select import GainStep, RegionTable, SelectionState, build_regions, greedy_select, marginal_gain, select_eta

__version__ = "0.1.0"

__all__ = [
    "AllocationSolution",
    "BenchResult",
    "CandidatePool",
    "DivergenceError",
    "FeatureMatrix",
    "GainStep",
    "LabeledDataset",
    "LibagsError",
    "LogisticModel",
    "NoPositiveImportance",
    "ParseError",
    "PipelineConfig",
    "RegionTable",
    "RffEncoder",
    "SchemaError",
    "ScoreRecord",
    "SelectionReport",
    "SelectionState",
    "ValidationError",
    "auroc",
    "boundary_weight",
    "build_regions",
    "entropy_rows",
    "export_boundary_grid",
    "fit_logistic",
    "fit_logistic_soft",
    "greedy_select",
    "importance",
    "knn_density",
    "knn_distances",
    "load_candidate_csv",
    "load_labeled_csv",
    "make_two_moons",
    "marginal_gain",
    "one_hot",
    "pool_kernel",
    "predict_proba",
    "rff_encode",
    "run_bench",
    "run_selection",
    "select_eta",
    "select_tau",
    "soft_label",
    "solve_lambda",
    "support_validity",
    "top_two_margin_rows",
    "train_final",
    "unit_ball_volume",
    "write_candidate_csv",
    "write_labeled_csv",
]
