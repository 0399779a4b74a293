"""Datasets, candidate pools, CSV ingestion, and the two-moons task.

All tabular I/O is CSV with a header row. Every CSV the package writes
goes through ``write_csv``: UTF-8, ``\\n`` line ends, and floats with 17
significant digits, so a write/load round trip reproduces the exact
values. The loaders read UTF-8 and accept ``\\n`` or ``\\r\\n`` line ends.
Every random draw comes from numpy's ``default_rng`` (PCG64),
so a fixed seed reproduces outputs bit for bit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, SchemaError, ValidationError

# Horizontal midpoint of the region where the two moons interlock.
MOONS_GAP_CENTER = 0.5


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense real-valued feature matrix, rows are samples.

    ``values`` is a read-only float64 array. The constructor freezes a
    copy of what it is given, so the caller's array stays writeable and
    the matrix never changes under it. The package's own freshly built
    arrays go through ``_adopt`` instead, which runs the same checks and
    freezes the array itself, without a second copy.
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_features(np.array(self.values, dtype=np.float64)))

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "FeatureMatrix":
        """A matrix over ``arr`` itself, frozen in place; for float64 arrays no one else writes."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "values", _frozen_features(np.asarray(arr, dtype=np.float64)))
        return matrix

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


def _frozen_features(arr: np.ndarray) -> np.ndarray:
    """``arr``, checked to be a finite 2-D matrix with a row and a column, and made read-only."""
    if arr.ndim != 2:
        raise ValidationError(f"feature matrix must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValidationError(f"feature matrix needs at least one row and one column, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("feature matrix contains non-finite entries")
    arr.setflags(write=False)
    return arr


def _frozen_labels(labels, n_rows: int, n_classes: int, what: str) -> np.ndarray:
    """Read-only int64 copy of one class label per row, each in [0, n_classes)."""
    labels = np.array(labels, dtype=np.int64)
    if n_classes < 2:
        raise ValidationError(f"n_classes must be at least 2, got {n_classes}")
    if labels.ndim != 1 or labels.shape[0] != n_rows:
        raise ValidationError(f"{what}s must be a vector with one entry per feature row")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        bad = int(labels[(labels < 0) | (labels >= n_classes)][0])
        raise ValidationError(f"{what} {bad} outside [0, {n_classes})")
    labels.setflags(write=False)
    return labels


@dataclass(frozen=True)
class LabeledDataset:
    """Features plus 0-based integer class labels."""

    features: FeatureMatrix
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        object.__setattr__(self, "labels", _frozen_labels(self.labels, self.features.n_rows, self.n_classes, "label"))

    @property
    def n_rows(self) -> int:
        return self.features.n_rows


@dataclass(frozen=True)
class CandidatePool:
    """Generator-proposed samples: features, proposed class, source id."""

    features: FeatureMatrix
    proposed_labels: np.ndarray
    source_ids: tuple = field(default=())
    n_classes: int = 2

    def __post_init__(self):
        labels = _frozen_labels(self.proposed_labels, self.features.n_rows, self.n_classes, "proposed label")
        object.__setattr__(self, "proposed_labels", labels)
        ids = self.source_ids
        if not ids:
            ids = tuple(str(i) for i in range(self.features.n_rows))
        else:
            ids = tuple(str(s) for s in ids)
            if len(ids) != self.features.n_rows:
                raise ValidationError("source_ids must have one entry per candidate row")
        object.__setattr__(self, "source_ids", ids)

    @property
    def n_rows(self) -> int:
        return self.features.n_rows


def _read_rows(path):
    """Header and data rows of a UTF-8 CSV file."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from None
        except csv.Error as exc:
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise ParseError(f"{path}: file is empty")
    return rows[0], rows[1:]


def _parse_float(cell, path, row_no, col_name):
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"{path}: row {row_no}: cannot parse '{cell}' in column {col_name}") from None
    if not math.isfinite(value):
        raise ValidationError(f"{path}: row {row_no}: non-finite value in column {col_name}")
    return value


def _parse_label(cell, path, row_no, col_name, n_classes):
    try:
        label = int(cell)
    except ValueError:
        raise ParseError(f"{path}: row {row_no}: label '{cell}' is not an integer") from None
    if label < 0 or label >= n_classes:
        raise ValidationError(f"{path}: row {row_no}: {col_name} {label} outside [0, {n_classes})")
    return label


def _parse_rows(path, header, rows, n_floats: int, label_name=None, n_classes: int = 0):
    """Rows as wide as the header: ``n_floats`` numbers, then a label if ``label_name`` is given.

    Returns ``(values, labels)``; error messages number the header as row 1.
    """
    if not rows:
        raise ParseError(f"{path}: no data rows")
    values = np.empty((len(rows), n_floats))
    labels = np.empty(len(rows), dtype=np.int64)
    for i, row in enumerate(rows):
        row_no = i + 2
        if len(row) != len(header):
            raise ParseError(f"{path}: row {row_no}: expected {len(header)} cells, got {len(row)}")
        for j in range(n_floats):
            values[i, j] = _parse_float(row[j], path, row_no, header[j])
        if label_name is not None:
            labels[i] = _parse_label(row[n_floats], path, row_no, label_name, n_classes)
    return values, labels


def load_labeled_csv(path, n_classes: int) -> LabeledDataset:
    """Load a dataset from CSV: feature columns followed by a `label` column."""
    header, rows = _read_rows(path)
    if len(header) < 2 or header[-1] != "label":
        raise SchemaError(f"{path}: last column must be named 'label', got header {header}")
    feats, labels = _parse_rows(path, header, rows, len(header) - 1, "label", n_classes)
    return LabeledDataset(FeatureMatrix._adopt(feats), labels, n_classes)


def load_candidate_csv(path, n_classes: int) -> CandidatePool:
    """Load a candidate pool: feature columns, `proposed_label`, optional trailing `source_id`."""
    header, rows = _read_rows(path)
    has_ids = bool(header) and header[-1] == "source_id"
    label_col = len(header) - 2 if has_ids else len(header) - 1
    if label_col < 1 or header[label_col] != "proposed_label":
        raise SchemaError(f"{path}: expected feature columns then 'proposed_label' (then optional 'source_id'), got header {header}")
    feats, labels = _parse_rows(path, header, rows, label_col, "proposed_label", n_classes)
    ids = tuple(row[-1] for row in rows) if has_ids else ()
    return CandidatePool(FeatureMatrix._adopt(feats), labels, ids, n_classes)


def load_probability_csv(path) -> np.ndarray:
    """Load class probabilities: a header with one column per class, one row per sample."""
    header, rows = _read_rows(path)
    return _parse_rows(path, header, rows, len(header))[0]


def write_csv(path, header, rows) -> None:
    """Write a UTF-8 CSV with ``\\n`` line ends; float cells (Python or numpy) keep 17 significant digits."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format(cell, ".17g") if isinstance(cell, (float, np.floating)) else cell for cell in row] for row in rows)


def write_labeled_csv(path, dataset: LabeledDataset) -> None:
    """Mirror of load_labeled_csv."""
    header = [f"feature_{j}" for j in range(dataset.features.n_cols)] + ["label"]
    write_csv(path, header, ([*row, label] for row, label in zip(dataset.features.values.tolist(), dataset.labels.tolist())))


def write_candidate_csv(path, pool: CandidatePool) -> None:
    """Mirror of load_candidate_csv."""
    header = [f"feature_{j}" for j in range(pool.features.n_cols)] + ["proposed_label", "source_id"]
    rows = zip(pool.features.values.tolist(), pool.proposed_labels.tolist(), pool.source_ids)
    write_csv(path, header, ([*row, label, sid] for row, label, sid in rows))


def _moon_points(angles, labels):
    """Noise-free moon coordinates for the given arc angles and classes."""
    x = np.where(labels == 0, np.cos(angles), 1.0 - np.cos(angles))
    y = np.where(labels == 0, np.sin(angles), 0.5 - np.sin(angles))
    return np.column_stack([x, y])


def _sample_moons(rng, n_per_class, noise_sd, angle_lo=0.0, angle_hi=np.pi):
    """One block of moon samples: class-0 rows first, then class 1."""
    labels = np.repeat(np.array([0, 1]), n_per_class)
    angles = rng.uniform(angle_lo, angle_hi, size=2 * n_per_class)
    points = _moon_points(angles, labels)
    points = points + rng.normal(0.0, noise_sd, size=points.shape)
    return points, labels


def make_two_moons(n_per_class: int, noise_sd: float, gap_halfwidth: float, seed: int):
    """Two interleaved half circles with a carved-out central training band.

    Returns ``(train, test, candidates)``. Training rows whose horizontal
    coordinate falls strictly inside ``MOONS_GAP_CENTER ± gap_halfwidth``
    are dropped, so the training set under-covers the region where the
    two classes interlock. The test set is drawn without the exclusion
    and is exactly class-balanced.

    The candidate pool has three strata, identifiable by source id:
    ``bnd-*`` rows are drawn on the moon arcs restricted to the excluded
    band, ``sup-*`` rows come from the full arcs, and ``off-*`` rows are
    uniform draws from the data bounding box inflated to twice its range.
    Proposed labels are the generating class for on-arc strata; the
    off-support stratum gets arbitrary classes, mimicking a weak
    generator whose artifacts carry unreliable labels.

    Draw order from the seeded PCG64 generator is fixed: train angles and
    noise, test angles and noise, boundary-stratum angles and noise,
    on-support angles and noise, then the off-support box draws.
    """
    if n_per_class < 10:
        raise ValidationError(f"n_per_class must be at least 10, got {n_per_class}")
    if not (math.isfinite(noise_sd) and noise_sd >= 0):
        raise ValidationError(f"noise_sd must be finite and nonnegative, got {noise_sd}")
    if not (0 <= gap_halfwidth < 1):
        raise ValidationError(f"gap_halfwidth must lie in [0, 1), got {gap_halfwidth}")
    rng = np.random.default_rng(seed)

    train_pts, train_labels = _sample_moons(rng, n_per_class, noise_sd)
    keep = np.abs(train_pts[:, 0] - MOONS_GAP_CENTER) >= gap_halfwidth if gap_halfwidth > 0 else np.ones(len(train_pts), bool)
    train = LabeledDataset(FeatureMatrix._adopt(train_pts[keep]), train_labels[keep], 2)

    test_pts, test_labels = _sample_moons(rng, n_per_class, noise_sd)
    test = LabeledDataset(FeatureMatrix._adopt(test_pts), test_labels, 2)

    # Band of arc angles whose noise-free horizontal coordinate lies in the
    # excluded region; identical for both moons by symmetry.
    lo = math.acos(min(1.0, MOONS_GAP_CENTER + gap_halfwidth))
    hi = math.acos(max(-1.0, MOONS_GAP_CENTER - gap_halfwidth))
    bnd_pts, bnd_labels = _sample_moons(rng, n_per_class // 2, noise_sd, angle_lo=lo, angle_hi=hi)
    sup_pts, sup_labels = _sample_moons(rng, n_per_class // 4, noise_sd)

    # Off-support stratum: a weak generator's artifacts. Uniform box draws
    # with arbitrary proposed classes; half the pool is junk so that
    # support filtering has real work to do.
    lo_box = train_pts.min(axis=0)
    hi_box = train_pts.max(axis=0)
    center = (lo_box + hi_box) / 2.0
    half = hi_box - lo_box  # 2x inflation: half-width equals the full range
    n_off = 2 * n_per_class
    off_pts = rng.uniform(center - half, center + half, size=(n_off, 2))
    off_labels = rng.integers(0, 2, size=n_off)

    feats = np.vstack([bnd_pts, sup_pts, off_pts])
    labels = np.concatenate([bnd_labels, sup_labels, off_labels])
    ids = (
        [f"bnd-{i}" for i in range(len(bnd_pts))]
        + [f"sup-{i}" for i in range(len(sup_pts))]
        + [f"off-{i}" for i in range(len(off_pts))]
    )
    candidates = CandidatePool(FeatureMatrix._adopt(feats), labels, tuple(ids), 2)
    return train, test, candidates
