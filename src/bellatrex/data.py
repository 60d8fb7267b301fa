"""Tabular data ingestion, preprocessing and deterministic CV splits.

CSV conventions: header row required, missing values are empty cells or "NA".
A column is treated as categorical when any non-missing cell fails numeric
parsing (overridable through the schema's ``categorical=`` entry).
"""
from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DataError, EmptyDataError, ParseError, SchemaError

log = logging.getLogger(__name__)

MISSING_TOKENS = ("", "NA")


class TaskKind(Enum):
    BINARY = "binary"
    REGRESSION = "regression"
    MULTI_TARGET = "multitarget"
    MULTI_LABEL = "multilabel"
    SURVIVAL = "survival"

    @property
    def classification_like(self) -> bool:
        return self in (TaskKind.BINARY, TaskKind.MULTI_LABEL, TaskKind.SURVIVAL)

    @property
    def vector_valued(self) -> bool:
        return self in (TaskKind.MULTI_TARGET, TaskKind.MULTI_LABEL)

    @property
    def normalized_targets(self) -> bool:
        return self in (TaskKind.REGRESSION, TaskKind.MULTI_TARGET)


@dataclass(frozen=True)
class TargetSpec:
    """Which columns hold the targets, plus forced-categorical overrides."""

    columns: tuple[str, ...] = ()
    time: str | None = None
    event: str | None = None
    categorical: tuple[str, ...] = ()


@dataclass(frozen=True)
class Dataset:
    """Immutable tabular dataset.

    Before ``preprocess`` the covariate matrix may hold ``object`` cells
    (strings for categoricals, NaN/None for missing values); afterwards it is
    a dense float64 matrix with no missing entries.  Targets are stored as an
    (n, w) float matrix; for survival w = 2 with columns (time, event).
    """

    task: TaskKind
    covariates: np.ndarray
    covariate_names: tuple[str, ...]
    targets: np.ndarray
    target_names: tuple[str, ...]
    categorical: frozenset[str] = frozenset()
    preprocessed: bool = False

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def p(self) -> int:
        return self.covariates.shape[1]

    @property
    def prediction_width(self) -> int:
        """Width of a prediction vector for this task (1 for scalar tasks)."""
        if self.task.vector_valued:
            return self.targets.shape[1]
        return 1

    @property
    def times(self) -> np.ndarray:
        assert self.task is TaskKind.SURVIVAL
        return self.targets[:, 0]

    @property
    def events(self) -> np.ndarray:
        assert self.task is TaskKind.SURVIVAL
        return self.targets[:, 1].astype(bool)

    def subset(self, rows: np.ndarray) -> "Dataset":
        return replace(
            self,
            covariates=self.covariates[rows],
            targets=self.targets[rows],
        )


@dataclass(frozen=True)
class FoldPlan:
    """Deterministic k-fold assignment: identical (n, k, seed) -> identical folds."""

    k: int
    assignments: np.ndarray
    seed: int

    def split(self, fold: int) -> tuple[np.ndarray, np.ndarray]:
        if not 0 <= fold < self.k:
            raise ValueError(f"fold {fold} out of range [0, {self.k})")
        test = np.flatnonzero(self.assignments == fold)
        train = np.flatnonzero(self.assignments != fold)
        return train, test


def kfold(n: int, k: int, seed: int) -> FoldPlan:
    """Shuffled partition into k folds whose sizes differ by at most one."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of instances n={n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    assignments = np.empty(n, dtype=np.int64)
    base, extra = divmod(n, k)
    start = 0
    for fold in range(k):
        size = base + (1 if fold < extra else 0)
        assignments[perm[start : start + size]] = fold
        start += size
    return FoldPlan(k=k, assignments=assignments, seed=seed)


# ---------------------------------------------------------------------------
# CSV / schema loading
# ---------------------------------------------------------------------------

def _is_missing(cell: str) -> bool:
    return cell.strip() in MISSING_TOKENS


def _try_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def parse_schema(path: str | Path) -> tuple[TaskKind, TargetSpec]:
    """Read a line-oriented key=value schema file declaring task and targets."""
    if not Path(path).is_file():
        raise DataError(f"{path}: no such file")
    task: TaskKind | None = None
    columns: tuple[str, ...] = ()
    time_col: str | None = None
    event_col: str | None = None
    categorical: tuple[str, ...] = ()
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: cannot decode the file ({exc})") from None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{path}: line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "task":
            try:
                task = TaskKind(value)
            except ValueError:
                raise SchemaError(f"{path}: unknown task {value!r}") from None
        elif key == "target":
            columns = (value,)
        elif key == "targets":
            columns = tuple(v.strip() for v in value.split(",") if v.strip())
        elif key == "time":
            time_col = value
        elif key == "event":
            event_col = value
        elif key == "categorical":
            categorical = tuple(v.strip() for v in value.split(",") if v.strip())
        else:
            raise SchemaError(f"{path}: unknown schema key {key!r}")
    if task is None:
        raise SchemaError(f"{path}: schema must declare a task")
    return task, TargetSpec(columns=columns, time=time_col, event=event_col,
                            categorical=categorical)


def _read_rows(path: str | Path) -> tuple[list[str], list[list[str]]]:
    if not Path(path).is_file():
        raise DataError(f"{path}: no such file")
    try:
        return _read_csv(path)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: cannot decode the file ({exc})") from None


def _read_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file, header row required") from None
        header = [h.strip() for h in header]
        for i, name in enumerate(header):
            if name in header[:i]:
                raise ParseError(f"{path}: header names column {name!r} more than once")
        rows: list[list[str]] = []
        for i, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: row {i}: expected {len(header)} fields, got {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise EmptyDataError(f"{path}: no data rows")
    return header, rows


def _target_columns(task: TaskKind, spec: TargetSpec, header: list[str],
                    path: str | Path) -> list[str]:
    if task is TaskKind.SURVIVAL:
        if not spec.time or not spec.event:
            raise SchemaError(f"{path}: survival task requires time and event columns")
        names = [spec.time, spec.event]
    else:
        names = list(spec.columns)
        if task in (TaskKind.BINARY, TaskKind.REGRESSION) and len(names) != 1:
            raise SchemaError(f"{path}: task {task.value} requires exactly one target column")
        if task.vector_valued and len(names) < 2:
            raise SchemaError(f"{path}: task {task.value} requires at least two target columns")
    for name in names:
        if name not in header:
            raise SchemaError(f"{path}: target column {name!r} not found in header")
    return names


def _parse_target_cell(task: TaskKind, name: str, cell: str, rowno: int,
                       path: str | Path, is_event: bool) -> float:
    if _is_missing(cell):
        return math.nan
    if is_event:
        lowered = cell.strip().lower()
        if lowered in ("true", "1", "1.0"):
            return 1.0
        if lowered in ("false", "0", "0.0"):
            return 0.0
        raise SchemaError(f"{path}: row {rowno}: event column {name!r} must be boolean, got {cell!r}")
    value = _try_float(cell)
    if value is None:
        raise SchemaError(f"{path}: row {rowno}: target {name!r} is not numeric: {cell!r}")
    if task in (TaskKind.BINARY, TaskKind.MULTI_LABEL) and value not in (0.0, 1.0):
        raise SchemaError(f"{path}: row {rowno}: label {name!r} must be 0 or 1, got {cell!r}")
    return value


def load_csv(path: str | Path, spec: TargetSpec, task: TaskKind) -> Dataset:
    """Load a CSV into a raw (not yet preprocessed) Dataset."""
    header, rows = _read_rows(path)
    target_names = _target_columns(task, spec, header, path)
    target_idx = [header.index(name) for name in target_names]
    cov_names = [h for h in header if h not in target_names]
    cov_idx = [header.index(name) for name in cov_names]

    n = len(rows)
    targets = np.empty((n, len(target_names)), dtype=np.float64)
    for j, (name, col) in enumerate(zip(target_names, target_idx)):
        is_event = task is TaskKind.SURVIVAL and j == 1
        for i, row in enumerate(rows):
            targets[i, j] = _parse_target_cell(task, name, row[col], i + 2, path, is_event)
    if task is TaskKind.SURVIVAL:
        times = targets[:, 0]
        if np.any(times[~np.isnan(times)] <= 0):
            raise SchemaError(f"{path}: survival times must be positive")

    forced = set(spec.categorical)
    unknown = forced - set(cov_names)
    if unknown:
        raise SchemaError(f"{path}: categorical override names unknown columns {sorted(unknown)}")

    covariates = np.empty((n, len(cov_names)), dtype=object)
    categorical: set[str] = set()
    for j, (name, col) in enumerate(zip(cov_names, cov_idx)):
        cells = [row[col] for row in rows]
        is_cat = name in forced or any(
            not _is_missing(c) and _try_float(c) is None for c in cells
        )
        if is_cat:
            categorical.add(name)
            covariates[:, j] = [None if _is_missing(c) else c.strip() for c in cells]
        else:
            covariates[:, j] = [math.nan if _is_missing(c) else float(c) for c in cells]

    return Dataset(
        task=task,
        covariates=covariates,
        covariate_names=tuple(cov_names),
        targets=targets,
        target_names=tuple(target_names),
        categorical=frozenset(categorical),
        preprocessed=False,
    )


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------

def _missing_mask(column: np.ndarray, is_cat: bool) -> np.ndarray:
    if is_cat:
        return np.array([cell is None for cell in column], dtype=bool)
    return np.array(
        [cell is None or (isinstance(cell, float) and math.isnan(cell)) for cell in column],
        dtype=bool,
    )


def _impute_numeric(values: np.ndarray, missing: np.ndarray) -> tuple[np.ndarray, int]:
    out = values.astype(np.float64)
    if missing.any():
        median = float(np.median(out[~missing]))
        out[missing] = median
    return out, int(missing.sum())


def _impute_mode(cells: list, missing: np.ndarray) -> tuple[list, int]:
    present = [c for c, m in zip(cells, missing) if not m]
    levels, counts = np.unique(np.array(present, dtype=object), return_counts=True)
    # ties on the count broken by lexicographic order (np.unique sorts levels)
    mode = levels[int(np.argmax(counts))]
    out = [mode if m else c for c, m in zip(cells, missing)]
    return out, int(missing.sum())


def scale_targets(ds: Dataset, rows: np.ndarray | None = None) -> Dataset:
    """Min-max scale regression-style targets to [0, 1].

    Scaling statistics come from ``rows`` (the training fold) and are applied
    to every instance; values outside the training range are clipped so the
    normalized-target invariant holds.  Constant columns map to all zeros.
    """
    if not ds.task.normalized_targets:
        return ds
    stats_rows = np.arange(ds.n) if rows is None else np.asarray(rows)
    ref = ds.targets[stats_rows]
    lo = ref.min(axis=0)
    hi = ref.max(axis=0)
    with np.errstate(over="ignore"):
        span = hi - lo
    scaled = np.zeros_like(ds.targets)
    # a finite range wider than the largest double is scaled by halves,
    # which are exact, so every range that does not overflow keeps its bytes
    wide = np.isinf(span) & np.isfinite(lo) & np.isfinite(hi)
    ok = (span > 0) & ~wide
    scaled[:, ok] = np.clip((ds.targets[:, ok] - lo[ok]) / span[ok], 0.0, 1.0)
    if wide.any():
        scaled[:, wide] = np.clip((ds.targets[:, wide] / 2 - lo[wide] / 2)
                                  / (hi[wide] / 2 - lo[wide] / 2), 0.0, 1.0)
    return replace(ds, targets=scaled)


def preprocess(
    raw: Dataset,
    col_drop_threshold: float = 0.30,
    row_drop_threshold: float = 0.30,
    scale: bool = True,
) -> Dataset:
    """Drop mostly-missing rows/columns, impute, one-hot encode, scale targets.

    Columns whose missing fraction exceeds ``col_drop_threshold`` are removed
    first; then rows whose missing fraction (over the surviving columns)
    exceeds ``row_drop_threshold``.  Remaining gaps are imputed with the
    column median (numeric) or mode (categorical).  Rows with missing target
    values are always dropped.  An infinite target in any row, or an infinite
    numeric covariate in a kept row and column, raises a DataError.  The
    result is idempotent under a second call.
    """
    if not 0 < col_drop_threshold <= 1 or not 0 < row_drop_threshold <= 1:
        raise ValueError("drop thresholds must lie in (0, 1]")

    n, p = raw.covariates.shape
    is_cat = [name in raw.categorical for name in raw.covariate_names]
    cols = [raw.covariates[:, j] for j in range(p)]
    missing = [_missing_mask(col, is_cat[j]) for j, col in enumerate(cols)]

    keep_rows = ~np.isnan(raw.targets).any(axis=1)
    dropped_targets = int(n - keep_rows.sum())
    infinite = np.argwhere(np.isinf(raw.targets))
    if infinite.size:
        row, j = (int(v) for v in infinite[0])
        raise DataError(f"target {raw.target_names[j]!r} is infinite in row {row}"
                        " (0-based data row); infinite targets are not supported")
    if not keep_rows.any():
        raise EmptyDataError("every row is missing a target value")

    keep_cols = [j for j in range(p) if missing[j][keep_rows].mean() <= col_drop_threshold]
    if keep_rows.any() and keep_cols:
        miss_matrix = np.stack([missing[j] for j in keep_cols], axis=1)
        row_frac = miss_matrix.mean(axis=1)
        keep_rows &= row_frac <= row_drop_threshold
    if not keep_rows.any() or not keep_cols:
        raise EmptyDataError("preprocessing dropped every row or every column")

    row_idx = np.flatnonzero(keep_rows)
    imputed_cells = 0
    out_cols: list[np.ndarray] = []
    out_names: list[str] = []
    for j in keep_cols:
        name = raw.covariate_names[j]
        col = cols[j][row_idx]
        miss = missing[j][row_idx]
        if is_cat[j]:
            values, count = _impute_mode(list(col), miss)
            imputed_cells += count
            levels = sorted(set(values))
            for level in levels:
                out_cols.append(np.array([1.0 if v == level else 0.0 for v in values]))
                out_names.append(f"{name}={level}")
        else:
            values = col.astype(np.float64)
            infinite = np.flatnonzero(np.isinf(values))
            if infinite.size:
                row = int(row_idx[infinite[0]])
                raise DataError(f"covariate {name!r} is infinite in row {row}"
                                " (0-based data row); infinite covariates are not supported")
            values, count = _impute_numeric(values, miss)
            imputed_cells += count
            out_cols.append(values)
            out_names.append(name)

    if dropped_targets or len(keep_cols) < p or len(row_idx) < n or imputed_cells:
        log.info(
            "preprocess: kept %d/%d rows and %d/%d columns, imputed %d cells"
            " (%d rows dropped for missing targets)",
            len(row_idx), n, len(keep_cols), p, imputed_cells, dropped_targets,
        )

    covariates = np.column_stack(out_cols)
    ds = Dataset(
        task=raw.task,
        covariates=covariates,
        covariate_names=tuple(out_names),
        targets=raw.targets[row_idx].copy(),
        target_names=raw.target_names,
        categorical=frozenset(),
        preprocessed=True,
    )
    if scale:
        ds = scale_targets(ds)
    return ds
