"""Benchmark harness: task metrics, tree-based baselines and the 5-fold
evaluation protocol (performance, explanation complexity, rule
dissimilarity), with deterministic TSV/JSON report output.

The per-instance baselines are paired: the K-tree Small RF and the K best
out-of-bag trees both reuse the cluster count chosen by the weighted
pipeline for the same instance, and every method sees the same capped test
subset.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .data import Dataset, FoldPlan, kfold, scale_targets
from .errors import UndefinedMetricError
from .explain import (
    MODE_SIMPLE,
    MODE_WEIGHTED,
    AblationFlags,
    TuningGrid,
    derive_seed,
    explain_batch,
    path_vectors,
)
from .forest import (
    Forest,
    ForestParams,
    fit_forests,
    forest_predict_batch,
    leaf_mean,
    oob_errors,
    route,
    route_batch,
)
from .metrics import dissimilarity, performance_metric

log = logging.getLogger(__name__)

METHOD_RF = "rf"
METHOD_BTX_WEIGHTED = "bellatrex-weighted"
METHOD_BTX_SIMPLE = "bellatrex-simple"
METHOD_DT = "dt"
METHOD_SMALL_RF = "small-rf"
METHOD_OOB_TREES = "oob-trees"

_MODE_IDS = {MODE_WEIGHTED: 0, MODE_SIMPLE: 1}  # seed part of each mode's explanations

ABLATION_ARMS: tuple[tuple[str, AblationFlags], ...] = (
    ("full", AblationFlags(False, False)),
    ("no-preselect", AblationFlags(True, False)),
    ("no-pca", AblationFlags(False, True)),
    ("neither", AblationFlags(True, True)),
)


@dataclass(frozen=True)
class BenchmarkConfig:
    folds: int = 5
    params: ForestParams = field(default_factory=ForestParams)
    grid: TuningGrid = field(default_factory=TuningGrid)
    max_test: int = 100  # 0: every test row of a fold
    seed: int = 0
    modes: tuple[str, ...] = (MODE_WEIGHTED, MODE_SIMPLE)

    def __post_init__(self) -> None:
        if self.max_test < 0:
            raise ValueError("max_test must be non-negative (0 keeps every test row)")
        if not self.modes:
            raise ValueError("modes must name at least one vectorization mode")
        for mode in self.modes:
            if mode not in _MODE_IDS:
                raise ValueError(f"unknown vectorization mode {mode!r}")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError("modes must not repeat")


@dataclass
class MetricReport:
    dataset: str
    method: str
    performance: float | None
    complexity: float | None
    dissimilarity: float | None
    mean_rules: float | None
    folds: int


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

def baseline_oob_trees(forest: Forest, oob_errs: np.ndarray, x: np.ndarray,
                       n_rules: int) -> np.ndarray:
    """Mean prediction of the ``n_rules`` trees with the smallest OOB error
    (error ties keep tree order)."""
    if n_rules < 1:
        raise ValueError("need at least one tree")
    chosen = np.argsort(oob_errs, kind="stable")[:n_rules]
    return np.mean(forest.arena.node_pred[route(forest, x)[-1, chosen]], axis=0)


def _paths_outcome(forest: Forest, paths: np.ndarray, mode: str) -> tuple[float, float | None]:
    """(complexity, dissimilarity) of the rules whose paths are the rows of
    ``paths`` (arena node ids, see ``path_vectors``): the number of split
    nodes on all of them, and the dissimilarity of their rule vectors in
    ``mode`` (None for a single rule)."""
    complexity = float(np.count_nonzero(forest.arena.is_split[paths]))
    if paths.shape[0] < 2:
        return complexity, None
    return complexity, dissimilarity(path_vectors(forest.arena, paths, mode, forest.p))


# ---------------------------------------------------------------------------
# Fold evaluation
# ---------------------------------------------------------------------------

def _capped_test(test_idx: np.ndarray, max_test: int, seed: int) -> np.ndarray:
    if max_test and test_idx.size > max_test:
        rng = np.random.default_rng(seed)
        return np.sort(rng.permutation(test_idx)[:max_test])
    return test_idx


def _fold_performance(task, preds, test, dataset, method, fold):
    try:
        return performance_metric(task, preds, test)
    except UndefinedMetricError as exc:
        log.warning("%s/%s fold %d: performance undefined (%s), fold skipped",
                    dataset, method, fold, exc)
        return None


def _mean_or_none(values: list) -> float | None:
    vals = [v for v in values if v is not None]
    return float(np.mean(vals)) if vals else None


@dataclass
class _FoldOutcome:
    method: str
    performance: float | None
    complexity: float | None = None
    dissim: float | None = None
    mean_rules: float | None = None


def _fold_setup(ds: Dataset, config: BenchmarkConfig, fold: int, plan,
                baselines: Sequence[ForestParams] = ()
                ) -> tuple[Dataset, Dataset, np.ndarray, list[Forest]]:
    """(train, test, test_idx, forests) of one fold: targets scaled on the
    training rows where the task wants it, the test rows capped at
    ``config.max_test`` (``test_idx`` holds their dataset rows), and the
    fold's forest followed by a forest for each of the ``baselines``
    parameter sets, all grown in one pool (``fit_forests``)."""
    train_idx, test_idx = plan.split(fold)
    ds_f = scale_targets(ds, train_idx) if ds.task.normalized_targets else ds
    train = ds_f.subset(train_idx)
    test_idx = _capped_test(test_idx, config.max_test, derive_seed(config.seed, 202, fold))
    params = replace(config.params, seed=derive_seed(config.seed, 101, fold))
    forests = fit_forests(train, [params, *baselines])
    return train, ds_f.subset(test_idx), test_idx, forests


def _small_rf_params(config: BenchmarkConfig, fold: int, k: int) -> ForestParams:
    return replace(config.params, n_trees=k, seed=derive_seed(config.seed, 404, fold, k))


def _evaluate_fold(ds: Dataset, name: str, config: BenchmarkConfig, fold: int,
                   plan) -> list[_FoldOutcome]:
    # the decision tree and a Small RF for every K of the grid grow in the
    # fold forest's pool; a chosen K outside the grid (a clamped one) is
    # fitted when it is needed
    grid_ks = sorted(set(config.grid.ks))
    dt_params = replace(config.params, n_trees=1, bootstrap=False, mtry=ds.p,
                        seed=derive_seed(config.seed, 505, fold))
    train, test, test_idx, (forest, dt, *smalls) = _fold_setup(
        ds, config, fold, plan, [dt_params] + [_small_rf_params(config, fold, k) for k in grid_ks])
    small_cache = dict(zip(grid_ks, smalls))
    X_test = test.covariates

    # X_test is routed once through the fold forest and once through each
    # needed Small RF; every baseline below is a gather from those routes
    levels = route_batch(forest, X_test)  # (depth + 1, rows, trees)
    outcomes: list[_FoldOutcome] = []
    rf_preds = leaf_mean(forest, levels[-1])
    outcomes.append(_FoldOutcome(
        METHOD_RF,
        _fold_performance(ds.task, rf_preds, test, name, METHOD_RF, fold),
    ))

    # every mode's explanations in one batch, mode after mode
    m = test_idx.size
    explained = explain_batch(
        forest, np.tile(X_test, (len(config.modes), 1)), config.grid,
        [mode for mode in config.modes for _ in range(m)], AblationFlags(),
        [derive_seed(config.seed, 303, fold, int(test_idx[i]), _MODE_IDS[mode])
         for mode in config.modes for i in range(m)])
    explanations = {mode: explained[j * m:(j + 1) * m] for j, mode in enumerate(config.modes)}

    for mode, method in ((MODE_WEIGHTED, METHOD_BTX_WEIGHTED),
                         (MODE_SIMPLE, METHOD_BTX_SIMPLE)):
        if mode not in explanations:
            continue
        expl = explanations[mode]
        preds = np.vstack([e.surrogate for e in expl])
        rule_paths = [levels[:, i, [r.tree_index for r in e.final_rules]].T
                      for i, e in enumerate(expl)]
        rule_outcomes = [_paths_outcome(forest, paths, mode) for paths in rule_paths]
        outcomes.append(_FoldOutcome(
            method,
            _fold_performance(ds.task, preds, test, name, method, fold),
            complexity=_mean_or_none([c for c, _ in rule_outcomes]),
            dissim=_mean_or_none([d for _, d in rule_outcomes]),
            mean_rules=float(np.mean([e.chosen_k for e in expl])),
        ))

    # paired baselines reuse the weighted pipeline's per-instance rule counts
    pairing_mode = MODE_WEIGHTED if MODE_WEIGHTED in explanations else config.modes[0]
    ks = [e.chosen_k for e in explanations[pairing_mode]]

    clamped = sorted(set(ks) - set(small_cache))
    if clamped:
        small_cache.update(zip(clamped, fit_forests(
            train, [_small_rf_params(config, fold, k) for k in clamped])))
    small_levels = {k: route_batch(small_cache[k], X_test) for k in sorted(set(ks))}
    small_means = {k: leaf_mean(small_cache[k], small_levels[k][-1]) for k in small_levels}
    small_outcomes = [_paths_outcome(small_cache[ks[i]], small_levels[ks[i]][:, i].T,
                                     MODE_WEIGHTED) for i in range(m)]
    outcomes.append(_FoldOutcome(
        METHOD_SMALL_RF,
        _fold_performance(ds.task, np.vstack([small_means[ks[i]][i] for i in range(m)]),
                          test, name, METHOD_SMALL_RF, fold),
        complexity=_mean_or_none([c for c, _ in small_outcomes]),
        dissim=_mean_or_none([d for _, d in small_outcomes]),
        mean_rules=float(np.mean(ks)),
    ))

    err_order = np.argsort(oob_errors(forest, train), kind="stable")
    oob_preds = []
    oob_outcomes = []
    for i in range(m):
        chosen = err_order[: ks[i]]
        oob_preds.append(np.mean(forest.arena.node_pred[levels[-1, i, chosen]], axis=0))
        oob_outcomes.append(_paths_outcome(forest, levels[:, i, chosen].T, MODE_WEIGHTED))
    outcomes.append(_FoldOutcome(
        METHOD_OOB_TREES,
        _fold_performance(ds.task, np.vstack(oob_preds), test, name, METHOD_OOB_TREES, fold),
        complexity=_mean_or_none([c for c, _ in oob_outcomes]),
        dissim=_mean_or_none([d for _, d in oob_outcomes]),
        mean_rules=float(np.mean(ks)),
    ))

    dt_preds = forest_predict_batch(dt, X_test)
    outcomes.append(_FoldOutcome(
        METHOD_DT,
        _fold_performance(ds.task, dt_preds, test, name, METHOD_DT, fold),
    ))

    return outcomes


def _run_folds(dataset: Dataset, config: BenchmarkConfig,
               fold_rows: Callable[[int, FoldPlan], list[dict]]) -> list[dict]:
    """Every fold's ``fold_rows(fold, plan)``, in fold order.  The dataset
    and the grid are checked before any forest grows."""
    if not dataset.preprocessed:
        raise ValueError("run_benchmark and run_ablation expect a preprocessed Dataset")
    config.grid.validate(config.params.n_trees)
    plan = kfold(dataset.n, config.folds, config.seed)
    return [row for fold in range(config.folds) for row in fold_rows(fold, plan)]


def _key_means(rows: list[dict], key: str,
               columns: Sequence[str]) -> dict[str, dict[str, float | None]]:
    """Per value of ``rows``' ``key`` column, in first-seen order: the mean
    of each of ``columns`` over that value's rows, None values skipped."""
    groups: dict[str, list[dict]] = {}
    for row in rows:
        groups.setdefault(row[key], []).append(row)
    return {k: {col: _mean_or_none([r[col] for r in group]) for col in columns}
            for k, group in groups.items()}


def run_benchmark(dataset: Dataset, name: str,
                  config: BenchmarkConfig) -> tuple[list[dict], list[MetricReport]]:
    """5-fold evaluation of {RF, weighted/simple surrogate, DT, Small RF,
    OOB Trees}; returns per-fold rows and per-method aggregate reports."""
    def fold_rows(fold: int, plan: FoldPlan) -> list[dict]:
        return [{
            "dataset": name, "fold": fold, "method": o.method,
            "performance": o.performance, "complexity": o.complexity,
            "dissimilarity": o.dissim, "mean_rules": o.mean_rules,
        } for o in _evaluate_fold(dataset, name, config, fold, plan)]

    rows = _run_folds(dataset, config, fold_rows)
    return rows, [MetricReport(dataset=name, method=method, folds=config.folds, **means)
                  for method, means in _key_means(rows, "method", _METRICS).items()]


def aggregate_reports(reports: list[MetricReport]) -> list[MetricReport]:
    """Unweighted mean across datasets, one 'average' row per method."""
    return [MetricReport(dataset="average", method=method,
                         folds=max(r.folds for r in reports if r.method == method), **means)
            for method, means in _key_means([vars(r) for r in reports], "method",
                                            _METRICS).items()]


# ---------------------------------------------------------------------------
# Ablation
# ---------------------------------------------------------------------------

def run_ablation(dataset: Dataset, name: str, config: BenchmarkConfig) -> list[dict]:
    """Four-arm study {full, no-preselect, no-pca, neither} of the weighted
    pipeline; per (arm, fold) surrogate performance plus aggregate rows."""
    def fold_rows(fold: int, plan: FoldPlan) -> list[dict]:
        _, test, test_idx, (forest,) = _fold_setup(dataset, config, fold, plan)
        m = test_idx.size
        # every arm's explanations in one batch, arm after arm
        explained = explain_batch(
            forest, np.tile(test.covariates, (len(ABLATION_ARMS), 1)), config.grid,
            MODE_WEIGHTED, [flags for _, flags in ABLATION_ARMS for _ in range(m)],
            [derive_seed(config.seed, 606, fold, int(test_idx[i]), arm_index)
             for arm_index in range(len(ABLATION_ARMS)) for i in range(m)])
        rows = []
        for arm_index, (arm, _) in enumerate(ABLATION_ARMS):
            expl = explained[arm_index * m:(arm_index + 1) * m]
            preds = np.vstack([e.surrogate for e in expl])
            rows.append({
                "dataset": name, "fold": fold, "arm": arm,
                "performance": _fold_performance(dataset.task, preds, test, name, arm, fold),
                "mean_chosen_d": float(np.mean([e.chosen_d for e in expl])),
                "mean_rules": float(np.mean([e.chosen_k for e in expl])),
            })
        return rows

    rows = _run_folds(dataset, config, fold_rows)
    return rows + [{"dataset": name, "fold": "average", "arm": arm, **means}
                   for arm, means in _key_means(rows, "arm", _ABLATION_METRICS).items()]


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def rows_to_tsv(rows: list[dict], columns: list[str]) -> str:
    lines = ["\t".join(columns)]
    for row in rows:
        lines.append("\t".join(_fmt_cell(row.get(col)) for col in columns))
    return "\n".join(lines) + "\n"


# the averaged columns: _METRICS are MetricReport's fields
_METRICS = ("performance", "complexity", "dissimilarity", "mean_rules")
_ABLATION_METRICS = ("performance", "mean_chosen_d", "mean_rules")
BENCH_COLUMNS = ["dataset", "fold", "method", *_METRICS]
ABLATION_COLUMNS = ["dataset", "fold", "arm", *_ABLATION_METRICS]


def benchmark_tsv(fold_rows: list[dict], reports: list[MetricReport]) -> str:
    rows = list(fold_rows)
    for rep in reports:
        rows.append({
            "dataset": rep.dataset, "fold": "average", "method": rep.method,
            "performance": rep.performance, "complexity": rep.complexity,
            "dissimilarity": rep.dissimilarity, "mean_rules": rep.mean_rules,
        })
    return rows_to_tsv(rows, BENCH_COLUMNS)


def benchmark_json(fold_rows: list[dict], reports: list[MetricReport]) -> dict:
    return {
        "folds": fold_rows,
        "aggregates": [vars(rep) for rep in reports],
    }
