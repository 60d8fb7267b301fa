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

import numpy as np

from ._parallel import parallel_map
from .data import Dataset, TaskKind, kfold, scale_targets
from .errors import UndefinedMetricError
from .explain import (
    MODE_SIMPLE,
    MODE_WEIGHTED,
    AblationFlags,
    Explanation,
    TuningGrid,
    derive_seed,
    rule_vectors,
    tune_and_explain,
)
from .forest import (
    Forest,
    ForestParams,
    fit_forest,
    forest_predict,
    forest_predict_batch,
    node_path,
    oob_errors,
    tree_predict,
)
from .metrics import auroc, dissimilarity, mae, weighted_auroc
from .survival import concordance_index

log = logging.getLogger(__name__)

METHOD_RF = "rf"
METHOD_BTX_WEIGHTED = "bellatrex-weighted"
METHOD_BTX_SIMPLE = "bellatrex-simple"
METHOD_DT = "dt"
METHOD_SMALL_RF = "small-rf"
METHOD_OOB_TREES = "oob-trees"

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
    max_test: int = 100
    seed: int = 0
    modes: tuple[str, ...] = (MODE_WEIGHTED, MODE_SIMPLE)


@dataclass
class MetricReport:
    dataset: str
    method: str
    performance: float | None
    complexity: float | None
    dissimilarity: float | None
    mean_rules: float | None
    folds: int


def performance_metric(task: TaskKind, preds: np.ndarray, test: Dataset) -> float:
    """Task metric: AUROC, weighted AUROC, MAE or C-index."""
    if task is TaskKind.BINARY:
        return auroc(preds[:, 0], test.targets[:, 0])
    if task is TaskKind.REGRESSION:
        return mae(preds[:, 0], test.targets[:, 0])
    if task is TaskKind.MULTI_TARGET:
        return mae(preds, test.targets)
    if task is TaskKind.MULTI_LABEL:
        return weighted_auroc(preds, test.targets)
    if task is TaskKind.SURVIVAL:
        return concordance_index(preds[:, 0], test.times, test.events)
    raise AssertionError(task)


def higher_is_better(task: TaskKind) -> bool:
    return task not in (TaskKind.REGRESSION, TaskKind.MULTI_TARGET)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

def baseline_small_rf(train: Dataset, x: np.ndarray, n_rules: int,
                      params: ForestParams) -> np.ndarray:
    """Prediction of a freshly trained forest with only ``n_rules`` trees."""
    small = fit_forest(train, replace(params, n_trees=n_rules))
    return forest_predict(small, x)


def baseline_oob_trees(forest: Forest, oob_errs: np.ndarray, x: np.ndarray,
                       n_rules: int) -> np.ndarray:
    """Mean prediction of the ``n_rules`` trees with the smallest OOB error
    (error ties keep tree order)."""
    if n_rules < 1:
        raise ValueError("need at least one tree")
    chosen = np.argsort(oob_errs, kind="stable")[:n_rules]
    return np.mean([tree_predict(forest.trees[int(i)], x) for i in chosen], axis=0)


def _weighted_vectors(forest: Forest, tree_indices, x: np.ndarray) -> np.ndarray:
    trees = [forest.trees[int(i)] for i in tree_indices]
    return rule_vectors(trees, [node_path(tree, x) for tree in trees], MODE_WEIGHTED, forest.p)


def _final_rule_vectors(forest: Forest, explanation: Explanation) -> np.ndarray:
    rules = explanation.final_rules
    return rule_vectors([forest.trees[r.tree_index] for r in rules],
                        [[step.node_id for step in r.steps] for r in rules],
                        explanation.mode, forest.p)


def _paths_complexity(forest: Forest, tree_indices, x: np.ndarray) -> int:
    return sum(len(node_path(forest.trees[int(i)], x)) - 1 for i in tree_indices)


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


def _fold_setup(ds: Dataset, config: BenchmarkConfig, fold: int,
                plan) -> tuple[Dataset, Dataset, np.ndarray, Forest]:
    """(train, test, test_idx, forest) of one fold: targets scaled on the
    training rows where the task wants it, the test rows capped at
    ``config.max_test`` (``test_idx`` holds their dataset rows), and the
    fold's forest."""
    train_idx, test_idx = plan.split(fold)
    ds_f = scale_targets(ds, train_idx) if ds.task.normalized_targets else ds
    train = ds_f.subset(train_idx)
    test_idx = _capped_test(test_idx, config.max_test, derive_seed(config.seed, 202, fold))
    forest = fit_forest(train, replace(config.params, seed=derive_seed(config.seed, 101, fold)))
    return train, ds_f.subset(test_idx), test_idx, forest


def _evaluate_fold(ds: Dataset, name: str, config: BenchmarkConfig, fold: int,
                   plan) -> list[_FoldOutcome]:
    train, test, test_idx, forest = _fold_setup(ds, config, fold, plan)
    X_test = test.covariates

    outcomes: list[_FoldOutcome] = []
    rf_preds = forest_predict_batch(forest, X_test)
    outcomes.append(_FoldOutcome(
        METHOD_RF,
        _fold_performance(ds.task, rf_preds, test, name, METHOD_RF, fold),
    ))

    explanations: dict[str, list[Explanation]] = {}
    for mode in config.modes:
        mode_id = 0 if mode == MODE_WEIGHTED else 1

        def explain_one(i: int) -> Explanation:
            return tune_and_explain(
                forest, X_test[i], config.grid, mode,
                seed=derive_seed(config.seed, 303, fold, int(test_idx[i]), mode_id),
            )

        explanations[mode] = parallel_map(explain_one, range(test_idx.size))

    for mode, method in ((MODE_WEIGHTED, METHOD_BTX_WEIGHTED),
                         (MODE_SIMPLE, METHOD_BTX_SIMPLE)):
        if mode not in explanations:
            continue
        expl = explanations[mode]
        preds = np.vstack([e.surrogate for e in expl])
        perf = _fold_performance(ds.task, preds, test, name, method, fold)
        complexity_vals = [float(sum(e.rule_lengths)) for e in expl]
        dissim_vals = [dissimilarity(_final_rule_vectors(forest, e))
                       for e in expl if e.chosen_k >= 2]
        outcomes.append(_FoldOutcome(
            method,
            perf,
            complexity=_mean_or_none(complexity_vals),
            dissim=_mean_or_none(dissim_vals),
            mean_rules=float(np.mean([e.chosen_k for e in expl])),
        ))

    # paired baselines reuse the weighted pipeline's per-instance rule counts
    pairing_mode = MODE_WEIGHTED if MODE_WEIGHTED in explanations else config.modes[0]
    ks = [e.chosen_k for e in explanations[pairing_mode]]

    small_cache: dict[int, Forest] = {}
    for k in sorted(set(ks)):
        small_cache[k] = fit_forest(
            train, replace(config.params, n_trees=k,
                           seed=derive_seed(config.seed, 404, fold, k)),
        )
    small_preds = np.vstack([
        forest_predict(small_cache[ks[i]], X_test[i]) for i in range(test_idx.size)
    ])
    small_complexity = []
    small_dissim = []
    for i in range(test_idx.size):
        small = small_cache[ks[i]]
        indices = range(small.n_trees)
        small_complexity.append(float(_paths_complexity(small, indices, X_test[i])))
        if ks[i] >= 2:
            small_dissim.append(dissimilarity(_weighted_vectors(small, indices, X_test[i])))
    outcomes.append(_FoldOutcome(
        METHOD_SMALL_RF,
        _fold_performance(ds.task, small_preds, test, name, METHOD_SMALL_RF, fold),
        complexity=_mean_or_none(small_complexity),
        dissim=_mean_or_none(small_dissim),
        mean_rules=float(np.mean(ks)),
    ))

    errs = oob_errors(forest, train)
    err_order = np.argsort(errs, kind="stable")
    oob_preds = []
    oob_complexity = []
    oob_dissim = []
    for i in range(test_idx.size):
        chosen = err_order[: ks[i]]
        oob_preds.append(np.mean(
            [tree_predict(forest.trees[int(t)], X_test[i]) for t in chosen], axis=0))
        oob_complexity.append(float(_paths_complexity(forest, chosen, X_test[i])))
        if ks[i] >= 2:
            oob_dissim.append(dissimilarity(_weighted_vectors(forest, chosen, X_test[i])))
    outcomes.append(_FoldOutcome(
        METHOD_OOB_TREES,
        _fold_performance(ds.task, np.vstack(oob_preds), test, name, METHOD_OOB_TREES, fold),
        complexity=_mean_or_none(oob_complexity),
        dissim=_mean_or_none(oob_dissim),
        mean_rules=float(np.mean(ks)),
    ))

    dt = fit_forest(train, replace(
        config.params, n_trees=1, bootstrap=False, mtry=train.p,
        seed=derive_seed(config.seed, 505, fold),
    ))
    dt_preds = forest_predict_batch(dt, X_test)
    outcomes.append(_FoldOutcome(
        METHOD_DT,
        _fold_performance(ds.task, dt_preds, test, name, METHOD_DT, fold),
    ))

    return outcomes


def run_benchmark(dataset: Dataset, name: str,
                  config: BenchmarkConfig) -> tuple[list[dict], list[MetricReport]]:
    """5-fold evaluation of {RF, weighted/simple surrogate, DT, Small RF,
    OOB Trees}; returns per-fold rows and per-method aggregate reports."""
    if not dataset.preprocessed:
        raise ValueError("run_benchmark expects a preprocessed Dataset")
    plan = kfold(dataset.n, config.folds, config.seed)
    fold_rows: list[dict] = []
    per_method: dict[str, list[_FoldOutcome]] = {}
    for fold in range(config.folds):
        for outcome in _evaluate_fold(dataset, name, config, fold, plan):
            fold_rows.append({
                "dataset": name,
                "fold": fold,
                "method": outcome.method,
                "performance": outcome.performance,
                "complexity": outcome.complexity,
                "dissimilarity": outcome.dissim,
                "mean_rules": outcome.mean_rules,
            })
            per_method.setdefault(outcome.method, []).append(outcome)

    reports = []
    for method, outcomes in per_method.items():
        reports.append(MetricReport(
            dataset=name,
            method=method,
            performance=_mean_or_none([o.performance for o in outcomes]),
            complexity=_mean_or_none([o.complexity for o in outcomes]),
            dissimilarity=_mean_or_none([o.dissim for o in outcomes]),
            mean_rules=_mean_or_none([o.mean_rules for o in outcomes]),
            folds=config.folds,
        ))
    return fold_rows, reports


def aggregate_reports(reports: list[MetricReport]) -> list[MetricReport]:
    """Unweighted mean across datasets, one 'average' row per method."""
    methods: dict[str, list[MetricReport]] = {}
    for rep in reports:
        methods.setdefault(rep.method, []).append(rep)
    out = []
    for method, reps in methods.items():
        out.append(MetricReport(
            dataset="average",
            method=method,
            performance=_mean_or_none([r.performance for r in reps]),
            complexity=_mean_or_none([r.complexity for r in reps]),
            dissimilarity=_mean_or_none([r.dissimilarity for r in reps]),
            mean_rules=_mean_or_none([r.mean_rules for r in reps]),
            folds=max(r.folds for r in reps),
        ))
    return out


# ---------------------------------------------------------------------------
# Ablation
# ---------------------------------------------------------------------------

def run_ablation(dataset: Dataset, name: str, config: BenchmarkConfig) -> list[dict]:
    """Four-arm study {full, no-preselect, no-pca, neither} of the weighted
    pipeline; per (arm, fold) surrogate performance plus aggregate rows."""
    if not dataset.preprocessed:
        raise ValueError("run_ablation expects a preprocessed Dataset")
    plan = kfold(dataset.n, config.folds, config.seed)
    rows: list[dict] = []
    arm_perf: dict[str, list[float | None]] = {arm: [] for arm, _ in ABLATION_ARMS}
    arm_d: dict[str, list[float]] = {arm: [] for arm, _ in ABLATION_ARMS}
    arm_k: dict[str, list[float]] = {arm: [] for arm, _ in ABLATION_ARMS}

    for fold in range(config.folds):
        _, test, test_idx, forest = _fold_setup(dataset, config, fold, plan)
        X_test = test.covariates

        for arm_index, (arm, flags) in enumerate(ABLATION_ARMS):

            def explain_one(i: int) -> Explanation:
                return tune_and_explain(
                    forest, X_test[i], config.grid, MODE_WEIGHTED, flags=flags,
                    seed=derive_seed(config.seed, 606, fold, int(test_idx[i]), arm_index),
                )

            expl = parallel_map(explain_one, range(test_idx.size))
            preds = np.vstack([e.surrogate for e in expl])
            perf = _fold_performance(dataset.task, preds, test, name, arm, fold)
            mean_d = float(np.mean([e.chosen_d for e in expl]))
            mean_k = float(np.mean([e.chosen_k for e in expl]))
            rows.append({
                "dataset": name, "fold": fold, "arm": arm,
                "performance": perf, "mean_chosen_d": mean_d, "mean_rules": mean_k,
            })
            arm_perf[arm].append(perf)
            arm_d[arm].append(mean_d)
            arm_k[arm].append(mean_k)

    for arm, _ in ABLATION_ARMS:
        rows.append({
            "dataset": name, "fold": "average", "arm": arm,
            "performance": _mean_or_none(arm_perf[arm]),
            "mean_chosen_d": _mean_or_none(arm_d[arm]),
            "mean_rules": _mean_or_none(arm_k[arm]),
        })
    return rows


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


BENCH_COLUMNS = ["dataset", "fold", "method", "performance", "complexity",
                 "dissimilarity", "mean_rules"]
ABLATION_COLUMNS = ["dataset", "fold", "arm", "performance", "mean_chosen_d",
                    "mean_rules"]


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
