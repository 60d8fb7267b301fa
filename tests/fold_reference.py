"""The evaluation loop one instance and one forest at a time: every fold
fits its forest, then its decision tree and each needed Small RF with their
own ``fit_forest`` calls, explains each test instance with its own
``tune_and_explain`` call, and reads every prediction, path and rule vector
of the forests and baselines from per-tree walks (``node_path``,
``tree_predict``).  ``run_benchmark`` and ``run_ablation`` pool the fold's
fits, explain a fold in batches and gather the baselines from routed level
matrices; their reports must equal these."""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from bellatrex._parallel import parallel_map
from bellatrex.data import kfold, scale_targets
from bellatrex.errors import UndefinedMetricError
from bellatrex.evaluation import (
    ABLATION_ARMS,
    METHOD_BTX_SIMPLE,
    METHOD_BTX_WEIGHTED,
    METHOD_DT,
    METHOD_OOB_TREES,
    METHOD_RF,
    METHOD_SMALL_RF,
    MetricReport,
    _capped_test,
    _fold_performance,
    _FoldOutcome,
    _mean_or_none,
)
from bellatrex.explain import (
    MODE_SIMPLE,
    MODE_WEIGHTED,
    _count_vectors,
    derive_seed,
    tune_and_explain,
)
from bellatrex.forest import fit_forest, forest_predict, node_path, tree_predict
from bellatrex.metrics import dissimilarity, higher_is_better, performance_metric


def rule_vectors(trees, paths, mode: str, p: int) -> np.ndarray:
    """(len(paths), p) matrix whose row i is the rule vector of node path
    ``paths[i]`` through ``trees[i]``: per-covariate split counts (simple)
    or sums of split-node sample fractions (weighted)."""
    splits = [path[:-1] for path in paths]
    rows = np.repeat(np.arange(len(paths)), [len(s) for s in splits])
    features = np.concatenate([tree.feature[s] for tree, s in zip(trees, splits)])
    fractions = np.concatenate([tree.sample_fraction[s] for tree, s in zip(trees, splits)])
    return _count_vectors(rows, features, fractions, len(paths), mode, p)


def _weighted_vectors(forest, tree_indices, x):
    trees = [forest.trees[int(i)] for i in tree_indices]
    return rule_vectors(trees, [node_path(tree, x) for tree in trees], MODE_WEIGHTED, forest.p)


def _final_rule_vectors(forest, explanation):
    rules = explanation.final_rules
    return rule_vectors([forest.trees[r.tree_index] for r in rules],
                        [[step.node_id for step in r.steps] for r in rules],
                        explanation.mode, forest.p)


def _paths_complexity(forest, tree_indices, x):
    return sum(len(node_path(forest.trees[int(i)], x)) - 1 for i in tree_indices)


def _predict_rows(forest, X):
    return np.vstack([forest_predict(forest, x) for x in X])


def oob_errors(forest, train):
    """Each tree's error on its out-of-bag rows, one row at a time."""
    errors = np.ones(forest.n_trees)
    for i, tree in enumerate(forest.trees):
        rows = tree.oob_indices
        if rows.size == 0:
            continue
        preds = np.vstack([tree_predict(tree, train.covariates[r]) for r in rows])
        try:
            metric = performance_metric(forest.task, preds, train.subset(rows))
        except UndefinedMetricError:
            continue
        errors[i] = 1.0 - metric if higher_is_better(forest.task) else metric
    return errors


def _fold_setup(ds, config, fold, plan):
    train_idx, test_idx = plan.split(fold)
    ds_f = scale_targets(ds, train_idx) if ds.task.normalized_targets else ds
    train = ds_f.subset(train_idx)
    test_idx = _capped_test(test_idx, config.max_test, derive_seed(config.seed, 202, fold))
    forest = fit_forest(train, replace(config.params, seed=derive_seed(config.seed, 101, fold)))
    return train, ds_f.subset(test_idx), test_idx, forest


def _evaluate_fold(ds, name, config, fold, plan):
    train, test, test_idx, forest = _fold_setup(ds, config, fold, plan)
    X_test = test.covariates
    outcomes = [_FoldOutcome(METHOD_RF, _fold_performance(
        ds.task, _predict_rows(forest, X_test), test, name, METHOD_RF, fold))]

    explanations = {}
    for mode in config.modes:
        mode_id = 0 if mode == MODE_WEIGHTED else 1

        def explain_one(i):
            return tune_and_explain(
                forest, X_test[i], config.grid, mode,
                seed=derive_seed(config.seed, 303, fold, int(test_idx[i]), mode_id))

        explanations[mode] = parallel_map(explain_one, range(test_idx.size))

    for mode, method in ((MODE_WEIGHTED, METHOD_BTX_WEIGHTED), (MODE_SIMPLE, METHOD_BTX_SIMPLE)):
        if mode not in explanations:
            continue
        expl = explanations[mode]
        outcomes.append(_FoldOutcome(
            method,
            _fold_performance(ds.task, np.vstack([e.surrogate for e in expl]), test, name,
                              method, fold),
            complexity=_mean_or_none([float(sum(e.rule_lengths)) for e in expl]),
            dissim=_mean_or_none([dissimilarity(_final_rule_vectors(forest, e))
                                  for e in expl if e.chosen_k >= 2]),
            mean_rules=float(np.mean([e.chosen_k for e in expl])),
        ))

    pairing_mode = MODE_WEIGHTED if MODE_WEIGHTED in explanations else config.modes[0]
    ks = [e.chosen_k for e in explanations[pairing_mode]]
    small_cache = {k: fit_forest(train, replace(config.params, n_trees=k,
                                                seed=derive_seed(config.seed, 404, fold, k)))
                   for k in sorted(set(ks))}
    small_preds, small_complexity, small_dissim = [], [], []
    for i in range(test_idx.size):
        small = small_cache[ks[i]]
        small_preds.append(forest_predict(small, X_test[i]))
        small_complexity.append(float(_paths_complexity(small, range(small.n_trees), X_test[i])))
        if ks[i] >= 2:
            small_dissim.append(dissimilarity(_weighted_vectors(small, range(small.n_trees),
                                                                X_test[i])))
    outcomes.append(_FoldOutcome(
        METHOD_SMALL_RF,
        _fold_performance(ds.task, np.vstack(small_preds), test, name, METHOD_SMALL_RF, fold),
        complexity=_mean_or_none(small_complexity), dissim=_mean_or_none(small_dissim),
        mean_rules=float(np.mean(ks))))

    err_order = np.argsort(oob_errors(forest, train), kind="stable")
    oob_preds, oob_complexity, oob_dissim = [], [], []
    for i in range(test_idx.size):
        chosen = err_order[:ks[i]]
        oob_preds.append(np.mean([tree_predict(forest.trees[int(t)], X_test[i]) for t in chosen],
                                 axis=0))
        oob_complexity.append(float(_paths_complexity(forest, chosen, X_test[i])))
        if ks[i] >= 2:
            oob_dissim.append(dissimilarity(_weighted_vectors(forest, chosen, X_test[i])))
    outcomes.append(_FoldOutcome(
        METHOD_OOB_TREES,
        _fold_performance(ds.task, np.vstack(oob_preds), test, name, METHOD_OOB_TREES, fold),
        complexity=_mean_or_none(oob_complexity), dissim=_mean_or_none(oob_dissim),
        mean_rules=float(np.mean(ks))))

    dt = fit_forest(train, replace(config.params, n_trees=1, bootstrap=False, mtry=train.p,
                                   seed=derive_seed(config.seed, 505, fold)))
    outcomes.append(_FoldOutcome(METHOD_DT, _fold_performance(
        ds.task, _predict_rows(dt, X_test), test, name, METHOD_DT, fold)))
    return outcomes


def run_benchmark(dataset, name, config):
    plan = kfold(dataset.n, config.folds, config.seed)
    fold_rows, per_method = [], {}
    for fold in range(config.folds):
        for outcome in _evaluate_fold(dataset, name, config, fold, plan):
            fold_rows.append({
                "dataset": name, "fold": fold, "method": outcome.method,
                "performance": outcome.performance, "complexity": outcome.complexity,
                "dissimilarity": outcome.dissim, "mean_rules": outcome.mean_rules,
            })
            per_method.setdefault(outcome.method, []).append(outcome)
    reports = [MetricReport(
        dataset=name, method=method,
        performance=_mean_or_none([o.performance for o in outcomes]),
        complexity=_mean_or_none([o.complexity for o in outcomes]),
        dissimilarity=_mean_or_none([o.dissim for o in outcomes]),
        mean_rules=_mean_or_none([o.mean_rules for o in outcomes]),
        folds=config.folds,
    ) for method, outcomes in per_method.items()]
    return fold_rows, reports


def run_ablation(dataset, name, config):
    plan = kfold(dataset.n, config.folds, config.seed)
    rows = []
    arm_perf = {arm: [] for arm, _ in ABLATION_ARMS}
    arm_d = {arm: [] for arm, _ in ABLATION_ARMS}
    arm_k = {arm: [] for arm, _ in ABLATION_ARMS}
    for fold in range(config.folds):
        _, test, test_idx, forest = _fold_setup(dataset, config, fold, plan)
        X_test = test.covariates
        for arm_index, (arm, flags) in enumerate(ABLATION_ARMS):

            def explain_one(i):
                return tune_and_explain(
                    forest, X_test[i], config.grid, MODE_WEIGHTED, flags=flags,
                    seed=derive_seed(config.seed, 606, fold, int(test_idx[i]), arm_index))

            expl = parallel_map(explain_one, range(test_idx.size))
            perf = _fold_performance(dataset.task, np.vstack([e.surrogate for e in expl]), test,
                                     name, arm, fold)
            mean_d = float(np.mean([e.chosen_d for e in expl]))
            mean_k = float(np.mean([e.chosen_k for e in expl]))
            rows.append({"dataset": name, "fold": fold, "arm": arm, "performance": perf,
                         "mean_chosen_d": mean_d, "mean_rules": mean_k})
            arm_perf[arm].append(perf)
            arm_d[arm].append(mean_d)
            arm_k[arm].append(mean_k)
    for arm, _ in ABLATION_ARMS:
        rows.append({"dataset": name, "fold": "average", "arm": arm,
                     "performance": _mean_or_none(arm_perf[arm]),
                     "mean_chosen_d": _mean_or_none(arm_d[arm]),
                     "mean_rules": _mean_or_none(arm_k[arm])})
    return rows
