import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellatrex.forest as forest_mod
from bellatrex.data import Dataset, TaskKind
from bellatrex.errors import DataError, ForestFileError
from bellatrex.forest import (
    _MIN_GAIN,
    ForestParams,
    _event_tables,
    _logrank_exact,
    _logrank_screen,
    _zero_variance_cuts,
    best_split,
    decision_path,
    fit_forest,
    fit_forests,
    forest_from_dict,
    forest_predict,
    forest_predict_batch,
    forest_to_dict,
    load_forest,
    node_path,
    oob_errors,
    path_length,
    route,
    route_batch,
    route_leaves,
    save_forest,
    tree_predict,
)
from bellatrex.survival import kaplan_meier, logrank_score, risk_score
from bellatrex.synthdata import (
    make_binary,
    make_multilabel,
    make_multitarget,
    make_regression,
    make_survival,
)

from conftest import leaf_tree, make_forest, make_tree
from fold_reference import oob_errors as reference_oob_errors


def dataset_from(X, y, task=TaskKind.BINARY, names=None):
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    return Dataset(
        task=task,
        covariates=X,
        covariate_names=names or tuple(f"x{j}" for j in range(X.shape[1])),
        targets=Y,
        target_names=tuple(f"y{j}" for j in range(Y.shape[1])),
        preprocessed=True,
    )


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

# Gini and variance gains are scored by the batched search; best_split
# reports a node's best gain (None where no cut gains).

def split_score(x, y, task=TaskKind.BINARY):
    X = np.asarray(x, dtype=np.float64)[:, None]
    Y = np.asarray(y, dtype=np.float64).reshape(X.shape[0], -1)
    found = best_split(X, Y, task, np.arange(X.shape[0]), np.array([0]))
    return None if found is None else found[2]


def test_gini_pure_zero():
    assert split_score([1.0, 2.0, 3.0], [1, 1, 1]) is None


def test_gini_balanced_half():
    assert split_score([1.0, 3.0, 2.0, 4.0], [0, 1, 0, 1]) == 0.5


def test_gini_quarter():
    assert split_score([4.0, 1.0, 2.0, 3.0], [1, 0, 0, 0]) == pytest.approx(2 * 0.25 * 0.75)


def test_variance_reduction_identical_halves_zero():
    parent = np.array([1.0, 2.0, 1.0, 2.0])
    assert split_score([1.0, 1.0, 2.0, 2.0], parent, TaskKind.REGRESSION) is None


def test_variance_reduction_perfect_split():
    parent = np.array([0.0, 0.0, 1.0, 1.0])
    red = split_score([1.0, 2.0, 3.0, 4.0], parent, TaskKind.REGRESSION)
    assert red == pytest.approx(0.25)


def test_variance_reduction_constant_target_halves_average():
    varying = np.array([0.0, 0.0, 1.0, 1.0])
    constant = np.full(4, 3.0)
    x = [1.0, 2.0, 3.0, 4.0]
    single = split_score(x, varying, TaskKind.REGRESSION)
    double = split_score(x, np.column_stack([varying, constant]), TaskKind.MULTI_TARGET)
    assert double == pytest.approx(single / 2)


def test_best_split_hand_case():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([[0.0], [0.0], [1.0], [1.0]])
    j, theta, score = best_split(X, y, TaskKind.BINARY, np.arange(4), np.array([0]))
    assert j == 0
    assert theta == pytest.approx(2.5)
    assert score == pytest.approx(0.5)  # parent gini 0.5, children pure


def test_best_split_constant_covariate_none():
    X = np.full((5, 1), 2.0)
    y = np.array([[0.0], [1.0], [0.0], [1.0], [0.0]])
    assert best_split(X, y, TaskKind.BINARY, np.arange(5), np.array([0])) is None


def test_best_split_duplicated_target_matches_single(rng):
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    single = best_split(X, y[:, None], TaskKind.REGRESSION, np.arange(40), np.arange(3))
    double = best_split(X, np.column_stack([y, y]), TaskKind.MULTI_TARGET,
                        np.arange(40), np.arange(3))
    assert single is not None and double is not None
    assert single[0] == double[0]
    assert single[1] == pytest.approx(double[1])
    assert single[2] == pytest.approx(double[2])


def test_best_split_tie_breaks_lowest_feature():
    # two identical covariates: both give the same gain, pick index 0
    col = np.array([1.0, 2.0, 3.0, 4.0])
    X = np.column_stack([col, col])
    y = np.array([[0.0], [0.0], [1.0], [1.0]])
    j, theta, _ = best_split(X, y, TaskKind.BINARY, np.arange(4), np.array([1, 0]))
    assert j == 0 and theta == pytest.approx(2.5)


def test_logrank_scan_matches_pairwise_oracle(rng):
    # threshold scan inside best_split must agree with the standalone score
    times = rng.uniform(0.5, 20.0, 60)
    events = rng.random(60) < 0.7
    X = rng.normal(size=(60, 1))
    Y = np.column_stack([times, events.astype(float)])
    found = best_split(X, Y, TaskKind.SURVIVAL, np.arange(60), np.array([0]))
    assert found is not None
    j, theta, score = found
    mask = X[:, 0] <= theta
    oracle = logrank_score(times[mask], events[mask], times[~mask], events[~mask])
    assert score == pytest.approx(oracle, abs=1e-9)
    # and it is the maximum over all candidate thresholds
    values = np.unique(X[:, 0])
    for thr in (values[:-1] + values[1:]) / 2:
        m = X[:, 0] <= thr
        assert score + 1e-9 >= logrank_score(times[m], events[m], times[~m], events[~m])


# ---------------------------------------------------------------------------
# Batched split search against the per-covariate reference scan
# ---------------------------------------------------------------------------

def _scan_impurity(values, y, regression):
    """Reference: best (threshold, gain) along one covariate, or None."""
    order = np.argsort(values, kind="stable")
    sv = values[order]
    cuts = np.flatnonzero(sv[:-1] < sv[1:])
    if cuts.size == 0:
        return None
    sy = y[order]
    n = sv.size
    n_left = (cuts + 1).astype(np.float64)
    n_right = n - n_left
    cum = np.cumsum(sy, axis=0)
    left_sum = cum[cuts]
    total = cum[-1]
    right_sum = total - left_sum

    if regression:
        cum2 = np.cumsum(sy * sy, axis=0)
        left_sq = cum2[cuts]
        total_sq = cum2[-1]
        var_parent = np.maximum(total_sq / n - (total / n) ** 2, 0.0)
        var_left = np.maximum(left_sq / n_left[:, None] - (left_sum / n_left[:, None]) ** 2, 0.0)
        var_right = np.maximum(
            (total_sq - left_sq) / n_right[:, None]
            - (right_sum / n_right[:, None]) ** 2,
            0.0,
        )
        gain = (
            var_parent[None, :]
            - (n_left / n)[:, None] * var_left
            - (n_right / n)[:, None] * var_right
        ).mean(axis=1)
    else:
        q_parent = total / n
        q_left = left_sum / n_left[:, None]
        q_right = right_sum / n_right[:, None]
        g_parent = (2.0 * q_parent * (1.0 - q_parent)).mean()
        g_left = (2.0 * q_left * (1.0 - q_left)).mean(axis=1)
        g_right = (2.0 * q_right * (1.0 - q_right)).mean(axis=1)
        gain = g_parent - (n_left / n) * g_left - (n_right / n) * g_right

    best = int(np.argmax(gain))
    threshold = 0.5 * (sv[cuts[best]] + sv[cuts[best] + 1])
    return threshold, float(gain[best])


def _scan_logrank(values, times, events):
    """Reference: best (threshold, |logrank statistic|) along one covariate,
    from (rows x event times) at-risk and event matrices, or None."""
    order = np.argsort(values, kind="stable")
    sv = values[order]
    cuts = np.flatnonzero(sv[:-1] < sv[1:])
    if cuts.size == 0:
        return None
    t = times[order]
    e = events[order]
    grid = np.unique(t[e])
    if grid.size == 0:
        return None
    at_risk = t[:, None] >= grid[None, :]
    event_at = e[:, None] & (t[:, None] == grid[None, :])
    n_risk = at_risk.sum(axis=0).astype(np.float64)
    n_events = event_at.sum(axis=0).astype(np.float64)
    left_risk = np.cumsum(at_risk, axis=0)[cuts].astype(np.float64)
    left_events = np.cumsum(event_at, axis=0)[cuts].astype(np.float64)

    observed_minus_expected = (left_events - n_events * left_risk / n_risk).sum(axis=1)
    ratio = left_risk / n_risk
    with np.errstate(divide="ignore", invalid="ignore"):
        var_terms = np.where(
            n_risk > 1,
            n_events * ratio * (1.0 - ratio) * (n_risk - n_events) / (n_risk - 1.0),
            0.0,
        )
    variance = var_terms.sum(axis=1)
    score = np.where(variance > 0, np.abs(observed_minus_expected) / np.sqrt(np.maximum(variance, 1e-300)), 0.0)
    best = int(np.argmax(score))
    if score[best] <= 0.0:
        return None
    threshold = 0.5 * (sv[cuts[best]] + sv[cuts[best] + 1])
    return threshold, float(score[best])


def reference_best_split(X, Y, task, rows, candidates, table=None):
    """One scan per candidate covariate; strict improvement keeps the lowest
    covariate index on ties.  A survival node's event table, which the
    grower passes in, is ignored: the scan builds its own."""
    rows = np.asarray(rows)
    if rows.size < 2:
        return None
    sub_y = Y[rows]
    best_result = None
    for j in np.sort(np.asarray(candidates)):
        values = X[rows, j]
        if task is TaskKind.SURVIVAL:
            found = _scan_logrank(values, sub_y[:, 0], sub_y[:, 1] > 0.5)
        else:
            found = _scan_impurity(values, sub_y, regression=not task.classification_like)
        if found is None:
            continue
        threshold, score = found
        if score > _MIN_GAIN and (best_result is None or score > best_result[2]):
            best_result = (int(j), threshold, score)
    return best_result


def _random_node(rng, task, n, p):
    """Covariates (rounded in half the draws, so many equal neighbours) and
    targets for one node; survival draws tied integer times in half the
    draws and an event share anywhere from none to all."""
    X = rng.normal(size=(n, p))
    if rng.random() < 0.5:
        X = np.round(X * rng.integers(1, 4))
    if task is TaskKind.SURVIVAL:
        if rng.random() < 0.5:
            times = rng.integers(1, int(rng.integers(2, 12)), size=n).astype(np.float64)
        else:
            times = rng.uniform(0.1, 5.0, n)
        share = rng.choice([0.0, 1.0, rng.random()])
        Y = np.column_stack([times, (rng.random(n) < share).astype(np.float64)])
    elif task is TaskKind.BINARY:
        Y = (rng.random((n, 1)) < rng.random()).astype(np.float64)
    elif task is TaskKind.MULTI_LABEL:
        Y = (rng.random((n, 3)) < 0.5).astype(np.float64)
    elif task is TaskKind.REGRESSION:
        Y = rng.normal(size=(n, 1))
    else:
        Y = rng.normal(size=(n, 3))
    return X, Y


@pytest.mark.parametrize("task", list(TaskKind))
def test_best_split_equals_reference_scan(task):
    rng = np.random.default_rng(sorted(TaskKind, key=lambda t: t.value).index(task))
    for _ in range(150):
        n = int(rng.integers(2, 60))
        p = int(rng.integers(1, 7))
        X, Y = _random_node(rng, task, n, p)
        rows = rng.integers(0, n, size=n) if rng.random() < 0.5 else np.arange(n)
        mtry = int(rng.integers(1, p + 1))
        cand = rng.choice(p, size=mtry, replace=False)
        assert best_split(X, Y, task, rows, cand) == reference_best_split(X, Y, task, rows, cand)
        rest = np.setdiff1d(np.arange(p), cand)
        if rest.size:  # the fallback of a node whose mtry draw found nothing
            assert best_split(X, Y, task, rows, rest) == reference_best_split(X, Y, task, rows, rest)


def test_best_split_equals_reference_at_scale():
    rng = np.random.default_rng(7)
    ds = make_survival(600, 6, seed=3)
    rows = rng.integers(0, 600, size=600)
    ref = reference_best_split(ds.covariates, ds.targets, TaskKind.SURVIVAL, rows, np.arange(6))
    assert best_split(ds.covariates, ds.targets, TaskKind.SURVIVAL, rows, np.arange(6)) == ref
    X = np.round(ds.covariates, 1)
    ref = reference_best_split(X, ds.targets, TaskKind.SURVIVAL, rows, np.arange(6))
    assert best_split(X, ds.targets, TaskKind.SURVIVAL, rows, np.arange(6)) == ref


@pytest.mark.parametrize("times, events, first, last, winner", [
    # features 0 and 4 reach sqrt(6) on different partitions, bit for bit
    # equal: the lower index wins
    ([3, 3, 1, 3, 3, 4, 5, 2, 2, 5], [1, 0, 0, 1, 1, 1, 0, 0, 0, 0],
     [2, 4, 3, 0, 1, 6, 9, 8, 7, 5], [5, 9, 3, 2, 0, 6, 8, 1, 4, 7], 0),
    # the same value in exact arithmetic, but feature 4's rounds higher
    ([4, 5, 1, 3, 4, 2, 4, 1, 1, 5], [1, 1, 0, 1, 0, 1, 1, 0, 0, 1],
     [4, 1, 9, 0, 3, 6, 5, 8, 7, 2], [1, 2, 7, 4, 9, 0, 6, 3, 8, 5], 4),
])
def test_best_split_logrank_tie_follows_reference(times, events, first, last, winner):
    X = np.column_stack([first, np.zeros((10, 3)), last]).astype(np.float64)
    Y = np.column_stack([times, events]).astype(np.float64)
    found = best_split(X, Y, TaskKind.SURVIVAL, np.arange(10), np.arange(5))
    assert found == reference_best_split(X, Y, TaskKind.SURVIVAL, np.arange(10), np.arange(5))
    assert found[0] == winner
    assert found[2] == pytest.approx(math.sqrt(6), rel=1e-15)


def _fit_json(ds, params):
    return json.dumps(forest_to_dict(fit_forest(ds, params)))


# ---------------------------------------------------------------------------
# The lockstep grower against the per-tree reference grower
# ---------------------------------------------------------------------------

def reference_grow_tree(X, Y, task, sample, rng, min_split, mtry, max_depth, event_grid, oob,
                        fallbacks):
    """One tree grown alone, depth first, one ``forest_mod.best_split`` call
    per node and the node's event table built from its own rows; counts the
    searches over the covariates outside a node's mtry draw in
    ``fallbacks``."""
    p = X.shape[1]
    feature, threshold, left, right, fraction, count, preds = [], [], [], [], [], [], []
    leaf_km = {}

    def alloc():
        for values, blank in ((feature, -1), (threshold, math.nan), (left, -1), (right, -1),
                              (fraction, 0.0), (count, 0), (preds, None)):
            values.append(blank)
        return len(feature) - 1

    all_features = np.arange(p)
    stack = [(alloc(), sample, 0)]
    while stack:
        nid, rows, depth = stack.pop()
        count[nid] = rows.size
        fraction[nid] = rows.size / sample.size
        y_rows = Y[rows]
        table = None
        if task is TaskKind.SURVIVAL:
            table = _event_tables(y_rows[:, 0], y_rows[:, 1] > 0.5)
            preds[nid] = np.array([table.risk_score(event_grid)])
        else:
            preds[nid] = y_rows.mean(axis=0)
        split = None
        if (rows.size >= min_split and (max_depth is None or depth < max_depth)
                and not (table.pure if table is not None else np.all(y_rows == y_rows[0]))):
            cand = np.sort(rng.choice(p, size=mtry, replace=False)) if mtry < p else all_features
            split = forest_mod.best_split(X, Y, task, rows, cand, table)
            if split is None and mtry < p:
                fallbacks.append(nid)
                split = forest_mod.best_split(X, Y, task, rows, np.setdiff1d(all_features, cand),
                                              table)
        if split is None:
            if table is not None:
                leaf_km[nid] = table.kaplan_meier()
            continue
        j, theta, _ = split
        go_left = X[rows, j] <= theta
        lid, rid = alloc(), alloc()
        feature[nid], threshold[nid], left[nid], right[nid] = j, theta, lid, rid
        stack.append((rid, rows[~go_left], depth + 1))
        stack.append((lid, rows[go_left], depth + 1))
    return forest_mod.Tree(
        task=task,
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        sample_fraction=np.array(fraction, dtype=np.float64),
        sample_count=np.array(count, dtype=np.int64),
        node_pred=np.vstack(preds),
        bootstrap_indices=sample,
        oob_indices=oob,
        leaf_km=leaf_km,
    )


def reference_fit_json(ds, params, fallbacks):
    """``_fit_json`` of a forest grown tree by tree by ``reference_grow_tree``."""
    min_split = params.resolve_min_split(ds.task)
    mtry = params.resolve_mtry(ds.task, ds.p)
    event_grid = np.unique(ds.times[ds.events]) if ds.task is TaskKind.SURVIVAL else None
    trees = []
    for i in range(params.n_trees):
        rng = np.random.default_rng([params.seed, i])
        if params.bootstrap:
            sample = rng.integers(0, ds.n, size=ds.n)
            oob = np.setdiff1d(np.arange(ds.n), np.unique(sample))
        else:
            sample, oob = np.arange(ds.n), np.array([], dtype=np.int64)
        trees.append(reference_grow_tree(ds.covariates, ds.targets, ds.task, sample, rng,
                                         min_split, mtry, params.max_depth, event_grid, oob,
                                         fallbacks))
    forest = forest_mod.Forest(trees=trees, task=ds.task, p=ds.p,
                               prediction_width=ds.prediction_width, params=params,
                               min_samples_split=min_split, mtry=mtry, event_grid=event_grid,
                               covariate_names=ds.covariate_names)
    return json.dumps(forest_to_dict(forest))


def _coarse(ds):
    """``ds`` with its covariates rounded to a few values, so that many
    nodes find no cut among their mtry draw and search the rest."""
    return dataclasses.replace(ds, covariates=np.round(ds.covariates))


_KIND_DATA = {
    "binary": lambda: _coarse(make_binary(120, 6, seed=1)),
    "regression": lambda: _coarse(make_regression(120, 6, seed=2)),
    "multi-target": lambda: _coarse(make_multitarget(100, 5, 3, seed=3)),
    "multi-label": lambda: _coarse(make_multilabel(100, 5, 3, seed=4)),
    "survival": lambda: _coarse(make_survival(150, 6, seed=5)),
}


@pytest.mark.parametrize("kind", list(_KIND_DATA))
def test_forest_equals_reference_scan_forest(kind, monkeypatch):
    # the lockstep forest, against trees grown one at a time by the
    # per-covariate reference scan: mtry < p (with the search of the rest),
    # mtry = p, a depth limit, and no bootstrap
    ds = _KIND_DATA[kind]()
    variants = [
        ForestParams(n_trees=4, seed=11, min_samples_split=4),
        ForestParams(n_trees=3, seed=12, min_samples_split=4, mtry=ds.p),
        ForestParams(n_trees=3, seed=13, max_depth=2),
        ForestParams(n_trees=3, seed=14, bootstrap=False, mtry=2),
    ]
    fitted = [_fit_json(ds, params) for params in variants]
    monkeypatch.setattr(forest_mod, "best_split", reference_best_split)
    fallbacks = []
    for params, forest in zip(variants, fitted):
        assert forest == reference_fit_json(ds, params, fallbacks)
        if params.seed == 11:
            assert fallbacks


def _impurity_nodes(rng, regression, count):
    """Random impurity nodes over one shared data set: mixed row counts
    (bootstrap-like repeats), rounded and tied covariates, 1 to 9 targets,
    and the same number of sorted candidates for every node."""
    w = int(rng.integers(1, 10))
    N, p = 300, 6
    X = rng.normal(size=(N, p))
    X[:, :3] = np.round(X[:, :3] * rng.integers(1, 4, size=3))
    if regression:
        Y = rng.normal(size=(N, w))
        Y[:, 0] = np.round(Y[:, 0])
    else:
        Y = (rng.random((N, w)) < rng.random(w)).astype(np.float64)
    m = int(rng.integers(1, p + 1))
    rows = [rng.integers(0, N, size=int(rng.choice([rng.integers(2, 12), rng.integers(2, 300)])))
            for _ in range(count)]
    cands = np.stack([np.sort(rng.choice(p, size=m, replace=False)) for _ in range(count)])
    return X, Y, rows, cands


def impurity_splits(X, keys, Y, rows, cands, regression):
    """``forest_mod._impurity_splits`` of nodes given as row arrays, laid end
    to end as the segments of one index array, in ``best_split``'s form."""
    sizes = np.array([r.size for r in rows])
    feature, threshold, score = forest_mod._impurity_splits(
        X, keys, Y, np.concatenate(rows), np.cumsum(sizes) - sizes, sizes, cands, regression)
    return [None if f < 0 else (int(f), t, float(g)) for f, t, g in zip(feature, threshold, score)]


@pytest.mark.parametrize("regression", [False, True], ids=["gini", "variance"])
def test_batched_impurity_scoring_equals_reference_per_node(regression, monkeypatch):
    rng = np.random.default_rng(31 + regression)
    task = TaskKind.MULTI_TARGET if regression else TaskKind.MULTI_LABEL
    for _ in range(12):
        X, Y, rows, cands = _impurity_nodes(rng, regression, int(rng.integers(1, 60)))
        expected = [reference_best_split(X, Y, task, r, c) for r, c in zip(rows, cands)]
        shuffle = rng.permutation(len(rows))
        keys = forest_mod.rank_keys(X)
        for cap in (1, 64, 8192, 1 << 24):  # from one node per chunk to one chunk per bucket
            monkeypatch.setattr(forest_mod, "_BATCH_CELLS", cap)
            assert impurity_splits(X, keys, Y, rows, cands, regression) == expected
            mixed = impurity_splits(X, keys, Y, [rows[i] for i in shuffle], cands[shuffle],
                                    regression)
            assert mixed == [expected[i] for i in shuffle]


def _awkward_columns(rng, n):
    """Covariates that a rank key must order exactly as its value: ties,
    -0.0 next to +0.0, a constant column, and distinct values."""
    signed_zero = rng.choice([-0.0, 0.0, -1.5, 2.0], size=n)
    return np.column_stack([
        np.round(rng.normal(size=n)),
        signed_zero,
        np.full(n, 3.0),
        rng.normal(size=n),
        np.where(rng.random(n) < 0.5, -0.0, 0.0) + rng.integers(0, 2, size=n),
    ])


@pytest.mark.parametrize("task", [TaskKind.BINARY, TaskKind.REGRESSION, TaskKind.MULTI_TARGET,
                                  TaskKind.MULTI_LABEL, TaskKind.SURVIVAL])
def test_rank_keyed_split_equals_float_reference(task):
    rng = np.random.default_rng(61)
    for _ in range(40):
        n = int(rng.integers(2, 80))
        X = _awkward_columns(rng, n)
        _, Y = _random_node(rng, task, n, 1)
        keys = forest_mod.rank_keys(X)
        rows = rng.integers(0, n, size=n)
        for cand in (np.arange(5), np.array([1, 2]), np.array([2])):
            found = best_split(X, Y, task, rows, cand, keys=keys)
            expected = reference_best_split(X, Y, task, rows, cand)
            assert found == expected
            if found is not None:  # the threshold is a value midpoint, its sign kept
                assert np.float64(found[1]).tobytes() == np.float64(expected[1]).tobytes()


def test_rank_keys_sort_like_the_values():
    rng = np.random.default_rng(62)
    X = _awkward_columns(rng, 200)  # at most 200 distinct values a column
    keys = forest_mod.rank_keys(X)
    assert keys.dtype == np.uint8
    for j in range(X.shape[1]):
        by_value = np.argsort(X[:, j], kind="stable")
        assert np.array_equal(np.argsort(keys[:, j], kind="stable"), by_value)
        ordered = keys[by_value, j]
        assert np.array_equal(ordered[1:] > ordered[:-1], X[by_value[1:], j] > X[by_value[:-1], j])
    assert keys[:, 2].max() == 0 and np.iinfo(keys.dtype).max > keys.max()


@pytest.mark.parametrize("distinct, dtype", [(255, np.uint8), (256, np.uint16),
                                             (65535, np.uint16), (65536, np.uint32)])
def test_rank_key_dtype_holds_ranks_and_pad(distinct, dtype):
    X = np.column_stack([np.arange(distinct, dtype=np.float64)[::-1], np.zeros(distinct)])
    keys = forest_mod.rank_keys(X)
    assert keys.dtype == dtype
    assert np.array_equal(keys[:, 0], np.arange(distinct)[::-1])
    assert int(keys.max()) < np.iinfo(dtype).max  # the pad sorts behind every row


@pytest.mark.parametrize("dtype, length", [
    (np.uint8, 2), (np.uint8, 37), (np.uint16, 300), (np.uint16, 70_000), (np.uint32, 9),
])
def test_sort_keys_is_the_stable_argsort(dtype, length):
    # a uint16 row of 70,000 keys, or any uint32 keys, join into 64 bits
    rng = np.random.default_rng(65)
    top = int(np.iinfo(dtype).max)
    block = rng.integers(0, rng.choice([3, top]), size=(3, 2, length), endpoint=True).astype(dtype)
    order, ordered = forest_mod._sort_keys(block)
    expected = np.argsort(block, axis=-1, kind="stable")
    assert np.array_equal(order, expected)
    assert np.array_equal(ordered, np.take_along_axis(block, expected, axis=-1))


@pytest.mark.parametrize("regression", [False, True], ids=["gini", "variance"])
def test_wide_rank_keys_score_like_the_float_reference(regression):
    # more distinct values than 16-bit keys hold, so the keys are 32-bit
    rng = np.random.default_rng(63 + regression)
    n = 70_000
    X = np.column_stack([rng.permutation(n) * 0.5 - 1000.0, np.round(rng.normal(size=n))])
    Y = rng.normal(size=(n, 1)) if regression else (rng.random((n, 1)) < 0.3).astype(np.float64)
    keys = forest_mod.rank_keys(X)
    assert keys.dtype == np.uint32
    task = TaskKind.REGRESSION if regression else TaskKind.BINARY
    rows = [rng.integers(0, n, size=size) for size in (70_000, 5_000, 40, 2)]
    cands = np.array([[0, 1]] * len(rows))
    expected = [reference_best_split(X, Y, task, r, c) for r, c in zip(rows, cands)]
    assert impurity_splits(X, keys, Y, rows, cands, regression) == expected


def _bootstrapped(seed, tree, n):
    """Tree ``tree``'s generator after a bootstrap draw of n rows (none for
    n = 0); an odd n leaves half of a 64-bit output pending."""
    rng = np.random.default_rng([seed, tree])
    if n:
        rng.integers(0, n, size=n)
    return rng


def test_step_draw_equals_generator_choice():
    # every p from 2 to 60 and every mtry < p, over trees with odd, even and
    # no bootstrap draws; each step draws for a random subset of the trees,
    # and the narrowest buffer is refilled with words left over
    rng = np.random.default_rng(64)
    checked = 0
    for p in range(2, 61):
        for mtry in range(1, p):
            seed = p * 100 + mtry
            sizes = rng.integers(0, 40, size=5)
            width = 2 * mtry if mtry % 2 else max(forest_mod._WORDS, 4 * mtry)
            streams = forest_mod._WordStreams(
                [_bootstrapped(seed, t, n) for t, n in enumerate(sizes)], width)
            reference = [_bootstrapped(seed, t, n) for t, n in enumerate(sizes)]
            for _ in range(6):
                trees = np.flatnonzero(rng.random(sizes.size) < 0.7)
                if trees.size == 0:
                    continue
                drawn = forest_mod._draw_candidates(streams, trees, p, mtry)
                for row, t in zip(drawn, trees):
                    expected = np.sort(reference[t].choice(p, size=mtry, replace=False))
                    assert row.tolist() == expected.tolist()
                    checked += 1
    assert checked > 20_000


@pytest.mark.parametrize("p, mtry", [
    (3_000_000_000, 2), (3_000_000_000, 3),  # bounds near 3e9: about 30% of words rejected
    (10_001, 200), (10_001, 201),  # above 10,000 covariates, Floyd's sample up to p // 50
    (10_050, 202), (10_050, 1_000),  # and the tail shuffle beyond it
])
def test_step_draw_equals_generator_choice_at_the_edges(p, mtry):
    sizes = [0, 7, 12, 31]
    streams = forest_mod._WordStreams([_bootstrapped(5, t, n) for t, n in enumerate(sizes)],
                                      max(forest_mod._WORDS, 4 * mtry))
    reference = [_bootstrapped(5, t, n) for t, n in enumerate(sizes)]
    for trees in ([0, 1, 2, 3], [1, 3], [0, 1, 2, 3], [2]):
        drawn = forest_mod._draw_candidates(streams, np.array(trees), p, mtry)
        for row, t in zip(drawn, trees):
            expected = np.sort(reference[t].choice(p, size=mtry, replace=False))
            assert row.tolist() == expected.tolist()


def test_chunk_plan_respects_the_cap():
    rng = np.random.default_rng(5)
    cap = forest_mod._BATCH_CELLS
    for _ in range(200):
        sizes = rng.integers(2, int(rng.choice([20, 300, 5000])), size=int(rng.integers(1, 120)))
        per_row = int(rng.integers(1, 60))
        chunks = forest_mod._plan_chunks(sizes, per_row)
        assert sorted(i for chunk in chunks for i in chunk) == list(range(sizes.size))
        widths = [int(sizes[i]) for chunk in chunks for i in chunk]
        assert widths == sorted(widths, reverse=True)  # a chunk's first node is its widest
        for k, chunk in enumerate(chunks):
            first = int(sizes[chunk[0]])
            assert len(chunk) == 1 or len(chunk) * first * per_row <= cap
            if k + 1 < len(chunks):  # it could not also take the next node
                assert (len(chunk) + 1) * first * per_row > cap


def test_chunk_plan_packs_nodes_of_mixed_sizes():
    # 20 nodes of 5 to 40 rows at 3 cells a row fill 2,400 of the 8,192
    # cells at the widest node's width: one chunk, not one per size
    sizes = np.tile([5, 10, 20, 40], 5)
    assert len(forest_mod._plan_chunks(sizes, 3)) == 1


@pytest.mark.parametrize("regression", [False, True], ids=["gini", "variance"])
def test_wide_nodes_score_in_candidate_groups(regression, monkeypatch):
    # caps that cut nodes into groups of one or a few candidates;
    # duplicated covariates tie across groups, where the first must win
    rng = np.random.default_rng(41 + regression)
    task = TaskKind.MULTI_TARGET if regression else TaskKind.MULTI_LABEL
    groups, partial = [], set()
    chunk_kernel = forest_mod._impurity_chunk

    def counted(X, keys, Y, index, starts, sizes, cands, regression):
        groups.append(cands.shape[1])
        return chunk_kernel(X, keys, Y, index, starts, sizes, cands, regression)

    monkeypatch.setattr(forest_mod, "_impurity_chunk", counted)
    for _ in range(8):
        X, Y, rows, cands = _impurity_nodes(rng, regression, int(rng.integers(1, 40)))
        cands = np.hstack([cands, cands + X.shape[1]])
        X = np.hstack([X, X])
        expected = [reference_best_split(X, Y, task, r, c) for r, c in zip(rows, cands)]
        keys = forest_mod.rank_keys(X)
        for cap in (16, 300, 2000):
            monkeypatch.setattr(forest_mod, "_BATCH_CELLS", cap)
            assert impurity_splits(X, keys, Y, rows, cands, regression) == expected
            partial.update(m for m in groups if m < cands.shape[1])
            groups.clear()
    assert 1 in partial and max(partial) > 1


def test_wide_node_peak_memory_is_capped():
    # the root of this tree is one node of 3,000 rows x 10 candidates x 8
    # targets: scored whole, the fit's traced peak is 15.8 MiB, and 2.1 MiB
    # one group of candidates at a time
    ds = make_multitarget(3000, 30, 8, seed=1)
    tracemalloc.start()
    try:
        fit_forest(ds, ForestParams(n_trees=1, seed=1, mtry=10, max_depth=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_fit_peak_memory_is_capped():
    # the first lockstep step holds all 40 roots of 400 rows; stacked whole,
    # the forest's peak is 8.1 MiB, and 1.4 MiB in chunks under the cap
    ds = make_binary(400, 24, seed=1)
    tracemalloc.start()
    try:
        fit_forest(ds, ForestParams(n_trees=40, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_event_table_subset_equals_rebuilt_table(rng):
    cases = _node_cases(rng)
    for times, events in cases:
        table = _event_tables(times, events)
        for _ in range(3):
            mask = rng.random(times.size) < rng.choice([0.0, 0.3, 0.7, 1.0])
            child = table.subset(mask)
            grandchild_mask = rng.random(int(mask.sum())) < 0.5
            pairs = [(child, _event_tables(times[mask], events[mask])),
                     (child.subset(grandchild_mask),
                      _event_tables(times[mask][grandchild_mask], events[mask][grandchild_mask]))]
            for derived, rebuilt in pairs:
                for name, ours, reference in zip(rebuilt._fields, derived, rebuilt):
                    assert ours.dtype == reference.dtype, name
                    assert ours.tobytes() == reference.tobytes(), name


# ---------------------------------------------------------------------------
# The log-rank screen against the two-group oracle
# ---------------------------------------------------------------------------

def _variance_is_zero(times, events, left):
    """True when every event time's hypergeometric variance term vanishes:
    the left group holds none or all of its risk set, or the term's weight
    is zero (one row at risk, or every row at risk has the event)."""
    for g in np.unique(times[events]):
        at_risk = times >= g
        n = int(at_risk.sum())
        d = int((events & (times == g)).sum())
        n_left = int((at_risk & left).sum())
        if n > 1 and d < n and 0 < n_left < n:
            return False
    return True


def _screen_one(times, events, X):
    order = np.argsort(X.T, axis=1, kind="stable")
    sv = np.sort(X.T, axis=1)
    is_cut = sv[:, :-1] < sv[:, 1:]
    table = _event_tables(times, events)
    score, keep = _logrank_screen(table.ranks[order], events[order], table, is_cut)
    return order, is_cut, score, keep


def _check_screen(times, events, X):
    """Every cut's screening statistic equals the oracle within 1e-9
    relative; cuts with zero variance are kept and score 0; the cuts that
    reach the best exact score are kept."""
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=bool)
    order, is_cut, score, keep = _screen_one(times, events, X)
    assert np.all(np.isfinite(score))
    oracle = np.zeros_like(score)
    zero_cuts = 0
    for f, c in zip(*np.nonzero(is_cut)):
        left = np.zeros(times.size, dtype=bool)
        left[order[f, :c + 1]] = True
        oracle[f, c] = logrank_score(times[left], events[left], times[~left], events[~left])
        if _variance_is_zero(times, events, left):
            zero_cuts += 1
            assert keep[f, c]
            assert score[f, c] == 0.0
        else:
            assert score[f, c] == pytest.approx(oracle[f, c], rel=1e-9, abs=1e-12)
    if oracle.max() > _MIN_GAIN:
        assert np.all(keep[oracle >= oracle.max() * (1 - 1e-12)])
    return zero_cuts


def test_logrank_screen_matches_oracle_random(rng):
    for _ in range(60):
        n = int(rng.integers(2, 50))
        times = rng.integers(1, 9, size=n) if rng.random() < 0.5 else rng.uniform(0.5, 9.0, n)
        events = rng.random(n) < rng.choice([0.1, 0.5, 0.9, 1.0])
        if not events.any():
            events[int(rng.integers(n))] = True
        X = rng.normal(size=(n, 3))
        X[:, 1] = np.round(X[:, 1])
        _check_screen(times, events, X)


def test_logrank_screen_censored_before_first_event():
    # rows 0-3 are censored before any event: they are at risk at no event
    # time, so every cut that moves only them has zero variance
    times = np.array([0.5, 0.6, 0.7, 0.8, 2.0, 3.0, 3.0, 4.0, 5.0, 6.0])
    events = np.array([0, 0, 0, 0, 1, 1, 0, 1, 0, 1], dtype=bool)
    X = np.column_stack([times, -times, np.arange(10) % 3])
    assert _check_screen(times, events, X) >= 6


def test_logrank_screen_single_event_time():
    times = np.array([1.0, 2.0, 2.0, 2.0, 3.0, 4.0, 5.0])
    events = np.array([0, 1, 1, 0, 0, 0, 0], dtype=bool)
    X = np.column_stack([np.arange(7.0), np.arange(7.0)[::-1], [3, 1, 4, 1, 5, 9, 2]])
    _check_screen(times, events, X)


def test_logrank_screen_left_holds_whole_risk_set():
    # sorting by -time puts the latest rows left: once the left child holds
    # every row at risk at the first weighted event time, the variance is 0
    times = np.array([1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    events = np.array([0, 0, 1, 1, 0, 1, 1, 1], dtype=bool)
    X = np.column_stack([-times, times])
    assert _check_screen(times, events, X) == 4
    # along -time, the left children of the first 6 and 7 rows hold every
    # row with time >= 2.0, the first event time
    _, _, score, keep = _screen_one(times, events, X)
    assert keep[0, 5] and keep[0, 6]
    assert score[0, 5] == score[0, 6] == 0.0


def _screen_shape(m, n, G):
    """(blocks, windows, blocks per window, rows per block) of
    ``_logrank_screen`` on an (m, n) node with G event times."""
    s = max(1, math.isqrt(G - 1) + 1)
    blocks = -(-n // s)
    width = max(1, forest_mod._EXACT_CELLS // (m * (G + 1)))
    return blocks, -(-blocks // width), width, s


def test_windowed_screen_equals_one_window(rng, monkeypatch):
    # with the cap out of reach the screen holds every block at once, as it
    # did before it was windowed; any window must give the same bits
    seen = set()
    for trial in range(160):
        n = int(rng.choice([int(rng.integers(2, 12)), int(rng.integers(12, 400))]))
        m = int(rng.integers(1, 5))
        if trial % 8 == 0:
            times = np.full(n, 2.0)  # G = 1
        elif rng.random() < 0.4:
            times = rng.integers(1, int(rng.integers(2, 30)), size=n).astype(np.float64)
        else:
            times = rng.uniform(0.1, 5.0, n)
        events = rng.random(n) < rng.choice([0.1, 0.5, 1.0])
        events[int(rng.integers(n))] = True
        X = rng.normal(size=(n, m))
        X[:, 0] = np.round(X[:, 0])
        table = _event_tables(times, events)
        order = np.argsort(X.T, axis=1, kind="stable")
        sv = np.sort(X.T, axis=1)
        args = (table.ranks[order], events[order], table, sv[:, :-1] < sv[:, 1:])
        monkeypatch.setattr(forest_mod, "_EXACT_CELLS", 2**62)
        whole_score, whole_keep = _logrank_screen(*args)
        G = table.grid.size
        for cap in (1, 3 * (G + 1), 64, 1000, 16384):
            monkeypatch.setattr(forest_mod, "_EXACT_CELLS", cap)
            score, keep = _logrank_screen(*args)
            assert score.tobytes() == whole_score.tobytes()
            assert keep.tobytes() == whole_keep.tobytes()
            blocks, windows, width, s = _screen_shape(m, n, G)
            seen.update(name for name, case in (
                ("one block", blocks == 1), ("partial last block", n % s != 0),
                ("G = 1", G == 1), ("many windows", windows > 2),
                ("one-block windows", width == 1 and m * (G + 1) > cap and blocks > 1),
            ) if case)
    assert seen == {"one block", "partial last block", "G = 1", "many windows",
                    "one-block windows"}


def test_root_screen_peak_memory_is_bounded():
    # the screen held O(m n sqrt(G)) cells at once: 441 MiB at this root
    # before it was windowed, about 10 MiB since
    ds = make_survival(20000, 10, seed=3)
    table = _event_tables(ds.times, ds.events)
    X = ds.covariates[:, :4]
    order = np.argsort(X.T, axis=1, kind="stable")
    sv = np.sort(X.T, axis=1)
    args = (table.ranks[order], ds.events[order], table, sv[:, :-1] < sv[:, 1:])
    assert table.grid.size > 5000
    tracemalloc.start()
    try:
        _logrank_screen(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_zero_variance_cuts_match_oracle(rng):
    # the integer test flags exactly the cuts whose variance terms all vanish
    cases = [
        ([0.5, 0.6, 0.7, 0.8, 2.0, 3.0, 3.0, 4.0, 5.0, 6.0], [0, 0, 0, 0, 1, 1, 0, 1, 0, 1]),
        ([1.0, 2.0, 2.0, 2.0, 3.0, 4.0, 5.0], [0, 1, 1, 0, 0, 0, 0]),
        ([1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], [0, 0, 1, 1, 0, 1, 1, 1]),
        ([2.0, 2.0, 2.0, 5.0], [1, 1, 1, 1]),  # no event time has weight
        ([1.0, 2.0, 3.0], [0, 0, 0]),
    ]
    for _ in range(80):
        n = int(rng.integers(2, 40))
        times = rng.integers(1, 7, size=n) if rng.random() < 0.5 else rng.uniform(0.5, 9.0, n)
        cases.append((times, rng.random(n) < rng.choice([0.0, 0.2, 0.6, 1.0])))
    flagged = 0
    for times, events in cases:
        times = np.asarray(times, dtype=np.float64)
        events = np.asarray(events, dtype=bool)
        X = np.column_stack([times, -times, rng.normal(size=times.size)])
        order = np.argsort(X.T, axis=1, kind="stable")
        table = _event_tables(times, events)
        zero = _zero_variance_cuts(table.ranks[order], table)
        assert zero.shape == (3, times.size - 1)
        for f, c in np.ndindex(*zero.shape):
            left = np.zeros(times.size, dtype=bool)
            left[order[f, :c + 1]] = True
            assert zero[f, c] == _variance_is_zero(times, events, left)
            if zero[f, c] and table.grid.size:
                flagged += 1
                score = _logrank_exact(table.ranks[order], events[order], table,
                                       np.array([f]), np.array([c]))
                assert score[0] == 0.0
    assert flagged > 100


# ---------------------------------------------------------------------------
# Shared node tables and the unscreened path
# ---------------------------------------------------------------------------

def _node_cases(rng):
    """(times, events) of survival nodes: random ones plus the edges."""
    cases = [
        (np.array([3.0, 1.0, 2.0]), np.zeros(3, dtype=bool)),  # no events
        (np.array([2.0, 2.0, 2.0, 5.0]), np.array([1, 1, 0, 0], dtype=bool)),  # one event time
        (np.array([4.0, 4.0, 4.0]), np.ones(3, dtype=bool)),  # all rows equal
        # ties, and rows censored before the first event
        (np.array([0.5, 0.5, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0]),
         np.array([0, 0, 0, 1, 1, 0, 1, 0], dtype=bool)),
        (np.array([7.0]), np.array([True])),
    ]
    for _ in range(200):
        n = int(rng.integers(1, 50))
        if rng.random() < 0.5:
            times = rng.integers(1, int(rng.integers(2, 12)), size=n).astype(np.float64)
        else:
            times = rng.uniform(0.1, 5.0, n)
        cases.append((times, rng.random(n) < rng.choice([0.0, 0.3, 0.8, 1.0])))
    return cases


def test_node_tables_give_risk_score_and_kaplan_meier_bitwise(rng):
    grids = [np.array([]), np.array([2.0]), np.sort(rng.uniform(0.0, 6.0, 40)),
             np.arange(0.5, 12.0)]
    for times, events in _node_cases(rng):
        table = _event_tables(times, events)
        for grid in grids:
            ours = np.float64(table.risk_score(grid))
            assert ours.tobytes() == np.float64(risk_score(times, events, grid)).tobytes()
        ours, reference = table.kaplan_meier(), kaplan_meier(times, events)
        assert ours.times.tobytes() == reference.times.tobytes()
        assert ours.values.tobytes() == reference.values.tobytes()
        assert ours.baseline == reference.baseline
        assert table.pure == (not events.any() or bool(np.all(
            np.column_stack([times, events]) == [times[0], events[0]])))


def _always_screen_best(order, is_cut, table):
    """The split search before the unscreened path: every node is screened,
    and every kept cut, zero variance or not, is scored exactly."""
    if table.grid.size == 0:
        return None
    sorted_ranks = table.ranks[order]
    sorted_events = table.events[order]
    _, keep = _logrank_screen(sorted_ranks, sorted_events, table, is_cut)
    feat, pos = np.nonzero(keep)
    if feat.size == 0:
        return None
    score = _logrank_exact(sorted_ranks, sorted_events, table, feat, pos)
    best = int(np.argmax(score))
    return int(feat[best]), int(pos[best]), float(score[best])


@pytest.mark.parametrize("n, p, seed", [(300, 6, 21), (700, 6, 22)])
def test_survival_forest_equals_per_node_recomputation(n, p, seed, monkeypatch):
    ds = make_survival(n, p, seed=seed)
    params = ForestParams(n_trees=3, seed=seed)
    calls = {"best": 0, "screened": 0}
    best, screen = forest_mod._logrank_best, forest_mod._logrank_screen

    def counted_best(*args):
        calls["best"] += 1
        return best(*args)

    def counted_screen(*args):
        calls["screened"] += 1
        return screen(*args)

    monkeypatch.setattr(forest_mod, "_logrank_best", counted_best)
    monkeypatch.setattr(forest_mod, "_logrank_screen", counted_screen)
    fitted = _fit_json(ds, params)
    assert calls["screened"] > 0 and calls["best"] - calls["screened"] > 0
    monkeypatch.setattr(forest_mod, "_logrank_best", _always_screen_best)
    monkeypatch.setattr(forest_mod.EventTable, "risk_score",
                        lambda table, grid: risk_score(table.times, table.events, grid))
    monkeypatch.setattr(forest_mod.EventTable, "kaplan_meier",
                        lambda table: kaplan_meier(table.times, table.events))
    assert fitted == _fit_json(ds, params)


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def test_forest_has_requested_tree_count():
    ds = make_binary(60, 4, seed=0)
    forest = fit_forest(ds, ForestParams(n_trees=100, seed=1))
    assert forest.n_trees == 100


def test_pure_data_yields_single_leaves():
    X = np.arange(10, dtype=float)[:, None]
    ds = dataset_from(X, np.ones(10))
    forest = fit_forest(ds, ForestParams(n_trees=5, min_samples_split=5, seed=0))
    assert all(t.n_nodes == 1 for t in forest.trees)


def test_small_node_stops():
    ds = make_binary(5, 3, seed=2)
    forest = fit_forest(ds, ForestParams(n_trees=3, min_samples_split=5, seed=0))
    # a bootstrap of 5 rows cannot have more than 5 distinct rows; with
    # min_samples_split=5 the root may split only when it holds all 5 rows
    for tree in forest.trees:
        if tree.n_nodes > 1:
            assert tree.sample_count[0] >= 5


def test_fit_deterministic():
    ds = make_binary(80, 5, seed=3)
    a = fit_forest(ds, ForestParams(n_trees=12, seed=7))
    b = fit_forest(ds, ForestParams(n_trees=12, seed=7))
    assert json.dumps(forest_to_dict(a)) == json.dumps(forest_to_dict(b))


def test_fit_thread_independent():
    # a tree does not depend on the trees it grows beside in the lockstep:
    # the first k trees of a 5-tree forest are the k-tree forest.
    # Multi-target and multi-label node values take the row-after-row sum,
    # the others the pairwise sum
    for ds in (make_binary(80, 5, seed=3), make_regression(80, 5, seed=4),
               make_multitarget(80, 5, 3, seed=6), make_multilabel(80, 5, 3, seed=7),
               make_survival(90, 5, seed=5)):
        trees = forest_to_dict(fit_forest(ds, ForestParams(n_trees=5, seed=7)))["trees"]
        for k in range(1, 5):
            alone = forest_to_dict(fit_forest(ds, ForestParams(n_trees=k, seed=7)))["trees"]
            assert json.dumps(alone) == json.dumps(trees[:k])


POOL_DATA = {
    "binary": lambda: make_binary(70, 5, seed=51),
    "regression": lambda: make_regression(70, 5, seed=52),
    "multitarget": lambda: make_multitarget(70, 5, 3, seed=53),
    "multilabel": lambda: make_multilabel(70, 5, 3, seed=54),
    "survival": lambda: make_survival(80, 5, seed=55),
}


@pytest.mark.parametrize("kind", sorted(POOL_DATA))
def test_pooled_forests_equal_forests_fitted_alone(kind):
    # one lockstep for forests of 1 to 100 trees, with and without
    # bootstrap, drawn (mtry < p) and full (mtry = p) candidates and a
    # depth limit; each is the forest that fit_forest grows alone
    ds = POOL_DATA[kind]()
    pool = [
        ForestParams(n_trees=100, seed=3),
        ForestParams(n_trees=1, seed=4, bootstrap=False, mtry=ds.p),
        ForestParams(n_trees=2, seed=5, mtry=1, max_depth=2),
        ForestParams(n_trees=3, seed=6, mtry=ds.p, min_samples_split=12),
        ForestParams(n_trees=1, seed=7, bootstrap=False, max_depth=0),
    ]
    pooled = [json.dumps(forest_to_dict(f)) for f in fit_forests(ds, pool)]
    assert pooled == [_fit_json(ds, params) for params in pool]
    assert fit_forests(ds, []) == []


def test_pool_checks_every_parameter_set_before_growing(monkeypatch):
    grown = []
    monkeypatch.setattr(forest_mod, "_grow_trees", lambda *a, **k: grown.append(1))
    ds = make_binary(40, 3, seed=1)
    with pytest.raises(ValueError, match="n_trees"):
        fit_forests(ds, [ForestParams(n_trees=3), ForestParams(n_trees=0)])
    with pytest.raises(ValueError, match="mtry"):
        fit_forests(ds, [ForestParams(n_trees=3), ForestParams(mtry=4)])
    assert not grown


@pytest.mark.parametrize("make", [lambda: make_binary(90, 5, seed=8),
                                  lambda: make_multitarget(80, 4, 3, seed=9),
                                  lambda: make_survival(90, 4, seed=10)],
                         ids=["binary", "multi-target", "survival"])
def test_fit_does_not_depend_on_step_rows(make, monkeypatch):
    # a step takes the largest stack top, then the other trees' that fit in
    # _STEP_ROWS rows; a node's result does not depend on its step
    ds = make()
    params = ForestParams(n_trees=6, seed=4)
    fitted = _fit_json(ds, params)
    for cap in (1, 100, 300):
        monkeypatch.setattr(forest_mod, "_STEP_ROWS", cap)
        assert _fit_json(ds, params) == fitted


@pytest.mark.parametrize("make", [lambda: make_regression(300, 5, seed=1),
                                  lambda: make_survival(300, 5, seed=2),
                                  lambda: make_binary(300, 5, seed=3)],
                         ids=["regression", "survival", "binary"])
def test_roots_over_the_step_cap_grow_side_by_side(make, monkeypatch):
    # every root is over the cap; with the largest stack top leading each
    # step, the trees grow side by side, and a fit takes about as many steps
    # as its largest tree has nodes (trees one after another take the sum)
    records = []
    assemble = forest_mod._assemble_trees

    def counted(task, samples, oobs, n_nodes, visits, *rest):
        records.append((len(visits), int(n_nodes.max())))
        return assemble(task, samples, oobs, n_nodes, visits, *rest)

    monkeypatch.setattr(forest_mod, "_STEP_ROWS", 200)
    monkeypatch.setattr(forest_mod, "_assemble_trees", counted)
    fit_forest(make(), ForestParams(n_trees=3, seed=5))
    [(steps, largest)] = records
    assert steps <= largest + 10


# Covariate pairs whose midpoint does not lie in [a, b): adjacent doubles
# with an odd last mantissa bit (it rounds onto b) and neighbours near the
# float maximum (it overflows)
_TIGHT_PAIRS = [
    (1.0 + 2.0 ** -52, np.nextafter(1.0 + 2.0 ** -52, 2.0)),
    (1.5e308, 1.7e308),
    (-1.7e308, -1.5e308),
]

_TIGHT_FIT = """
import sys
import numpy as np
from bellatrex.data import Dataset, TaskKind
from bellatrex.forest import ForestParams, fit_forest
a, b = float.fromhex(sys.argv[1]), float.fromhex(sys.argv[2])
X = np.array([[a], [a], [a], [b], [b], [b]])
ds = Dataset(task=TaskKind.BINARY, covariates=X, covariate_names=("x",),
             targets=np.array([[0.0], [0.0], [0.0], [1.0], [1.0], [1.0]]),
             target_names=("y",), preprocessed=True)
tree = fit_forest(ds, ForestParams(n_trees=1, min_samples_split=2, bootstrap=False)).trees[0]
print(tree.sample_count.tolist(), float(tree.threshold[0]).hex())
"""


@pytest.mark.parametrize("a, b", _TIGHT_PAIRS)
def test_split_between_tight_values_separates(a, b):
    # the midpoint used to send every row one way: one child was empty and
    # the other found the same split again, without end; the fit runs in a
    # child process under a time limit
    src = str(Path(forest_mod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _TIGHT_FIT, float(a).hex(), float(b).hex()],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr[-2000:]
    counts, threshold = done.stdout.split("] ")
    assert counts + "]" == "[6, 3, 3]"
    assert float.fromhex(threshold.strip()) == a


@st.composite
def _extreme_data(draw):
    """Covariates of a few values each, drawn among extremes, adjacent
    doubles and ordinary values, and 0/1 or real targets."""
    n = draw(st.integers(2, 24))
    p = draw(st.integers(1, 3))
    base = draw(st.sampled_from([1.0 + 2.0 ** -52, 1.5e308, -1.7e308, 5e-324, 0.0, -3.25]))
    pool = [base]
    for _ in range(3):
        pool.append(float(np.nextafter(pool[-1], np.inf)))
    pool += [1.7e308, -1.5e308, 1.0, -0.0]
    X = np.array(draw(st.lists(st.sampled_from(pool), min_size=n * p, max_size=n * p)))
    regression = draw(st.booleans())
    y = draw(st.lists(st.floats(0, 1) if regression else st.sampled_from([0.0, 1.0]),
                      min_size=n, max_size=n))
    return X.reshape(n, p), np.array(y), regression


@settings(max_examples=60, deadline=None)
@given(_extreme_data(), st.integers(0, 3))
def test_every_split_has_two_nonempty_children(data, seed):
    X, y, regression = data
    task = TaskKind.REGRESSION if regression else TaskKind.BINARY
    forest = fit_forest(dataset_from(X, y, task),
                        ForestParams(n_trees=3, seed=seed, min_samples_split=2, max_depth=8))
    for tree in forest.trees:
        split = np.flatnonzero(tree.feature >= 0)
        left, right = tree.left[split], tree.right[split]
        assert np.all(tree.sample_count[left] > 0) and np.all(tree.sample_count[right] > 0)
        assert np.array_equal(tree.sample_count[left] + tree.sample_count[right],
                              tree.sample_count[split])
        assert np.isfinite(tree.threshold[split]).all()


def test_fit_rejects_infinite_covariates():
    X = np.array([[-np.inf], [0.0], [1.0], [np.inf], [2.0], [3.0]])
    with pytest.raises(ValueError, match="finite"):
        fit_forest(dataset_from(X, [0, 0, 1, 1, 0, 1]), ForestParams(n_trees=1))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_fit_rejects_non_finite_targets(bad):
    # a regression target of inf used to grow NaN node predictions
    ds = make_regression(30, 2, seed=4)
    targets = ds.targets.copy()
    targets[7, 0] = bad
    with pytest.raises(ValueError, match="finite targets"):
        fit_forest(dataclasses.replace(ds, targets=targets), ForestParams(n_trees=2))
    survival = make_survival(30, 2, seed=5)
    targets = survival.targets.copy()
    targets[3, 0] = bad
    with pytest.raises(ValueError, match="finite targets"):
        fit_forests(dataclasses.replace(survival, targets=targets),
                    [ForestParams(n_trees=2), ForestParams(n_trees=1)])


def test_min_split_default_by_task():
    assert ForestParams().resolve_min_split(TaskKind.BINARY) == 5
    assert ForestParams().resolve_min_split(TaskKind.SURVIVAL) == 10


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed"):
        ForestParams(seed=-1)


def test_negative_max_depth_rejected():
    with pytest.raises(ValueError, match="max_depth"):
        ForestParams(max_depth=-3)
    ds = make_binary(40, 3, seed=2)
    stumps = fit_forest(ds, ForestParams(n_trees=2, seed=1, max_depth=0))
    assert [t.n_nodes for t in stumps.trees] == [1, 1]


def test_mtry_defaults():
    params = ForestParams()
    assert params.resolve_mtry(TaskKind.BINARY, 100) == 10
    assert params.resolve_mtry(TaskKind.REGRESSION, 9) == 3
    assert params.resolve_mtry(TaskKind.SURVIVAL, 16) == 4


# ---------------------------------------------------------------------------
# Prediction and paths
# ---------------------------------------------------------------------------

def test_single_leaf_tree_predicts_prototype():
    tree = leaf_tree(0.7)
    assert tree_predict(tree, np.array([9.9, -3.0])) == pytest.approx([0.7])


def test_boundary_value_routes_left():
    tree = make_tree([
        {"feature": 0, "threshold": 1.5, "left": 1, "right": 2, "pred": 0.5},
        {"pred": 0.2},
        {"pred": 0.9},
    ])
    assert tree_predict(tree, np.array([1.5])) == pytest.approx([0.2])
    assert tree_predict(tree, np.array([1.5000001])) == pytest.approx([0.9])


def test_binary_leaf_probability_is_exact_proportion():
    X = np.array([[0.0], [0.0], [0.0], [0.0], [1.0], [1.0]])
    y = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    ds = dataset_from(X, y)
    forest = fit_forest(ds, ForestParams(n_trees=10, min_samples_split=2, seed=4))
    for tree in forest.trees:
        boot_y = y[tree.bootstrap_indices]
        leaves = np.array([node_path(tree, x)[-1] for x in X[tree.bootstrap_indices]])
        for leaf in np.unique(leaves):
            members = boot_y[leaves == leaf]
            assert tree.node_pred[leaf, 0] == pytest.approx(members.mean())


def test_forest_predict_two_leaf_trees_mean():
    forest = make_forest([leaf_tree(0.2), leaf_tree(0.6)], p=2)
    assert forest_predict(forest, np.zeros(2)) == pytest.approx([0.4])


def test_forest_predict_vector_componentwise():
    t1 = leaf_tree(np.array([0.0, 1.0]), task=TaskKind.MULTI_LABEL)
    t2 = leaf_tree(np.array([1.0, 0.0]), task=TaskKind.MULTI_LABEL)
    forest = make_forest([t1, t2], p=2, task=TaskKind.MULTI_LABEL)
    assert forest_predict(forest, np.zeros(2)) == pytest.approx([0.5, 0.5])


def test_forest_predict_permutation_invariant():
    ds = make_binary(60, 4, seed=5)
    forest = fit_forest(ds, ForestParams(n_trees=9, seed=2))
    x = ds.covariates[3]
    base = forest_predict(forest, x)
    forest.trees = forest.trees[::-1]
    assert forest_predict(forest, x) == pytest.approx(base)


def test_tree_predict_equals_path_leaf():
    ds = make_binary(100, 5, seed=6)
    forest = fit_forest(ds, ForestParams(n_trees=5, seed=3))
    for tree in forest.trees:
        for i in range(0, 100, 17):
            x = ds.covariates[i]
            steps = decision_path(tree, x)
            assert np.array_equal(steps[-1].prediction, tree_predict(tree, x))


def test_path_omega_non_increasing_from_one():
    ds = make_binary(150, 5, seed=7)
    forest = fit_forest(ds, ForestParams(n_trees=10, seed=5))
    for tree in forest.trees:
        for i in range(0, 150, 31):
            steps = decision_path(tree, ds.covariates[i])
            fractions = [s.sample_fraction for s in steps]
            assert fractions[0] == 1.0
            assert all(a >= b for a, b in zip(fractions, fractions[1:]))


def test_single_leaf_path_length():
    tree = leaf_tree(0.3)
    steps = decision_path(tree, np.zeros(1))
    assert len(steps) == 1 and path_length(steps) == 0
    assert steps[0].feature is None


def test_survival_forest_has_km_leaves_and_grid():
    ds = make_survival(120, 5, seed=8)
    forest = fit_forest(ds, ForestParams(n_trees=4, seed=1))
    assert forest.event_grid is not None and forest.event_grid.size > 0
    assert forest.min_samples_split == 10
    for tree in forest.trees:
        leaves = np.flatnonzero(tree.feature < 0)
        assert set(tree.leaf_km) == set(int(v) for v in leaves)
        x = ds.covariates[0]
        steps = decision_path(tree, x)
        assert steps[-1].prediction.shape == (1,)  # scalar risk


# ---------------------------------------------------------------------------
# OOB
# ---------------------------------------------------------------------------

def test_oob_fraction_about_one_over_e():
    ds = make_binary(400, 4, seed=9)
    forest = fit_forest(ds, ForestParams(n_trees=40, seed=11))
    fractions = [t.oob_indices.size / 400 for t in forest.trees]
    assert np.mean(fractions) == pytest.approx(1 / np.e, abs=0.03)


def test_oob_error_perfect_tree_zero():
    X = np.concatenate([np.zeros(30), np.ones(30)])[:, None]
    y = np.concatenate([np.zeros(30), np.ones(30)])
    ds = dataset_from(X, y)
    forest = fit_forest(ds, ForestParams(n_trees=10, min_samples_split=2, seed=1))
    errs = oob_errors(forest, ds)
    assert errs.min() == pytest.approx(0.0)


def test_oob_empty_set_scores_one():
    ds = make_binary(50, 3, seed=10)
    forest = fit_forest(ds, ForestParams(n_trees=3, seed=2))
    forest.trees[1].oob_indices = np.array([], dtype=np.int64)
    errs = oob_errors(forest, ds)
    assert errs[1] == 1.0


def test_oob_single_class_scores_one():
    ds = make_binary(50, 3, seed=10)
    forest = fit_forest(ds, ForestParams(n_trees=3, seed=2))
    rows = forest.trees[0].oob_indices
    labels = ds.targets[rows, 0]
    only = rows[labels == labels[0]]
    forest.trees[0].oob_indices = only
    errs = oob_errors(forest, ds)
    assert errs[0] == 1.0


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def assert_forests_equal(a, b):
    """Two forests alike, every tree array by dtype, shape and bytes."""
    assert a.task is b.task and a.p == b.p
    assert a.min_samples_split == b.min_samples_split and a.mtry == b.mtry
    if a.event_grid is None:
        assert b.event_grid is None
    else:
        assert np.array_equal(a.event_grid, b.event_grid)
    assert len(a.trees) == len(b.trees)
    for ta, tb in zip(a.trees, b.trees):
        assert ta.task is tb.task
        for attr in ("feature", "threshold", "left", "right", "sample_fraction",
                     "sample_count", "node_pred", "bootstrap_indices", "oob_indices"):
            va, vb = getattr(ta, attr), getattr(tb, attr)
            assert va.dtype == vb.dtype and va.shape == vb.shape, attr
            assert va.tobytes() == vb.tobytes(), attr
        assert list(ta.leaf_km) == list(tb.leaf_km)
        for node in ta.leaf_km:
            assert ta.leaf_km[node].times.tobytes() == tb.leaf_km[node].times.tobytes()
            assert ta.leaf_km[node].values.tobytes() == tb.leaf_km[node].values.tobytes()


def test_round_trip_binary(tmp_path):
    ds = make_binary(70, 4, seed=12)
    forest = fit_forest(ds, ForestParams(n_trees=6, seed=3))
    path = tmp_path / "f.json"
    save_forest(forest, path)
    assert_forests_equal(forest, load_forest(path))


def test_round_trip_survival_exact_floats(tmp_path):
    ds = make_survival(90, 4, seed=13)
    forest = fit_forest(ds, ForestParams(n_trees=4, seed=5))
    path = tmp_path / "f.json"
    save_forest(forest, path)
    loaded = load_forest(path)
    assert_forests_equal(forest, loaded)
    x = ds.covariates[7]
    assert forest_predict(forest, x) == forest_predict(loaded, x)


def test_round_trip_multitarget(tmp_path):
    ds = make_multitarget(60, 5, 3, seed=14)
    forest = fit_forest(ds, ForestParams(n_trees=3, seed=6))
    save_forest(forest, tmp_path / "f.json")
    loaded = load_forest(tmp_path / "f.json")
    assert loaded.prediction_width == 3
    assert_forests_equal(forest, loaded)


def test_from_dict_rejects_garbage():
    with pytest.raises(ValueError):
        forest_from_dict({"format": "something-else"})


def test_loaded_split_threshold_must_be_finite():
    ds = make_binary(60, 3, seed=2)
    doc = forest_to_dict(fit_forest(ds, ForestParams(n_trees=2, seed=1)))
    tree = doc["trees"][0]
    split = next(v for v, j in enumerate(tree["feature"]) if j >= 0)
    tree["threshold"][split] = None  # a NaN threshold, as a file stores it
    with pytest.raises(ForestFileError, match="threshold is not finite"):
        forest_from_dict(doc)
    tree["threshold"][split] = math.inf
    with pytest.raises(ForestFileError, match="threshold is not finite"):
        forest_from_dict(doc)


def test_loaded_node_prediction_must_not_be_nan():
    ds = make_regression(60, 3, seed=2)
    doc = forest_to_dict(fit_forest(ds, ForestParams(n_trees=2, seed=1)))
    doc["trees"][1]["node_pred"][-1] = [math.nan]
    with pytest.raises(ForestFileError, match="prediction is NaN"):
        forest_from_dict(doc)


def test_malformed_forest_files_raise_forest_file_error(tmp_path):
    ds = make_binary(40, 3, seed=2)
    doc = forest_to_dict(fit_forest(ds, ForestParams(n_trees=2, seed=1)))
    del doc["params"]
    with pytest.raises(ForestFileError, match="params"):
        forest_from_dict(doc)
    with pytest.raises(ForestFileError):
        forest_from_dict(["not", "a", "dict"])
    with pytest.raises(ForestFileError):
        load_forest(tmp_path / "absent.json")
    (tmp_path / "bad.json").write_text("{\"format\": ")
    with pytest.raises(ForestFileError):
        load_forest(tmp_path / "bad.json")
    assert issubclass(ForestFileError, DataError)


@pytest.mark.parametrize("task", ["binary", "multilabel", "multitarget", "regression",
                                  "survival"])
def test_save_writes_the_document_and_load_reads_it(task, tmp_path):
    # save_forest writes tree by tree and load_forest decodes each tree as
    # the parser finishes it; both must agree with the whole-document path
    forest = fit_forest(ROUTE_DATA[task](), ForestParams(n_trees=4, seed=8))
    bare = dataclasses.replace(forest, covariate_names=None, event_grid=None)
    for f in (forest, bare):
        path = tmp_path / "forest.json"
        save_forest(f, path)
        raw = path.read_bytes()
        assert raw == json.dumps(forest_to_dict(f)).encode()
        loaded, decoded = load_forest(path), forest_from_dict(json.loads(raw))
        assert_forests_equal(loaded, decoded)
        assert_forests_equal(loaded, f)
        assert json.dumps(forest_to_dict(loaded)).encode() == raw
    assert forest.covariate_names and (forest.event_grid is not None) == (task == "survival")


def _survival_doc():
    ds = make_survival(80, 3, seed=4)
    return forest_to_dict(fit_forest(ds, ForestParams(n_trees=2, seed=1)))


def _set_sample_fraction(doc, value):
    doc["trees"][1]["sample_fraction"][1] = value


def _set_node_pred(doc, value):
    doc["trees"][0]["node_pred"][2] = [value]


def _shorten_leaf_km(doc):
    curve = next(iter(doc["trees"][0]["leaf_km"].values()))
    curve[1].pop()


def _set_event_grid(doc, edit):
    doc["event_grid"] = edit(doc["event_grid"])


def _set_n_trees(doc, value):
    doc["params"]["n_trees"] = value


# each of these loaded before the check that now rejects it
LOADER_GAPS = {
    "sample-fraction-inf": (lambda doc: _set_sample_fraction(doc, math.inf), "sample fraction"),
    "sample-fraction-above-one": (lambda doc: _set_sample_fraction(doc, 1.5), "sample fraction"),
    "node-pred-inf": (lambda doc: _set_node_pred(doc, math.inf), "prediction is infinite"),
    "node-pred-minus-inf": (lambda doc: _set_node_pred(doc, -math.inf),
                            "prediction is infinite"),
    "leaf-km-lengths-differ": (_shorten_leaf_km, "leaf_km"),
    "event-grid-decreasing": (lambda doc: _set_event_grid(doc, lambda g: g[::-1]),
                              "event grid"),
    "event-grid-repeated": (lambda doc: _set_event_grid(doc, lambda g: g[:1] + g),
                            "event grid"),
    "event-grid-infinite": (lambda doc: _set_event_grid(doc, lambda g: g + [math.inf]),
                            "event grid"),
    "n-trees-negative": (lambda doc: _set_n_trees(doc, -5), "n_trees"),
    "n-trees-above-count": (lambda doc: _set_n_trees(doc, 10), "n_trees"),
}


@pytest.mark.parametrize("gap", sorted(LOADER_GAPS))
def test_loader_rejects_inconsistent_forest(gap, tmp_path):
    doc = _survival_doc()
    forest_from_dict(doc)  # the document loads before the edit
    edit, message = LOADER_GAPS[gap]
    edit(doc)
    with pytest.raises(ForestFileError, match=message):
        forest_from_dict(doc)
    path = tmp_path / "forest.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ForestFileError, match=message):
        load_forest(path)


# each of these loaded as a version-1 forest before the loader read "version"
VERSION_FAULTS = {
    "ninety-nine": (99, "version 99;"),
    "string": ("x", 'version "x";'),
    "true": (True, "version true;"),
    "null": (None, "version null;"),
    "float-one": (1.0, "version 1.0;"),
    "missing": (KeyError, "lacks the key 'version'"),
}


@pytest.mark.parametrize("case", sorted(VERSION_FAULTS))
def test_loader_reads_version(case, tmp_path):
    doc = _survival_doc()
    assert doc["version"] == 1 and forest_from_dict(doc)  # version 1 loads
    value, message = VERSION_FAULTS[case]
    if value is KeyError:
        del doc["version"]
    else:
        doc["version"] = value
    with pytest.raises(ForestFileError, match=message):
        forest_from_dict(doc)
    path = tmp_path / "forest.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ForestFileError, match=message):
        load_forest(path)


# ---------------------------------------------------------------------------
# Stacked routing
# ---------------------------------------------------------------------------

ROUTE_DATA = {
    "binary": lambda: make_binary(90, 5, seed=31),
    "regression": lambda: make_regression(90, 5, seed=32),
    "multitarget": lambda: make_multitarget(90, 5, 3, seed=33),
    "multilabel": lambda: make_multilabel(90, 5, 3, seed=34),
    "survival": lambda: make_survival(90, 5, seed=35),
}


def routed_paths(forest, x):
    levels = route(forest, x)
    return [forest.arena.path(levels, t) for t in range(forest.n_trees)]


def at_thresholds(forest, x):
    """Copies of x that sit exactly on a split threshold of each tree."""
    out = []
    for tree in forest.trees:
        for node in node_path(tree, x)[:-1]:
            y = x.copy()
            y[tree.feature[node]] = tree.threshold[node]
            out.append(y)
    return out


def assert_routes_equal_node_paths(forest, X):
    for x in X:
        levels = route(forest, x)
        paths = [node_path(tree, x) for tree in forest.trees]
        assert levels.shape == (max(map(len, paths)), forest.n_trees)
        assert routed_paths(forest, x) == paths
        leaves = forest.arena.node_pred[levels[-1]]
        for tree, leaf in zip(forest.trees, leaves):
            assert np.array_equal(leaf, tree_predict(tree, x))


@pytest.mark.parametrize("task", sorted(ROUTE_DATA))
def test_route_equals_node_path(task, tmp_path):
    ds = ROUTE_DATA[task]()
    forest = fit_forest(ds, ForestParams(n_trees=12, seed=5))
    X = list(ds.covariates[::9])
    X += at_thresholds(forest, ds.covariates[0])
    assert_routes_equal_node_paths(forest, X)
    save_forest(forest, tmp_path / "forest.json")
    loaded = load_forest(tmp_path / "forest.json")
    assert_routes_equal_node_paths(loaded, X)


def test_route_single_leaf_trees():
    ds = make_binary(60, 4, seed=3)
    stumps = fit_forest(ds, ForestParams(n_trees=4, seed=1, max_depth=0))
    assert route(stumps, ds.covariates[0]).shape == (1, 4)
    assert_routes_equal_node_paths(stumps, ds.covariates[:5])
    deep = fit_forest(ds, ForestParams(n_trees=3, seed=2))
    mixed = make_forest([leaf_tree(0.3)] + deep.trees + [leaf_tree(0.7)], p=4)
    assert_routes_equal_node_paths(mixed, list(ds.covariates[:8]) +
                                   at_thresholds(mixed, ds.covariates[1]))


def test_arena_is_built_lazily_and_follows_replaced_trees():
    ds = make_binary(80, 4, seed=5)
    forest = fit_forest(ds, ForestParams(n_trees=7, seed=2))
    assert forest._arena is None  # fitting does not stack the trees
    x = ds.covariates[3]
    assert_routes_equal_node_paths(forest, [x])
    arena = forest.arena
    assert forest.arena is arena
    forest.trees = forest.trees[::-1]
    assert forest.arena is not arena
    assert_routes_equal_node_paths(forest, [x])


def reference_predictions(forest, X):
    return np.vstack([forest_predict(forest, x) for x in X])


def assert_batch_routes_equal_node_paths(forest, X, train):
    """route_batch, route_leaves, forest_predict_batch and oob_errors
    against per-tree walks, bit for bit."""
    X = np.asarray(X)
    levels = route_batch(forest, X)
    for i, x in enumerate(X):
        paths = [node_path(tree, x) for tree in forest.trees]
        assert [forest.arena.path(levels[:, i], t) for t in range(forest.n_trees)] == paths
    rows = np.repeat(np.arange(X.shape[0]), forest.n_trees)
    trees = np.tile(np.arange(forest.n_trees), X.shape[0])
    leaves = route_leaves(forest, X, rows, trees) - forest.arena.roots[trees]
    assert leaves.tolist() == [node_path(forest.trees[t], X[r])[-1] for r, t in zip(rows, trees)]
    assert forest_predict_batch(forest, X).tobytes() == reference_predictions(forest, X).tobytes()
    assert oob_errors(forest, train).tobytes() == reference_oob_errors(forest, train).tobytes()


@pytest.mark.parametrize("task", sorted(ROUTE_DATA))
def test_batch_routing_equals_per_tree_walks(task, tmp_path, monkeypatch):
    ds = ROUTE_DATA[task]()
    forest = fit_forest(ds, ForestParams(n_trees=12, seed=5))
    stumps = fit_forest(ds, ForestParams(n_trees=3, seed=6, max_depth=0))
    save_forest(forest, tmp_path / "forest.json")
    loaded = load_forest(tmp_path / "forest.json")
    X = np.vstack([ds.covariates[::7]] + at_thresholds(forest, ds.covariates[0]))
    for steps in (forest_mod._STEP_ROWS, 5):  # one block, and blocks of 5 pairs
        monkeypatch.setattr(forest_mod, "_STEP_ROWS", steps)
        for f in (forest, stumps, loaded):
            assert_batch_routes_equal_node_paths(f, X, ds)


def test_batch_routing_over_several_blocks():
    ds = make_binary(200, 5, seed=36)
    forest = fit_forest(ds, ForestParams(n_trees=100, seed=7))
    assert ds.n * forest.n_trees > forest_mod._STEP_ROWS
    assert_batch_routes_equal_node_paths(forest, ds.covariates, ds)
