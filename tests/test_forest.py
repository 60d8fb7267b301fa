import json
import math

import numpy as np
import pytest

import bellatrex.forest as forest_mod
from bellatrex.data import Dataset, TaskKind
from bellatrex.errors import DataError, ForestFileError
from bellatrex.forest import (
    _MIN_GAIN,
    ForestParams,
    _event_tables,
    _logrank_screen,
    apply,
    best_split,
    decision_path,
    fit_forest,
    forest_from_dict,
    forest_predict,
    forest_to_dict,
    gini,
    load_forest,
    node_path,
    oob_errors,
    path_length,
    route,
    save_forest,
    tree_predict,
    variance_reduction,
)
from bellatrex.survival import logrank_score
from bellatrex.synthdata import (
    make_binary,
    make_multilabel,
    make_multitarget,
    make_regression,
    make_survival,
)

from conftest import leaf_tree, make_forest, make_tree


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

def test_gini_pure_zero():
    assert gini([1, 1, 1]) == 0.0


def test_gini_balanced_half():
    assert gini([0, 1, 0, 1]) == 0.5


def test_gini_quarter():
    assert gini([1, 0, 0, 0]) == pytest.approx(2 * 0.25 * 0.75)


def test_variance_reduction_identical_halves_zero():
    parent = np.array([1.0, 2.0, 1.0, 2.0])
    assert variance_reduction(parent, parent[:2], parent[2:]) == pytest.approx(0.0)


def test_variance_reduction_perfect_split():
    parent = np.array([0.0, 0.0, 1.0, 1.0])
    red = variance_reduction(parent, parent[:2], parent[2:])
    assert red == pytest.approx(0.25)


def test_variance_reduction_constant_target_halves_average():
    varying = np.array([0.0, 0.0, 1.0, 1.0])
    constant = np.full(4, 3.0)
    single = variance_reduction(varying, varying[:2], varying[2:])
    double = variance_reduction(
        np.column_stack([varying, constant]),
        np.column_stack([varying[:2], constant[:2]]),
        np.column_stack([varying[2:], constant[2:]]),
    )
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


def reference_best_split(X, Y, task, rows, candidates):
    """One scan per candidate covariate; strict improvement keeps the lowest
    covariate index on ties."""
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


@pytest.mark.parametrize("make", [
    lambda: make_binary(120, 6, seed=1),
    lambda: make_regression(120, 6, seed=2),
    lambda: make_multitarget(100, 5, 3, seed=3),
    lambda: make_multilabel(100, 5, 3, seed=4),
    lambda: make_survival(150, 6, seed=5),
], ids=["binary", "regression", "multi-target", "multi-label", "survival"])
def test_forest_equals_reference_scan_forest(make, monkeypatch):
    ds = make()
    params = ForestParams(n_trees=3, seed=11, min_samples_split=4)
    fitted = _fit_json(ds, params)
    monkeypatch.setattr(forest_mod, "best_split", reference_best_split)
    assert fitted == _fit_json(ds, params)


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
    ranks, n_risk, n_events = _event_tables(times, events)
    score, keep = _logrank_screen(ranks[order], events[order], n_risk, n_events, is_cut)
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


def test_fit_thread_independent(monkeypatch):
    ds = make_binary(80, 5, seed=3)
    monkeypatch.setenv("BELLATREX_THREADS", "1")
    a = fit_forest(ds, ForestParams(n_trees=8, seed=7))
    monkeypatch.setenv("BELLATREX_THREADS", "4")
    b = fit_forest(ds, ForestParams(n_trees=8, seed=7))
    assert json.dumps(forest_to_dict(a)) == json.dumps(forest_to_dict(b))


def test_min_split_default_by_task():
    assert ForestParams().resolve_min_split(TaskKind.BINARY) == 5
    assert ForestParams().resolve_min_split(TaskKind.SURVIVAL) == 10


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
        leaves = apply(tree, X[tree.bootstrap_indices])
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
    assert a.task is b.task and a.p == b.p
    assert a.min_samples_split == b.min_samples_split and a.mtry == b.mtry
    if a.event_grid is None:
        assert b.event_grid is None
    else:
        assert np.array_equal(a.event_grid, b.event_grid)
    for ta, tb in zip(a.trees, b.trees):
        for attr in ("feature", "threshold", "left", "right", "sample_fraction",
                     "sample_count", "node_pred", "bootstrap_indices", "oob_indices"):
            va, vb = getattr(ta, attr), getattr(tb, attr)
            assert np.array_equal(va, vb, equal_nan=True), attr
        assert set(ta.leaf_km) == set(tb.leaf_km)
        for node in ta.leaf_km:
            assert np.array_equal(ta.leaf_km[node].times, tb.leaf_km[node].times)
            assert np.array_equal(ta.leaf_km[node].values, tb.leaf_km[node].values)


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
