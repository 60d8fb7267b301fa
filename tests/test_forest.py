import json

import numpy as np
import pytest

from bellatrex.data import Dataset, TaskKind
from bellatrex.errors import DataError, ForestFileError
from bellatrex.forest import (
    ForestParams,
    apply,
    best_split,
    decision_path,
    fit_forest,
    forest_from_dict,
    forest_predict,
    forest_to_dict,
    gini,
    load_forest,
    oob_errors,
    path_length,
    save_forest,
    tree_predict,
    variance_reduction,
)
from bellatrex.survival import logrank_score
from bellatrex.synthdata import make_binary, make_multitarget, make_survival

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
