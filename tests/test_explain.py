import json
from types import SimpleNamespace

import numpy as np
import pytest

import bellatrex.explain as explain_mod
from bellatrex.explain import (
    MODE_SIMPLE,
    MODE_WEIGHTED,
    AblationFlags,
    TuningGrid,
    derive_seed,
    explain_batch,
    explain_fixed,
    plot_tsv,
    preselect,
    render_json,
    render_text,
    tune_and_explain,
)
from bellatrex.forest import ForestParams, decision_path, fit_forest, node_path, route
from bellatrex.numeric import identity_projection, pca_transform
from bellatrex.synthdata import (
    make_binary,
    make_multilabel,
    make_multitarget,
    make_regression,
    make_survival,
)

from conftest import leaf_tree, make_forest, make_tree
from fold_reference import rule_vectors


def chain_tree(features, omegas, preds=None, leaf_value=0.5):
    """Left-spine tree: the all-negative instance takes every left branch.
    features/omegas describe the split nodes root-down."""
    s = len(features)
    preds = preds if preds is not None else [0.5] * (s + 1)
    nodes = []
    for i, (j, w) in enumerate(zip(features, omegas)):
        nodes.append({
            "feature": j, "threshold": 0.0,
            "left": i + 1 if i < s - 1 else s,
            "right": s + 1 + i,
            "fraction": w, "pred": preds[i],
        })
    nodes.append({"pred": preds[s], "fraction": omegas[-1] / 2 if omegas else 1.0})
    for i in range(s):
        nodes.append({"pred": 0.9, "fraction": 0.01})
    return make_tree(nodes)


# ---------------------------------------------------------------------------
# Pre-selection
# ---------------------------------------------------------------------------

def test_preselect_hand_case():
    forest = make_forest([leaf_tree(0.4), leaf_tree(0.5), leaf_tree(0.9)], p=2)
    chosen = preselect(forest, np.zeros(2), 2)
    assert chosen.tolist() == [1, 0]  # distances 0.1 and 0.2 from 0.6


def test_preselect_full_returns_all_by_proximity():
    forest = make_forest([leaf_tree(0.4), leaf_tree(0.5), leaf_tree(0.9)], p=2)
    chosen = preselect(forest, np.zeros(2), 3)
    assert chosen.tolist() == [1, 0, 2]


def test_preselect_tie_prefers_lower_tree_index():
    forest = make_forest([leaf_tree(0.5), leaf_tree(0.7)], p=1)
    chosen = preselect(forest, np.zeros(1), 2)
    assert chosen.tolist() == [0, 1]


def test_preselect_bounds():
    forest = make_forest([leaf_tree(0.4)], p=1)
    with pytest.raises(ValueError):
        preselect(forest, np.zeros(1), 2)


# ---------------------------------------------------------------------------
# Vectorization
# ---------------------------------------------------------------------------

def vectorize(tree, x, mode):
    """The rule vector of x's path through a one-tree forest, gathered from
    its routed level matrix (``path_vectors``)."""
    forest = make_forest([tree], p=x.size)
    levels = route(forest, x)
    return SimpleNamespace(values=explain_mod.path_vectors(forest.arena, levels.T, mode, x.size)[0])


def test_vectorize_root_leaf_zero_vector():
    tree = leaf_tree(0.5)
    x = np.zeros(4)
    for mode in (MODE_SIMPLE, MODE_WEIGHTED):
        vec = vectorize(tree, x, mode)
        assert np.array_equal(vec.values, np.zeros(4))


def test_vectorize_repeat_covariate_counts_and_weights():
    tree = chain_tree(features=[3, 3], omegas=[1.0, 0.4])
    x = -np.ones(5)
    simple = vectorize(tree, x, MODE_SIMPLE)
    weighted = vectorize(tree, x, MODE_WEIGHTED)
    assert simple.values.tolist() == [0, 0, 0, 2, 0]
    assert weighted.values[3] == pytest.approx(1.4)


def test_weighted_root_difference_dominates_deep_difference():
    x = -np.ones(10)
    suffix = [2, 3, 4, 5, 6]
    w_suffix = [0.5, 0.3, 0.2, 0.1, 0.05]
    a = vectorize(chain_tree([0] + suffix, [1.0] + w_suffix), x, MODE_WEIGHTED)
    b = vectorize(chain_tree([1] + suffix, [1.0] + w_suffix), x, MODE_WEIGHTED)
    c = vectorize(chain_tree(suffix + [7], w_suffix + [0.05]), x, MODE_WEIGHTED)
    d = vectorize(chain_tree(suffix + [8], w_suffix + [0.05]), x, MODE_WEIGHTED)
    root_diff = np.linalg.norm(a.values - b.values)
    deep_diff = np.linalg.norm(c.values - d.values)
    assert root_diff > deep_diff


def test_vectorize_weighted_entries_bounded_by_path_length():
    ds = make_binary(120, 6, seed=1)
    forest = fit_forest(ds, ForestParams(n_trees=10, seed=2))
    x = ds.covariates[0]
    for tree in forest.trees:
        simple = vectorize(tree, x, MODE_SIMPLE).values
        weighted = vectorize(tree, x, MODE_WEIGHTED).values
        assert np.all(weighted <= simple + 1e-12)  # every omega <= 1
        assert np.all(simple == np.round(simple))


def running_sum_vector(steps, mode, p):
    """Rule vector by a loop along the path, root first."""
    values = np.zeros(p)
    for step in steps[:-1]:
        values[step.feature] += 1.0 if mode == MODE_SIMPLE else step.sample_fraction
    return values


def test_rule_vectors_equal_running_sums():
    ds = make_regression(150, 7, seed=3)
    forest = fit_forest(ds, ForestParams(n_trees=12, seed=4))
    for x in ds.covariates[:10]:
        paths = [node_path(tree, x) for tree in forest.trees]
        for mode in (MODE_SIMPLE, MODE_WEIGHTED):
            stacked = rule_vectors(forest.trees, paths, mode, forest.p)
            expected = np.vstack([running_sum_vector(decision_path(tree, x), mode, forest.p)
                                  for tree in forest.trees])
            assert np.array_equal(stacked, expected)


def test_routed_vectors_equal_rule_vectors():
    ds = make_regression(150, 7, seed=3)
    forest = fit_forest(ds, ForestParams(n_trees=12, seed=4))
    for x in ds.covariates[:10]:
        routes = explain_mod._route(forest, x)
        selected = routes.order[:9]
        paths = [node_path(forest.trees[i], x) for i in selected]
        for mode in (MODE_SIMPLE, MODE_WEIGHTED):
            expected = rule_vectors([forest.trees[i] for i in selected], paths, mode, forest.p)
            routed = explain_mod.path_vectors(forest.arena, routes.levels[:, selected].T, mode,
                                              forest.p)
            assert routed.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# explain_fixed
# ---------------------------------------------------------------------------

def four_tree_forest():
    # three identical-path trees predicting 0.5, one odd tree predicting 0.1
    trees = [
        chain_tree([0], [1.0], preds=[0.4, 0.5]),
        chain_tree([0], [1.0], preds=[0.4, 0.5]),
        chain_tree([0], [1.0], preds=[0.4, 0.5]),
        chain_tree([1], [1.0], preds=[0.4, 0.1]),
    ]
    return make_forest(trees, p=3)


def test_explain_fixed_cluster_size_weights():
    forest = four_tree_forest()
    x = -np.ones(3)
    e = explain_fixed(forest, x, tau=4, dim=None, n_clusters=2, seed=0)
    assert sorted(e.weights) == [0.25, 0.75]
    assert e.chosen_k == 2
    # surrogate: 0.75 * 0.5 + 0.25 * 0.1 = 0.4 = forest prediction
    assert e.surrogate == pytest.approx([0.4])
    assert e.fidelity == pytest.approx(1.0)


def test_explain_fixed_k1_returns_representative_prediction():
    forest = four_tree_forest()
    x = -np.ones(3)
    e = explain_fixed(forest, x, tau=4, dim=None, n_clusters=1, seed=0)
    assert len(e.final_rules) == 1
    assert e.weights == [1.0]
    assert np.array_equal(e.surrogate, e.final_rules[0].prediction)


def test_explain_fixed_identical_trees_perfect_fidelity():
    forest = make_forest([leaf_tree(0.3) for _ in range(6)], p=2)
    x = np.zeros(2)
    for dim in (2, None):
        for k in (1, 2):
            e = explain_fixed(forest, x, tau=4, dim=dim, n_clusters=k, seed=1)
            assert e.fidelity == pytest.approx(1.0)
            assert e.chosen_k == 1  # identical vectors clamp the clustering
            assert e.k_clamped == (k > 1)


def test_explain_fixed_validates_arguments():
    forest = four_tree_forest()
    x = -np.ones(3)
    with pytest.raises(ValueError):
        explain_fixed(forest, x, tau=9, dim=None, n_clusters=1)
    with pytest.raises(ValueError):
        explain_fixed(forest, x, tau=4, dim=None, n_clusters=5)


def test_weights_sum_to_one_and_convex_hull(rng):
    ds = make_binary(150, 6, seed=4)
    forest = fit_forest(ds, ForestParams(n_trees=30, seed=5))
    for i in range(5):
        x = ds.covariates[int(rng.integers(150))]
        e = explain_fixed(forest, x, tau=20, dim=2, n_clusters=3, seed=int(i))
        assert sum(e.weights) == pytest.approx(1.0, abs=1e-12)
        reps = np.vstack([r.prediction for r in e.final_rules])
        assert np.all(e.surrogate >= reps.min(axis=0) - 1e-12)
        assert np.all(e.surrogate <= reps.max(axis=0) + 1e-12)


# ---------------------------------------------------------------------------
# tune_and_explain
# ---------------------------------------------------------------------------

def test_tune_identical_forest_tie_break():
    forest = make_forest([leaf_tree(0.3) for _ in range(100)], p=3)
    e = tune_and_explain(forest, np.zeros(3), seed=0)
    assert e.fidelity == pytest.approx(1.0)
    assert (e.chosen_tau, e.chosen_d, e.requested_k) == (20, 2, 1)


def test_tune_matches_exhaustive_grid(rng):
    ds = make_binary(120, 5, seed=6)
    forest = fit_forest(ds, ForestParams(n_trees=20, seed=7))
    grid = TuningGrid(taus=(5, 10, 20), dims=(2, None), ks=(1, 2))
    for trial in range(3):
        x = ds.covariates[int(rng.integers(120))]
        seed = 100 + trial
        best = tune_and_explain(forest, x, grid, seed=seed)
        fidelities = []
        for idx, (tau, dim, k) in enumerate(grid.cells()):
            cell = explain_fixed(forest, x, tau, dim, k, seed=derive_seed(seed, idx))
            fidelities.append(cell.fidelity)
        assert best.fidelity == max(fidelities)


def test_tune_derives_seeds_only_for_multi_cluster_cells(monkeypatch):
    ds = make_binary(120, 5, seed=6)
    forest = fit_forest(ds, ForestParams(n_trees=20, seed=7))
    grid = TuningGrid(taus=(5, 10, 20), dims=(2, None), ks=(1, 2, 3))
    calls = []

    def counted(parts):
        calls.extend(tuple(p) for p in parts)
        return [derive_seed(*p) for p in parts]

    monkeypatch.setattr(explain_mod, "derive_seeds", counted)
    tune_and_explain(forest, ds.covariates[4], grid, seed=9)
    # cells are numbered in grid order whether or not they take a seed
    assert calls == [(9, idx) for idx, (_, _, k) in enumerate(grid.cells()) if k > 1]


def test_tune_skip_preselection_uses_all_trees():
    ds = make_binary(80, 4, seed=8)
    forest = fit_forest(ds, ForestParams(n_trees=25, seed=9))
    grid = TuningGrid(taus=(5, 10), dims=(2,), ks=(1, 2))
    e = tune_and_explain(forest, ds.covariates[0], grid,
                         flags=AblationFlags(skip_preselection=True), seed=3)
    assert e.chosen_tau == 25
    assert e.preselected.size == 25


def test_tune_skip_projection_reports_full_dimension():
    ds = make_binary(80, 4, seed=8)
    forest = fit_forest(ds, ForestParams(n_trees=25, seed=9))
    grid = TuningGrid(taus=(5, 10), dims=(2,), ks=(1, 2))
    e = tune_and_explain(forest, ds.covariates[0], grid,
                         flags=AblationFlags(skip_projection=True), seed=3)
    assert e.chosen_d == forest.p


def test_tune_deterministic():
    ds = make_binary(100, 5, seed=10)
    forest = fit_forest(ds, ForestParams(n_trees=15, seed=11))
    grid = TuningGrid(taus=(5, 15), dims=(2, None), ks=(1, 2, 3))
    x = ds.covariates[4]
    a = tune_and_explain(forest, x, grid, seed=42)
    b = tune_and_explain(forest, x, grid, seed=42)
    assert a.fidelity == b.fidelity
    assert a.weights == b.weights
    assert [r.tree_index for r in a.final_rules] == [r.tree_index for r in b.final_rules]
    assert np.array_equal(a.projected, b.projected)


def exhaustive_winner(forest, x, grid, mode, flags, seed):
    """The tuning rule applied to explain_fixed run at every cell of the
    effective grid, each with its own derived seed."""
    taus = (forest.n_trees,) if flags.skip_preselection else grid.taus
    dims = (None,) if flags.skip_projection else grid.dims
    cells = TuningGrid(taus=taus, dims=dims, ks=grid.ks).cells()
    best, best_key = None, None
    for idx, (tau, dim, k) in enumerate(cells):
        e = explain_fixed(forest, x, tau, dim, k, mode=mode, seed=derive_seed(seed, idx))
        key = (-e.fidelity, e.requested_k, e.chosen_d, e.chosen_tau)
        if best_key is None or key < best_key:
            best, best_key = e, key
    return best


def assert_same_explanation(a, b):
    """Every field equal, bit for bit."""
    for name in ("instance", "surrogate", "forest_prediction", "preselected",
                 "projected", "clusters", "representative", "rule_predictions"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for name in ("chosen_tau", "chosen_d", "chosen_k", "mode", "fidelity",
                 "k_clamped", "requested_k"):
        assert getattr(a, name) == getattr(b, name), name
    assert len(a.final_rules) == len(b.final_rules)
    for ra, rb in zip(a.final_rules, b.final_rules):
        assert (ra.tree_index, ra.weight) == (rb.tree_index, rb.weight)
        assert np.array_equal(ra.prediction, rb.prediction)
        assert len(ra.steps) == len(rb.steps)
        for sa, sb in zip(ra.steps, rb.steps):
            assert (sa.node_id, sa.feature, sa.threshold, sa.went_left,
                    sa.sample_fraction) == (sb.node_id, sb.feature, sb.threshold,
                                            sb.went_left, sb.sample_fraction)
            assert np.array_equal(sa.prediction, sb.prediction)


TASK_DATA = {
    "binary": lambda: make_binary(70, 6, seed=21),
    "regression": lambda: make_regression(70, 6, seed=22),
    "multitarget": lambda: make_multitarget(70, 6, 3, seed=23),
    "multilabel": lambda: make_multilabel(70, 6, 3, seed=24),
    "survival": lambda: make_survival(70, 6, seed=25),
}
ALL_FLAGS = [AblationFlags(a, b) for a in (False, True) for b in (False, True)]


@pytest.mark.parametrize("task", sorted(TASK_DATA))
def test_tuned_explanation_is_explain_fixed_at_its_cell(task):
    # p = 6 lies between the taus, so both PCA routes (Gram for tau < p,
    # covariance for tau >= p) are taken; d = 8 is clamped to p
    ds = TASK_DATA[task]()
    forest = fit_forest(ds, ForestParams(n_trees=14, seed=3))
    grid = TuningGrid(taus=(4, 9), dims=(2, 8, None), ks=(1, 2, 3))
    for mode in (MODE_SIMPLE, MODE_WEIGHTED):
        for f, flags in enumerate(ALL_FLAGS):
            for row in (0, 33):
                x = ds.covariates[row]
                seed = 7 * row + f
                tuned = tune_and_explain(forest, x, grid, mode, flags=flags, seed=seed)
                assert_same_explanation(
                    tuned, exhaustive_winner(forest, x, grid, mode, flags, seed))


@pytest.mark.parametrize("task", sorted(TASK_DATA) + ["one-covariate"])
def test_explain_batch_equals_per_instance_tuning(task, monkeypatch):
    # mixed modes and all four arms, in a batch cut into lockstep chunks of
    # 12 (each chunk mostly one or two (mode, arm) pairs): most steps hold
    # same-shape groups large enough for kmeans_batch, and one covariate
    # (d = 1) clusters one column
    ds = make_regression(70, 1, seed=26) if task == "one-covariate" else TASK_DATA[task]()
    forest = fit_forest(ds, ForestParams(n_trees=14, seed=3))
    grid = TuningGrid(taus=(4, 9), dims=(2, 8, None), ks=(1, 2, 3))
    requests = [(row, (MODE_SIMPLE, MODE_WEIGHTED)[j % 2], ALL_FLAGS[j % 4], 7 * row + j)
                for j in range(8) for row in (0, 5, 12, 20, 33, 41, 50, 60)]
    batches = []
    kmeans_batch = explain_mod.kmeans_batch

    def counted(cells, *args):
        batches.append(cells.rows.shape[0])
        return kmeans_batch(cells, *args)

    monkeypatch.setattr(explain_mod, "kmeans_batch", counted)
    monkeypatch.setattr(explain_mod, "_LOCKSTEP_INSTANCES", 12)
    # the batched projection path: stacks of at least _BATCH_INSTANCES
    # matrices, by PCA and by the identity
    blocks, spectra = [], []
    sorted_stack, pca_spectra = explain_mod.sorted_stack, explain_mod.pca_spectra
    monkeypatch.setattr(explain_mod, "sorted_stack",
                        lambda projected: blocks.append(len(projected)) or sorted_stack(projected))
    monkeypatch.setattr(explain_mod, "pca_spectra",
                        lambda vectors: spectra.append(len(vectors)) or pca_spectra(vectors))
    rows, modes, flags, seeds = zip(*requests)
    explained = explain_batch(forest, ds.covariates[list(rows)], grid, modes, flags, seeds)
    assert batches
    assert spectra and len(blocks) > len(spectra)
    assert min(blocks + spectra) >= explain_mod._BATCH_INSTANCES
    for (row, mode, arm, seed), got in zip(requests, explained):
        assert_same_explanation(
            got, tune_and_explain(forest, ds.covariates[row], grid, mode, arm, seed))


@pytest.mark.parametrize("task", sorted(TASK_DATA) + ["one-covariate"])
def test_small_blocks_equal_per_instance_tuning(task, monkeypatch):
    # blocks of 3 and 4 instances: their same-shape K > 1 groups hold few
    # cells (two per instance when K = 2 and a clamped K = 3 meet), and
    # each group is still clustered by one kmeans_batch
    ds = make_regression(70, 1, seed=26) if task == "one-covariate" else TASK_DATA[task]()
    forest = fit_forest(ds, ForestParams(n_trees=14, seed=3))
    grid = TuningGrid(taus=(4, 9), dims=(2, 8, None), ks=(1, 2, 3))
    batches = []
    kmeans_batch = explain_mod.kmeans_batch

    def counted(cells, *args):
        batches.append(cells.rows.shape[0])
        return kmeans_batch(cells, *args)

    monkeypatch.setattr(explain_mod, "kmeans_batch", counted)
    monkeypatch.setattr(explain_mod, "_BATCH_INSTANCES", 3)  # blocks of 3 on the block path
    for rows in ([0, 33, 50], [5, 12, 41, 60]):
        for mode in (MODE_SIMPLE, MODE_WEIGHTED):
            for arm in (AblationFlags(), AblationFlags(skip_projection=True)):
                seeds = [3 * row + 1 for row in rows]
                explained = explain_batch(forest, ds.covariates[rows], grid, mode, arm, seeds)
                for row, seed, got in zip(rows, seeds, explained):
                    assert_same_explanation(
                        got, tune_and_explain(forest, ds.covariates[row], grid, mode, arm, seed))
    assert batches and max(batches) <= 8 and min(batches) < 5


def test_three_instances_are_tuned_one_at_a_time(monkeypatch):
    # at three instances a (tau, d) step's K > 1 groups hold one to six
    # cells, and a kmeans_batch over them cost more than one SortedRows.kmeans
    # per cell
    ds = TASK_DATA["binary"]()
    forest = fit_forest(ds, ForestParams(n_trees=14, seed=3))
    calls = []
    kmeans_batch = explain_mod.kmeans_batch
    monkeypatch.setattr(explain_mod, "kmeans_batch",
                        lambda *args: calls.append(1) or kmeans_batch(*args))
    grid = TuningGrid(taus=(4, 9), dims=(2, 8, None), ks=(1, 2, 3))
    explained = explain_batch(forest, ds.covariates[[0, 33, 50]], grid, seeds=[1, 2, 3])
    assert not calls
    for row, seed, got in zip([0, 33, 50], [1, 2, 3], explained):
        assert_same_explanation(got, tune_and_explain(forest, ds.covariates[row], grid,
                                                      seed=seed))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("task", sorted(TASK_DATA))
def test_identity_step_clusters_the_rule_vectors(task, monkeypatch):
    # at d = none both tuning paths sort and cluster the rule vectors
    # themselves, bit for bit the identity projection's pca_transform
    ds = TASK_DATA[task]()
    forest = fit_forest(ds, ForestParams(n_trees=14, seed=3))
    grid = TuningGrid(taus=(4, 9), dims=(None,), ks=(1, 2))
    sorted_seen = []
    sorted_rows, sorted_stack = explain_mod.sorted_rows, explain_mod.sorted_stack
    monkeypatch.setattr(explain_mod, "sorted_rows",
                        lambda X: sorted_seen.append(X) or sorted_rows(X))
    monkeypatch.setattr(explain_mod, "sorted_stack",
                        lambda X: sorted_seen.append(X) or sorted_stack(X))
    identity = identity_projection(forest.p)
    rows = [0, 5, 12, 20]
    for mode in (MODE_SIMPLE, MODE_WEIGHTED):
        want = {}  # (row, tau) -> rule vectors of the tau trees nearest the forest
        for row in rows:
            x = ds.covariates[row]
            for tau in grid.taus:
                trees = [forest.trees[int(i)] for i in preselect(forest, x, tau)]
                want[row, tau] = rule_vectors(trees, [node_path(t, x) for t in trees],
                                              mode, forest.p)
                assert same_bits(pca_transform(identity, want[row, tau]), want[row, tau])
        for block in ([0], rows):  # one instance alone, then a block of four
            sorted_seen.clear()
            explained = explain_batch(forest, ds.covariates[block], grid, mode)
            assert [e.chosen_d for e in explained] == [forest.p] * len(block)
            expected = [np.stack([want[row, tau] for row in block]) if len(block) > 1
                        else want[block[0], tau] for tau in grid.taus]
            assert len(sorted_seen) == len(expected)
            for seen, wanted in zip(sorted_seen, expected):
                assert same_bits(seen, wanted)


# ---------------------------------------------------------------------------
# Instance validation
# ---------------------------------------------------------------------------

def bad_instance_calls(x):
    forest = four_tree_forest()  # p = 3
    return [
        lambda: tune_and_explain(forest, x, TuningGrid(taus=(2, 4), ks=(1, 2))),
        lambda: explain_fixed(forest, x, tau=4, dim=2, n_clusters=2),
        lambda: preselect(forest, x, 2),
    ]


def test_all_nan_instance_rejected():
    for call in bad_instance_calls(np.full(3, np.nan)):
        with pytest.raises(ValueError, match="non-finite"):
            call()


def test_infinite_value_rejected():
    for call in bad_instance_calls(np.array([0.0, np.inf, 1.0])):
        with pytest.raises(ValueError, match="non-finite"):
            call()


def test_too_long_instance_rejected():
    for call in bad_instance_calls(-np.ones(4)):
        with pytest.raises(ValueError, match="shape"):
            call()


def test_too_short_instance_rejected():
    for call in bad_instance_calls(-np.ones(2)):
        with pytest.raises(ValueError, match="shape"):
            call()


def test_explain_batch_validates_instances_as_one_array():
    # a 1-D X is one malformed batch, not p instances of shape (); a
    # non-finite value names its 0-based instance row
    forest = four_tree_forest()  # p = 3
    grid = TuningGrid(taus=(2, 4), ks=(1, 2))
    with pytest.raises(ValueError, match=r"shape \(m, 3\), got \(3,\)"):
        explain_batch(forest, -np.ones(3), grid)
    with pytest.raises(ValueError, match=r"shape \(m, 3\), got \(2, 4\)"):
        explain_batch(forest, -np.ones((2, 4)), grid)
    X = -np.ones((4, 3))
    X[2, 1] = np.inf
    with pytest.raises(ValueError, match="instance 2 has a non-finite value"):
        explain_batch(forest, X, grid)
    X[2, 1], X[3, 0] = -1.0, np.nan
    with pytest.raises(ValueError, match="instance 3 has a non-finite value"):
        explain_batch(forest, X, grid)
    assert explain_batch(forest, [], grid) == []


def test_grid_validation():
    with pytest.raises(ValueError):
        TuningGrid(taus=(200,)).validate(100)
    with pytest.raises(ValueError):
        TuningGrid(taus=(5,), ks=(6,)).validate(100)
    with pytest.raises(ValueError):
        TuningGrid(taus=()).validate(100)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def six_split_explanation():
    features = [0, 1, 1, 2, 3, 1]
    omegas = [1.0, 0.8, 0.5, 0.3, 0.2, 0.1]
    preds = [0.390, 0.317, 0.209, 0.271, 0.238, 0.275, 0.244]
    tree = chain_tree(features, omegas, preds=preds)
    forest = make_forest([tree], p=4)
    x = -np.ones(4)
    return forest, explain_fixed(forest, x, tau=1, dim=None, n_clusters=1, seed=0)


def test_render_text_six_split_rule():
    forest, e = six_split_explanation()
    text = render_text(e, forest.covariate_names, forest)
    split_lines = [ln for ln in text.splitlines() if ln.startswith("  (")]
    assert len(split_lines) == 6
    assert split_lines[-1].endswith("(leaf)")
    assert "initial estimate = 0.390" in text
    assert "-> 0.317" in split_lines[0]
    assert "0.244" in split_lines[-1]


def test_render_text_root_leaf_rule_header_only():
    forest = make_forest([leaf_tree(0.42)], p=2)
    e = explain_fixed(forest, np.zeros(2), tau=1, dim=None, n_clusters=1, seed=0)
    text = render_text(e, forest.covariate_names, forest)
    assert "initial estimate = 0.420" in text
    assert not [ln for ln in text.splitlines() if ln.startswith("  (")]


def test_render_text_two_rules_ordered_by_weight():
    forest = four_tree_forest()
    e = explain_fixed(forest, -np.ones(3), tau=4, dim=None, n_clusters=2, seed=0)
    text = render_text(e, forest.covariate_names, forest)
    assert "rule 1 (w_1=0.75)" in text
    assert "rule 2 (w_2=0.25)" in text


def test_render_json_schema():
    forest, e = six_split_explanation()
    doc = render_json(e, forest.covariate_names, forest)
    for key in ("chosen_tau", "chosen_d", "chosen_k", "rules", "weights",
                "surrogate", "forest_prediction", "fidelity", "projected_points"):
        assert key in doc
    assert len(doc["projected_points"]) == e.preselected.size
    rule = doc["rules"][0]
    assert rule["length"] == 6
    assert len(rule["steps"]) == 6
    step = rule["steps"][0]
    for key in ("feature", "value", "threshold", "direction", "prediction"):
        assert key in step
    json.dumps(doc)  # must be serializable


def test_plot_tsv_rows():
    forest = four_tree_forest()
    e = explain_fixed(forest, -np.ones(3), tau=4, dim=None, n_clusters=2, seed=0)
    lines = plot_tsv(e).strip().splitlines()
    assert lines[0].split("\t") == ["x", "y", "cluster", "is_representative",
                                    "rule_prediction"]
    assert len(lines) == 1 + 4
    reps = [ln for ln in lines[1:] if ln.split("\t")[3] == "1"]
    assert len(reps) == 2
