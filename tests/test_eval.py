import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellatrex.data import TaskKind
from bellatrex.errors import UndefinedMetricError
from bellatrex.evaluation import (
    BenchmarkConfig,
    MetricReport,
    aggregate_reports,
    baseline_oob_trees,
    benchmark_json,
    benchmark_tsv,
    performance_metric,
    run_ablation,
    run_benchmark,
)
from bellatrex.explain import MODE_SIMPLE, TuningGrid, explain_batch
from bellatrex.forest import ForestParams, fit_forest, fit_forests, forest_predict
from bellatrex.metrics import (
    DECISION_LIST,
    RULE_COLLECTION,
    TREE_PATHS,
    auroc,
    complexity,
    dissimilarity,
    jaccard_similarity,
    mae,
    weighted_auroc,
)
from bellatrex.synthdata import (
    make_binary,
    make_multilabel,
    make_multitarget,
    make_regression,
    make_survival,
)

from conftest import leaf_tree, make_forest


def auroc_oracle(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# AUROC / MAE
# ---------------------------------------------------------------------------

def test_auroc_perfect_separation():
    assert auroc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0


def test_auroc_all_ties():
    assert auroc([0.5] * 6, [1, 0, 1, 0, 1, 0]) == 0.5


def test_auroc_mixed_case_matches_pair_oracle():
    scores = [0.1, 0.4, 0.35, 0.8, 0.4]
    labels = [0, 0, 1, 1, 1]
    assert auroc(scores, labels) == pytest.approx(auroc_oracle(scores, labels))


def test_auroc_single_class_undefined():
    with pytest.raises(UndefinedMetricError):
        auroc([0.1, 0.2], [1, 1])


@given(st.lists(st.tuples(st.integers(0, 20), st.booleans()), min_size=2, max_size=80))
@settings(max_examples=200, deadline=None)
def test_auroc_matches_oracle_with_ties(data):
    scores = [float(s) for s, _ in data]
    labels = [int(l) for _, l in data]
    if len(set(labels)) < 2:
        return
    assert auroc(scores, labels) == pytest.approx(auroc_oracle(scores, labels),
                                                  abs=1e-12)


def test_weighted_auroc_identical_columns_equals_single():
    scores = np.array([[0.8], [0.3], [0.6], [0.2]])
    labels = np.array([[1], [0], [1], [0]])
    s3 = np.tile(scores, (1, 3))
    l3 = np.tile(labels, (1, 3))
    assert weighted_auroc(s3, l3) == pytest.approx(auroc(scores[:, 0], labels[:, 0]))


def test_weighted_auroc_hand_weights():
    # label 0: one positive, ranked top -> AUROC 1.0, weight 1
    # label 1: three positives, constant scores -> AUROC 0.5, weight 3
    scores = np.array([[0.9, 0.5], [0.1, 0.5], [0.2, 0.5], [0.3, 0.5]])
    labels = np.array([[1, 1], [0, 1], [0, 1], [0, 0]])
    assert weighted_auroc(scores, labels) == pytest.approx(0.625)


def test_weighted_auroc_drops_degenerate_label():
    scores = np.array([[0.9, 0.4], [0.1, 0.6], [0.8, 0.1], [0.2, 0.9]])
    labels = np.array([[1, 1], [0, 1], [1, 1], [0, 1]])
    expected = auroc(scores[:, 0], labels[:, 0])
    assert weighted_auroc(scores, labels) == pytest.approx(expected)


def test_weighted_auroc_all_degenerate_undefined():
    with pytest.raises(UndefinedMetricError):
        weighted_auroc(np.ones((3, 2)), np.ones((3, 2)))


def test_mae_zero_when_equal():
    assert mae([0.3, 0.4], [0.3, 0.4]) == 0.0


def test_mae_hand_case():
    assert mae([0.2, 0.4], [0.0, 1.0]) == pytest.approx(0.4)


def test_mae_multitarget_averages_targets():
    pred = np.array([[0.0, 1.0], [1.0, 1.0]])
    truth = np.array([[0.0, 0.0], [0.0, 1.0]])
    per_target = 0.5 * (mae(pred[:, 0], truth[:, 0]) + mae(pred[:, 1], truth[:, 1]))
    assert mae(pred, truth) == pytest.approx(per_target)


# ---------------------------------------------------------------------------
# Complexity / Jaccard / dissimilarity
# ---------------------------------------------------------------------------

def test_complexity_rule_collection_sum():
    assert complexity([5, 3], RULE_COLLECTION) == 8


def test_complexity_tree_path():
    assert complexity([4], TREE_PATHS) == 4


def test_complexity_decision_list():
    assert complexity([2, 3, 4], DECISION_LIST, activated_index=1) == 3
    assert complexity([2, 3, 4], DECISION_LIST, activated_index=2) == 9
    with pytest.raises(ValueError):
        complexity([2, 3], DECISION_LIST)


def test_jaccard_identity():
    assert jaccard_similarity([2.0, 1.0], [2.0, 1.0]) == 1.0


def test_jaccard_disjoint_supports():
    assert jaccard_similarity([1.0, 0.0], [0.0, 2.0]) == 0.0


def test_jaccard_hand_case():
    assert jaccard_similarity([2.0, 1.0, 0.0], [1.0, 1.0, 1.0]) == pytest.approx(0.5)


def test_jaccard_both_zero_convention():
    assert jaccard_similarity([0.0, 0.0], [0.0, 0.0]) == 1.0


@given(
    st.lists(st.floats(0, 5), min_size=1, max_size=12),
    st.lists(st.floats(0, 5), min_size=1, max_size=12),
)
@settings(max_examples=200, deadline=None)
def test_jaccard_symmetric_unit_range(a, b):
    n = min(len(a), len(b))
    va, vb = np.array(a[:n]), np.array(b[:n])
    s = jaccard_similarity(va, vb)
    assert 0.0 <= s <= 1.0
    assert s == pytest.approx(jaccard_similarity(vb, va))
    if np.array_equal(va, vb):
        assert s == 1.0


def test_dissimilarity_identical_vectors_zero():
    v = np.array([1.0, 2.0, 0.0])
    assert dissimilarity([v, v, v]) == 0.0


def test_dissimilarity_single_rule_none():
    assert dissimilarity([np.array([1.0, 0.0])]) is None


def test_dissimilarity_three_vectors_hand_enumeration():
    vs = [np.array([2.0, 1.0, 0.0]), np.array([1.0, 1.0, 1.0]),
          np.array([0.0, 0.0, 4.0])]
    total = 0.0
    for a in range(3):
        for b in range(3):
            if a != b:
                total += 1.0 - jaccard_similarity(vs[a], vs[b])
    assert dissimilarity(vs) == pytest.approx(total / 6)


def test_dissimilarity_increases_with_disjoint_vector():
    base = [np.array([1.0, 1.0, 0.0, 0.0]), np.array([1.0, 0.5, 0.0, 0.0])]
    with_disjoint = base + [np.array([0.0, 0.0, 3.0, 1.0])]
    assert dissimilarity(with_disjoint) > dissimilarity(base)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

def test_oob_trees_hand_selection():
    forest = make_forest([leaf_tree(0.2), leaf_tree(0.6), leaf_tree(0.4)], p=1)
    errs = np.array([0.1, 0.3, 0.2])
    pred = baseline_oob_trees(forest, errs, np.zeros(1), 2)
    assert pred == pytest.approx([0.3])  # trees 0 and 2


def test_oob_trees_k_one_single_best():
    forest = make_forest([leaf_tree(0.2), leaf_tree(0.6), leaf_tree(0.4)], p=1)
    errs = np.array([0.5, 0.0, 0.2])
    assert baseline_oob_trees(forest, errs, np.zeros(1), 1) == pytest.approx([0.6])


def test_oob_trees_full_k_reproduces_forest_predict():
    ds = make_binary(80, 4, seed=1)
    forest = fit_forest(ds, ForestParams(n_trees=7, seed=2))
    x = ds.covariates[0]
    errs = np.linspace(0, 1, 7)
    assert np.array_equal(baseline_oob_trees(forest, errs, x, 7),
                          forest_predict(forest, x))


# ---------------------------------------------------------------------------
# performance_metric
# ---------------------------------------------------------------------------

def test_performance_metric_by_task():
    binary = make_binary(40, 3, seed=5)
    preds = binary.targets.copy()
    assert performance_metric(TaskKind.BINARY, preds, binary) == 1.0

    surv = make_survival(40, 3, seed=6)
    risks = -surv.times  # early events get high risk
    value = performance_metric(TaskKind.SURVIVAL, risks[:, None], surv)
    assert value > 0.9

    ml = make_multilabel(40, 4, 3, seed=7)
    assert performance_metric(TaskKind.MULTI_LABEL, ml.targets.astype(float), ml) == 1.0


# ---------------------------------------------------------------------------
# run_benchmark / run_ablation
# ---------------------------------------------------------------------------

def small_config():
    return BenchmarkConfig(
        folds=3,
        params=ForestParams(n_trees=12, seed=0),
        grid=TuningGrid(taus=(4, 8), dims=(2, None), ks=(1, 2)),
        max_test=15,
        seed=0,
    )


def test_run_benchmark_structure_and_determinism():
    ds = make_binary(90, 4, seed=8)
    rows_a, reports_a = run_benchmark(ds, "demo", small_config())
    rows_b, reports_b = run_benchmark(ds, "demo", small_config())
    assert rows_a == rows_b
    methods = {r["method"] for r in rows_a}
    assert methods == {"rf", "bellatrex-weighted", "bellatrex-simple", "dt",
                       "small-rf", "oob-trees"}
    assert len(rows_a) == 6 * 3  # methods x folds
    by_method = {rep.method: rep for rep in reports_a}
    assert by_method["rf"].performance is not None
    btx = by_method["bellatrex-weighted"]
    assert btx.complexity is not None and btx.mean_rules is not None
    assert 1.0 <= btx.mean_rules <= 2.0
    assert by_method["small-rf"].complexity is not None
    assert by_method["dt"].complexity is None
    text = benchmark_tsv(rows_a, reports_a)
    assert text.splitlines()[0].startswith("dataset\tfold\tmethod")
    assert "\taverage\t" in text or "average" in text


def test_run_benchmark_test_cap_applies():
    ds = make_binary(90, 4, seed=9)
    config = small_config()
    rows, _ = run_benchmark(ds, "demo", config)
    assert len(rows) == 18  # still evaluates all folds with capped tests


def test_run_ablation_rows():
    ds = make_binary(80, 4, seed=10)
    rows = run_ablation(ds, "demo", small_config())
    arms = {r["arm"] for r in rows}
    assert arms == {"full", "no-preselect", "no-pca", "neither"}
    assert len(rows) == 4 * (3 + 1)  # per-fold + average per arm
    no_pca_avg = [r for r in rows if r["arm"] == "no-pca" and r["fold"] == "average"][0]
    assert no_pca_avg["mean_chosen_d"] == pytest.approx(ds.p)
    full_rows = [r for r in rows if r["arm"] == "full" and r["fold"] != "average"]
    assert all(r["performance"] is not None for r in full_rows)


def test_benchmark_complexity_matches_decision_paths():
    from bellatrex.explain import tune_and_explain, TuningGrid
    from bellatrex.forest import decision_path, path_length
    from bellatrex.metrics import complexity, RULE_COLLECTION

    ds = make_binary(80, 4, seed=12)
    forest = fit_forest(ds, ForestParams(n_trees=10, seed=3))
    x = ds.covariates[2]
    e = tune_and_explain(forest, x, TuningGrid(taus=(5, 10), dims=(2,), ks=(2, 3)),
                         seed=4)
    recomputed = [path_length(decision_path(forest.trees[r.tree_index], x))
                  for r in e.final_rules]
    assert complexity(e.rule_lengths, RULE_COLLECTION) == sum(recomputed)


def test_single_class_fold_flagged_and_skipped(caplog):
    # 3 positives among 90 rows: some folds end up single-class in the test set
    ds = make_binary(90, 3, seed=13)
    targets = np.zeros_like(ds.targets)
    targets[:3] = 1.0
    from dataclasses import replace as dc_replace

    skewed = dc_replace(ds, targets=targets)
    import logging

    with caplog.at_level(logging.WARNING):
        rows, reports = run_benchmark(skewed, "skewed", small_config())
    rf_rows = [r for r in rows if r["method"] == "rf"]
    assert any(r["performance"] is None for r in rf_rows)
    assert any("undefined" in rec.message for rec in caplog.records)
    rf_report = [r for r in reports if r.method == "rf"][0]
    defined = [r["performance"] for r in rf_rows if r["performance"] is not None]
    if defined:
        assert rf_report.performance == pytest.approx(np.mean(defined))
    else:
        assert rf_report.performance is None


def test_aggregate_reports_unweighted_means():
    reports = [
        MetricReport("a", "rf", 0.8, None, None, None, 5),
        MetricReport("b", "rf", 0.6, None, None, None, 5),
        MetricReport("a", "bellatrex-weighted", 0.7, 10.0, 0.9, 2.0, 5),
        MetricReport("b", "bellatrex-weighted", 0.5, 6.0, 0.7, 1.0, 5),
        # None metrics are skipped, and a method's folds is its largest count
        MetricReport("a", "dt", None, None, None, None, 3),
        MetricReport("b", "dt", 0.4, None, None, None, 10),
        MetricReport("c", "dt", 0.2, None, None, None, 4),
        MetricReport("c", "bellatrex-weighted", None, 8.0, None, 3.0, 2),
    ]
    averaged = aggregate_reports(reports)
    assert [r.method for r in averaged] == ["rf", "bellatrex-weighted", "dt"]
    rows = {r.method: r for r in averaged}
    assert all(r.dataset == "average" for r in rows.values())
    assert rows["rf"].performance == pytest.approx(0.7)
    assert rows["rf"].complexity is None and rows["rf"].folds == 5
    assert rows["bellatrex-weighted"].performance == pytest.approx(0.6)
    assert rows["bellatrex-weighted"].complexity == pytest.approx(8.0)
    assert rows["bellatrex-weighted"].dissimilarity == pytest.approx(0.8)
    assert rows["bellatrex-weighted"].mean_rules == pytest.approx(2.0)
    assert rows["bellatrex-weighted"].folds == 5
    assert rows["dt"].performance == pytest.approx(0.3)
    assert rows["dt"].dissimilarity is None and rows["dt"].mean_rules is None
    assert rows["dt"].folds == 10


def test_run_benchmark_survival_smoke():
    ds = make_survival(70, 4, seed=11, censoring=0.3)
    config = BenchmarkConfig(
        folds=2,
        params=ForestParams(n_trees=10, seed=1),
        grid=TuningGrid(taus=(4,), dims=(2,), ks=(1, 2)),
        max_test=10,
        seed=1,
    )
    rows, reports = run_benchmark(ds, "surv", config)
    perf = {rep.method: rep.performance for rep in reports}
    assert perf["rf"] is not None and 0.0 <= perf["rf"] <= 1.0


# ---------------------------------------------------------------------------
# Pooled fits and batched explanations against the one-at-a-time loop
# ---------------------------------------------------------------------------

REFERENCE_DATA = {
    "binary": lambda: make_binary(70, 4, seed=41),
    "regression": lambda: make_regression(70, 4, seed=42),
    "multitarget": lambda: make_multitarget(70, 4, 2, seed=43),
    "multilabel": lambda: make_multilabel(70, 4, 2, seed=44),
    "survival": lambda: make_survival(80, 4, seed=45),
}


@pytest.mark.parametrize("kind", sorted(REFERENCE_DATA))
def test_reports_equal_the_one_at_a_time_loop(kind):
    import fold_reference

    ds = REFERENCE_DATA[kind]()
    configs = [
        BenchmarkConfig(folds=2, max_test=5, seed=7, params=ForestParams(n_trees=9),
                        grid=TuningGrid(taus=(4, 9), dims=(2, None), ks=(1, 2, 3))),
        # K = 4 clamps to the distinct rule vectors of two-tree taus, a
        # chosen K outside the grid
        BenchmarkConfig(folds=2, max_test=4, seed=8, modes=(MODE_SIMPLE,),
                        params=ForestParams(n_trees=6, max_depth=1),
                        grid=TuningGrid(taus=(4, 6), dims=(1,), ks=(2, 4))),
    ]
    for config in configs:
        got = run_benchmark(ds, kind, config)
        expected = fold_reference.run_benchmark(ds, kind, config)
        assert benchmark_tsv(*got) == benchmark_tsv(*expected)
        assert json.dumps(benchmark_json(*got)) == json.dumps(benchmark_json(*expected))
        assert run_ablation(ds, kind, config) == fold_reference.run_ablation(ds, kind, config)


def test_no_thread_is_started(monkeypatch):
    # BELLATREX_THREADS used to cut fits and fold explanations into one
    # group per worker thread; it is no longer read
    def refuse(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setenv("BELLATREX_THREADS", "4")
    monkeypatch.setattr(threading.Thread, "start", refuse)
    ds = REFERENCE_DATA["regression"]()
    forest, _ = fit_forests(ds, [ForestParams(n_trees=9, seed=1), ForestParams(n_trees=3)])
    assert len(explain_batch(forest, ds.covariates[:6], TuningGrid(taus=(4, 9)))) == 6
    config = BenchmarkConfig(folds=2, max_test=5, params=ForestParams(n_trees=9),
                             grid=TuningGrid(taus=(4, 9), dims=(2, None), ks=(1, 2)))
    rows, _ = run_benchmark(ds, "d", config)
    assert len(rows) == 2 * 6


def test_clamped_k_outside_the_grid_is_covered():
    # the second reference configuration above reaches a Small RF fitted on
    # demand: a chosen K that the grid does not list
    ds = REFERENCE_DATA["regression"]()
    config = BenchmarkConfig(folds=2, max_test=4, seed=8, modes=(MODE_SIMPLE,),
                             params=ForestParams(n_trees=6, max_depth=1),
                             grid=TuningGrid(taus=(4, 6), dims=(1,), ks=(2, 4)))
    rows, _ = run_benchmark(ds, "d", config)
    assert any(r["mean_rules"] not in (2.0, 4.0) for r in rows if r["method"] == "small-rf")


@pytest.mark.parametrize("modes", [(), ("bogus",), ("weighted", "weighted"),
                                   ("simple", "weighted", "simple")])
def test_config_rejects_bad_modes(modes):
    with pytest.raises(ValueError):
        BenchmarkConfig(modes=modes)


@pytest.mark.parametrize("run", [run_benchmark, run_ablation])
def test_grid_checked_before_any_forest_grows(run, monkeypatch):
    import bellatrex.forest as forest_mod

    grown = []
    monkeypatch.setattr(forest_mod, "_grow_trees", lambda *a, **k: grown.append(1))
    ds = make_binary(40, 3, seed=2)
    config = BenchmarkConfig(folds=2, max_test=3, params=ForestParams(n_trees=5),
                             grid=TuningGrid(taus=(3, 6), dims=(2,), ks=(1,)))
    with pytest.raises(ValueError, match="tau"):
        run(ds, "d", config)
    assert not grown
