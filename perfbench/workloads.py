"""The three benchmark workloads.

Each workload is one caller in a closed loop in a single process, on
synthetic data from ``bellatrex.synthdata`` made from the run's seed, with
``threads`` workers (``trace_threads`` in the traced run):

- ``setup`` builds the inputs the timed part needs, and ``warm_up`` makes
  one small call of the timed operation so that first-call costs stay out of
  the timed loop (both are timed as set-up);
- ``work`` is one round of the timed part, a fixed amount of work; it times
  each operation into ``samples`` and checks, outside the timed calls, that
  every result matches the first round's;
- ``verify`` checks the first round's outputs against independent oracles;
- ``figures`` turns the samples into the named end-to-end figures.

Calls into the package go through module attributes (``forest.fit_forest``,
not a name imported from it), so the traced run's patches see them.
"""
from __future__ import annotations

import hashlib
import json
import os
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from bellatrex import evaluation, explain, synthdata
from bellatrex import forest as forest_mod

# Tolerance for identities that hold exactly in real arithmetic but sum in
# a different order in the program than in the oracle.
_TOL = 1e-12


@dataclass
class Tally:
    """Operations attempted and failed; an operation fails when it raises or
    when any check on its output fails."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(what)

    def check(self, ok: bool, what: str) -> None:
        """A check on an operation already counted as attempted."""
        if not ok:
            self.fail(what)


def _timed(samples: dict, key: str, fn, *args, **kwargs):
    start = perf_counter()
    result = fn(*args, **kwargs)
    samples.setdefault(key, []).append(perf_counter() - start)
    return result


FAILED = object()


def _attempt(tally: Tally, samples: dict, key: str, fn, *args, **kwargs):
    """Run one timed operation; an exception counts as a failed operation
    and returns FAILED."""
    try:
        return _timed(samples, key, fn, *args, **kwargs)
    except Exception as exc:  # every failure counts in the error rate
        tally.record(False, f"{key}: {type(exc).__name__}: {exc}")
        return FAILED


def _digest(payload) -> str:
    raw = payload if isinstance(payload, bytes) else json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(raw).hexdigest()[:16]


def _sample(make, n: int, seed: int, *args):
    """n rows drawn by ``seed`` from a synthetic population whose concept is
    fixed: the seed changes the inputs but not the kind of problem, so the
    work per run stays comparable across seeds."""
    population = make(20 * n, *args, seed=0)
    rows = np.sort(np.random.default_rng(seed).choice(population.n, size=n, replace=False))
    return population.subset(rows)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _quantile(values: list[float], q: float) -> float:
    return float(np.quantile(values, q)) if values else float("nan")


# ---------------------------------------------------------------------------
# explain-binary
# ---------------------------------------------------------------------------

class ExplainBinary:
    """Tuned explanation of fixed test instances (default 27-cell grid,
    weighted mode) plus batch prediction over every row; fitting is set-up."""

    name = "explain-binary"
    threads = 1
    trace_threads = 1
    setup_repeats = 3
    op = "explain"

    def __init__(self, small: bool):
        # p=24 lies between the taus (20 < 24 < 50, 80): pca_fit takes both
        # its Gram branch and its covariance branch.
        self.n, self.p, self.n_trees, self.n_test = (150, 24, 80, 3) if small else (800, 24, 100, 40)

    def setup(self, seed: int):
        ds = _sample(synthdata.make_binary, self.n + self.n_test, seed, self.p)
        train = ds.subset(np.arange(self.n))
        forest = forest_mod.fit_forest(train, forest_mod.ForestParams(n_trees=self.n_trees, seed=seed))
        return {
            "seed": seed,
            "forest": forest,
            "rows": ds.covariates,
            "test": ds.covariates[self.n:],
            "first": None,
        }

    def warm_up(self, state) -> None:
        pass  # fitting the forest in set-up already warms up

    @staticmethod
    def _signature(e) -> list:
        return [e.chosen_tau, e.chosen_d, e.chosen_k, e.preselected.tolist(),
                repr(e.fidelity), e.surrogate.tolist(), [r.tree_index for r in e.final_rules]]

    def work(self, state, samples: dict, tally: Tally) -> None:
        forest = state["forest"]
        first = state["first"]
        explanations = []
        for i, x in enumerate(state["test"]):
            e = _attempt(tally, samples, "explain", explain.tune_and_explain,
                         forest, x, seed=explain.derive_seed(state["seed"], i))
            if e is FAILED:
                explanations.append(None)
                continue
            explanations.append(e)
            if first is None:
                tally.record(True, "explain")
            else:
                same = first["explanations"][i] is not None and \
                    self._signature(e) == self._signature(first["explanations"][i])
                tally.record(same, f"explain instance {i}: result differs from round 1")
        preds = _attempt(tally, samples, "predict", forest_mod.forest_predict_batch,
                         forest, state["rows"])
        if preds is FAILED:
            preds = None
        elif first is None:
            tally.record(True, "predict")
        else:
            tally.record(first["preds"] is not None and np.array_equal(preds, first["preds"]),
                         "predict: batch differs from round 1")
        if first is None:
            state["first"] = {"explanations": explanations, "preds": preds}

    def verify(self, state, tally: Tally) -> None:
        forest = state["forest"]
        first = state["first"]
        max_k = max(explain.TuningGrid().ks)
        for i, (x, e) in enumerate(zip(state["test"], first["explanations"])):
            if e is None:
                continue
            oracle = explain.preselect(forest, x, e.chosen_tau)
            tally.check(np.array_equal(e.preselected, oracle),
                        f"instance {i}: preselected differs from the preselect oracle")
            weights = np.array(e.weights)
            tally.check(abs(weights.sum() - 1.0) <= _TOL, f"instance {i}: weights sum to {weights.sum()!r}")
            combined = sum(r.weight * r.prediction for r in e.final_rules)
            tally.check(np.allclose(e.surrogate, combined, rtol=0, atol=_TOL),
                        f"instance {i}: surrogate is not the weighted rule prediction")
            y_hat = forest_mod.forest_predict(forest, x)
            fidelity = 1.0 - float(np.linalg.norm(y_hat - e.surrogate))
            tally.check(abs(e.fidelity - fidelity) <= _TOL,
                        f"instance {i}: fidelity {e.fidelity!r} != 1 - ||y_hat - surrogate|| = {fidelity!r}")
            tally.check(1 <= e.chosen_k <= max_k, f"instance {i}: chosen_k = {e.chosen_k}")
        preds = first["preds"]
        if preds is not None:
            rows = [forest_mod.forest_predict(forest, x) for x in state["test"]]
            tally.check(np.array_equal(preds[self.n:], np.vstack(rows)),
                        "predict: batch differs from per-row forest_predict")

    def digest(self, state) -> str:
        first = state["first"]
        return _digest({
            "explanations": [None if e is None else self._signature(e) for e in first["explanations"]],
            "preds": None if first["preds"] is None else first["preds"].tolist(),
        })

    def figures(self, samples: dict, state) -> dict:
        explain_s = samples.get("explain", [])
        predict_s = samples.get("predict", [])
        n_rows = state["rows"].shape[0]
        return {
            "explain_ms_p50": (1000 * _median(explain_s), "ms", f"n={len(explain_s)}"),
            "explain_ms_p95": (1000 * _quantile(explain_s, 0.95), "ms",
                               f"n={len(explain_s)}, not gated: it does not repeat within a tenth"),
            "explain_per_s": (len(explain_s) / sum(explain_s) if explain_s else 0.0, "1/s",
                              "calls per second spent in tune_and_explain"),
            "predict_rows_per_s": (n_rows / _median(predict_s) if predict_s else 0.0, "1/s",
                                   f"{n_rows} rows per batch, median of n={len(predict_s)}"),
        }


# ---------------------------------------------------------------------------
# train-survival
# ---------------------------------------------------------------------------

class TrainSurvival:
    """Fitting a log-rank survival forest, then save/load round trips of its
    forest.json; the explain layers stay idle."""

    name = "train-survival"
    threads = 1
    trace_threads = 1
    setup_repeats = 7
    op = "fit"
    round_trips = 3
    # A forest's cost depends on which rows were drawn (by up to a sixth
    # between two draws), so the rounds cycle through several draws and a
    # run's median covers the data as well as the forest seeds.
    draws = 10

    def __init__(self, small: bool, out_dir: Path):
        self.n, self.p, self.n_trees = (300, 10, 3) if small else (2000, 10, 12)
        self.path = out_dir / f"forest-{os.getpid()}.json"

    def setup(self, seed: int):
        data = [_sample(synthdata.make_survival, self.n, explain.derive_seed(seed, i), self.p)
                for i in range(self.draws)]
        return {"seed": seed, "data": data, "rounds": 0, "first_raw": None, "model_bytes": []}

    def warm_up(self, state) -> None:
        pass  # one cold fit among the many of a run does not move the median

    def work(self, state, samples: dict, tally: Tally) -> None:
        # Every round grows a new forest: single survival trees vary widely
        # in cost, so the median over many forests is what repeats.
        ds = state["data"][state["rounds"] % self.draws]
        seed = explain.derive_seed(state["seed"], state["rounds"])
        state["rounds"] += 1
        params = forest_mod.ForestParams(n_trees=self.n_trees, seed=seed)
        fitted = _attempt(tally, samples, "fit", forest_mod.fit_forest, ds, params)
        if fitted is FAILED:
            return
        tally.record(True, "fit")
        expected = forest_mod.forest_predict_batch(fitted, ds.covariates)
        saved = None
        try:
            for _ in range(self.round_trips):
                if _attempt(tally, samples, "save", forest_mod.save_forest, fitted, self.path) is FAILED:
                    continue
                raw = self.path.read_bytes()
                tally.record(saved is None or raw == saved, "save: a second save wrote different bytes")
                saved = raw
                loaded = _attempt(tally, samples, "load", forest_mod.load_forest, self.path)
                if loaded is FAILED:
                    continue
                tally.record(np.array_equal(forest_mod.forest_predict_batch(loaded, ds.covariates), expected),
                             "load: loaded forest predicts differently from the fitted one")
        finally:
            self.path.unlink(missing_ok=True)
        if saved is not None:
            state["model_bytes"].append(len(saved))
            if state["first_raw"] is None:
                state["first_raw"] = saved

    def verify(self, state, tally: Tally) -> None:
        # every round trip is checked in ``work``: the loaded forest must
        # predict exactly what the fitted forest does
        if state["first_raw"] is None:
            tally.fail("train-survival: no forest was saved")

    def digest(self, state) -> str:
        return _digest(state["first_raw"] or b"")

    def figures(self, samples: dict, state) -> dict:
        fit_s = samples.get("fit", [])
        save_s = samples.get("save", [])
        load_s = samples.get("load", [])
        return {
            "fit_s": (_median(fit_s), "s",
                      f"median of n={len(fit_s)} forests of {self.n_trees} trees; n={self.n}, p={self.p}"),
            "save_s": (_median(save_s), "s", f"median of n={len(save_s)} round trips"),
            "load_s": (_median(load_s), "s", f"median of n={len(load_s)} round trips"),
            "model_mb": (_median(state["model_bytes"]) / 2**20, "MiB",
                         f"median size of forest.json over n={len(state['model_bytes'])} forests"),
        }


# ---------------------------------------------------------------------------
# desk-regression
# ---------------------------------------------------------------------------

class DeskRegression:
    """The paper's evaluation loop (run_benchmark) on a regression task: one
    thread in the timed loop, two worker threads in the traced run."""

    name = "desk-regression"
    # Two threads on a shared two-core host spread a call's time by a fifth
    # from call to call and from run to run, past the gate's bound; one
    # thread repeats.  The traced run, which has no bound, keeps two workers
    # so that parallel_map's parallelism and GIL contention still show.
    threads = 1
    trace_threads = 2
    setup_repeats = 5
    op = "desk"

    def __init__(self, small: bool):
        # One call takes about 1.2 s, so a run's median is taken over a few
        # dozen calls; at 400 rows and 5 folds a call took over 10 s and the
        # median of two or three calls did not repeat.
        self.n, self.p = (120, 8) if small else (200, 8)
        self.folds, self.max_test, self.n_trees = (2, 3, 80) if small else (2, 20, 100)

    def setup(self, seed: int):
        ds = _sample(synthdata.make_regression, self.n, seed, self.p)
        config = evaluation.BenchmarkConfig(
            folds=self.folds, max_test=self.max_test, seed=seed,
            params=forest_mod.ForestParams(n_trees=self.n_trees),
        )
        return {"seed": seed, "data": ds, "config": config, "first": None}

    def warm_up(self, state) -> None:
        # the first run_benchmark of a process is slower; warm up at the
        # self-test size
        seed = state["seed"]
        evaluation.run_benchmark(
            _sample(synthdata.make_regression, 120, seed, self.p), "warm-up",
            evaluation.BenchmarkConfig(folds=2, max_test=3, seed=seed,
                                       params=forest_mod.ForestParams(n_trees=80)))

    def work(self, state, samples: dict, tally: Tally) -> None:
        result = _attempt(tally, samples, "desk", evaluation.run_benchmark,
                          state["data"], "desk", state["config"])
        if result is FAILED:
            return
        report = evaluation.benchmark_json(*result)
        first = state["first"]
        if first is None:
            state["first"] = report
            tally.record(True, "desk")
        else:
            tally.record(report == first, "desk: report differs from round 1")

    def verify(self, state, tally: Tally) -> None:
        report = state["first"]
        if report is None:
            tally.fail("desk: no report")
            return
        methods = {evaluation.METHOD_RF, evaluation.METHOD_BTX_WEIGHTED, evaluation.METHOD_BTX_SIMPLE,
                   evaluation.METHOD_DT, evaluation.METHOD_SMALL_RF, evaluation.METHOD_OOB_TREES}
        rows = sorted((r["method"], r["fold"]) for r in report["folds"])
        expected = sorted((m, f) for m in methods for f in range(self.folds))
        tally.check(rows == expected, f"desk: report rows {rows} are not every method x fold")
        tally.check(sorted(a["method"] for a in report["aggregates"]) == sorted(methods),
                    "desk: aggregates do not cover every method")

    def digest(self, state) -> str:
        return _digest(state["first"])

    def figures(self, samples: dict, state) -> dict:
        desk_s = samples.get("desk", [])
        return {
            "desk_s": (_median(desk_s), "s",
                       f"median of n={len(desk_s)}; n={self.n}, p={self.p}, {self.folds} folds, "
                       f"max_test={self.max_test}, {self.n_trees} trees"),
        }


def make(name: str, small: bool, out_dir: Path):
    if name == ExplainBinary.name:
        return ExplainBinary(small)
    if name == TrainSurvival.name:
        return TrainSurvival(small, out_dir)
    if name == DeskRegression.name:
        return DeskRegression(small)
    raise KeyError(name)
