"""Span tracer for the traced benchmark run.

Wraps selected ``bellatrex`` functions from outside the package: each wrapped
function is replaced in every ``bellatrex.*`` namespace that binds it by name,
so calls made through ``from .forest import decision_path`` style imports are
seen too.  Every call records a span (id, parent id, name, thread, start,
end); each thread keeps its own span stack, and the per-item calls that
``parallel_map`` runs on worker threads get the ``parallel_map`` span as
their parent.  A span's self time is its duration minus the part of that
interval its children cover.
"""
from __future__ import annotations

import itertools
import json
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (defining module, function name, span name); the span name is the layer
# (module without the package prefix) and the function.
WRAPPED = (
    ("bellatrex.forest", "best_split", "forest.best_split"),
    ("bellatrex.forest", "decision_path", "forest.decision_path"),
    ("bellatrex.forest", "all_tree_predictions", "forest.all_tree_predictions"),
    ("bellatrex.forest", "tree_predict", "forest.tree_predict"),
    ("bellatrex.forest", "forest_predict_batch", "forest.forest_predict_batch"),
    ("bellatrex.forest", "oob_errors", "forest.oob_errors"),
    ("bellatrex.forest", "save_forest", "forest.save_forest"),
    ("bellatrex.forest", "load_forest", "forest.load_forest"),
    ("bellatrex.survival", "risk_score", "survival.risk_score"),
    ("bellatrex.survival", "kaplan_meier", "survival.kaplan_meier"),
    ("bellatrex.numeric", "pca_fit", "numeric.pca_fit"),
    ("bellatrex.numeric", "kmeans_pp", "numeric.kmeans_pp"),
    ("bellatrex.numeric", "pca_transform", "numeric.pca_transform"),
    ("bellatrex.numeric", "nearest_point", "numeric.nearest_point"),
    ("bellatrex.explain", "tune_and_explain", "explain.tune_and_explain"),
    ("bellatrex.evaluation", "run_benchmark", "evaluation.run_benchmark"),
    ("bellatrex.metrics", "dissimilarity", "metrics.dissimilarity"),
)
PARALLEL = ("bellatrex._parallel", "parallel_map", "parallel.parallel_map")
# Items that fit_forest hands to parallel_map are whole trees.
GROW = "forest.grow"
ITEM = "parallel.item"
INSTANCE = "explain.tune_and_explain"

# Spans reported by call count, by self time, and by calls per explained
# instance (one tune_and_explain call).
_COUNTED = ("forest.best_split", "forest.decision_path", "forest.all_tree_predictions",
            "forest.tree_predict", "survival.risk_score", "survival.kaplan_meier",
            "numeric.pca_fit", "numeric.kmeans_pp", "explain.tune_and_explain",
            "metrics.dissimilarity")
_SELF_TIMED = _COUNTED + (GROW, "forest.forest_predict_batch", "forest.oob_errors",
                          "forest.save_forest", "forest.load_forest",
                          "numeric.pca_transform", "numeric.nearest_point",
                          "evaluation.run_benchmark")
_PER_INSTANCE = ("forest.decision_path", "numeric.pca_fit", "numeric.kmeans_pp")


class Tracer:
    """Install with ``with Tracer() as tracer:``; read ``tracer.metrics()``
    after the block.  Not re-entrant."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, int, float, float]] = []
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name: str, fn, args, kwargs, parent: int | None = None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span_id = next(self._ids)
        stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, threading.get_ident(), start, end))

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return traced

    def _wrap_parallel(self, name: str, fn):
        def traced_map(item_fn, items):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            item_name = GROW if getattr(item_fn, "__module__", "") == "bellatrex.forest" else ITEM

            def item(arg):
                return self._call(item_name, item_fn, (arg,), {}, parent=span_id)

            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(item, items)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, threading.get_ident(), start, end))

        return traced_map

    def _patch(self, module_name: str, attr: str, wrapper_factory, name: str) -> None:
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None) if module is not None else None
        if original is None:
            self.absent.append(name)
            return
        wrapper = wrapper_factory(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "bellatrex" or mod_name.startswith("bellatrex.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, original))

    def __enter__(self) -> "Tracer":
        for module_name, attr, name in WRAPPED:
            self._patch(module_name, attr, self._wrap, name)
        self._patch(PARALLEL[0], PARALLEL[1], self._wrap_parallel, PARALLEL[2])
        return self

    def __exit__(self, *exc) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = {}
        for span_id, _, _, _, start, end in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out[span_id] = (end - start) - covered
        return out

    def subtree_check(self, name: str) -> tuple[float, float]:
        """(total span time of ``name``, total self time of those spans and
        all their descendants); equal when the children do not overlap."""
        self_t = self.self_times()
        kids: dict[int, list[int]] = defaultdict(list)
        for span_id, parent, *_ in self.spans:
            if parent is not None:
                kids[parent].append(span_id)
        span_total = 0.0
        self_total = 0.0
        for span_id, _, span_name, _, start, end in self.spans:
            if span_name != name:
                continue
            span_total += end - start
            todo = [span_id]
            while todo:
                node = todo.pop()
                self_total += self_t[node]
                todo.extend(kids.get(node, ()))
        return span_total, self_total

    def metrics(self) -> dict[str, float]:
        self_t = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        dur: dict[str, float] = defaultdict(float)
        for span_id, _, name, _, start, end in self.spans:
            calls[name] += 1
            self_s[name] += self_t[span_id]
            dur[name] += end - start
        absent = set(self.absent)
        if PARALLEL[2] in absent:
            absent.add(GROW)

        out: dict[str, float] = {}
        for name in _COUNTED:
            if name not in absent:
                out[f"{name}.calls"] = calls[name]
        for name in _SELF_TIMED:
            if name not in absent:
                out[f"{name}.self_s"] = self_s[name]
        instances = calls[INSTANCE]
        for name in _PER_INSTANCE:
            if name not in absent and INSTANCE not in absent:
                out[f"{name}.calls_per_instance"] = calls[name] / instances if instances else 0.0
        par = PARALLEL[2]
        if par not in absent:
            wall = dur[par]
            items = dur[GROW] + dur[ITEM]
            out[f"{par}.calls"] = calls[par]
            out[f"{par}.wall_s"] = wall
            out[f"{par}.item_s"] = items
            out[f"{par}.parallelism"] = items / wall if wall > 0 else 0.0
        return out

    def write(self, path: Path) -> None:
        """Spans as JSON: one [id, parent, name, thread, start_s, end_s] row
        per span, times relative to the first span's start."""
        names = sorted({s[2] for s in self.spans})
        name_ix = {name: i for i, name in enumerate(names)}
        thread_ix = {tid: i for i, tid in enumerate(sorted({s[3] for s in self.spans}))}
        origin = min((s[4] for s in self.spans), default=0.0)
        rows = [
            [sid, parent, name_ix[name], thread_ix[tid],
             round(start - origin, 9), round(end - origin, 9)]
            for sid, parent, name, tid, start, end in sorted(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "columns": ["id", "parent", "name", "thread", "start_s", "end_s"],
            "names": names,
            "spans": rows,
        }, separators=(",", ":")))
