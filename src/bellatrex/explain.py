"""The local explanation pipeline.

For one instance: keep the trees whose predictions are closest to the full
forest prediction, turn each kept tree's decision path into a per-covariate
vector (split counts, or split counts weighted by node sample fractions),
project the vectors to a low-dimensional space, cluster them, pick the rule
nearest each cluster centre, and report the cluster-weighted combination of
the picked rules as a surrogate prediction.  The three stage sizes (number
of kept trees, projection dimension, number of clusters) are tuned per
instance by maximizing fidelity = 1 - ||forest - surrogate||_2.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from ._seeds import derive_seeds, generator_keys, keyed_generator
from .data import TaskKind
from .forest import Forest, NodeArena, PathStep, path_length, path_steps, route
from .numeric import (
    Clustering,
    ClusteringBatch,
    SortedRows,
    identity_projection,
    kmeans_batch,
    kmeans_pp,
    pca_fit,
    pca_spectrum,
    pca_transform,
    sorted_rows,
)

MODE_SIMPLE = "simple"
MODE_WEIGHTED = "weighted"
NO_PROJECTION = None  # grid value meaning "identity projection"


def derive_seed(*parts: int) -> int:
    """Stable child seed from integer parts (order-sensitive)."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


@dataclass(frozen=True)
class TuningGrid:
    taus: tuple[int, ...] = (20, 50, 80)
    dims: tuple[int | None, ...] = (2, 5, NO_PROJECTION)
    ks: tuple[int, ...] = (1, 2, 3)

    def validate(self, n_trees: int) -> None:
        if not self.taus or not self.dims or not self.ks:
            raise ValueError("tuning grid axes must be non-empty")
        if any(t < 1 or t > n_trees for t in self.taus):
            raise ValueError(f"every tau must lie in [1, {n_trees}]")
        if any(d is not None and d < 1 for d in self.dims):
            raise ValueError("projection dimensions must be positive")
        if any(k < 1 for k in self.ks):
            raise ValueError("cluster counts must be positive")
        if max(self.ks) > min(self.taus):
            raise ValueError("every K must be <= every tau")

    def cells(self) -> list[tuple[int, int | None, int]]:
        return [(t, d, k) for t in self.taus for d in self.dims for k in self.ks]


@dataclass(frozen=True)
class AblationFlags:
    skip_preselection: bool = False  # tau fixed to the forest size
    skip_projection: bool = False  # identity projection everywhere


@dataclass(frozen=True)
class FinalRule:
    tree_index: int
    steps: list[PathStep]
    weight: float
    prediction: np.ndarray

    @property
    def length(self) -> int:
        return path_length(self.steps)


@dataclass
class Explanation:
    instance: np.ndarray
    chosen_tau: int
    chosen_d: int  # effective dimension (p when projection is skipped)
    chosen_k: int  # actual cluster count after any clamping
    mode: str
    final_rules: list[FinalRule]
    surrogate: np.ndarray
    forest_prediction: np.ndarray
    fidelity: float
    preselected: np.ndarray  # tree indices, closest first
    projected: np.ndarray  # (tau, 2) plot coordinates
    clusters: np.ndarray  # (tau,) cluster id per pre-selected rule
    representative: np.ndarray  # (tau,) bool, True for the final rules
    rule_predictions: np.ndarray  # (tau, w) predictions of pre-selected rules
    k_clamped: bool = False
    requested_k: int = 0

    @property
    def weights(self) -> list[float]:
        return [r.weight for r in self.final_rules]

    @property
    def rule_lengths(self) -> list[int]:
        return [r.length for r in self.final_rules]


def _check_tau(forest: Forest, tau: int) -> None:
    if not 1 <= tau <= forest.n_trees:
        raise ValueError(f"tau must lie in [1, {forest.n_trees}]")


@dataclass(frozen=True)
class _Routes:
    """One instance routed once through every tree of a forest."""

    x: np.ndarray
    levels: np.ndarray  # (depth + 1, m) arena node ids, see forest.route
    preds: np.ndarray  # (m, w) leaf predictions
    y_hat: np.ndarray  # (w,) forest prediction
    order: np.ndarray  # trees by prediction proximity, stable


def _route(forest: Forest, x: np.ndarray) -> _Routes:
    """Validate x and route it through every tree.  Trees are ordered by the
    Euclidean distance of their prediction to the forest prediction; the
    stable sort keeps tree order on ties."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (forest.p,):
        raise ValueError(f"instance must have shape ({forest.p},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("instance has a non-finite value")
    levels = route(forest, x)
    preds = forest.arena.node_pred[levels[-1]]
    y_hat = preds.mean(axis=0)
    order = np.argsort(np.linalg.norm(preds - y_hat, axis=1), kind="stable")
    return _Routes(x=x, levels=levels, preds=preds, y_hat=y_hat, order=order)


def preselect(forest: Forest, x: np.ndarray, tau: int) -> np.ndarray:
    """Indices of the tau trees whose predictions sit closest to the forest
    prediction (Euclidean distance; stable sort so ties keep tree order)."""
    _check_tau(forest, tau)
    return _route(forest, x).order[:tau]


def _count_vectors(rows: np.ndarray, features: np.ndarray, fractions: np.ndarray,
                   n: int, mode: str, p: int) -> np.ndarray:
    """(n, p) rule vectors from the split steps of n paths, listed path after
    path and root to leaf within a path: per-covariate split counts (simple)
    or sums of split-node sample fractions (weighted).  np.bincount adds
    each covariate's terms one by one in root-to-leaf order, so every entry
    is the same float as a running sum along the path."""
    if mode not in (MODE_SIMPLE, MODE_WEIGHTED):
        raise ValueError(f"unknown vectorization mode {mode!r}")
    bins = rows * p + features.astype(np.intp, copy=False)
    weights = None if mode == MODE_SIMPLE else fractions
    counts = np.bincount(bins, weights=weights, minlength=n * p)
    return counts.reshape(n, p).astype(np.float64, copy=False)


def path_vectors(arena: NodeArena, paths: np.ndarray, mode: str, p: int) -> np.ndarray:
    """Rule vectors of the paths that are the rows of ``paths``: arena node
    ids from the root, each path's leaf repeated to the row's end (columns
    of a ``route`` level matrix)."""
    split = arena.is_split[paths]
    steps = paths[split]
    return _count_vectors(np.nonzero(split)[0], arena.feature[steps],
                          arena.sample_fraction[steps], paths.shape[0], mode, p)


@dataclass(frozen=True)
class _Cell:
    """Clustering of one grid cell and the surrogate it implies."""

    clustering: Clustering
    representatives: list[int]  # per cluster, the row of its final rule
    weights: np.ndarray  # per cluster, its share of the rows
    surrogate: np.ndarray
    fidelity: float


def _norms(rows: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row, bit for bit: the square root of the
    row's dot product with itself, which for one column is its square."""
    if rows.shape[1] == 1:
        return np.sqrt(rows[:, 0] * rows[:, 0])
    return np.array([np.linalg.norm(row) for row in rows])


def _fit_cell(routes: _Routes, selected: np.ndarray, clustering: Clustering) -> _Cell:
    representatives = clustering.representatives.tolist()
    weights = clustering.sizes / selected.size
    surrogate = np.zeros(routes.preds.shape[1])
    for c, local in enumerate(representatives):
        surrogate += float(weights[c]) * routes.preds[selected[local]]
    residual = routes.y_hat - surrogate
    if residual.size == 1:  # as in _norms, in Python floats
        norm = math.sqrt(float(residual[0]) * float(residual[0]))
    else:
        norm = float(np.linalg.norm(residual))
    return _Cell(clustering, representatives, weights, surrogate, 1.0 - norm)


@dataclass(frozen=True)
class _CellBatch:
    """``_fit_cell`` of each cell of a ``ClusteringBatch``."""

    clusterings: ClusteringBatch
    weights: np.ndarray  # (C, K)
    surrogates: np.ndarray  # (C, w)
    fidelities: np.ndarray  # (C,)

    def cell(self, c: int) -> _Cell:
        clustering = self.clusterings.cell(c)
        return _Cell(clustering, clustering.representatives.tolist(), self.weights[c].copy(),
                     self.surrogates[c].copy(), float(self.fidelities[c]))


def _fit_cells(clusterings: ClusteringBatch, ranked: np.ndarray, y_hat: np.ndarray) -> _CellBatch:
    """``_fit_cell`` of every cell of a batch, bit for bit: ``ranked`` holds
    each cell's tree predictions in proximity order (C, trees, w), ``y_hat``
    its forest prediction (C, w).  The surrogate adds the weighted
    representatives' predictions cluster after cluster from +0.0."""
    n = clusterings.assignments.shape[1]
    weights = clusterings.sizes / n
    picked = np.take_along_axis(ranked, clusterings.representatives[:, :, None], axis=1)
    surrogates = np.zeros((weights.shape[0], ranked.shape[2]))
    for c in range(weights.shape[1]):
        surrogates += weights[:, c:c + 1] * picked[:, c]
    return _CellBatch(clusterings, weights, surrogates, 1.0 - _norms(y_hat - surrogates))


def _explanation(forest: Forest, routes: _Routes, selected: np.ndarray,
                 projected: np.ndarray, effective_d: int, cell: _Cell,
                 n_clusters: int, mode: str) -> Explanation:
    tau = selected.size
    rules: list[FinalRule] = []
    for c, local in enumerate(cell.representatives):
        tree_idx = int(selected[local])
        rules.append(FinalRule(
            tree_index=tree_idx,
            steps=path_steps(forest.trees[tree_idx],
                             forest.arena.path(routes.levels, tree_idx), routes.x),
            weight=float(cell.weights[c]),
            prediction=routes.preds[tree_idx],
        ))
    rules.sort(key=lambda r: (-r.weight, r.tree_index))

    coords = np.zeros((tau, 2))
    coords[:, : min(2, projected.shape[1])] = projected[:, :2]
    rep_mask = np.zeros(tau, dtype=bool)
    rep_mask[cell.representatives] = True
    k = cell.clustering.n_clusters

    return Explanation(
        instance=routes.x,
        chosen_tau=tau,
        chosen_d=effective_d,
        chosen_k=k,
        mode=mode,
        final_rules=rules,
        surrogate=cell.surrogate,
        forest_prediction=routes.y_hat,
        fidelity=cell.fidelity,
        preselected=selected,
        projected=coords,
        clusters=cell.clustering.assignments,
        representative=rep_mask,
        rule_predictions=routes.preds[selected],
        k_clamped=k < n_clusters,
        requested_k=n_clusters,
    )


def explain_fixed(
    forest: Forest,
    x: np.ndarray,
    tau: int,
    dim: int | None,
    n_clusters: int,
    mode: str = MODE_WEIGHTED,
    seed: int = 0,
) -> Explanation:
    """Run the pipeline at fixed stage sizes.  ``dim=None`` skips the
    projection (identity); ``n_clusters`` is clamped to the number of
    distinct rule vectors."""
    _check_tau(forest, tau)
    if n_clusters < 1 or n_clusters > tau:
        raise ValueError("need 1 <= K <= tau")
    routes = _route(forest, x)
    selected = routes.order[:tau]
    vectors = path_vectors(forest.arena, routes.levels[:, selected].T, mode, forest.p)
    if dim is None:
        projection = identity_projection(forest.p)
    else:
        projection = pca_fit(vectors, min(dim, forest.p))
    projected = pca_transform(projection, vectors)
    cell = _fit_cell(routes, selected, kmeans_pp(projected, n_clusters, seed=seed))
    return _explanation(forest, routes, selected, projected, projection.n_components,
                        cell, n_clusters, mode)


def tune_and_explain(
    forest: Forest,
    x: np.ndarray,
    grid: TuningGrid | None = None,
    mode: str = MODE_WEIGHTED,
    flags: AblationFlags = AblationFlags(),
    seed: int = 0,
) -> Explanation:
    """Evaluate the full hyperparameter grid and keep the explanation with
    maximal fidelity; ties prefer smaller K, then smaller effective
    dimension, then smaller tau.  The ``explain_batch`` of one instance.

    One clustering seed is derived per grid cell from ``seed`` (the caller's
    per-instance seed) and the cell index, so results are reproducible and
    independent of evaluation order; K=1 cells need no seed and derive none,
    but keep their index.  Every cell gives what ``explain_fixed``
    gives at its stage sizes and seed: x is routed once through all trees,
    the rule vectors are stacked once (each tau keeps a prefix of the
    proximity order), each tau has one eigendecomposition for all its
    projection dimensions, and each projected matrix is sorted once for all
    its cluster counts.
    """
    return explain_batch(forest, [x], grid, mode, flags, [seed])[0]


# Instances tuned in one lockstep: enough for large same-shape groups, few
# enough that their routes and rule vectors stay small.
_LOCKSTEP_INSTANCES = 64
# Fewer same-shape K > 1 cells than this in one step cluster one at a time
# (``SortedRows.kmeans``); from this count on, one ``kmeans_batch`` for the
# group costs less than the cells alone (measured crossover, see CHANGES.md).
_BATCH_CELLS = 5


def explain_batch(
    forest: Forest,
    X,
    grid: TuningGrid | None = None,
    mode: str | Sequence[str] = MODE_WEIGHTED,
    flags: AblationFlags | Sequence[AblationFlags] = AblationFlags(),
    seeds: Sequence[int] | None = None,
) -> list[Explanation]:
    """``tune_and_explain`` of every instance (row) of ``X``.  ``mode`` and
    ``flags`` are one value for all instances or one per instance, and
    ``seeds`` holds each instance's seed (0 for all when omitted).

    The seeds of all the batch's K > 1 cells, and the generators they key,
    are hashed together (``_seeds``), bit for bit what ``derive_seed`` and
    ``np.random.default_rng`` give one at a time.  The instances are then
    tuned in lockstep, ``_LOCKSTEP_INSTANCES`` at a time, one (tau, d) step
    of their grids at a time, and each keeps only its best cell so far;
    each instance still visits its own cells in grid order, so each
    explanation is the one ``tune_and_explain`` gives alone.  Within a
    step, the K > 1 cells of one shape (tau, effective d, effective K > 1)
    are clustered by one ``kmeans_batch`` when there are at least
    ``_BATCH_CELLS`` of them."""
    grid = grid or TuningGrid()
    m = len(X)
    modes = [mode] * m if isinstance(mode, str) else list(mode)
    arms = [flags] * m if isinstance(flags, AblationFlags) else list(flags)
    seeds = [0] * m if seeds is None else list(seeds)
    if not len(modes) == len(arms) == len(seeds) == m:
        raise ValueError("need one mode, flag set and seed per instance")
    axes = {}  # flags -> the (taus, dims) they tune over
    for arm in arms:
        if arm not in axes:
            taus = (forest.n_trees,) if arm.skip_preselection else grid.taus
            dims = (NO_PROJECTION,) if arm.skip_projection else grid.dims
            TuningGrid(taus=taus, dims=dims, ks=grid.ks).validate(forest.n_trees)
            axes[arm] = (taus, dims)

    # one clustering seed per K > 1 cell, from the instance's seed and the
    # cell's index in grid order; K = 1 cells are solved in closed form,
    # draw nothing and derive no seed, but keep their index
    parts = [(seeds[i], index) for i in range(m)
             for index in range(len(axes[arms[i]][0]) * len(axes[arms[i]][1]) * len(grid.ks))
             if grid.ks[index % len(grid.ks)] > 1]
    keys = iter(generator_keys(derive_seeds(parts)))  # instance after instance, in grid order

    explanations = []
    for lo in range(0, m, _LOCKSTEP_INSTANCES):
        tunings = [_Tuning.start(forest, X[i], modes[i], axes[arms[i]], grid.ks, keys)
                   for i in range(lo, min(m, lo + _LOCKSTEP_INSTANCES))]
        for s in range(max(len(t.steps) for t in tunings)):
            _tune_step(forest.p, grid.ks, [t for t in tunings if s < len(t.steps)], s)
        explanations += [_explanation(forest, t.routes, *t.best, t.mode) for t in tunings]
    return explanations


@dataclass
class _Tuning:
    """One instance's tuning state: its routes, its rule vectors in
    proximity order, its (tau, dim) steps in grid order, the generator keys
    of its K > 1 cells in grid order and its best cell so far."""

    routes: _Routes
    stacked: np.ndarray
    steps: list[tuple[int, int | None]]
    keys: Iterator[np.ndarray]
    mode: str
    spectrum: tuple | None = None  # (tau, Spectrum) of the current tau
    best: tuple | None = None  # (selected, projected, effective d, _Cell, K)
    best_key: tuple | None = None

    @classmethod
    def start(cls, forest: Forest, x: np.ndarray, mode: str, axes: tuple, ks: tuple[int, ...],
              keys: Iterator[np.ndarray]) -> "_Tuning":
        """Route x, stack its rule vectors and take its cells' keys from
        ``keys``."""
        taus, dims = axes
        routes = _route(forest, x)
        stacked = path_vectors(forest.arena, routes.levels[:, routes.order[:max(taus)]].T,
                               mode, forest.p)
        steps = [(tau, dim) for tau in taus for dim in dims]
        own_keys = [next(keys) for _ in range(len(steps) * sum(k > 1 for k in ks))]
        return cls(routes, stacked, steps, iter(own_keys), mode)

    @cached_property
    def ranked(self) -> np.ndarray:
        """The trees' predictions in proximity order."""
        return self.routes.preds[self.routes.order]

    def project(self, p: int, tau: int, dim: int | None) -> tuple[np.ndarray, SortedRows, int]:
        """(projected, sorted rows, effective d) of the step (tau, dim):
        one eigendecomposition per tau serves all its dimensions."""
        vectors = self.stacked[:tau]
        if dim is None:
            projection = identity_projection(p)
        else:
            if self.spectrum is None or self.spectrum[0] != tau:
                self.spectrum = (tau, pca_spectrum(vectors))
            projection = self.spectrum[1].projection(min(dim, p))
        projected = pca_transform(projection, vectors)
        return projected, sorted_rows(projected), projection.n_components

    def offer(self, tau: int, projected: np.ndarray, effective_d: int, k: int,
              fidelity: float, cell) -> None:
        """Keep the cell when it beats the best so far: higher fidelity, then
        smaller K, effective d and tau; ``cell()`` builds its ``_Cell``."""
        key = (-fidelity, k, effective_d, tau)
        if self.best_key is None or key < self.best_key:
            self.best_key = key
            self.best = (self.routes.order[:tau], projected, effective_d, cell(), k)


def _tune_step(p: int, ks: tuple[int, ...], active: list[_Tuning], s: int) -> None:
    """Evaluate step ``s`` of every active tuning: all cluster counts at its
    (tau, dim)."""
    cells = []  # (tuning, tau, projected, effective d, K, rows, generator)
    for t in active:
        tau, dim = t.steps[s]
        projected, rows, effective_d = t.project(p, tau, dim)
        cells += [(t, tau, projected, effective_d, k, rows,
                   keyed_generator(next(t.keys)) if k > 1 else None) for k in ks]
    groups: dict[tuple[int, int, int], list[int]] = {}  # shape -> its cells
    if len(cells) >= _BATCH_CELLS:  # else no group can reach it
        for j, (_, tau, _, effective_d, k, rows, _) in enumerate(cells):
            k_eff = min(k, rows.distinct)
            if k_eff > 1:
                groups.setdefault((tau, effective_d, k_eff), []).append(j)

    batched = {}  # cell -> (its group's _CellBatch, its place there)
    for (_, _, k_eff), members in groups.items():
        if len(members) >= _BATCH_CELLS:
            clusterings = kmeans_batch([cells[j][5] for j in members], k_eff,
                                       [cells[j][6] for j in members])
            batch = _fit_cells(clusterings, np.stack([cells[j][0].ranked for j in members]),
                               np.stack([cells[j][0].routes.y_hat for j in members]))
            batched.update((j, (batch, c)) for c, j in enumerate(members))
    # each instance's cells in grid order
    for j, (t, tau, projected, effective_d, k, rows, rng) in enumerate(cells):
        if j in batched:
            batch, c = batched[j]
            t.offer(tau, projected, effective_d, k, float(batch.fidelities[c]),
                    lambda: batch.cell(c))
        else:
            cell = _fit_cell(t.routes, t.routes.order[:tau], rows.kmeans(k, rng))
            t.offer(tau, projected, effective_d, k, cell.fidelity, lambda: cell)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _fmt_value(v: float) -> str:
    return f"{v:.4g}"


def _fmt_pred(pred: np.ndarray) -> str:
    arr = np.atleast_1d(pred)
    if arr.size == 1:
        return f"{float(arr[0]):.3f}"
    return "[" + ", ".join(f"{float(v):.3f}" for v in arr) + "]"


def _rule_lines(rule: FinalRule, index: int, names: tuple[str, ...] | None,
                x: np.ndarray) -> list[str]:
    def name_of(j: int) -> str:
        return names[j] if names else f"x{j}"

    steps = rule.steps
    head = (
        f"rule {index} (w_{index}={rule.weight:.2f})"
        f" initial estimate = {_fmt_pred(steps[0].prediction)}"
    )
    lines = [head]
    for pos, step in enumerate(steps[:-1]):
        nxt = steps[pos + 1]
        op = "<=" if step.went_left else ">"
        line = (
            f"  ({name_of(step.feature)} = {_fmt_value(float(x[step.feature]))})"
            f" {name_of(step.feature)} {op} {_fmt_value(step.threshold)}"
            f" -> {_fmt_pred(nxt.prediction)}"
        )
        if pos == len(steps) - 2:
            line += " (leaf)"
        lines.append(line)
    return lines


def render_text(explanation: Explanation, names: tuple[str, ...] | None = None,
                forest: Forest | None = None) -> str:
    """Human-readable rendering: per rule, the weight, the root ("initial")
    estimate and one line per split showing the instance value, the test
    taken and the updated running prediction, ending at the leaf."""
    out = [
        f"forest prediction = {_fmt_pred(explanation.forest_prediction)}",
        f"surrogate prediction = {_fmt_pred(explanation.surrogate)}"
        f" (fidelity = {explanation.fidelity:.4f})",
        f"chosen: tau={explanation.chosen_tau}, d={explanation.chosen_d},"
        f" K={explanation.chosen_k}",
    ]
    for i, rule in enumerate(explanation.final_rules, start=1):
        out.append("")
        out.extend(_rule_lines(rule, i, names, explanation.instance))
        if forest is not None and forest.task is TaskKind.SURVIVAL:
            km = forest.trees[rule.tree_index].leaf_km.get(rule.steps[-1].node_id)
            if km is not None and km.times.size:
                points = ", ".join(
                    f"S({_fmt_value(t)})={v:.3f}" for t, v in zip(km.times, km.values)
                )
                out.append(f"  leaf survival curve: {points}")
    return "\n".join(out) + "\n"


def _scalar_or_list(pred: np.ndarray):
    arr = np.atleast_1d(pred)
    if arr.size == 1:
        return float(arr[0])
    return [float(v) for v in arr]


def render_json(explanation: Explanation, names: tuple[str, ...] | None = None,
                forest: Forest | None = None) -> dict:
    """JSON document with stable field names (see the text rendering for the
    same content in human form)."""

    def name_of(j: int) -> str:
        return names[j] if names else f"x{j}"

    rules = []
    for rule in explanation.final_rules:
        steps = []
        for pos, step in enumerate(rule.steps[:-1]):
            steps.append({
                "feature_index": int(step.feature),
                "feature": name_of(step.feature),
                "value": float(explanation.instance[step.feature]),
                "threshold": float(step.threshold),
                "direction": "<=" if step.went_left else ">",
                "sample_fraction": step.sample_fraction,
                "prediction": _scalar_or_list(rule.steps[pos + 1].prediction),
            })
        entry = {
            "tree_index": rule.tree_index,
            "weight": rule.weight,
            "length": rule.length,
            "initial_estimate": _scalar_or_list(rule.steps[0].prediction),
            "prediction": _scalar_or_list(rule.prediction),
            "steps": steps,
        }
        if forest is not None and forest.task is TaskKind.SURVIVAL:
            km = forest.trees[rule.tree_index].leaf_km.get(rule.steps[-1].node_id)
            if km is not None:
                entry["km_times"] = km.times.tolist()
                entry["km_values"] = km.values.tolist()
        rules.append(entry)

    points = []
    for i in range(explanation.preselected.size):
        points.append({
            "tree_index": int(explanation.preselected[i]),
            "x": float(explanation.projected[i, 0]),
            "y": float(explanation.projected[i, 1]),
            "cluster": int(explanation.clusters[i]),
            "is_representative": bool(explanation.representative[i]),
            "rule_prediction": _scalar_or_list(explanation.rule_predictions[i]),
        })

    return {
        "chosen_tau": explanation.chosen_tau,
        "chosen_d": explanation.chosen_d,
        "chosen_k": explanation.chosen_k,
        "mode": explanation.mode,
        "k_clamped": explanation.k_clamped,
        "forest_prediction": _scalar_or_list(explanation.forest_prediction),
        "surrogate": _scalar_or_list(explanation.surrogate),
        "fidelity": explanation.fidelity,
        "weights": [float(w) for w in explanation.weights],
        "rules": rules,
        "projected_points": points,
    }


def render_json_text(explanation: Explanation, names: tuple[str, ...] | None = None,
                     forest: Forest | None = None) -> str:
    return json.dumps(render_json(explanation, names, forest), indent=2) + "\n"


def plot_tsv(explanation: Explanation) -> str:
    """Plot data: one row per pre-selected rule with its 2-D coordinates,
    cluster id, representative flag and prediction."""
    lines = ["x\ty\tcluster\tis_representative\trule_prediction"]
    for i in range(explanation.preselected.size):
        pred = np.atleast_1d(explanation.rule_predictions[i])
        pred_str = (
            f"{float(pred[0]):.6g}" if pred.size == 1
            else ";".join(f"{float(v):.6g}" for v in pred)
        )
        lines.append(
            f"{explanation.projected[i, 0]:.6g}\t{explanation.projected[i, 1]:.6g}"
            f"\t{int(explanation.clusters[i])}"
            f"\t{int(explanation.representative[i])}"
            f"\t{pred_str}"
        )
    return "\n".join(lines) + "\n"
