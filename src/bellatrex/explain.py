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
from dataclasses import dataclass

import numpy as np

from .data import TaskKind
from .forest import Forest, PathStep, node_path, path_length, path_steps, route, tree_leaf_km
from .numeric import (
    Clustering,
    identity_projection,
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
class RuleVector:
    """Length-p vector of one decision path: per-covariate split counts
    (simple) or sums of node sample fractions (weighted)."""

    values: np.ndarray
    mode: str
    tree_index: int


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


def rule_vectors(trees, paths, mode: str, p: int) -> np.ndarray:
    """(len(paths), p) matrix whose row i is the rule vector of node path
    ``paths[i]`` through ``trees[i]``: per-covariate split counts (simple)
    or sums of split-node sample fractions (weighted).

    np.bincount adds each covariate's terms one by one in root-to-leaf
    order, so every entry is the same float as a running sum along the path.
    """
    splits = [path[:-1] for path in paths]
    rows = np.repeat(np.arange(len(paths)), [len(s) for s in splits])
    features = np.concatenate([tree.feature[s] for tree, s in zip(trees, splits)])
    fractions = np.concatenate([tree.sample_fraction[s] for tree, s in zip(trees, splits)])
    return _count_vectors(rows, features, fractions, len(paths), mode, p)


def _count_vectors(rows: np.ndarray, features: np.ndarray, fractions: np.ndarray,
                   n: int, mode: str, p: int) -> np.ndarray:
    """(n, p) rule vectors from the split steps of n paths, listed path after
    path and root to leaf within a path."""
    if mode not in (MODE_SIMPLE, MODE_WEIGHTED):
        raise ValueError(f"unknown vectorization mode {mode!r}")
    bins = rows * p + features.astype(np.intp, copy=False)
    weights = None if mode == MODE_SIMPLE else fractions
    counts = np.bincount(bins, weights=weights, minlength=n * p)
    return counts.reshape(n, p).astype(np.float64, copy=False)


def vectorize(tree, x: np.ndarray, mode: str) -> RuleVector:
    """Rule vector of the decision path of x through one tree."""
    values = rule_vectors([tree], [node_path(tree, x)], mode, int(x.shape[0]))[0]
    return RuleVector(values=values, mode=mode, tree_index=-1)


def _selected_vectors(forest: Forest, routes: _Routes, selected: np.ndarray,
                      mode: str) -> np.ndarray:
    """``rule_vectors`` of the selected trees' paths, gathered from the
    routed level matrix."""
    arena = forest.arena
    nodes = routes.levels[:, selected].T  # one row per path, root first
    split = arena.is_split[nodes]
    steps = nodes[split]
    return _count_vectors(np.nonzero(split)[0], arena.feature[steps],
                          arena.sample_fraction[steps], selected.size, mode, forest.p)


@dataclass(frozen=True)
class _Cell:
    """Clustering of one grid cell and the surrogate it implies."""

    clustering: Clustering
    representatives: list[int]  # per cluster, the row of its final rule
    weights: np.ndarray  # per cluster, its share of the rows
    surrogate: np.ndarray
    fidelity: float


def _fit_cell(routes: _Routes, selected: np.ndarray, clustering: Clustering) -> _Cell:
    representatives = clustering.representatives.tolist()
    weights = clustering.sizes / selected.size
    surrogate = np.zeros(routes.preds.shape[1])
    for c, local in enumerate(representatives):
        surrogate += float(weights[c]) * routes.preds[selected[local]]
    fidelity = 1.0 - float(np.linalg.norm(routes.y_hat - surrogate))
    return _Cell(clustering, representatives, weights, surrogate, fidelity)


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
    vectors = _selected_vectors(forest, routes, selected, mode)
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
    dimension, then smaller tau.

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
    grid = grid or TuningGrid()
    taus = (forest.n_trees,) if flags.skip_preselection else grid.taus
    dims = (NO_PROJECTION,) if flags.skip_projection else grid.dims
    TuningGrid(taus=taus, dims=dims, ks=grid.ks).validate(forest.n_trees)

    routes = _route(forest, x)
    stacked = _selected_vectors(forest, routes, routes.order[:max(taus)], mode)
    best: tuple | None = None
    best_key: tuple | None = None
    cell_index = 0
    for tau in taus:
        selected = routes.order[:tau]
        vectors = stacked[:tau]
        spectrum = None
        for dim in dims:
            if dim is None:
                projection = identity_projection(forest.p)
            else:
                if spectrum is None:
                    spectrum = pca_spectrum(vectors)
                projection = spectrum.projection(min(dim, forest.p))
            projected = pca_transform(projection, vectors)
            rows = sorted_rows(projected)
            effective_d = projection.n_components
            for k in grid.ks:
                # K=1 is solved in closed form and never reads its seed
                cell_seed = derive_seed(seed, cell_index) if k > 1 else 0
                cell = _fit_cell(routes, selected, rows.kmeans(k, cell_seed))
                cell_index += 1
                key = (-cell.fidelity, k, effective_d, tau)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (selected, projected, effective_d, cell, k)
    assert best is not None
    return _explanation(forest, routes, *best, mode)


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
            km = tree_leaf_km(forest.trees[rule.tree_index], explanation.instance)
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
            km = tree_leaf_km(forest.trees[rule.tree_index], explanation.instance)
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
