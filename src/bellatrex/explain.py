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
from .forest import Forest, NodeArena, PathStep, path_length, path_steps, route, route_batch
from .numeric import (
    Clustering,
    ClusteringBatch,
    SortedRows,
    identity_projection,
    kmeans_batch,
    kmeans_one,
    kmeans_pp,
    pca_fit,
    pca_spectra,
    pca_spectrum,
    pca_transform,
    sorted_rows,
    sorted_stack,
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


def _routed(forest: Forest, x: np.ndarray, levels: np.ndarray) -> _Routes:
    """The routes of x from its ``route`` level matrix.  Trees are ordered
    by the Euclidean distance of their prediction to the forest prediction;
    the stable sort keeps tree order on ties."""
    preds = forest.arena.node_pred[levels[-1]]
    y_hat = preds.mean(axis=0)
    order = np.argsort(np.linalg.norm(preds - y_hat, axis=1), kind="stable")
    return _Routes(x=x, levels=levels, preds=preds, y_hat=y_hat, order=order)


def _route(forest: Forest, x: np.ndarray) -> _Routes:
    """Validate x and route it through every tree."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (forest.p,):
        raise ValueError(f"instance must have shape ({forest.p},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("instance has a non-finite value")
    return _routed(forest, x, route(forest, x))


def _instances(forest: Forest, X) -> np.ndarray:
    """X validated as an (m, p) array of instances; an empty sequence is
    no instance."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape == (0,):
        X = X.reshape(0, forest.p)
    if X.ndim != 2 or X.shape[1] != forest.p:
        raise ValueError(f"instances must have shape (m, {forest.p}), got {X.shape}")
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise ValueError(f"instance {int(np.argmin(finite))} has a non-finite value")
    return X


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


# Rule-vector cells (instances x largest tau x p) of one lockstep, which
# holds at least one instance: enough for large same-shape groups at narrow
# p, few enough that the vectors and their projected and sorted copies stay
# small at wide p.  Measured with 30 trees and taus 10/20/30 at p = 2,000:
# 64, 8, 4 and 2 instances a lockstep traced 62.8, 31.5, 16.1 and 7.4 MiB at
# 26.3, 19.2, 24.8 and 37.1 ms a row; at p = 8 with 100 trees, 64 instances
# took 6.3-7.1 ms a row and 256 took 4.2-5.3 ms.  This budget gives 4 and
# about 400 instances at those shapes.
_LOCKSTEP_CELLS = 2 ** 18
# Fewer instances than this at one (tau, dim) step are projected, sorted and
# clustered one at a time (``_Tuning.project``, ``SortedRows.kmeans``); from
# this count on, the block's array kernels cost less.  Measured crossover on
# a 100-tree binary forest (p = 24), ms per instance, block against one at a
# time, over four processes: blocks of 3 took 3.90-4.10 against 3.71-4.10,
# blocks of 4 took 3.40-3.79 against 3.65-3.96.
_BATCH_INSTANCES = 4


def explain_batch(
    forest: Forest,
    X,
    grid: TuningGrid | None = None,
    mode: str | Sequence[str] = MODE_WEIGHTED,
    flags: AblationFlags | Sequence[AblationFlags] = AblationFlags(),
    seeds: Sequence[int] | None = None,
) -> list[Explanation]:
    """``tune_and_explain`` of every instance (row) of ``X``, an (m, p)
    array.  ``mode`` and ``flags`` are one value for all instances or one
    per instance, and ``seeds`` holds each instance's seed (0 for all when
    omitted).

    The seeds of all the batch's K > 1 cells, and the generators they key,
    are hashed together (``_seeds``), bit for bit what ``derive_seed`` and
    ``np.random.default_rng`` give one at a time.  The instances are then
    tuned in locksteps, one (tau, d) step of their grids at a time, and each
    keeps only its best cell so far; a lockstep holds as many instances as
    keep its rule vectors (instances x largest tau x p) within
    ``_LOCKSTEP_CELLS``, and at least one.  Each instance still visits its
    own cells in grid order, so its explanation is the one
    ``tune_and_explain`` gives alone, whatever its lockstep holds.  A lockstep
    routes its instances once and vectorizes their rules once; a step's
    instances at one (tau, d) are projected, sorted and solved at K = 1
    together once there are ``_BATCH_INSTANCES`` of them, and then the
    K > 1 cells of each shape (tau, effective d, effective K > 1) among
    them are clustered by one ``kmeans_batch``."""
    grid = grid or TuningGrid()
    X = _instances(forest, X)
    m = X.shape[0]
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

    width = max((max(taus) for taus, _ in axes.values()), default=1)
    size = max(1, _LOCKSTEP_CELLS // (width * forest.p))  # instances a lockstep
    explanations = []
    for lo in range(0, m, size):
        chunk = range(lo, min(m, lo + size))
        lockstep = _Lockstep(forest, X[lo:chunk.stop], [modes[i] for i in chunk],
                             [axes[arms[i]] for i in chunk], grid.ks, keys)
        for s in range(max(len(t.steps) for t in lockstep.tunings)):
            lockstep.step(s)
        explanations += [_explanation(forest, t.routes, *t.best, t.mode) for t in lockstep.tunings]
    return explanations


@dataclass
class _Tuning:
    """One instance's tuning state: its place in the lockstep, its routes,
    its rule vectors in proximity order, its (tau, dim) steps in grid order,
    the generator keys of its K > 1 cells in grid order and its best cell so
    far."""

    index: int
    routes: _Routes
    stacked: np.ndarray
    steps: list[tuple[int, int | None]]
    keys: Iterator[np.ndarray]
    mode: str
    spectrum: tuple | None = None  # (tau, Spectrum) of the current tau
    best: tuple | None = None  # (selected, projected, effective d, _Cell, K)
    best_key: tuple | None = None

    def project(self, p: int, tau: int, dim: int | None) -> tuple[np.ndarray, SortedRows, int]:
        """(projected, sorted rows, effective d) of the step (tau, dim):
        one eigendecomposition per tau serves all its dimensions, and the
        identity (``dim`` None) keeps the rule vectors, so d = p."""
        projected = self.stacked[:tau]
        if dim is not None:
            if self.spectrum is None or self.spectrum[0] != tau:
                self.spectrum = (tau, pca_spectrum(projected))
            projected = pca_transform(self.spectrum[1].projection(min(dim, p)), projected)
        return projected, sorted_rows(projected), projected.shape[1]

    def beats(self, key: tuple) -> bool:
        """Whether a cell of this key (-fidelity, K, effective d, tau)
        beats the best so far: higher fidelity, then smaller K, effective d
        and tau.  Its key is then the best."""
        if self.best_key is None or key < self.best_key:
            self.best_key = key
            return True
        return False


class _Lockstep:
    """Instances tuned together, one step of their grids at a time.  They
    are routed by one ``route_batch``, and their rule vectors are one
    (instances, width, p) array in each instance's proximity order."""

    def __init__(self, forest: Forest, X: np.ndarray, modes: list[str], axes: list[tuple],
                 ks: tuple[int, ...], keys: Iterator[np.ndarray]):
        self.p, self.ks = forest.p, ks
        levels = route_batch(forest, X)  # (depth + 1, instances, trees)
        routes = [_routed(forest, x, levels[:, i]) for i, x in enumerate(X)]
        # as many rule vectors per instance as the largest tau needs
        width = max(max(taus) for taus, _ in axes)
        orders = np.stack([r.order[:width] for r in routes])
        paths = levels[:, np.arange(len(routes))[:, None], orders].transpose(1, 2, 0)
        self.vectors = np.empty((len(routes), width, forest.p))
        for mode in set(modes):
            mine = [i for i, own in enumerate(modes) if own == mode]
            self.vectors[mine] = path_vectors(
                forest.arena, paths[mine].reshape(len(mine) * width, -1), mode, forest.p,
            ).reshape(len(mine), width, forest.p)
        self.tunings = []
        for i, (route_i, (taus, dims)) in enumerate(zip(routes, axes)):
            steps = [(tau, dim) for tau in taus for dim in dims]
            own_keys = [next(keys) for _ in range(len(steps) * sum(k > 1 for k in ks))]
            self.tunings.append(_Tuning(i, route_i, self.vectors[i], steps, iter(own_keys), modes[i]))
        self.spectra: dict[tuple[int, ...], tuple] = {}  # members -> (tau, SpectrumStack)

    @cached_property
    def ranked(self) -> np.ndarray:
        """(instances, trees, w): each instance's tree predictions in its
        proximity order."""
        return np.stack([t.routes.preds[t.routes.order] for t in self.tunings])

    @cached_property
    def y_hat(self) -> np.ndarray:
        """(instances, w) forest predictions."""
        return np.stack([t.routes.y_hat for t in self.tunings])

    def step(self, s: int) -> None:
        """Evaluate step ``s`` of every tuning that has one: all cluster
        counts at its (tau, dim), the tunings at one (tau, dim) together
        once there are ``_BATCH_INSTANCES`` of them."""
        groups: dict[tuple[int, int | None], list[_Tuning]] = {}
        for t in self.tunings:
            if s < len(t.steps):
                groups.setdefault(t.steps[s], []).append(t)
        for (tau, dim), members in groups.items():
            if len(members) < _BATCH_INSTANCES:
                for t in members:
                    self._fit_alone(t, tau, dim)
            else:
                self._fit_block(members, tau, dim)

    def _fit_alone(self, t: _Tuning, tau: int, dim: int | None) -> None:
        """Step (tau, dim) of one tuning: each cell clustered by
        ``SortedRows.kmeans`` and offered in grid order."""
        projected, rows, effective_d = t.project(self.p, tau, dim)
        selected = t.routes.order[:tau]
        for k in self.ks:
            rng = keyed_generator(next(t.keys)) if k > 1 else None
            cell = _fit_cell(t.routes, selected, rows.kmeans(k, rng))
            if t.beats((-cell.fidelity, k, effective_d, tau)):
                t.best = (selected, projected, effective_d, cell, k)

    def _fit_block(self, members: list[_Tuning], tau: int, dim: int | None) -> None:
        """Step (tau, dim) of many tunings at once.  Their first tau rule
        vectors are projected as one stack (one ``pca_spectra`` per tau,
        shared by its dimensions; the identity keeps the vectors) and sorted
        by one ``sorted_stack``; every cell clamped to one cluster is solved
        by one ``kmeans_one``, and the K > 1 cells of each effective K by one
        ``kmeans_batch``.  Each tuning then compares its cells in grid
        order; only a cell that wins is built (``_CellBatch.cell``), and its
        projected rows are copied out of the stack."""
        ks = self.ks
        place = tuple(t.index for t in members)
        projected = self.vectors[list(place), :tau]
        if dim is not None:
            if self.spectra.get(place, (None,))[0] != tau:
                self.spectra[place] = (tau, pca_spectra(projected))
            projected = self.spectra[place][1].projected(dim)
        effective_d = projected.shape[2]
        rows = sorted_stack(projected)
        distinct = rows.distinct.tolist()

        # per tuning and cluster count: (fidelity, its _CellBatch, its place there)
        one = [c for c, n in enumerate(distinct) if min(n, *ks) == 1]
        solved = dict(zip(one, self._fit_batch(members, one, kmeans_one(rows[one])))) if one else {}
        fits = []
        shapes: dict[int, list] = {}  # effective K > 1 -> [(tuning, K's place, key)]
        for c, t in enumerate(members):
            own = []
            for j, k in enumerate(ks):
                key = next(t.keys) if k > 1 else None
                if min(k, distinct[c]) == 1:
                    own.append(solved[c])
                else:
                    own.append(None)
                    shapes.setdefault(min(k, distinct[c]), []).append((c, j, key))
            fits.append(own)
        for k_eff, cells in shapes.items():
            chosen = [c for c, _, _ in cells]
            clusterings = kmeans_batch(rows[chosen], k_eff,
                                       [keyed_generator(key) for _, _, key in cells])
            for (c, j, _), fit in zip(cells, self._fit_batch(members, chosen, clusterings)):
                fits[c][j] = fit

        for c, (t, own) in enumerate(zip(members, fits)):
            won = None
            for j, k in enumerate(ks):
                if t.beats((-own[j][0], k, effective_d, tau)):
                    won = j
            if won is not None:
                _, batch, i = own[won]
                t.best = (t.routes.order[:tau], projected[c].copy(), effective_d, batch.cell(i),
                          ks[won])

    def _fit_batch(self, members: list[_Tuning], chosen: list[int],
                   clusterings: ClusteringBatch) -> list[tuple]:
        """The fits of the clusterings of the tunings ``chosen`` among
        ``members``."""
        index = [members[c].index for c in chosen]
        batch = _fit_cells(clusterings, self.ranked[index], self.y_hat[index])
        return [(fidelity, batch, i) for i, fidelity in enumerate(batch.fidelities.tolist())]


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _fmt_pred(value) -> str:
    """A document's prediction (a number, or a list of several) for the text."""
    if isinstance(value, list):
        return "[" + ", ".join(f"{v:.3f}" for v in value) + "]"
    return f"{value:.3f}"


def render_text(explanation: Explanation, names: tuple[str, ...] | None = None,
                forest: Forest | None = None) -> str:
    """Human-readable view of ``render_json``'s document: per rule, the
    weight, the root ("initial") estimate and one line per split showing the
    instance value, the test taken and the updated running prediction,
    ending at the leaf, then any leaf survival curve."""
    doc = render_json(explanation, names, forest)
    out = [
        f"forest prediction = {_fmt_pred(doc['forest_prediction'])}",
        f"surrogate prediction = {_fmt_pred(doc['surrogate'])}"
        f" (fidelity = {doc['fidelity']:.4f})",
        f"chosen: tau={doc['chosen_tau']}, d={doc['chosen_d']}, K={doc['chosen_k']}",
    ]
    for i, rule in enumerate(doc["rules"], start=1):
        out += ["", f"rule {i} (w_{i}={rule['weight']:.2f})"
                    f" initial estimate = {_fmt_pred(rule['initial_estimate'])}"]
        for step in rule["steps"]:
            name = step["feature"]
            out.append(f"  ({name} = {step['value']:.4g}) {name} {step['direction']}"
                       f" {step['threshold']:.4g} -> {_fmt_pred(step['prediction'])}")
        if rule["steps"]:
            out[-1] += " (leaf)"
        if rule.get("km_times"):
            points = ", ".join(f"S({t:.4g})={v:.3f}"
                               for t, v in zip(rule["km_times"], rule["km_values"]))
            out.append(f"  leaf survival curve: {points}")
    return "\n".join(out) + "\n"


def _scalar_or_list(pred: np.ndarray):
    arr = np.atleast_1d(pred)
    if arr.size == 1:
        return float(arr[0])
    return [float(v) for v in arr]


def render_json(explanation: Explanation, names: tuple[str, ...] | None = None,
                forest: Forest | None = None) -> dict:
    """JSON document with stable field names; ``render_text`` and
    ``plot_tsv`` are views of it."""

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
    """Plot data, a view of ``render_json``'s projected points: one row per
    pre-selected rule with its 2-D coordinates, cluster id, representative
    flag and prediction."""
    lines = ["x\ty\tcluster\tis_representative\trule_prediction"]
    for point in render_json(explanation)["projected_points"]:
        pred = point["rule_prediction"]
        pred = ";".join(f"{v:.6g}" for v in pred) if isinstance(pred, list) else f"{pred:.6g}"
        lines.append(f"{point['x']:.6g}\t{point['y']:.6g}\t{point['cluster']}"
                     f"\t{int(point['is_representative'])}\t{pred}")
    return "\n".join(lines) + "\n"
