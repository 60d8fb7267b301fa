"""Random forests over binary decision trees for five task kinds: binary
classification, regression, multi-target regression, multi-label
classification and right-censored survival.

Every node records the fraction of the tree's training sample that reaches
it and a task-typed running prediction, so decision paths can be rendered
and vectorized downstream.  Split rule: x goes left iff x[j] <= threshold;
candidate thresholds are midpoints between consecutive distinct sorted
values (or the lower value, where the midpoint would not separate them);
gain ties resolve to the lowest covariate index, then the lowest
threshold.  Training is bit-deterministic: tree i draws from an RNG stream
seeded by (seed, i).

The trees of a forest grow in lockstep (``_grow_trees``) on index
segments: the trees' samples lie end to end in one index array, and a node
is a range of it.  Each step pops the next node of every tree's own
depth-first stack (of the first trees whose nodes fit in ``_STEP_ROWS``
rows), and children get ids (left, then right) in the order of a tree
grown alone.  A step's node values, purity tests and partitions are
array operations over all of its ranges; a split node's range is
partitioned stably in place, so each child holds its rows in the order a
tree grown alone gives them.  The step's
splittable nodes draw their candidates together (``_draw_candidates``),
each from its own tree's RNG stream, and that draw replicates numpy's
``Generator.choice(p, mtry, replace=False)`` word for word: Floyd's
algorithm with Lemire-bounded draws, then the shuffle that ``choice``
applies and the sort undoes (a tail shuffle instead for more than 10,000
covariates when mtry > p // 50).  The words are each generator's 32-bit
outputs in ``next_uint32`` order, buffered per tree (``_WordStreams``); a
tree's generator serves nothing else after its bootstrap draw, so reading
ahead is safe.  ``test_step_draw_equals_generator_choice`` pins this.

Split search sorts rank keys, not values: ``fit_forest`` ranks each
covariate once (``rank_keys``) into the narrowest unsigned dtype that also
holds a pad value above every rank, and a stable sort orders the rows by
keys exactly as by values (equal values, -0.0 and +0.0 among them, share a
key).  ``_sort_keys`` gets that order from a plain integer sort of each key
joined with its position.  Cuts are key changes, and a threshold is read
from ``X`` at the rows on either side of its cut (their midpoint, or the
lower value where the midpoint would not separate them,
``_split_thresholds``).  All the step's impurity
nodes are then scored in one padded batch (``_impurity_splits``): one sort
along each candidate of each node, non-cuts (equal neighbours) masked, and
prefix sums, from which Gini and variance gains follow.  The nodes are
taken in decreasing row count, and each chunk takes as many of the next
nodes as fit in ``_BATCH_CELLS`` padded cells at the width of its first,
widest node, which bounds the memory of a step; a node wider than the cap
is scored alone, a group of candidates at a time (``_impurity_splits``).
A node's split depends on its own rows only, so a tree does not depend on
the trees it grows beside.

A survival node is searched on its own by ``best_split``.  It has one
event table (``_event_tables`` at the root, ``EventTable.subset`` of its
parent's below it: each row's event-time rank, the at-risk and event
counts and the Nelson-Aalen hazard at the node's distinct event times).
The node's risk score, its purity test, its split search and, at a leaf,
its Kaplan-Meier curve all read that table; the score and the curve are
bit for bit ``survival.risk_score`` and ``survival.kaplan_meier`` of the
node's rows.  The exact per-cut log-rank formula (integer at-risk and
event counts per event time) picks every split.  On a node whose exact
table of all cuts is small (``_EXACT_CELLS``) it scores every cut.  A
larger node is screened first: with the node's hazard H, a left child's
O - E is the prefix sum of delta_i - H(t_i), and its variance is sum
W(t_i) - sum_{i,j} A(min(t_i, t_j)) over the child's rows (see
``_logrank_screen``; it sums blocks of about sqrt(G) rows in windows of at
most ``_EXACT_CELLS`` histogram cells, so beside the node's (m, n) arrays
it holds one window's).  Those sums round
differently from the per-cut formula, so every cut whose score could reach
the node's best is ranked again by the exact formula, except the cuts that
an integer test proves to have zero variance (``_zero_variance_cuts``),
which score 0.  The forest does not depend on the faster arithmetic.

Rows are routed by one kernel (``_descend``) over the forest's stacked node
arrays (``Forest.arena``, built on first use): it walks many (row, tree)
pairs down the arena one level at a time.  Path readers keep every level
(``route_batch``, and ``route`` for one row: the explainer and the fold
baselines); leaf readers keep the last level, routed ``_STEP_ROWS`` pairs
at a time (``route_leaves``: ``forest_predict_batch`` and ``oob_errors``).
Predictions and errors are then gathers from those node ids.  ``node_path``
is the tree-by-tree reference walk that the kernel must agree with;
``tree_predict``, ``forest_predict``, ``all_tree_predictions`` and
``decision_path`` are built on it and serve as per-row oracles.

``forest.json`` is ``json.dumps(forest_to_dict(forest))``.  ``save_forest``
writes those bytes one tree at a time and ``load_forest`` turns each tree
into arrays as soon as the parser has read it, so at most one tree's
Python lists are alive.  A loaded forest is validated (``_check_forest``:
tree counts and shapes, finite values, the event grid and the leaf curves),
and every fault in the file, the parser's included, is a ForestFileError.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from ._parallel import parallel_map
from .data import Dataset, TaskKind
from .errors import ForestFileError, UndefinedMetricError
from .metrics import higher_is_better, performance_metric
from .numeric import segment_sums
from .survival import StepFunction, product_limit

_MIN_GAIN = 1e-12


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    min_samples_split: int | None = None  # None: 10 for survival, else 5
    mtry: int | None = None  # None: ceil(sqrt(p)) or ceil(p/3), see resolve_mtry
    seed: int = 0
    max_depth: int | None = None
    bootstrap: bool = True

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be non-negative")

    def resolve_min_split(self, task: TaskKind) -> int:
        if self.min_samples_split is not None:
            if self.min_samples_split < 2:
                raise ValueError("min_samples_split must be at least 2")
            return self.min_samples_split
        return 10 if task is TaskKind.SURVIVAL else 5

    def resolve_mtry(self, task: TaskKind, p: int) -> int:
        if self.mtry is not None:
            if not 1 <= self.mtry <= p:
                raise ValueError(f"mtry must lie in [1, {p}]")
            return self.mtry
        if task.classification_like:
            return min(p, max(1, math.ceil(math.sqrt(p))))
        return min(p, max(1, math.ceil(p / 3)))


@dataclass
class Tree:
    """Node arena in flat arrays; feature[i] == -1 marks a leaf."""

    task: TaskKind
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    sample_fraction: np.ndarray
    sample_count: np.ndarray
    node_pred: np.ndarray  # (n_nodes, w)
    bootstrap_indices: np.ndarray
    oob_indices: np.ndarray
    leaf_km: dict[int, StepFunction] = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    def is_leaf(self, node: int) -> bool:
        return self.feature[node] < 0

    def depth_stats(self) -> tuple[int, float]:
        """(max leaf depth, mean leaf depth) by traversal."""
        depths = np.zeros(self.n_nodes, dtype=np.int64)
        order = [0]
        for node in order:
            if not self.is_leaf(node):
                for child in (int(self.left[node]), int(self.right[node])):
                    depths[child] = depths[node] + 1
                    order.append(child)
        leaf_depths = depths[self.feature < 0]
        return int(leaf_depths.max()), float(leaf_depths.mean())


@dataclass(frozen=True)
class PathStep:
    """One node on a root-to-leaf decision path.  Split steps carry the test
    (feature, threshold, direction); the final step is the leaf (feature is
    None) and carries the leaf prediction."""

    node_id: int
    feature: int | None
    threshold: float | None
    went_left: bool | None
    sample_fraction: float
    prediction: np.ndarray


@dataclass(frozen=True, eq=False)
class NodeArena:
    """Every tree's nodes stacked tree after tree into one set of flat
    arrays.  Tree i's node v is arena node ``roots[i] + v``; a leaf's
    feature is 0 and both its children are the leaf itself, so a walk that
    has reached a leaf stays there."""

    trees: list[Tree]  # the list the arena was stacked from
    roots: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    is_split: np.ndarray
    sample_fraction: np.ndarray
    node_pred: np.ndarray

    def path(self, levels: np.ndarray, tree: int) -> list[int]:
        """Tree-local node ids from the root to the leaf of one tree's column
        of ``route``'s level matrix."""
        column = levels[:, tree]
        length = int(np.count_nonzero(self.is_split[column])) + 1
        return (column[:length] - self.roots[tree]).tolist()


def stack_trees(trees: list[Tree]) -> NodeArena:
    """The node arena of a list of trees (see ``Forest.arena``)."""
    sizes = np.array([tree.n_nodes for tree in trees], dtype=np.intp)
    roots = np.cumsum(sizes) - sizes
    feature = np.concatenate([tree.feature for tree in trees]).astype(np.intp)
    is_split = feature >= 0
    own = np.arange(feature.size)
    offsets = np.repeat(roots, sizes)
    left = np.concatenate([tree.left for tree in trees]).astype(np.intp) + offsets
    right = np.concatenate([tree.right for tree in trees]).astype(np.intp) + offsets
    return NodeArena(
        trees=trees,
        roots=roots,
        feature=np.where(is_split, feature, 0),
        threshold=np.concatenate([tree.threshold for tree in trees]),
        left=np.where(is_split, left, own),
        right=np.where(is_split, right, own),
        is_split=is_split,
        sample_fraction=np.concatenate([tree.sample_fraction for tree in trees]),
        node_pred=np.concatenate([tree.node_pred for tree in trees]),
    )


@dataclass
class Forest:
    trees: list[Tree]
    task: TaskKind
    p: int
    prediction_width: int
    params: ForestParams
    min_samples_split: int
    mtry: int
    event_grid: np.ndarray | None = None
    covariate_names: tuple[str, ...] | None = None
    _arena: NodeArena | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @property
    def arena(self) -> NodeArena:
        """The stacked node arena, built on first use (a loaded forest's on
        load, by its validation) and again after ``trees`` is replaced."""
        if self._arena is None or self._arena.trees is not self.trees:
            self._arena = stack_trees(self.trees)
        return self._arena


# ---------------------------------------------------------------------------
# Splitting criteria
# ---------------------------------------------------------------------------

def best_split(
    X: np.ndarray,
    Y: np.ndarray,
    task: TaskKind,
    rows: np.ndarray,
    candidates: np.ndarray,
    table: EventTable | None = None,
    keys: np.ndarray | None = None,
) -> tuple[int, float, float] | None:
    """Best (covariate, threshold, score) over the candidate covariates, or
    None when no candidate separates the rows with positive gain.

    The rows are sorted along every candidate at once by their rank keys
    (``rank_keys(X)``, computed here unless the caller passes them), and
    positions where the next key is equal are masked as non-cuts.  The best
    cut is the first maximum in (covariate, position) order.  An impurity
    node is ``_impurity_splits`` applied to the node alone.  A survival
    node's ``table`` (see ``_event_tables``) is built here unless the caller
    passes it.
    """
    rows = np.asarray(rows)
    if rows.size < 2:
        return None
    if keys is None:
        keys = rank_keys(X)
    cand = np.sort(np.asarray(candidates))
    if task is not TaskKind.SURVIVAL:
        feature, threshold, score = _impurity_splits(
            X, keys, Y, rows, np.zeros(1, dtype=np.intp), np.array([rows.size]), cand[None, :],
            not task.classification_like)
        return None if feature[0] < 0 else (int(feature[0]), threshold[0], float(score[0]))
    order, sk = _sort_keys(keys[rows[None, :], cand[:, None]])  # (m, n): a row per candidate
    is_cut = sk[:, :-1] < sk[:, 1:]
    if not is_cut.any():
        return None
    if table is None:
        sub_y = Y[rows]
        table = _event_tables(sub_y[:, 0], sub_y[:, 1] > 0.5)
    found = _logrank_best(order, is_cut, table)
    if found is None:
        return None
    f, c, score = found
    if not score > _MIN_GAIN:
        return None
    j = int(cand[f])
    below, above = float(X[rows[order[f, c]], j]), float(X[rows[order[f, c + 1]], j])
    return j, _split_thresholds(below, above)[()], score


def _split_thresholds(below: np.ndarray, above: np.ndarray) -> np.ndarray:
    """Threshold of each cut between the values ``below`` < ``above`` on
    either side of it: their midpoint where it lies in [below, above)
    (between adjacent doubles it may round onto ``above``, near the float
    maximum it overflows), else ``below``, so no child is empty.  Callers
    pass Python floats or silence numpy's overflow warnings."""
    middle = 0.5 * (below + above)
    return np.where((below <= middle) & (middle < above), middle, below)


def rank_keys(X: np.ndarray) -> np.ndarray:
    """Each column's values replaced by their rank among the column's
    distinct values, in the narrowest unsigned dtype whose maximum exceeds
    every rank; that maximum pads the batched sorts.  Keys compare exactly
    as the values do (equal values, -0.0 and +0.0 among them, share a
    rank), so a stable sort orders rows the same by either."""
    n, p = X.shape
    columns = [np.unique(X[:, j], return_inverse=True) for j in range(p)]
    dtype = np.min_scalar_type(max((distinct.size for distinct, _ in columns), default=0))
    keys = np.empty((n, p), dtype=dtype)
    for j, (_, rank) in enumerate(columns):
        keys[:, j] = rank
    return keys


def _sort_keys(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, sorted keys) of rank keys along the last axis, where
    ``order`` is their stable argsort.  Each key is joined with its position
    into one unsigned integer, the key in the high bits; the joined values
    are distinct, so any sort orders them as a stable sort of the keys
    does, and numpy's plain sort of 32- and 64-bit integers is several times
    faster than a stable argsort followed by a gather of the sorted keys."""
    shift = (block.shape[-1] - 1).bit_length()
    wide = np.uint32 if 8 * block.itemsize + shift <= 32 else np.uint64
    positions = np.arange(block.shape[-1], dtype=wide)
    joined = np.sort((block.astype(wide) << wide(shift)) | positions, axis=-1)
    return (joined & wide((1 << shift) - 1)).astype(np.intp), joined >> wide(shift)


# Largest padded block, in cells (nodes x candidates x padded rows x
# targets), that one batched impurity scoring call stacks; it bounds the
# memory of a lockstep step.  Uncapped, the first steps of a 100-tree
# binary fit on 800 rows (p = 24) stack every tree's node in one block, and
# the fit's traced peak reaches 28.6 MiB against 4.1 MiB at this cap.
# Split search time, median of five in each of two processes, on that fit
# and on a desk-regression ``run_benchmark``: 253-273 and 87-93 ms at
# 4,096 cells, 241-259 and 90-94 ms at 8,192, and 272-276 and 95-100 ms at
# 16,384, whose chunks pad more.
_BATCH_CELLS = 8192


def _plan_chunks(sizes, cells_per_row: int) -> list[np.ndarray]:
    """Chunks of node indices for batched scoring.  The nodes of ``sizes``
    rows are taken in decreasing row count, and each chunk takes as many of
    the next nodes as fit in ``_BATCH_CELLS`` cells at the width of its
    first (widest) node; a node wider than the cap is a chunk of its own."""
    order = np.argsort(-sizes, kind="stable")
    chunks = []
    start = 0
    while start < order.size:
        width = int(sizes[order[start]])
        stop = start + max(1, _BATCH_CELLS // (width * cells_per_row))
        chunks.append(order[start:stop])
        start = stop
    return chunks


def _impurity_splits(X: np.ndarray, keys: np.ndarray, Y: np.ndarray, index: np.ndarray,
                     starts: np.ndarray, sizes: np.ndarray, cands: np.ndarray,
                     regression: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``best_split`` of every impurity node, as (feature, threshold, score)
    arrays with feature -1 where a node has no split: node i holds the
    ``sizes[i] >= 2`` rows ``index[starts[i]:starts[i] + sizes[i]]`` and
    draws the sorted candidates ``cands[i]``; ``keys`` is ``rank_keys(X)``.
    The nodes are scored in padded chunks (see ``_plan_chunks``); a node's
    result depends on its own rows only, not on the nodes that share its
    chunk.  A node wider than ``_BATCH_CELLS`` is scored in groups of as
    many of its candidates as fit in the cap (at least one), and keeps the
    first maximum in candidate order, as one call over all of them would: a
    later group wins only with a strictly larger score.  (A gain is NaN
    only where a node's target sums overflow, and then at every cut of the
    node, which does not split either way.)"""
    feature = np.empty(sizes.size, dtype=np.intp)
    threshold = np.empty(sizes.size)
    score = np.empty(sizes.size)
    for chunk in _plan_chunks(sizes, cands.shape[1] * Y.shape[1]):
        # all the candidates, unless the chunk is one node wider than the cap
        group = max(1, _BATCH_CELLS // (int(sizes[chunk[0]]) * Y.shape[1]))
        for lo in range(0, cands.shape[1], group):
            found = _impurity_chunk(X, keys, Y, index, starts[chunk], sizes[chunk],
                                    cands[chunk, lo:lo + group], regression)
            if lo:
                later = found[2] > score[chunk]
                found = [np.where(later, new, kept[chunk])
                         for new, kept in zip(found, (feature, threshold, score))]
            feature[chunk], threshold[chunk], score[chunk] = found
    return feature, threshold, score


def _impurity_chunk(X: np.ndarray, keys: np.ndarray, Y: np.ndarray, index: np.ndarray,
                    starts: np.ndarray, sizes: np.ndarray, cands: np.ndarray,
                    regression: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best Gini or variance cut of each node of one chunk.

    The nodes' rank keys are stacked into (nodes, candidates, n_pad) blocks
    padded with the key dtype's maximum, which exceeds every rank, so
    ``_sort_keys`` keeps the padding behind every real row.  Prefix sums
    along each sorted candidate give the left child statistics at every
    position; a node's totals are read at its own last row, and positions
    at or beyond its n - 1 are not cuts.  Prefix sums add in row order and every
    other step is elementwise or a mean over the targets (skipped for one
    target, whose mean is itself), so the padding changes no node's
    figures.  A cut's threshold lies between the covariate's values at the
    rows on either side of it (``_split_thresholds``).
    """
    n_pad = int(sizes.max())
    real = np.arange(n_pad) < sizes[:, None]  # (B, n_pad)
    padded = index[np.where(real, starts[:, None] + np.arange(n_pad), 0)]
    pad = np.iinfo(keys.dtype).max
    block = np.where(real[:, None, :], keys[padded[:, None, :], cands[:, :, None]], pad)
    order, sk = _sort_keys(block)  # (B, m, n_pad)
    node = np.arange(sizes.size)
    sorted_rows = padded[node[:, None, None], order]
    sy = Y[sorted_rows]  # (B, m, n_pad, w)
    last = sizes - 1
    is_cut = (sk[:, :, :-1] < sk[:, :, 1:]) & (np.arange(n_pad - 1) < last[:, None, None])

    if Y.shape[1] == 1:
        def over_targets(a):
            return a[..., 0]
    else:
        def over_targets(a):
            return a.mean(axis=3)

    n = sizes.astype(np.float64)[:, None, None, None]
    nl = np.arange(1, n_pad, dtype=np.float64)[:, None]  # left child sizes
    nr = n - nl
    cum = np.cumsum(sy, axis=2)
    left_sum = cum[:, :, :-1]
    total = cum[node, :, last][:, :, None]  # each node's sums at its own last row
    right_sum = total - left_sum
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        share_left, share_right = nl / n, nr / n
        if regression:
            cum2 = np.cumsum(sy * sy, axis=2)
            left_sq = cum2[:, :, :-1]
            total_sq = cum2[node, :, last][:, :, None]
            var_parent = np.maximum(total_sq / n - (total / n) ** 2, 0.0)
            var_left = np.maximum(left_sq / nl - (left_sum / nl) ** 2, 0.0)
            var_right = np.maximum((total_sq - left_sq) / nr - (right_sum / nr) ** 2, 0.0)
            gain = over_targets(var_parent - share_left * var_left - share_right * var_right)
        else:
            q_parent = total / n
            q_left = left_sum / nl
            q_right = right_sum / nr
            g_parent = over_targets(2.0 * q_parent * (1.0 - q_parent))
            g_left = over_targets(2.0 * q_left * (1.0 - q_left))
            g_right = over_targets(2.0 * q_right * (1.0 - q_right))
            gain = g_parent - share_left[..., 0] * g_left - share_right[..., 0] * g_right

        gain = np.where(is_cut, gain, -np.inf).reshape(sizes.size, -1)
        best = np.argmax(gain, axis=1)
        score = gain[node, best]
        f, c = np.divmod(best, n_pad - 1)
        feature = cands[node, f]
        below, above = sorted_rows[node, f, c], sorted_rows[node, f, c + 1]
        threshold = _split_thresholds(X[below, feature], X[above, feature])
    return np.where(score > _MIN_GAIN, feature, -1), threshold, score


class EventTable(NamedTuple):
    """A survival node's event table, built once per node (``_event_tables``
    at the root, ``subset`` of the parent's below it); the node's risk
    score, purity test, split search and leaf curve all read it."""

    times: np.ndarray
    events: np.ndarray  # bool
    ranks: np.ndarray  # each row's count of the node's event times <= its time
    grid: np.ndarray  # the node's distinct event times
    n_risk: np.ndarray  # rows at risk at each event time (float)
    n_events: np.ndarray  # events at each event time (float)
    hazard: np.ndarray  # 0, then the Nelson-Aalen hazard at each event time

    @property
    def pure(self) -> bool:
        """No events (the hazard cannot be split further), or every row an
        event at one time (all rows equal)."""
        return self.grid.size == 0 or self.n_events[0] == self.events.size

    def risk_score(self, event_grid: np.ndarray) -> float:
        """``survival.risk_score`` of the node's rows, bit for bit: the same
        hazard array gathered at the same indices and summed."""
        return float(np.sum(self.hazard[np.searchsorted(self.grid, event_grid, side="right")]))

    def kaplan_meier(self) -> StepFunction:
        """``survival.kaplan_meier`` of the node's rows, from these counts."""
        return product_limit(self.grid, self.n_events, self.n_risk)

    def subset(self, mask: np.ndarray) -> EventTable:
        """The event table of the rows where ``mask`` holds, from this one's
        ranks: the subset's event times are this grid's times that remain
        among its events, and a row's new rank counts those up to its rank
        here.  An exact integer remap, equal to ``_event_tables`` of the
        subset's rows, with no new sort."""
        events = self.events[mask]
        ranks = self.ranks[mask]
        present = np.zeros(self.grid.size + 1, dtype=bool)
        present[ranks[events]] = True
        return _ranked_table(self.times[mask], events, np.cumsum(present)[ranks],
                             self.grid[present[1:]])


def _event_tables(times: np.ndarray, events: np.ndarray) -> EventTable:
    """The event table of a node's rows.  A row's rank is the number of the
    node's distinct event times <= its time, so row i is at risk at the g-th
    event time iff g <= rank."""
    grid = np.unique(times[events])
    return _ranked_table(times, events, np.searchsorted(grid, times, side="right"), grid)


def _ranked_table(times: np.ndarray, events: np.ndarray, ranks: np.ndarray,
                  grid: np.ndarray) -> EventTable:
    """The event table of rows whose ranks in ``grid`` are known."""
    per_rank = np.bincount(ranks, minlength=grid.size + 1)
    n_risk = np.cumsum(per_rank[::-1])[::-1][1:].astype(np.float64)
    n_events = np.bincount(ranks[events], minlength=grid.size + 1)[1:].astype(np.float64)
    hazard = np.concatenate(([0.0], np.cumsum(n_events / n_risk)))
    return EventTable(times, events, ranks, grid, n_risk, n_events, hazard)


def _logrank_screen(ranks: np.ndarray, events: np.ndarray, table: EventTable,
                    is_cut: np.ndarray):
    """Screening log-rank statistic at every position, and the mask of the
    cuts whose exact score could reach the node's best.

    ``ranks`` and ``events`` are (m, n) in each candidate's sorted order;
    the left child of position c holds the first c + 1 rows.  With the
    node's Nelson-Aalen hazard H, variance weights w_g = d_g (n_g - d_g) /
    (n_g - 1), W(r) = sum_{g<=r} w_g / n_g and A(r) = sum_{g<=r} w_g / n_g^2:

        O - E    = sum_{i in left} (delta_i - H(r_i))
        variance = sum_{i in left} W(r_i) - sum_{i,j in left} A(min(r_i, r_j))

    The pair sum is built in blocks of about sqrt(G) rows (G event times):
    pairs inside a block directly, pairs with earlier blocks through the
    cumulative rank counts at the block start.  The blocks are walked in
    windows of at most ``_EXACT_CELLS`` (m, block, G + 1) histogram cells,
    or one block where that is more, so beside the (m, n) arrays the screen
    holds one window's arrays, not O(m n sqrt(G)) cells; the windows change
    no bit of the result.  Every sum above is a recursive sum of at most
    n + G + s terms with nonnegative magnitudes bounded by the node totals,
    so the absolute error of O - E and of the variance is below ``tol``
    times those totals; each cut gets the score interval this implies.  A cut is kept when its upper bound reaches the
    best lower bound; a cut whose variance may be zero has no upper bound,
    scores 0 here and is always kept.
    """
    m, n = ranks.shape
    n_risk, n_events, hazard = table.n_risk, table.n_events, table.hazard
    G = n_risk.size
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = np.where(n_risk > 1, n_events * (n_risk - n_events) / (n_risk - 1.0), 0.0)
    linear = np.concatenate(([0.0], np.cumsum(weight / n_risk)))
    pair_weight = np.concatenate(([0.0], weight / (n_risk * n_risk)))
    quad = np.cumsum(pair_weight)

    numerator = np.cumsum(events - hazard[ranks], axis=1)[:, :-1]
    linear_sum = np.cumsum(linear[ranks], axis=1)

    s = max(1, math.isqrt(G - 1) + 1)  # block length, ceil(sqrt(G))
    n_blocks = -(-n // s)
    blocked = np.zeros((m, n_blocks * s), dtype=np.int64)
    blocked[:, :n] = ranks  # padding has rank 0: A(0) = 0 pairs it with nothing
    blocked = blocked.reshape(m, n_blocks, s)
    increment = np.empty((m, n_blocks, s))
    # all a window needs of the blocks before it is their rows per rank,
    # integers that carry over exactly
    before = np.zeros((m, 1, G + 1), dtype=np.int64)
    width = max(1, _EXACT_CELLS // (m * (G + 1)))
    for start in range(0, n_blocks, width):
        window = blocked[:, start:start + width]
        w = window.shape[1]
        cell = np.arange(0, m * w * (G + 1), G + 1).reshape(m, w, 1) + window
        hist = np.bincount(cell.ravel(), minlength=m * w * (G + 1)).reshape(m, w, G + 1)
        # rows of earlier blocks with rank >= g, for every block start
        earlier = before + np.cumsum(hist, axis=1) - hist
        before = earlier[:, -1:] + hist[:, -1:]
        at_least = np.cumsum(earlier[:, :, ::-1], axis=2)[:, :, ::-1]
        cross = np.cumsum(pair_weight * at_least, axis=2)
        pairs_earlier = cross.reshape(-1)[cell]
        # pairs (j, k) with j before k inside a block; index 0 is quad's zero
        inside = np.minimum(window[:, :, :, None], window[:, :, None, :])
        pairs_inside = quad[np.tril(inside, -1)].sum(axis=3)
        increment[:, start:start + w] = quad[window] + 2.0 * (pairs_earlier + pairs_inside)
    pair_sum = np.cumsum(increment.reshape(m, -1)[:, :n], axis=1)
    variance = (linear_sum - pair_sum)[:, :-1]

    tol = 4.0 * (n + G + s + 16) * np.finfo(np.float64).eps
    slack_num = tol * (n_events.sum() + hazard[ranks[0]].sum())
    slack_var = tol * weight.sum()
    spread = np.abs(numerator)
    sure = is_cut & (variance > slack_var)
    with np.errstate(divide="ignore", invalid="ignore"):
        score = np.where(sure, spread / np.sqrt(np.where(sure, variance, 1.0)), 0.0)
        low = np.where(sure, np.maximum(spread - slack_num, 0.0)
                       / np.sqrt(variance + slack_var), 0.0)
        high = np.where(sure, (spread + slack_num)
                        / np.sqrt(np.where(sure, variance - slack_var, 1.0)), np.inf)
    keep = is_cut & (high >= max(float(low.max()), _MIN_GAIN))
    return score, keep


def _logrank_exact(ranks: np.ndarray, events: np.ndarray, table: EventTable,
                   feat: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """|log-rank statistic| of the cuts (feat, pos), listed in (candidate,
    position) order, by the per-cut formula: integer left-child at-risk and
    event counts per event time, then one row of terms per cut."""
    m, n = ranks.shape
    n_risk, n_events = table.n_risk, table.n_events
    G = n_risk.size
    k = feat.size
    # each row counts toward the first listed cut of its candidate at or
    # after its position; a running sum per candidate then gives every cut
    # its whole left child
    key = feat * n + pos
    row_key = np.arange(m * n)
    seg = np.searchsorted(key, row_key)
    own = seg < k
    own[own] = feat[seg[own]] == row_key[own] // n
    cell = (seg[own] * 2 + events.ravel()[own]) * (G + 1) + ranks.ravel()[own]
    counts = np.cumsum(np.bincount(cell, minlength=k * 2 * (G + 1)).reshape(k, 2, G + 1), axis=0)
    first = np.searchsorted(feat, feat)
    counts -= np.where((first > 0)[:, None, None], counts[first - 1], 0)
    at_rank = counts.sum(axis=1)
    left_risk = np.cumsum(at_rank[:, ::-1], axis=1)[:, ::-1][:, 1:].astype(np.float64)
    left_events = counts[:, 1, 1:].astype(np.float64)

    observed_minus_expected = (left_events - n_events * left_risk / n_risk).sum(axis=1)
    ratio = left_risk / n_risk
    with np.errstate(divide="ignore", invalid="ignore"):
        var_terms = np.where(
            n_risk > 1,
            n_events * ratio * (1.0 - ratio) * (n_risk - n_events) / (n_risk - 1.0),
            0.0,
        )
    variance = var_terms.sum(axis=1)
    return np.where(variance > 0, np.abs(observed_minus_expected) / np.sqrt(np.maximum(variance, 1e-300)), 0.0)


def _zero_variance_cuts(ranks: np.ndarray, table: EventTable) -> np.ndarray:
    """Mask of the positions of (m, n) sorted ``ranks`` whose cut has zero
    log-rank variance, by an integer test.  The variance terms vanish before
    the first event time g with weight w_g > 0 (n_g > d_g), and from g on
    every risk set is inside the one at g; so the variance is zero exactly
    when the left or the right child has no row at risk at g (the prefix or
    the suffix maximum of the ranks is below g), that is when the left child
    holds none or all of the n_g rows at risk at g."""
    weighted = np.flatnonzero(table.n_events < table.n_risk)
    if weighted.size == 0:
        return np.ones((ranks.shape[0], ranks.shape[1] - 1), dtype=bool)
    left_at_risk = np.cumsum(ranks > weighted[0], axis=1)[:, :-1]
    return (left_at_risk == 0) | (left_at_risk == table.n_risk[weighted[0]])


# Largest exact table (cuts x (G + 1) cells, G event times) that
# ``_logrank_best`` scores without screening first: below it the screen's
# fixed cost, about 30 numpy calls, exceeds what it saves the exact formula.
# Train-survival forests (n = 2000) fit equally fast with 4,096 or 16,384
# cells and slower with 65,536.  It also caps one window of
# ``_logrank_screen``'s histogram cells.
_EXACT_CELLS = 16384


def _logrank_best(order: np.ndarray, is_cut: np.ndarray, table: EventTable):
    """(candidate, position, score) of the best log-rank cut, ranked by the
    exact per-cut formula.  A node whose exact table would exceed
    ``_EXACT_CELLS`` is screened by prefix sums first; the exact formula
    then ranks the kept cuts, less those of zero variance, which score 0."""
    if table.grid.size == 0:
        return None
    sorted_ranks = table.ranks[order]
    sorted_events = table.events[order]
    feat, pos = np.nonzero(is_cut)
    if feat.size * (table.grid.size + 1) > _EXACT_CELLS:
        _, keep = _logrank_screen(sorted_ranks, sorted_events, table, is_cut)
        keep &= ~_zero_variance_cuts(sorted_ranks, table)
        feat, pos = np.nonzero(keep)
        if feat.size == 0:
            return None
    score = _logrank_exact(sorted_ranks, sorted_events, table, feat, pos)
    best = int(np.argmax(score))
    return int(feat[best]), int(pos[best]), float(score[best])


# ---------------------------------------------------------------------------
# Tree growing
# ---------------------------------------------------------------------------

# 32-bit words buffered per tree for the candidate draws: a step draws
# 2 mtry - 1 of them, so a buffer lasts several steps and holds a few
# hundred bytes a tree.
_WORDS = 64


class _WordStreams:
    """The 32-bit words that each tree's generator would hand to its bounded
    integer draws, buffered per tree.  numpy's ``next_uint32`` returns the
    upper half of the previous 64-bit output when one is pending
    (``state["has_uint32"]``), else the lower half of a new output, keeping
    its upper half pending; a buffer is refilled by ``random_raw`` in that
    order.  Reading ahead changes nothing else, because the trees' generators
    draw nothing after their bootstrap samples but these words."""

    def __init__(self, rngs: list[np.random.Generator], width: int) -> None:
        self.bit_generators = [rng.bit_generator for rng in rngs]
        self.words = np.zeros((len(rngs), width), dtype=np.uint32)
        self.pos = np.zeros(len(rngs), dtype=np.intp)  # next unread word
        self.end = np.zeros(len(rngs), dtype=np.intp)  # one past the last
        for t, bit_generator in enumerate(self.bit_generators):
            state = bit_generator.state
            if state["has_uint32"]:
                self.words[t, 0] = state["uinteger"]
                self.end[t] = 1

    def _refill(self, t: int) -> None:
        words, unread = self.words[t], int(self.end[t] - self.pos[t])
        words[:unread] = words[self.pos[t]:self.end[t]]
        raw = self.bit_generators[t].random_raw((words.size - unread) // 2)
        halves = raw.astype("<u8", copy=False).view("<u4")  # low half first
        self.end[t] = unread + halves.size
        words[unread:self.end[t]] = halves
        self.pos[t] = 0

    def _bounded_one(self, t: int, bound: int) -> int:
        """numpy's Lemire draw of an integer in [0, bound] from tree t's
        words: the high half of word * (bound + 1), drawn again while the
        low half falls below 2^32 mod (bound + 1)."""
        span = bound + 1
        while True:
            if self.pos[t] == self.end[t]:
                self._refill(t)
            product = int(self.words[t, self.pos[t]]) * span
            self.pos[t] += 1
            if product & 0xFFFFFFFF >= (1 << 32) % span:
                return product >> 32

    def bounded(self, trees: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """(trees, draws) matrix: each listed tree's next draws in [0, b]
        for the bounds b in order, each b in [1, 2^32 - 2] (numpy draws
        nothing for b = 0 and one whole word for b = 2^32 - 1), and fewer
        bounds than the buffer width.  All trees read one word per draw at
        once; the rare tree with a rejected word draws its row again one
        word at a time."""
        k = bounds.size
        for t in trees[self.end[trees] - self.pos[trees] < k]:
            self._refill(int(t))
        span = bounds.astype(np.uint64) + np.uint64(1)
        words = self.words[trees[:, None], self.pos[trees, None] + np.arange(k)]
        product = words.astype(np.uint64) * span
        drawn = product >> np.uint64(32)
        redo = ((product & np.uint64(0xFFFFFFFF)) < np.uint64(1 << 32) % span).any(axis=1)
        self.pos[trees[~redo]] += k
        for i in np.flatnonzero(redo):
            drawn[i] = [self._bounded_one(int(trees[i]), int(b)) for b in bounds]
        return drawn.astype(np.intp)


def _draw_candidates(streams: _WordStreams, trees: np.ndarray, p: int, mtry: int) -> np.ndarray:
    """Row i is ``np.sort(rng.choice(p, mtry, replace=False))`` of tree
    ``trees[i]``'s generator, draw for draw, from its words.  For p up to
    10,000 (or mtry up to p // 50) ``Generator.choice`` runs Floyd's
    algorithm: for j = p - mtry .. p - 1 it draws v in [0, j] and takes v,
    or j when v is taken already; then it shuffles the sample with draws in
    [0, i] for i = mtry - 1 .. 1, which the sort undoes.  Otherwise it
    shuffles the tail of 0 .. p - 1 (swaps with draws in [0, i] for i = p - 1
    down to p - mtry, but not below 1) and takes the last mtry entries."""
    if p > 10000 and mtry > p // 50:
        top = np.arange(p - 1, max(p - mtry, 1) - 1, -1)
        perm = np.tile(np.arange(p), (trees.size, 1))
        every = np.arange(trees.size)
        for i, j in zip(top, streams.bounded(trees, top).T):
            perm[every, i], perm[every, j] = perm[every, j], perm[every, i]
        return np.sort(perm[:, p - mtry:], axis=1)
    floyd = np.arange(p - mtry, p)
    drawn = streams.bounded(trees, np.concatenate([floyd, np.arange(mtry - 1, 0, -1)]))
    chosen = drawn[:, :mtry]
    for k in range(1, mtry):
        taken = (chosen[:, :k] == chosen[:, k:k + 1]).any(axis=1)
        chosen[taken, k] = floyd[k]
    return np.sort(chosen, axis=1)


# Most rows that one lockstep step takes (at least one node): the step's
# arrays hold one entry per row, and a forest's first steps would otherwise
# take every tree's whole sample at once.  A node's result does not depend
# on the step it is taken in.  Leaf-only routing (``route_leaves``) walks
# at most this many (row, tree) pairs at once, for the same reason.
_STEP_ROWS = 16384


def _segment_positions(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The positions of every segment, ``starts[i]`` to ``starts[i] +
    sizes[i] - 1``, one segment after another."""
    firsts = np.cumsum(sizes) - sizes
    positions = np.arange(int(sizes.sum()))
    positions += np.repeat(starts - firsts, sizes)
    return positions


def _segment_values(Y: np.ndarray, index: np.ndarray, starts: np.ndarray,
                    sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value (the targets' ``mean(axis=0)``, bit for bit) and purity (all
    target rows equal) of the impurity nodes ``index[starts[i]:starts[i] +
    sizes[i]]``."""
    y = Y[index[_segment_positions(starts, sizes)]]
    firsts = np.cumsum(sizes) - sizes
    pure = (np.minimum.reduceat(y, firsts) == np.maximum.reduceat(y, firsts)).all(axis=1)
    return segment_sums(y, sizes) / sizes[:, None], pure


def _partition(X: np.ndarray, index: np.ndarray, starts: np.ndarray, sizes: np.ndarray,
               feature: np.ndarray, threshold: np.ndarray) -> np.ndarray:
    """Split each segment ``index[starts[i]:starts[i] + sizes[i]]`` in place
    by x[feature[i]] <= threshold[i]: its left rows first, then its right
    rows, each side in its old order (a stable sort of the rows by
    segment and side).  Returns each row's side, left True, in the old
    order, segment after segment."""
    positions = _segment_positions(starts, sizes)
    rows = index[positions]
    go_left = X[rows, np.repeat(feature, sizes)] <= np.repeat(threshold, sizes)
    side = np.repeat(np.arange(0, 2 * sizes.size, 2, dtype=np.min_scalar_type(2 * sizes.size)),
                     sizes)
    side += ~go_left  # left rows keep their segment's even key
    index[positions] = rows[np.argsort(side, kind="stable")]
    return go_left


def _grow_trees(
    X: np.ndarray,
    keys: np.ndarray,
    Y: np.ndarray,
    task: TaskKind,
    samples: list[np.ndarray],
    oobs: list[np.ndarray],
    rngs: list[np.random.Generator],
    min_split: np.ndarray,
    mtry: np.ndarray,
    max_depth: np.ndarray,
    event_grid: np.ndarray | None,
) -> list[Tree]:
    """Grow the trees in lockstep on index segments: the samples lie end to
    end in one index array, a node is a range (start, stop) of it, and each
    tree keeps a depth-first stack of (node id, start, stop, depth) rows.
    A step pops the top of every stack (of the first trees whose tops fit
    in ``_STEP_ROWS`` rows, at least one) and treats those nodes together:
    their values (``segment_sums`` of their targets over their counts, bit
    for bit each node's ``mean(axis=0)``), a min/max purity test, the
    candidate draw of the nodes that may split, one batched split search
    (``_impurity_splits``; per node ``best_split`` for survival, whose value
    and purity come from the node's event table), and a search of the
    remaining covariates where the draw found no split.  ``min_split``,
    ``mtry`` and ``max_depth`` hold one entry per tree, so trees of several
    forests grow in one lockstep; the nodes of each distinct mtry search as
    one batch (drawn candidates where mtry < p, all covariates otherwise).
    A split node's range is partitioned in place, left rows first and each
    side in its old order; its children take its tree's next two ids, and
    the right child is pushed first.  The ``Tree``s are built after the
    last step."""
    p = X.shape[1]
    survival = task is TaskKind.SURVIVAL
    regression = not task.classification_like
    all_features = np.arange(p)
    streams = _WordStreams(rngs, max(_WORDS, 4 * int(mtry.max())))
    index = np.concatenate(samples)
    sizes = np.array([sample.size for sample in samples])
    stacks = np.zeros((len(samples), 16, 4), dtype=np.intp)  # (node id, start, stop, depth)
    stacks[:, 0, 1] = np.cumsum(sizes) - sizes
    stacks[:, 0, 2] = np.cumsum(sizes)
    height = np.ones(len(samples), dtype=np.intp)
    next_id = np.ones(len(samples), dtype=np.intp)
    tables = {}  # (tree, node id) -> the event table of a survival node on a stack
    if survival:
        tables = {(t, 0): _event_tables(Y[sample, 0], Y[sample, 1] > 0.5)
                  for t, sample in enumerate(samples)}
    leaf_km: list[dict[int, StepFunction]] = [{} for _ in samples]
    visits, splits = [], []

    while (trees := height.nonzero()[0]).size:
        top = stacks[trees, height[trees] - 1]
        fits = np.cumsum(top[:, 2] - top[:, 1]) <= _STEP_ROWS
        fits[0] = True
        trees = trees[fits]
        height[trees] -= 1
        node, start, stop, depth = top[fits].T
        count = stop - start
        if survival:
            node_tables = [tables.pop(key) for key in zip(trees.tolist(), node.tolist())]
            value = np.array([[table.risk_score(event_grid)] for table in node_tables])
            pure = np.array([table.pure for table in node_tables])
        else:
            value, pure = _segment_values(Y, index, start, count)
        visits.append((trees, node, count, value))
        may_split = ~pure & (count >= min_split[trees]) & (depth < max_depth[trees])
        at = may_split.nonzero()[0]  # the step's nodes that search
        feature = np.full(trees.size, -1, dtype=np.intp)
        threshold = np.empty(trees.size)

        def search(at: np.ndarray, cands: np.ndarray) -> None:
            if survival:
                for i, cand in zip(at.tolist(), cands):
                    found = best_split(X, Y, task, index[start[i]:stop[i]], cand,
                                       node_tables[i], keys)
                    if found is not None:
                        feature[i], threshold[i], _ = found
            else:
                feature[at], threshold[at], _ = _impurity_splits(
                    X, keys, Y, index, start[at], count[at], cands, regression)

        at_mtry = mtry[trees[at]]
        for m in np.unique(at_mtry).tolist():
            group = at[at_mtry == m]
            if m == p:
                search(group, np.broadcast_to(all_features, (group.size, p)))
                continue
            cands = _draw_candidates(streams, trees[group], p, m)
            search(group, cands)
            retry = (feature[group] < 0).nonzero()[0]
            if retry.size:
                rest = np.ones((retry.size, p), dtype=bool)
                rest[np.arange(retry.size)[:, None], cands[retry]] = False
                search(group[retry], np.nonzero(rest)[1].reshape(retry.size, p - m))

        if survival:
            for i in (feature < 0).nonzero()[0].tolist():
                leaf_km[trees[i]][int(node[i])] = node_tables[i].kaplan_meier()
        split = (feature >= 0).nonzero()[0]
        if not split.size:
            continue
        tree, j, theta = trees[split], feature[split], threshold[split]
        first_child = next_id[tree]
        next_id[tree] += 2
        splits.append((tree, node[split], j, theta, first_child))

        lo, n = start[split], count[split]
        go_left = _partition(X, index, lo, n, j, theta)
        n_left = np.add.reduceat(go_left, np.cumsum(n) - n, dtype=np.intp)
        if survival:
            masks = np.split(go_left, np.cumsum(n)[:-1])
            for t, k, child, mask in zip(tree.tolist(), split.tolist(), first_child.tolist(), masks):
                tables[t, child] = node_tables[k].subset(mask)
                tables[t, child + 1] = node_tables[k].subset(~mask)

        level = height[tree]
        if level.max() + 2 > stacks.shape[1]:
            stacks = np.concatenate([stacks, np.zeros_like(stacks)], axis=1)
        middle, child_depth = lo + n_left, depth[split] + 1
        stacks[tree, level] = np.array([first_child + 1, middle, lo + n, child_depth]).T
        stacks[tree, level + 1] = np.array([first_child, lo, middle, child_depth]).T
        height[tree] += 2

    del index, stacks  # the records below are all that the trees need
    return _assemble_trees(task, samples, oobs, next_id, visits, splits, leaf_km)


def _assemble_trees(task: TaskKind, samples: list[np.ndarray], oobs: list[np.ndarray],
                    n_nodes: np.ndarray, visits: list, splits: list,
                    leaf_km: list[dict[int, StepFunction]]) -> list[Tree]:
    """The ``Tree``s of ``_grow_trees``' records: per step, the visited nodes
    (tree, node id, row count, value) and the split ones (tree, node id,
    feature, threshold, left child id).  Each tree's nodes are one slice,
    in node id order, of arrays shared by the group."""
    base = np.cumsum(n_nodes) - n_nodes
    sizes = np.repeat([sample.size for sample in samples], n_nodes)
    tree, node, count, value = (np.concatenate(field) for field in zip(*visits))
    visits.clear()
    at = base[tree] + node
    sample_count = np.empty(at.size, dtype=np.int64)
    sample_count[at] = count
    node_pred = np.empty(value.shape)
    node_pred[at] = value
    feature = np.full(at.size, -1, dtype=np.int32)
    threshold = np.full(at.size, math.nan)
    left = np.full(at.size, -1, dtype=np.int32)
    if splits:
        tree, node, j, theta, first_child = (np.concatenate(field) for field in zip(*splits))
        splits.clear()
        at = base[tree] + node
        feature[at], threshold[at], left[at] = j, theta, first_child
    right = np.where(left < 0, -1, left + 1)
    columns = [np.split(a, base[1:]) for a in (feature, threshold, left, right,
                                               sample_count / sizes, sample_count, node_pred)]
    return [Tree(task, *arrays, sample, oob, km)
            for *arrays, sample, oob, km in zip(*columns, samples, oobs, leaf_km)]


def fit_forests(train: Dataset, params_list: Sequence[ForestParams]) -> list[Forest]:
    """``fit_forest`` of every listed parameter set, grown in one pool.

    The covariates are ranked once, and every forest's trees are drawn as
    ``fit_forest`` draws them (tree i of a forest from its RNG stream
    (seed, i)).  All the trees then grow in one lockstep (``_grow_trees``),
    whatever forest they belong to.  A tree does not depend on the trees it
    grows beside, so each forest is bit for bit the forest that
    ``fit_forest`` grows alone.
    """
    if not train.preprocessed:
        raise ValueError("fit_forest expects a preprocessed Dataset")
    settings = []  # per forest: (min_split, mtry, max_depth)
    for params in params_list:
        if params.n_trees < 1:
            raise ValueError("n_trees must be at least 1")
        min_split = params.resolve_min_split(train.task)
        mtry = params.resolve_mtry(train.task, train.p)
        if train.n < min_split:
            raise ValueError(f"need at least min_samples_split={min_split} training instances")
        depth = np.iinfo(np.intp).max if params.max_depth is None else params.max_depth
        settings.append((min_split, mtry, depth))

    event_grid = None
    if train.task is TaskKind.SURVIVAL:
        event_grid = np.unique(train.times[train.events])

    X = np.ascontiguousarray(train.covariates, dtype=np.float64)
    if not np.isfinite(X).all():
        raise ValueError("fit_forest expects finite covariates")
    if not np.isfinite(train.targets).all():
        raise ValueError("fit_forest expects finite targets")
    keys = rank_keys(X)
    Y = np.ascontiguousarray(train.targets, dtype=np.float64)
    n = train.n
    everything = np.arange(n)
    # one entry per tree of the pool, forest after forest
    jobs = [(params, i) for params in params_list for i in range(params.n_trees)]
    per_tree = np.repeat(np.array(settings, dtype=np.intp).reshape(-1, 3),
                         [params.n_trees for params in params_list], axis=0)

    def draw(params: ForestParams, i: int) -> tuple[np.ndarray, np.ndarray, np.random.Generator]:
        rng = np.random.default_rng([params.seed, i])
        if not params.bootstrap:
            return everything, np.array([], dtype=np.int64), rng
        sample = rng.integers(0, n, size=n)
        return sample, np.setdiff1d(everything, np.unique(sample)), rng

    def grow(jobs: list[tuple[ForestParams, int]]) -> list[Tree]:
        samples, oobs, rngs = zip(*(draw(*job) for job in jobs))
        min_split, mtry, max_depth = per_tree.T
        return _grow_trees(X, keys, Y, train.task, list(samples), list(oobs), list(rngs),
                           min_split, mtry, max_depth, event_grid)

    if not jobs:
        return []
    (trees,) = parallel_map(grow, [jobs])
    forests = []
    for params, (min_split, mtry, _) in zip(params_list, settings):
        own, trees = trees[:params.n_trees], trees[params.n_trees:]
        forests.append(Forest(
            trees=own,
            task=train.task,
            p=train.p,
            prediction_width=train.prediction_width,
            params=params,
            min_samples_split=min_split,
            mtry=mtry,
            event_grid=event_grid,
            covariate_names=train.covariate_names,
        ))
    return forests


def fit_forest(train: Dataset, params: ForestParams) -> Forest:
    """Grow ``params.n_trees`` trees on bootstrap samples of the training set.

    Tree i draws bootstrap and split candidates from an RNG stream seeded by
    (params.seed, i), and all the trees grow in one lockstep
    (``_grow_trees``).  A tree does not depend on the trees it grows beside,
    so identical inputs give bit-identical forests, the first k trees of a
    forest are the forest of k trees, and a forest grown in a pool with
    others (``fit_forests``, of which this is a pool of
    one) is identical to the forest grown alone.
    """
    return fit_forests(train, [params])[0]


# ---------------------------------------------------------------------------
# Prediction and paths
# ---------------------------------------------------------------------------

def _descend(arena: NodeArena, X: np.ndarray, rows: np.ndarray,
             node: np.ndarray) -> Iterator[np.ndarray]:
    """The arena nodes that the pairs (row ``rows[i]`` of X, start node
    ``node[i]``) visit, one level at a time: ``node`` itself, then each
    pair's child, until every pair is at a leaf.  A leaf is its own child
    in the arena, so a pair that reached its leaf early repeats it."""
    yield node
    while arena.is_split[node].any():
        node = np.where(X[rows, arena.feature[node]] <= arena.threshold[node],
                        arena.left[node], arena.right[node])
        yield node


def route_batch(forest: Forest, X: np.ndarray) -> np.ndarray:
    """Arena node ids that every row of X visits in every tree: entry
    (r, i, t) of the (levels, n_rows, n_trees) result is the node of row i
    at depth r of tree t, and a tree whose leaf lies above depth r repeats
    its leaf."""
    arena = forest.arena
    n = X.shape[0]
    rows = np.repeat(np.arange(n), forest.n_trees)
    levels = np.vstack(list(_descend(arena, X, rows, np.tile(arena.roots, n))))
    return levels.reshape(-1, n, forest.n_trees)


def route(forest: Forest, x: np.ndarray) -> np.ndarray:
    """``route_batch`` of one instance: the (levels, n_trees) arena node ids
    that x visits in every tree."""
    return route_batch(forest, x[None, :])[:, 0]


def route_leaves(forest: Forest, X: np.ndarray, rows: np.ndarray,
                 trees: np.ndarray) -> np.ndarray:
    """Arena leaf that row ``rows[i]`` of X reaches in tree ``trees[i]``,
    for every i.  The pairs are routed ``_STEP_ROWS`` at a time, so the
    walk's memory does not grow with their number."""
    arena = forest.arena
    leaves = np.empty(rows.size, dtype=np.intp)
    for lo in range(0, rows.size, _STEP_ROWS):
        block = slice(lo, lo + _STEP_ROWS)
        for node in _descend(arena, X, rows[block], arena.roots[trees[block]]):
            pass  # only the last level, each pair's leaf, is kept
        leaves[block] = node
    return leaves


def leaf_mean(forest: Forest, leaves: np.ndarray) -> np.ndarray:
    """Forest prediction of the rows whose leaves in the trees, in tree
    order, are the rows of ``leaves`` (arena ids): the leaf predictions
    added in tree order to a zero total, then divided by the number of
    trees, bit for bit ``forest_predict``."""
    total = np.zeros((leaves.shape[0], forest.prediction_width))
    for column in leaves.T:
        total += forest.arena.node_pred[column]
    return total / forest.n_trees


def tree_predict(tree: Tree, x: np.ndarray) -> np.ndarray:
    """Leaf prototype for one instance: shape (w,)."""
    return tree.node_pred[node_path(tree, x)[-1]]


def forest_predict(forest: Forest, x: np.ndarray) -> np.ndarray:
    """Arithmetic mean of the tree predictions (component-wise for vectors,
    mean risk score for survival)."""
    total = np.zeros(forest.prediction_width)
    for tree in forest.trees:
        total += tree_predict(tree, x)
    return total / forest.n_trees


def forest_predict_batch(forest: Forest, X: np.ndarray) -> np.ndarray:
    """``forest_predict`` of every row of X, bit for bit (``leaf_mean``),
    routed a block of at most ``_STEP_ROWS`` (row, tree) pairs at a time."""
    n, n_trees = X.shape[0], forest.n_trees
    preds = np.empty((n, forest.prediction_width))
    step = max(1, _STEP_ROWS // n_trees)
    trees = np.arange(n_trees)
    for lo in range(0, n, step):
        rows = np.arange(lo, min(lo + step, n))
        leaves = route_leaves(forest, X, np.repeat(rows, n_trees), np.tile(trees, rows.size))
        preds[lo:lo + step] = leaf_mean(forest, leaves.reshape(rows.size, n_trees))
    return preds


def all_tree_predictions(forest: Forest, x: np.ndarray) -> np.ndarray:
    """(n_trees, w) matrix of every tree's prediction for one instance."""
    return np.vstack([tree_predict(tree, x) for tree in forest.trees])


def node_path(tree: Tree, x: np.ndarray) -> list[int]:
    """Node ids from the root to the leaf reached by x; the last entry is
    the leaf."""
    feature, threshold = tree.feature, tree.threshold
    left, right = tree.left, tree.right
    node = 0
    nodes = [0]
    while feature[node] >= 0:
        node = int(left[node] if x[feature[node]] <= threshold[node] else right[node])
        nodes.append(node)
    return nodes


def path_steps(tree: Tree, nodes: list[int], x: np.ndarray) -> list[PathStep]:
    """Decision path steps for the node ids of ``node_path(tree, x)``."""
    steps: list[PathStep] = []
    for node in nodes[:-1]:
        j = int(tree.feature[node])
        theta = float(tree.threshold[node])
        steps.append(PathStep(
            node_id=node,
            feature=j,
            threshold=theta,
            went_left=bool(x[j] <= theta),
            sample_fraction=float(tree.sample_fraction[node]),
            prediction=tree.node_pred[node],
        ))
    leaf = nodes[-1]
    steps.append(PathStep(
        node_id=leaf,
        feature=None,
        threshold=None,
        went_left=None,
        sample_fraction=float(tree.sample_fraction[leaf]),
        prediction=tree.node_pred[leaf],
    ))
    return steps


def decision_path(tree: Tree, x: np.ndarray) -> list[PathStep]:
    """Ordered root-to-leaf steps for one instance; the final entry is the
    leaf and carries the leaf prediction."""
    return path_steps(tree, node_path(tree, x), x)


def path_length(steps: list[PathStep]) -> int:
    """Number of split tests on a decision path."""
    return len(steps) - 1


# ---------------------------------------------------------------------------
# Out-of-bag errors
# ---------------------------------------------------------------------------

def oob_errors(forest: Forest, train: Dataset) -> np.ndarray:
    """Per-tree error on its out-of-bag rows: the task metric where lower
    is better, else 1 - metric.  Trees with no OOB rows (or an undefined
    metric, e.g. single-class OOB labels) get worst-case 1.0.  The OOB
    (row, tree) pairs of all trees are routed at once (``route_leaves``)."""
    counts = [tree.oob_indices.size for tree in forest.trees]
    leaves = route_leaves(forest, train.covariates,
                          np.concatenate([tree.oob_indices for tree in forest.trees]),
                          np.repeat(np.arange(forest.n_trees), counts))
    errors = np.ones(forest.n_trees)
    for i, (tree, own) in enumerate(zip(forest.trees, np.split(leaves, np.cumsum(counts)[:-1]))):
        if own.size == 0:
            continue
        try:
            metric = performance_metric(forest.task, forest.arena.node_pred[own], train,
                                        tree.oob_indices)
        except UndefinedMetricError:
            continue
        errors[i] = 1.0 - metric if higher_is_better(forest.task) else metric
    return errors


# ---------------------------------------------------------------------------
# Serialization (JSON, exact float round-trip via repr)
# ---------------------------------------------------------------------------

_FORMAT = "bellatrex-forest"
_VERSION = 1


def _tree_to_dict(tree: Tree) -> dict:
    return {
        "feature": tree.feature.tolist(),
        "threshold": [None if math.isnan(v) else v for v in tree.threshold.tolist()],
        "left": tree.left.tolist(),
        "right": tree.right.tolist(),
        "sample_fraction": tree.sample_fraction.tolist(),
        "sample_count": tree.sample_count.tolist(),
        "node_pred": tree.node_pred.tolist(),
        "bootstrap": tree.bootstrap_indices.tolist(),
        "oob": tree.oob_indices.tolist(),
        "leaf_km": {
            str(node): [km.times.tolist(), km.values.tolist()]
            for node, km in tree.leaf_km.items()
        },
    }


def _header_to_dict(forest: Forest) -> dict:
    """Everything of the forest's document but its trees, which come last."""
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "task": forest.task.value,
        "p": forest.p,
        "prediction_width": forest.prediction_width,
        "covariate_names": list(forest.covariate_names) if forest.covariate_names else None,
        "params": {
            "n_trees": forest.params.n_trees,
            "min_samples_split": forest.params.min_samples_split,
            "mtry": forest.params.mtry,
            "seed": forest.params.seed,
            "max_depth": forest.params.max_depth,
            "bootstrap": forest.params.bootstrap,
        },
        "resolved": {
            "min_samples_split": forest.min_samples_split,
            "mtry": forest.mtry,
        },
        "event_grid": forest.event_grid.tolist() if forest.event_grid is not None else None,
    }


def forest_to_dict(forest: Forest) -> dict:
    return {**_header_to_dict(forest), "trees": [_tree_to_dict(tree) for tree in forest.trees]}


# Errors that a malformed document raises while it is decoded into arrays.
_MALFORMED = (KeyError, TypeError, ValueError, AttributeError, IndexError, OverflowError)


def _malformed(exc: Exception) -> ForestFileError:
    if isinstance(exc, KeyError):
        return ForestFileError(f"serialized forest lacks the key {exc}")
    return ForestFileError(f"malformed serialized forest: {exc}")


def forest_from_dict(data: dict) -> Forest:
    if not isinstance(data, dict) or data.get("format") != _FORMAT:
        raise ForestFileError("not a serialized forest")
    if "version" not in data:
        raise ForestFileError("serialized forest lacks the key 'version'")
    version = data["version"]
    if type(version) is not int or version != _VERSION:  # not true, not 1.0
        raise ForestFileError(f"unsupported forest format version"
                              f" {json.dumps(version, default=repr)}; this reader reads {_VERSION}")
    try:
        return _forest_from_dict(data)
    except _MALFORMED as exc:
        raise _malformed(exc) from exc


def _tree_from_dict(td: dict) -> Tree:
    """One tree's JSON object as a Tree; the forest sets its task."""
    return Tree(
        task=None,
        feature=np.array(td["feature"], dtype=np.int32),
        threshold=np.array(
            [math.nan if v is None else v for v in td["threshold"]], dtype=np.float64
        ),
        left=np.array(td["left"], dtype=np.int32),
        right=np.array(td["right"], dtype=np.int32),
        sample_fraction=np.array(td["sample_fraction"], dtype=np.float64),
        sample_count=np.array(td["sample_count"], dtype=np.int64),
        node_pred=np.array(td["node_pred"], dtype=np.float64),
        bootstrap_indices=np.array(td["bootstrap"], dtype=np.int64),
        oob_indices=np.array(td["oob"], dtype=np.int64),
        leaf_km={
            int(node): StepFunction(
                times=np.array(tv[0], dtype=np.float64),
                values=np.array(tv[1], dtype=np.float64),
                baseline=1.0,
            )
            for node, tv in td["leaf_km"].items()
        },
    )


def _decode_object(obj: dict):
    """``json.loads`` hook: a tree's object (the format's only object with a
    "feature" key) becomes a Tree as soon as it is parsed, so one tree's
    lists at a time are alive."""
    return _tree_from_dict(obj) if "feature" in obj else obj


def _forest_from_dict(data: dict) -> Forest:
    task = TaskKind(data["task"])
    trees = [td if isinstance(td, Tree) else _tree_from_dict(td) for td in data["trees"]]
    for tree in trees:
        tree.task = task
    params = ForestParams(**data["params"])
    event_grid = data["event_grid"]
    forest = Forest(
        trees=trees,
        task=task,
        p=int(data["p"]),
        prediction_width=int(data["prediction_width"]),
        params=params,
        min_samples_split=int(data["resolved"]["min_samples_split"]),
        mtry=int(data["resolved"]["mtry"]),
        event_grid=np.array(event_grid, dtype=np.float64) if event_grid is not None else None,
        covariate_names=tuple(data["covariate_names"]) if data["covariate_names"] else None,
    )
    _check_forest(forest)
    return forest


def _check_forest(forest: Forest) -> None:
    """Raise ValueError unless the forest holds ``params.n_trees`` trees,
    its event grid (if any) is finite and strictly increasing, and every
    tree is a tree over the forest's p covariates: its arrays agree in
    length, node_pred is (nodes, prediction_width), split features lie in
    [0, p), leaves (feature -1) have children -1 and every ``leaf_km`` key
    is a leaf whose curve has as many values as times, split thresholds and
    node predictions are finite, sample fractions lie in [0, 1], and the
    split nodes' children are every node but the root once each and reach
    back to it, so that routing ends at a leaf."""
    p = forest.p
    if not forest.trees:
        raise ValueError("the forest has no trees")
    if forest.params.n_trees != len(forest.trees):
        raise ValueError(f"params.n_trees is {forest.params.n_trees},"
                         f" but the forest has {len(forest.trees)} trees")
    if forest.covariate_names is not None and len(forest.covariate_names) != p:
        raise ValueError(f"p={p} but {len(forest.covariate_names)} covariate names")
    grid = forest.event_grid
    if grid is not None and (grid.ndim != 1 or not np.isfinite(grid).all()
                             or np.any(grid[1:] <= grid[:-1])):
        raise ValueError("the event grid is not a finite, strictly increasing list")
    for i, tree in enumerate(forest.trees):
        n = tree.n_nodes
        for name in ("threshold", "left", "right", "sample_fraction", "sample_count"):
            if getattr(tree, name).shape != (n,):
                raise ValueError(f"tree {i}: {name} has shape {getattr(tree, name).shape},"
                                 f" feature has {n} nodes")
        if tree.node_pred.shape != (n, forest.prediction_width):
            raise ValueError(f"tree {i}: node_pred has shape {tree.node_pred.shape},"
                             f" expected ({n}, {forest.prediction_width})")
        if n == 0 or tree.feature.min() < -1 or tree.feature.max() >= p:
            raise ValueError(f"tree {i}: a split feature lies outside [0, {p})")
        split = tree.feature >= 0
        if np.any(tree.left[~split] != -1) or np.any(tree.right[~split] != -1):
            raise ValueError(f"tree {i}: a leaf has children")
        if not np.isfinite(tree.threshold[split]).all():
            raise ValueError(f"tree {i}: a split threshold is not finite")
        if np.isnan(tree.node_pred).any():
            raise ValueError(f"tree {i}: a node prediction is NaN")
        if np.isinf(tree.node_pred).any():
            raise ValueError(f"tree {i}: a node prediction is infinite")
        if not np.all((tree.sample_fraction >= 0) & (tree.sample_fraction <= 1)):
            raise ValueError(f"tree {i}: a sample fraction lies outside [0, 1]")
        if any(not 0 <= node < n or split[node] for node in tree.leaf_km):
            raise ValueError(f"tree {i}: a leaf_km key is not a leaf")
        if any(km.times.ndim != 1 or km.times.shape != km.values.shape
               for km in tree.leaf_km.values()):
            raise ValueError(f"tree {i}: a leaf_km curve's times and values differ in length")
        children = np.concatenate([tree.left[split], tree.right[split]])
        if children.size and (children.min() < 0 or children.max() >= n):
            raise ValueError(f"tree {i}: a child index lies outside [0, {n})")
        parents = np.bincount(children, minlength=n)
        if parents[0] != 0 or np.any(parents[1:] != 1):
            raise ValueError(f"tree {i}: not a tree: the root must be no node's child"
                             " and every other node the child of one split node")
    # With one parent per non-root node, a walk from the roots meets each
    # node at most once; the nodes it misses form cycles off the root.
    arena = stack_trees(forest.trees)
    reached = np.zeros(arena.is_split.size, dtype=bool)
    frontier = arena.roots
    while frontier.size:
        reached[frontier] = True
        frontier = frontier[arena.is_split[frontier]]
        frontier = np.concatenate([arena.left[frontier], arena.right[frontier]])
    if not reached.all():
        tree = int(np.searchsorted(arena.roots, np.argmin(reached), side="right")) - 1
        raise ValueError(f"tree {tree}: a cycle of nodes is cut off from the root")
    forest._arena = arena


def save_forest(forest: Forest, path: str | Path) -> None:
    """Write ``json.dumps(forest_to_dict(forest))``, one tree at a time."""
    head = json.dumps({**_header_to_dict(forest), "trees": []})
    with open(path, "w") as out:
        out.write(head[:-2])  # all but the closing "]}"
        for i, tree in enumerate(forest.trees):
            out.write((", " if i else "") + json.dumps(_tree_to_dict(tree)))
        out.write("]}")


def load_forest(path: str | Path) -> Forest:
    """Read a forest written by ``save_forest``; an unreadable file, invalid
    JSON or a document that is not a forest raise ForestFileError."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ForestFileError(f"cannot read forest file {path}: {exc}") from exc
    try:
        data = json.loads(text, object_hook=_decode_object)
    except json.JSONDecodeError as exc:
        raise ForestFileError(f"forest file {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ForestFileError(f"forest file {path} nests too deeply to parse") from exc
    except _MALFORMED as exc:
        raise _malformed(exc) from exc
    return forest_from_dict(data)
