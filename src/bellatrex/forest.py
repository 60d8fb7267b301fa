"""Random forests over binary decision trees for five task kinds: binary
classification, regression, multi-target regression, multi-label
classification and right-censored survival.

Every node records the fraction of the tree's training sample that reaches
it and a task-typed running prediction, so decision paths can be rendered
and vectorized downstream.  Split rule: x goes left iff x[j] <= threshold;
candidate thresholds are midpoints between consecutive distinct sorted
values; gain ties resolve to the lowest covariate index, then the lowest
threshold.  Training is bit-deterministic: tree i draws from an RNG stream
seeded by (seed, i), independent of thread count.

Split search is one pass per node over all candidate covariates: one
argsort along each candidate, non-cuts (equal neighbours) masked, and 2-D
prefix sums.  Gini and variance gains come straight from the prefix sums.
The log-rank statistic is screened first: with the node's Nelson-Aalen
hazard H, a left child's O - E is the prefix sum of delta_i - H(t_i), and
its variance is sum W(t_i) - sum_{i,j} A(min(t_i, t_j)) over the child's
rows (see ``_logrank_screen``).  Those sums round differently from the
per-cut formula, so every cut whose score could reach the node's best, and
every cut whose variance may be zero, is ranked again by the exact per-cut
formula (integer at-risk and event counts per event time), which picks the
split; the forest does not depend on the faster arithmetic.

The explainer routes an instance through all trees at once (``route``) over
the forest's stacked node arrays (``Forest.arena``, built on first use);
``node_path`` is the tree-by-tree walk that it must agree with.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._parallel import parallel_map
from .data import Dataset, TaskKind
from .errors import ForestFileError, UndefinedMetricError
from .metrics import auroc, mae, weighted_auroc
from .survival import StepFunction, concordance_index, kaplan_meier, risk_score

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
        """The stacked node arena, built on first use and again after
        ``trees`` is replaced."""
        if self._arena is None or self._arena.trees is not self.trees:
            # threads that race here stack the same trees into equal
            # arenas, so whichever assignment lands last is as good
            self._arena = stack_trees(self.trees)
        return self._arena


# ---------------------------------------------------------------------------
# Splitting criteria
# ---------------------------------------------------------------------------

def gini(labels) -> float:
    """Binary Gini impurity 2q(1-q) for positive fraction q."""
    labels = np.asarray(labels, dtype=np.float64)
    if labels.size == 0:
        raise ValueError("gini of an empty node")
    q = float(labels.mean())
    return 2.0 * q * (1.0 - q)


def variance_reduction(parent, left, right) -> float:
    """Mean over targets of Var(parent) - (nL/n)Var(left) - (nR/n)Var(right),
    population variances."""
    parent = np.atleast_2d(np.asarray(parent, dtype=np.float64).T).T
    left = np.atleast_2d(np.asarray(left, dtype=np.float64).T).T
    right = np.atleast_2d(np.asarray(right, dtype=np.float64).T).T
    n, n_l, n_r = parent.shape[0], left.shape[0], right.shape[0]
    if n_l + n_r != n:
        raise ValueError("left and right must partition parent")
    reduction = (
        parent.var(axis=0)
        - (n_l / n) * left.var(axis=0)
        - (n_r / n) * right.var(axis=0)
    )
    return float(reduction.mean())


def best_split(
    X: np.ndarray,
    Y: np.ndarray,
    task: TaskKind,
    rows: np.ndarray,
    candidates: np.ndarray,
) -> tuple[int, float, float] | None:
    """Best (covariate, threshold, score) over the candidate covariates, or
    None when no candidate separates the rows with positive gain.

    One pass per node: the rows are sorted along every candidate at once,
    and positions where the next sorted value is equal are masked as
    non-cuts.  The best cut is the first maximum in (covariate, position)
    order.
    """
    rows = np.asarray(rows)
    if rows.size < 2:
        return None
    cand = np.sort(np.asarray(candidates))
    values = X[rows[None, :], cand[:, None]]  # (m, n): one row per candidate
    order = np.argsort(values, axis=1, kind="stable")
    sv = np.sort(values, axis=1)
    is_cut = sv[:, :-1] < sv[:, 1:]
    if not is_cut.any():
        return None
    sub_y = Y[rows]
    if task is TaskKind.SURVIVAL:
        found = _logrank_best(order, is_cut, sub_y[:, 0], sub_y[:, 1] > 0.5)
    else:
        found = _impurity_best(order, is_cut, sub_y, regression=not task.classification_like)
    if found is None:
        return None
    f, c, score = found
    if not score > _MIN_GAIN:
        return None
    threshold = 0.5 * (sv[f, c] + sv[f, c + 1])
    return int(cand[f]), threshold, score


def _impurity_best(order: np.ndarray, is_cut: np.ndarray, y: np.ndarray, regression: bool):
    """(candidate, position, gain) of the best Gini or variance cut.

    Prefix sums along each sorted candidate give the left/right child
    statistics at every position in one 2-D pass.
    """
    n = order.shape[1]
    sy = y[order]  # (m, n, w)
    n_left = np.arange(1, n, dtype=np.float64)
    n_right = n - n_left
    nl = n_left[:, None]
    nr = n_right[:, None]
    cum = np.cumsum(sy, axis=1)
    left_sum = cum[:, :-1]
    total = cum[:, -1:]
    right_sum = total - left_sum

    if regression:
        cum2 = np.cumsum(sy * sy, axis=1)
        left_sq = cum2[:, :-1]
        total_sq = cum2[:, -1:]
        var_parent = np.maximum(total_sq / n - (total / n) ** 2, 0.0)
        var_left = np.maximum(left_sq / nl - (left_sum / nl) ** 2, 0.0)
        var_right = np.maximum((total_sq - left_sq) / nr - (right_sum / nr) ** 2, 0.0)
        gain = (var_parent - (nl / n) * var_left - (nr / n) * var_right).mean(axis=2)
    else:
        q_parent = total / n
        q_left = left_sum / nl
        q_right = right_sum / nr
        g_parent = (2.0 * q_parent * (1.0 - q_parent)).mean(axis=2)
        g_left = (2.0 * q_left * (1.0 - q_left)).mean(axis=2)
        g_right = (2.0 * q_right * (1.0 - q_right)).mean(axis=2)
        gain = g_parent - (n_left / n) * g_left - (n_right / n) * g_right

    gain[~is_cut] = -np.inf
    f, c = np.unravel_index(int(np.argmax(gain)), gain.shape)
    return int(f), int(c), float(gain[f, c])


def _event_tables(times: np.ndarray, events: np.ndarray):
    """Each row's event-time rank (the number of the node's distinct event
    times <= its time, so row i is at risk at the g-th event time iff
    g <= rank) and the at-risk and event counts per event time."""
    grid = np.unique(times[events])
    ranks = np.searchsorted(grid, times, side="right")
    per_rank = np.bincount(ranks, minlength=grid.size + 1)
    n_risk = np.cumsum(per_rank[::-1])[::-1][1:].astype(np.float64)
    n_events = np.bincount(ranks[events], minlength=grid.size + 1)[1:].astype(np.float64)
    return ranks, n_risk, n_events


def _logrank_screen(ranks: np.ndarray, events: np.ndarray, n_risk: np.ndarray,
                    n_events: np.ndarray, is_cut: np.ndarray):
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
    cumulative rank counts at the block start.  Every sum above is a
    recursive sum of at most n + G + s terms with nonnegative magnitudes
    bounded by the node totals, so the absolute error of O - E and of the
    variance is below ``tol`` times those totals; each cut gets the score
    interval this implies.  A cut is kept when its upper bound reaches the
    best lower bound; a cut whose variance may be zero has no upper bound,
    scores 0 here and is always kept.
    """
    m, n = ranks.shape
    G = n_risk.size
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = np.where(n_risk > 1, n_events * (n_risk - n_events) / (n_risk - 1.0), 0.0)
    hazard = np.concatenate(([0.0], np.cumsum(n_events / n_risk)))
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
    # rows of earlier blocks with rank >= g, for every block start
    cell = np.arange(0, m * n_blocks * (G + 1), G + 1).reshape(m, n_blocks, 1) + blocked
    hist = np.bincount(cell.ravel(), minlength=m * n_blocks * (G + 1)).reshape(m, n_blocks, G + 1)
    earlier = np.cumsum(hist, axis=1) - hist
    at_least = np.cumsum(earlier[:, :, ::-1], axis=2)[:, :, ::-1]
    cross = np.cumsum(pair_weight * at_least, axis=2)
    pairs_earlier = cross.reshape(-1)[cell]
    # pairs (j, k) with j before k inside a block; index 0 is quad's zero
    inside = np.minimum(blocked[:, :, :, None], blocked[:, :, None, :])
    pairs_inside = quad[np.tril(inside, -1)].sum(axis=3)
    increment = quad[blocked] + 2.0 * (pairs_earlier + pairs_inside)
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


def _logrank_exact(ranks: np.ndarray, events: np.ndarray, n_risk: np.ndarray,
                   n_events: np.ndarray, feat: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """|log-rank statistic| of the cuts (feat, pos), listed in (candidate,
    position) order, by the per-cut formula: integer left-child at-risk and
    event counts per event time, then one row of terms per cut."""
    m, n = ranks.shape
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


def _logrank_best(order: np.ndarray, is_cut: np.ndarray, times: np.ndarray, events: np.ndarray):
    """(candidate, position, score) of the best log-rank cut: screened by
    prefix sums, then the kept cuts ranked by the exact per-cut formula."""
    if not events.any():
        return None
    ranks, n_risk, n_events = _event_tables(times, events)
    sorted_ranks = ranks[order]
    sorted_events = events[order]
    _, keep = _logrank_screen(sorted_ranks, sorted_events, n_risk, n_events, is_cut)
    feat, pos = np.nonzero(keep)
    if feat.size == 0:
        return None
    score = _logrank_exact(sorted_ranks, sorted_events, n_risk, n_events, feat, pos)
    best = int(np.argmax(score))
    return int(feat[best]), int(pos[best]), float(score[best])


# ---------------------------------------------------------------------------
# Tree growing
# ---------------------------------------------------------------------------

def _node_value(task: TaskKind, Y_rows: np.ndarray, event_grid: np.ndarray | None) -> np.ndarray:
    if task is TaskKind.SURVIVAL:
        return np.array(
            [risk_score(Y_rows[:, 0], Y_rows[:, 1] > 0.5, event_grid)]
        )
    return Y_rows.mean(axis=0)


def _is_pure(task: TaskKind, Y_rows: np.ndarray) -> bool:
    if task is TaskKind.SURVIVAL and not np.any(Y_rows[:, 1] > 0.5):
        return True  # no events: the hazard cannot be split further
    return bool(np.all(Y_rows == Y_rows[0]))


def _grow_tree(
    X: np.ndarray,
    Y: np.ndarray,
    task: TaskKind,
    sample: np.ndarray,
    rng: np.random.Generator,
    min_split: int,
    mtry: int,
    max_depth: int | None,
    event_grid: np.ndarray | None,
    oob: np.ndarray,
) -> Tree:
    p = X.shape[1]
    n_sample = sample.size
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    fraction: list[float] = []
    count: list[int] = []
    preds: list[np.ndarray] = []
    leaf_km: dict[int, StepFunction] = {}

    def alloc() -> int:
        feature.append(-1)
        threshold.append(math.nan)
        left.append(-1)
        right.append(-1)
        fraction.append(0.0)
        count.append(0)
        preds.append(None)  # type: ignore[arg-type]
        return len(feature) - 1

    all_features = np.arange(p)
    stack: list[tuple[int, np.ndarray, int]] = [(alloc(), sample, 0)]
    while stack:
        nid, rows, depth = stack.pop()
        count[nid] = rows.size
        fraction[nid] = rows.size / n_sample
        y_rows = Y[rows]
        preds[nid] = _node_value(task, y_rows, event_grid)

        split = None
        can_split = (
            rows.size >= min_split
            and (max_depth is None or depth < max_depth)
            and not _is_pure(task, y_rows)
        )
        if can_split:
            if mtry < p:
                cand = np.sort(rng.choice(p, size=mtry, replace=False))
            else:
                cand = all_features
            split = best_split(X, Y, task, rows, cand)
            if split is None and mtry < p:
                rest = np.setdiff1d(all_features, cand)
                if rest.size:
                    split = best_split(X, Y, task, rows, rest)
        if split is None:
            if task is TaskKind.SURVIVAL:
                leaf_km[nid] = kaplan_meier(y_rows[:, 0], y_rows[:, 1] > 0.5)
            continue
        j, theta, _ = split
        go_left = X[rows, j] <= theta
        lid = alloc()
        rid = alloc()
        feature[nid] = j
        threshold[nid] = theta
        left[nid] = lid
        right[nid] = rid
        stack.append((rid, rows[~go_left], depth + 1))
        stack.append((lid, rows[go_left], depth + 1))

    return Tree(
        task=task,
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        sample_fraction=np.array(fraction, dtype=np.float64),
        sample_count=np.array(count, dtype=np.int64),
        node_pred=np.vstack(preds),
        bootstrap_indices=sample,
        oob_indices=oob,
        leaf_km=leaf_km,
    )


def fit_forest(train: Dataset, params: ForestParams) -> Forest:
    """Grow ``params.n_trees`` trees on bootstrap samples of the training set.

    Tree i draws bootstrap and split candidates from an RNG stream seeded by
    (params.seed, i); identical inputs give bit-identical forests regardless
    of BELLATREX_THREADS.
    """
    if not train.preprocessed:
        raise ValueError("fit_forest expects a preprocessed Dataset")
    if params.n_trees < 1:
        raise ValueError("n_trees must be at least 1")
    min_split = params.resolve_min_split(train.task)
    mtry = params.resolve_mtry(train.task, train.p)
    if train.n < min_split:
        raise ValueError(f"need at least min_samples_split={min_split} training instances")

    event_grid = None
    if train.task is TaskKind.SURVIVAL:
        event_grid = np.unique(train.times[train.events])

    X = np.ascontiguousarray(train.covariates, dtype=np.float64)
    Y = np.ascontiguousarray(train.targets, dtype=np.float64)
    n = train.n
    everything = np.arange(n)

    def build(i: int) -> Tree:
        rng = np.random.default_rng([params.seed, i])
        if params.bootstrap:
            sample = rng.integers(0, n, size=n)
            oob = np.setdiff1d(everything, np.unique(sample))
        else:
            sample = everything
            oob = np.array([], dtype=np.int64)
        return _grow_tree(
            X, Y, train.task, sample, rng, min_split, mtry,
            params.max_depth, event_grid, oob,
        )

    trees = parallel_map(build, range(params.n_trees))
    return Forest(
        trees=trees,
        task=train.task,
        p=train.p,
        prediction_width=train.prediction_width,
        params=params,
        min_samples_split=min_split,
        mtry=mtry,
        event_grid=event_grid,
        covariate_names=train.covariate_names,
    )


# ---------------------------------------------------------------------------
# Prediction and paths
# ---------------------------------------------------------------------------

def apply(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Leaf id reached by every row of X (vectorized routing)."""
    X = np.atleast_2d(X)
    idx = np.zeros(X.shape[0], dtype=np.int64)
    active = np.flatnonzero(tree.feature[idx] >= 0)
    while active.size:
        nodes = idx[active]
        go_left = X[active, tree.feature[nodes]] <= tree.threshold[nodes]
        idx[active] = np.where(go_left, tree.left[nodes], tree.right[nodes])
        active = active[tree.feature[idx[active]] >= 0]
    return idx


def tree_predict(tree: Tree, x: np.ndarray) -> np.ndarray:
    """Leaf prototype for one instance: shape (w,)."""
    feature, threshold = tree.feature, tree.threshold
    left, right = tree.left, tree.right
    node = 0
    while feature[node] >= 0:
        node = left[node] if x[feature[node]] <= threshold[node] else right[node]
    return tree.node_pred[node]


def tree_predict_batch(tree: Tree, X: np.ndarray) -> np.ndarray:
    return tree.node_pred[apply(tree, X)]


def tree_leaf_km(tree: Tree, x: np.ndarray) -> StepFunction | None:
    """Kaplan-Meier curve of the leaf reached by x (survival trees only)."""
    leaf = int(apply(tree, x[None, :])[0])
    return tree.leaf_km.get(leaf)


def forest_predict(forest: Forest, x: np.ndarray) -> np.ndarray:
    """Arithmetic mean of the tree predictions (component-wise for vectors,
    mean risk score for survival)."""
    total = np.zeros(forest.prediction_width)
    for tree in forest.trees:
        total += tree_predict(tree, x)
    return total / forest.n_trees


def forest_predict_batch(forest: Forest, X: np.ndarray) -> np.ndarray:
    total = np.zeros((X.shape[0], forest.prediction_width))
    for tree in forest.trees:
        total += tree_predict_batch(tree, X)
    return total / forest.n_trees


def all_tree_predictions(forest: Forest, x: np.ndarray) -> np.ndarray:
    """(n_trees, w) matrix of every tree's prediction for one instance."""
    return np.vstack([tree_predict(tree, x) for tree in forest.trees])


def route(forest: Forest, x: np.ndarray) -> np.ndarray:
    """Arena node ids that x visits in every tree, one level at a time until
    every tree has reached its leaf: row r of the (levels, n_trees) result
    holds each tree's node at depth r, and a tree whose leaf lies above
    depth r repeats its leaf."""
    arena = forest.arena
    node = arena.roots
    levels = [node]
    while arena.is_split[node].any():
        node = np.where(x[arena.feature[node]] <= arena.threshold[node],
                        arena.left[node], arena.right[node])
        levels.append(node)
    return np.vstack(levels)


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

def _error_for_task(task: TaskKind, preds: np.ndarray, ds: Dataset, rows: np.ndarray) -> float:
    if task is TaskKind.BINARY:
        return 1.0 - auroc(preds[:, 0], ds.targets[rows, 0])
    if task is TaskKind.REGRESSION:
        return mae(preds[:, 0], ds.targets[rows, 0])
    if task is TaskKind.MULTI_TARGET:
        return mae(preds, ds.targets[rows])
    if task is TaskKind.MULTI_LABEL:
        return 1.0 - weighted_auroc(preds, ds.targets[rows])
    if task is TaskKind.SURVIVAL:
        return 1.0 - concordance_index(preds[:, 0], ds.times[rows], ds.events[rows])
    raise AssertionError(task)


def oob_errors(forest: Forest, train: Dataset) -> np.ndarray:
    """Per-tree error on its out-of-bag rows; trees with no OOB rows (or an
    undefined metric, e.g. single-class OOB labels) get worst-case 1.0."""
    errors = np.ones(forest.n_trees)
    for i, tree in enumerate(forest.trees):
        rows = tree.oob_indices
        if rows.size == 0:
            continue
        preds = tree_predict_batch(tree, train.covariates[rows])
        try:
            errors[i] = _error_for_task(forest.task, preds, train, rows)
        except UndefinedMetricError:
            errors[i] = 1.0
    return errors


# ---------------------------------------------------------------------------
# Serialization (JSON, exact float round-trip via repr)
# ---------------------------------------------------------------------------

_FORMAT = "bellatrex-forest"
_VERSION = 1


def forest_to_dict(forest: Forest) -> dict:
    trees = []
    for tree in forest.trees:
        trees.append({
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
        })
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
        "trees": trees,
    }


def forest_from_dict(data: dict) -> Forest:
    if not isinstance(data, dict) or data.get("format") != _FORMAT:
        raise ForestFileError("not a serialized forest")
    try:
        return _forest_from_dict(data)
    except KeyError as exc:
        raise ForestFileError(f"serialized forest lacks the key {exc}") from exc
    except (TypeError, ValueError, AttributeError, IndexError) as exc:
        raise ForestFileError(f"malformed serialized forest: {exc}") from exc


def _forest_from_dict(data: dict) -> Forest:
    task = TaskKind(data["task"])
    trees = []
    for td in data["trees"]:
        trees.append(Tree(
            task=task,
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
        ))
    params = ForestParams(**data["params"])
    event_grid = data["event_grid"]
    return Forest(
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


def save_forest(forest: Forest, path: str | Path) -> None:
    Path(path).write_text(json.dumps(forest_to_dict(forest)))


def load_forest(path: str | Path) -> Forest:
    """Read a forest written by ``save_forest``; an unreadable file, invalid
    JSON or a document that is not a forest raise ForestFileError."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ForestFileError(f"cannot read forest file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ForestFileError(f"forest file {path} is not valid JSON: {exc}") from exc
    return forest_from_dict(data)
