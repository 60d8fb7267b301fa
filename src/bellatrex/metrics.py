"""Ranking/error metrics and explanation-quality measures.

AUROC uses the midrank (Mann-Whitney) formulation, which matches exhaustive
pair counting exactly, ties scored one half.
"""
from __future__ import annotations

import numpy as np

from .data import Dataset, TaskKind
from .errors import UndefinedMetricError
from .survival import concordance_index

RULE_COLLECTION = "rule-collection"
TREE_PATHS = "tree-paths"
DECISION_LIST = "decision-list"


def _midranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j < values.size and sorted_vals[j] == sorted_vals[i]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + j + 1)  # average of 1-based ranks i+1..j
        i = j
    return ranks


def auroc(scores, labels) -> float:
    """Probability a random positive outranks a random negative (ties 0.5)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = int(np.sum(labels == 1))
    neg = int(np.sum(labels == 0))
    if pos == 0 or neg == 0:
        raise UndefinedMetricError("AUROC undefined: only one class present")
    ranks = _midranks(scores)
    rank_sum = float(np.sum(ranks[np.asarray(labels) == 1]))
    return (rank_sum - pos * (pos + 1) / 2.0) / (pos * neg)


def weighted_auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Per-label AUROC averaged with weights proportional to the number of
    positive instances; labels missing a class are dropped."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 2:
        raise ValueError("scores and labels must be matching 2-D matrices")
    total_weight = 0.0
    weighted_sum = 0.0
    for col in range(labels.shape[1]):
        y = labels[:, col]
        if np.all(y == 1) or np.all(y == 0):
            continue
        weight = float(np.sum(y == 1))
        weighted_sum += weight * auroc(scores[:, col], y)
        total_weight += weight
    if total_weight == 0.0:
        raise UndefinedMetricError("weighted AUROC undefined: every label is single-class")
    return weighted_sum / total_weight


def mae(pred, truth) -> float:
    """Mean absolute error, averaged over targets for vector predictions."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError("pred and truth must have the same shape")
    return float(np.mean(np.abs(pred - truth)))


def performance_metric(task: TaskKind, preds: np.ndarray, ds: Dataset,
                       rows=slice(None)) -> float:
    """Task metric of the predictions for ``ds``'s rows ``rows`` (all rows
    by default): AUROC, weighted AUROC, MAE or C-index."""
    if task is TaskKind.BINARY:
        return auroc(preds[:, 0], ds.targets[rows, 0])
    if task is TaskKind.REGRESSION:
        return mae(preds[:, 0], ds.targets[rows, 0])
    if task is TaskKind.MULTI_TARGET:
        return mae(preds, ds.targets[rows])
    if task is TaskKind.MULTI_LABEL:
        return weighted_auroc(preds, ds.targets[rows])
    if task is TaskKind.SURVIVAL:
        return concordance_index(preds[:, 0], ds.times[rows], ds.events[rows])
    raise AssertionError(task)


def higher_is_better(task: TaskKind) -> bool:
    return task not in (TaskKind.REGRESSION, TaskKind.MULTI_TARGET)


def complexity(rule_lengths, context: str = RULE_COLLECTION,
               activated_index: int | None = None) -> int:
    """Total split tests shown to the user.

    rule-collection / tree-paths: the sum of all given rule lengths (for
    tree-based explainers the caller passes the activated root-to-leaf
    paths).  decision-list: the activated rule alone, unless the activated
    rule is the final "else" rule, in which case every rule counts.
    """
    lengths = [int(v) for v in rule_lengths]
    if context in (RULE_COLLECTION, TREE_PATHS):
        return sum(lengths)
    if context == DECISION_LIST:
        if activated_index is None:
            raise ValueError("decision-list complexity needs the activated rule index")
        if activated_index == len(lengths) - 1:
            return sum(lengths)
        return lengths[activated_index]
    raise ValueError(f"unknown complexity context {context!r}")


def jaccard_similarity(v, w) -> float:
    """Generalized Jaccard index: sum of element-wise minima over sum of
    element-wise maxima.  Two all-zero vectors count as identical (1.0)."""
    v = np.asarray(v, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if v.shape != w.shape:
        raise ValueError("vectors must have the same length")
    if np.any(v < 0) or np.any(w < 0):
        raise ValueError("vectors must be non-negative")
    denom = float(np.sum(np.maximum(v, w)))
    if denom == 0.0:
        return 1.0
    return float(np.sum(np.minimum(v, w))) / denom


def dissimilarity(vectors) -> float | None:
    """Mean pairwise (1 - similarity) over the rules of one explanation;
    None for a single rule, where the average is undefined."""
    rows = [np.asarray(v, dtype=np.float64) for v in vectors]
    k = len(rows)
    if k == 0:
        raise ValueError("need at least one vector")
    if k == 1:
        return None
    total = 0.0
    for a in range(k):
        for b in range(k):
            if a != b:
                total += 1.0 - jaccard_similarity(rows[a], rows[b])
    return total / (k * (k - 1))
