"""Survival statistics: Kaplan-Meier, Nelson-Aalen, log-rank scores,
cumulative-hazard risk scores and the concordance index.

Samples are passed as parallel arrays ``times`` (positive reals) and
``events`` (True for an observed event, False for right censoring).  Ties at
the same instant follow the standard convention: events are processed before
censorings, i.e. a sample censored at t is still at risk at t.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedMetricError


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous step function with value ``baseline`` before the
    first jump time: 1.0 for survival curves, 0.0 for cumulative hazards."""

    times: np.ndarray
    values: np.ndarray
    baseline: float

    def __call__(self, t) -> np.ndarray | float:
        t_arr = np.asarray(t, dtype=np.float64)
        idx = np.searchsorted(self.times, t_arr, side="right") - 1
        padded = np.concatenate(([self.baseline], self.values))
        out = padded[idx + 1]
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def _event_table(times: np.ndarray, events: np.ndarray):
    """Distinct event times with (events d_i, at-risk n_i) counts."""
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=bool)
    if times.size == 0:
        raise ValueError("empty sample")
    event_times = np.unique(times[events])
    if event_times.size == 0:
        return event_times, np.array([]), np.array([])
    sorted_times = np.sort(times)
    n_at_risk = times.size - np.searchsorted(sorted_times, event_times, side="left")
    sorted_event_times = np.sort(times[events])
    d = (
        np.searchsorted(sorted_event_times, event_times, side="right")
        - np.searchsorted(sorted_event_times, event_times, side="left")
    )
    return event_times, d.astype(np.float64), n_at_risk.astype(np.float64)


def kaplan_meier(times: np.ndarray, events: np.ndarray) -> StepFunction:
    """Product-limit survival estimate over the distinct event times.

    The running product is kept as an exact integer ratio and rounded once
    per step, so e.g. with zero censoring the curve equals the empirical
    survival function bit-for-bit.
    """
    return product_limit(*_event_table(times, events))


def product_limit(grid: np.ndarray, d: np.ndarray, n: np.ndarray) -> StepFunction:
    """Kaplan-Meier curve from an event table: the distinct event times with
    their event counts d and at-risk counts n (see ``kaplan_meier``)."""
    numerator = 1
    denominator = 1
    values = np.empty(grid.size)
    for i, (d_i, n_i) in enumerate(zip(d.tolist(), n.tolist())):
        numerator *= int(n_i) - int(d_i)
        denominator *= int(n_i)
        values[i] = numerator / denominator
    return StepFunction(times=grid, values=values, baseline=1.0)


def nelson_aalen(times: np.ndarray, events: np.ndarray) -> StepFunction:
    """Cumulative hazard H(t) = sum_{t_i <= t} d_i / n_i."""
    grid, d, n = _event_table(times, events)
    if grid.size == 0:
        return StepFunction(times=grid, values=np.array([]), baseline=0.0)
    hazard = np.cumsum(d / n)
    return StepFunction(times=grid, values=hazard, baseline=0.0)


def risk_score(times: np.ndarray, events: np.ndarray, event_grid: np.ndarray) -> float:
    """Scalar risk: the Nelson-Aalen cumulative hazard summed over the
    training event-time grid (the ensemble-mortality convention)."""
    event_grid = np.asarray(event_grid, dtype=np.float64)
    if event_grid.size == 0:
        return 0.0
    hazard = nelson_aalen(times, events)
    return float(np.sum(hazard(event_grid)))


def logrank_score(
    times_left: np.ndarray,
    events_left: np.ndarray,
    times_right: np.ndarray,
    events_right: np.ndarray,
) -> float:
    """Absolute standardized two-group log-rank statistic; 0 when the
    hypergeometric variance vanishes.  Symmetric in its two groups."""
    tl = np.asarray(times_left, dtype=np.float64)
    tr = np.asarray(times_right, dtype=np.float64)
    if tl.size == 0 or tr.size == 0:
        raise ValueError("both groups must be non-empty")
    el = np.asarray(events_left, dtype=bool)
    er = np.asarray(events_right, dtype=bool)

    times = np.concatenate([tl, tr])
    events = np.concatenate([el, er])
    grid, d, n = _event_table(times, events)
    if grid.size == 0:
        return 0.0

    sorted_left = np.sort(tl)
    n_left = tl.size - np.searchsorted(sorted_left, grid, side="left")
    sorted_left_events = np.sort(tl[el])
    d_left = (
        np.searchsorted(sorted_left_events, grid, side="right")
        - np.searchsorted(sorted_left_events, grid, side="left")
    ).astype(np.float64)

    observed_minus_expected = float(np.sum(d_left - d * n_left / n))
    with np.errstate(divide="ignore", invalid="ignore"):
        var_terms = np.where(
            n > 1,
            d * (n_left / n) * (1.0 - n_left / n) * (n - d) / (n - 1.0),
            0.0,
        )
    variance = float(np.sum(var_terms))
    if variance <= 0.0:
        return 0.0
    return abs(observed_minus_expected) / np.sqrt(variance)


class _Fenwick:
    """Binary indexed tree over rank counts (1-based internally)."""

    def __init__(self, size: int):
        self.size = size
        self.tree = np.zeros(size + 1, dtype=np.int64)

    def add(self, i: int) -> None:
        i += 1
        while i <= self.size:
            self.tree[i] += 1
            i += i & (-i)

    def prefix(self, i: int) -> int:
        # count of inserted ranks <= i (0-based rank)
        total = 0
        i += 1
        while i > 0:
            total += int(self.tree[i])
            i -= i & (-i)
        return total


def concordance_index(risks: np.ndarray, times: np.ndarray, events: np.ndarray) -> float:
    """Fraction of comparable pairs ranked concordantly by the risks.

    A pair (i, j) is comparable when time_i < time_j and sample i had an
    observed event; it is concordant when risk_i > risk_j, and risk ties
    count one half.  Raises ``UndefinedMetricError`` with no comparable pairs.
    """
    risks = np.asarray(risks, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=bool)
    if not (risks.size == times.size == events.size):
        raise ValueError("risks, times and events must have equal length")

    distinct = np.unique(risks)
    ranks = np.searchsorted(distinct, risks)
    fenwick = _Fenwick(distinct.size)

    order = np.argsort(-times, kind="stable")
    numer = 0.0
    comparable = 0
    inserted = 0
    i = 0
    while i < order.size:
        j = i
        while j < order.size and times[order[j]] == times[order[i]]:
            j += 1
        group = order[i:j]
        for idx in group:
            if events[idx] and inserted:
                rank = int(ranks[idx])
                less = fenwick.prefix(rank - 1) if rank > 0 else 0
                ties = fenwick.prefix(rank) - less
                numer += less + 0.5 * ties
                comparable += inserted
        for idx in group:
            fenwick.add(int(ranks[idx]))
            inserted += 1
        i = j
    if comparable == 0:
        raise UndefinedMetricError("concordance index undefined: no comparable pairs")
    return numer / comparable
