"""Order-preserving work distribution capped by the BELLATREX_THREADS env var.

Every work item owns its own RNG stream, so results are identical whatever
the thread count; assembly is always in submission order.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def thread_count() -> int:
    raw = os.environ.get("BELLATREX_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def parallel_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    seq: Sequence[T] = list(items)
    workers = min(thread_count(), len(seq)) if seq else 1
    if workers <= 1:
        return [fn(item) for item in seq]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, seq))


def map_groups(fn: Callable[[slice], list[R]], n: int) -> list[R]:
    """``fn`` of one contiguous slice of range(n) per worker thread, run by
    ``parallel_map``; the results of the slices concatenated in order."""
    k = min(thread_count(), n)
    groups = [slice(n * g // k, n * (g + 1) // k) for g in range(k)]
    return [r for part in parallel_map(fn, groups) for r in part]
