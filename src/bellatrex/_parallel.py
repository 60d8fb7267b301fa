"""The ordered map that ``fit_forests`` hands its pool to; the benchmark's
tracer (``perfbench/tracing.py``) wraps it by name to time the pool.

Fitting and explaining run on one thread: a pool's trees grow in one
lockstep and a fold's instances are tuned in one lockstep batch.  Cutting
either into groups, one per thread, made each group pay the per-step cost
that one lockstep pays once, and was slower on every shape measured.
"""
from __future__ import annotations

from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """``[fn(item) for item in items]``, in order."""
    return [fn(item) for item in items]
