"""Deterministic thread-pool helpers.

Work items are independent; results are always returned in submission
order, so a run with ``threads > 1`` is indistinguishable from a serial
run apart from wall-clock time.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Iterable[T], threads: int = 1) -> list[R]:
    """Map ``fn`` over ``items``, preserving input order in the result."""
    work: Sequence[T] = list(items)
    if threads <= 1 or len(work) <= 1:
        return [fn(item) for item in work]
    with ThreadPoolExecutor(max_workers=min(threads, len(work))) as pool:
        return list(pool.map(fn, work))
