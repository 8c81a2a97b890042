"""Order-preserving parallel helpers.

Work is addressed by index and written into a preallocated slot, so results
are identical for any worker count; reductions are left to the caller, which
should use a fixed-order sum (numpy's pairwise summation over one array).
"""

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

T = TypeVar("T")

__all__ = ["map_indexed"]


def map_indexed(fn: Callable[[int], T], count: int, threads: int = 1) -> list[T]:
    """Evaluate ``fn(i)`` for ``i in range(count)``, preserving index order.

    ``fn`` must be a pure function of its index for the worker-count
    independence guarantee to hold.  At most ``os.cpu_count()`` workers are
    started, whatever ``threads`` asks for.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    workers = min(threads, count, os.cpu_count() or 1)
    if workers <= 1:
        return [fn(i) for i in range(count)]
    out: list = [None] * count
    step = -(-count // workers)

    def run_chunk(lo: int) -> None:
        for i in range(lo, min(lo + step, count)):
            out[i] = fn(i)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run_chunk, lo) for lo in range(0, count, step)]
        for fut in futures:
            fut.result()
    return out
