"""The package's one process fan-out.

``fan_out(fn, tasks, jobs)`` yields ``fn(task)`` for each task, in task
order.  It runs in-process at ``jobs <= 1`` or for a single task; otherwise
all the tasks go through one pool of ``min(jobs, len(tasks))`` worker
processes.  Callers decide how their work splits into tasks (the analyzer's
range chunks, the miner's spans of its sweep order) and merge the results
in order, so their output does not depend on ``jobs``.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterator, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def fan_out(fn: Callable[[T], R], tasks: Sequence[T], jobs: int) -> Iterator[R]:
    """``fn(task)`` for each of ``tasks``, in order, on up to ``jobs`` processes."""
    if jobs <= 1 or len(tasks) <= 1:
        yield from map(fn, tasks)
        return
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        yield from pool.map(fn, tasks)
