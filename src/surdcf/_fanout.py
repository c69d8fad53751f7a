"""The package's one process fan-out.

``fan_out(fn, tasks, jobs)`` yields ``fn(task)`` for each task, in task
order.  It runs in-process at ``jobs <= 1`` or for a single task; otherwise
all the tasks go through one pool of ``min(jobs, len(tasks))`` worker
processes.  Its one caller, the analyzer, splits its range into chunks and
merges their results in order, so its output does not depend on ``jobs``;
a range too small to pay for a pool is one chunk, and runs in-process.
The family verifier and the miner run in the calling process.

``concurrent.futures`` is imported only when a pool opens: the module
attribute ``ProcessPoolExecutor`` resolves on first use (PEP 562), and
``fan_out`` looks it up there, so a test can still patch it.
"""

from __future__ import annotations

import sys
from typing import Callable, Iterator, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def __getattr__(name: str):
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor


def fan_out(fn: Callable[[T], R], tasks: Sequence[T], jobs: int) -> Iterator[R]:
    """``fn(task)`` for each of ``tasks``, in order, on up to ``jobs`` processes."""
    if jobs <= 1 or len(tasks) <= 1:
        yield from map(fn, tasks)
        return
    executor = sys.modules[__name__].ProcessPoolExecutor
    with executor(max_workers=min(jobs, len(tasks))) as pool:
        yield from pool.map(fn, tasks)
