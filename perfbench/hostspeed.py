"""How fast the CPU under the benchmark runs right now.

On a small shared virtual machine the same code can take twice as long a
minute later: the vCPU slows down (its CPU time rises with its wall time;
the kernel reports almost no steal).  A timing taken there mixes the
program's cost with the host's speed at that moment.

``probe()`` is a fixed piece of work, kept in this directory so that no
change to the program moves it.  It has two parts, timed apart: pure Python
(a loop over small ints and a dict, then tuple keys, a dict and a function
call per step) and a few numpy passes over a 1024-element int64 block.  The
two respond differently to the host's phases, so each workload is
normalised by the parts that match its code: the Python part alone where
its command calls no numpy (``verify-families``, ``mine``), both parts where
it runs the numpy kernels (``analyze``).  The host factor is the mean over
those parts of their CPU time divided by their reference time: above 1 the
host runs slower than the reference host, below 1 faster.  A time divided
by the host factor is a time in reference-host seconds.

``Sampler`` runs the probe every ``INTERVAL_S`` of wall time from a SIGALRM
handler while a timed call runs, so the factor is measured over the same
seconds as the call, and keeps the wall time its probes took so the caller
can take it out of the call's wall time.  The interval timer is not
inherited by forked worker processes, so only the calling process probes.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# CPU seconds of the probe's Python and numpy parts on the reference host
# (a 2-vCPU VM, Python 3.11, numpy 2.4, in a fast phase).  They only scale
# the normalised metrics.
REF_PY_S = 0.00055
REF_NP_S = 0.00036
INTERVAL_S = 0.05

_BLOCK = np.arange(10**6, 10**6 + 1024, dtype=np.int64)


def _mod97(a: int, b: int) -> int:
    return a * b % 97


def probe() -> tuple[float, float]:
    """CPU seconds of one fixed unit of Python work, then of numpy work."""
    c0 = time.thread_time()
    s = 0
    d = {}
    for i in range(3000):
        s += i * i % 7
        d[i & 255] = s
    d = {}
    for i in range(1000):
        t = (i, i & 15)
        d[t] = _mod97(*t)
        s += len(d) & 3
    c1 = time.thread_time()
    q = _BLOCK
    for _ in range(12):
        r = np.sqrt(q.astype(np.float64)).astype(np.int64)
        q = np.where(r * r > q, q // 3 + r, q - r) + np.gcd(q, 7)
    return c1 - c0, time.thread_time() - c1


def factor(samples: list[tuple[float, float]], numpy: bool) -> float:
    """Host factor from probe samples; ``numpy`` adds the numpy part."""
    py = statistics.fmean(p for p, _ in samples) / REF_PY_S
    if not numpy:
        return py
    return (py + statistics.fmean(n for _, n in samples) / REF_NP_S) / 2


def burst(n: int) -> list[tuple[float, float]]:
    return [probe() for _ in range(n)]


class Sampler:
    """Context manager: probe every ``INTERVAL_S`` while the block runs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.probe_wall_s = 0.0
        self._old = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.probe_wall_s += time.perf_counter() - t0

    def __enter__(self) -> Sampler:
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        if not self.samples:
            # A block shorter than one interval: probe right after it.
            self.samples.append(probe())
