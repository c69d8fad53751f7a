"""Vectorised numpy kernels for bulk d-range sweeps.

The exact big-integer engine stays the source of truth; these kernels exist
because range sweeps (structure checks over every d up to 1e5 and beyond) are
dominated by a tiny machine-word inner loop.  Values are gated well inside
int64 range before a kernel is allowed to run.

Backend selection, via ``analyze --kernel``:

    numpy   - the kernels below (default)
    python  - the exact engine, one radicand at a time

Any other value is an error.  Both backends fill the same fact columns
(ell, a0, center, flags, twosq), and ``analyzer`` folds them into a report in
one place.  Tests pin the kernels against ``engine.period_facts``, so reports
are byte-identical whichever backend runs.

``sweep_range`` is a half-walk kernel.  Like ``engine.expand_sqrt`` it walks
each sqrt(d) only to the centre of its period and logs no quotient.  Its
live set is ``WIDTH`` lanes wide; a lane that reaches its centre is refilled
from the queue of pending radicands, and the set is compacted only once the
queue is empty.  Once the queue is empty and no more than ``TAIL`` lanes are
live, the walk hands them to a scalar loop in Python ints: a numpy round
costs about 15-20 us of call overhead however few lanes it carries, and a
narrow window's rounds would otherwise last as long as its longest half
period.  The palindrome and terminal facts hold by construction of the
mirrored period, and the bound fact is "largest walked quotient <= a0".

``two_squares_range`` is a segmented factor sieve over the window, built on
the criterion: d > 1 is a sum of two coprime positive squares iff 4 does not
divide d and every odd prime factor of d is 1 (mod 4).
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .exact import InternalConsistencyError

# Bit layout of the per-d flags array.
F_SQUARE = 1
F_PAL = 2
F_TERM = 4
F_BOUND = 8
# Reserved and never set; readers of the flags may still test it.
F_OVERFLOW = 16

# Kernels use int64 intermediates up to d itself; keep a wide safety margin.
KERNEL_D_LIMIT = 10**12

# Lanes in the live set of the half walk.
WIDTH = 16384

# Live lanes at or below which the half walk, its queue empty, finishes each
# lane in Python ints: about 0.3 us per quotient against 15-20 us per
# numpy round, so the break-even is near 50 lanes.  Timed at 0, 16, 32, 64,
# 96, 128, 192 and 256 (see CHANGES.md).
TAIL = 64

BACKENDS = ("numpy", "python")


def backend_name(choice: str | None = None) -> str:
    """The sweep backend to run: ``choice``, else numpy.

    Raises ValueError for any name other than numpy or python.
    """
    name = choice or "numpy"
    if name not in BACKENDS:
        raise ValueError(f"unknown sweep backend {name!r}: want numpy|python")
    return name


def _check_range(lo: int, hi: int) -> None:
    if lo < 1 or hi < lo:
        raise ValueError("want 1 <= lo <= hi")
    if hi > KERNEL_D_LIMIT:
        raise ValueError("range exceeds the sweep kernels' int64 safety gate")


def _isqrt_vec(d: np.ndarray) -> np.ndarray:
    r = np.sqrt(d.astype(np.float64)).astype(np.int64)
    for _ in range(2):
        r = np.where((r + 1) * (r + 1) <= d, r + 1, r)
        r = np.where(r * r > d, r - 1, r)
    return r


def _half_walk(r, q1, queue, ell, center, flags) -> None:
    """Walk sqrt(d) to its centre for the positions in ``queue``, in place.

    Sets ell and center there, and F_BOUND where it holds.  A lane holds
    (P + sqrt(d)) / Q after k quotients, the previous Q, its largest
    quotient ``top`` and the round ``start`` it was loaded in.  Q steps by
    Q_{k+1} = Q_{k-1} + a_k (P_k - P_{k+1}), from Q_0 = 1, P_1 = a0 and
    Q_1 = d - a0^2.  The stops are those of ``engine.expand_sqrt``: the
    first P_{k+1} == P_k gives ell = 2k with centre a_k, the first
    Q_{k+1} == Q_k gives ell = 2k + 1, and Q_{k+1} == 1 before either raises
    InternalConsistencyError.

    A numpy round costs about 15-20 us of call overhead however few lanes are
    live, and the rounds last as long as the longest half period left.
    So once the queue is empty and at most ``TAIL`` lanes are live, each of
    them is finished on its own by ``_finish``, in Python ints, at well
    under a microsecond per quotient.
    """
    lane = queue[:WIDTH].copy()
    pending = queue[lane.size :]
    R = r[lane]
    P = R.copy()
    Q = q1[lane]
    Q_prev = np.ones_like(Q)
    top = np.zeros_like(Q)
    start = np.zeros_like(Q)
    step = 0
    while pending.size or lane.size > TAIL:
        a = (R + P) // Q
        np.maximum(top, a, out=top)
        P_next = a * Q - P
        Q_next = Q_prev + a * (P - P_next)
        step += 1
        stop = np.flatnonzero((P_next == P) | (Q_next == Q) | (Q_next == 1))
        P_last, P, Q, Q_prev = P, P_next, Q_next, Q
        if not stop.size:
            continue
        at = lane[stop]
        even = P[stop] == P_last[stop]
        odd = ~even & (Q[stop] == Q_prev[stop])
        if not np.all(even | odd):
            i = at[np.argmin(even | odd)]
            raise _missed_centre(r[i] * r[i] + q1[i])
        ell[at] = 2 * (step - start[stop]) + odd
        center[at] = np.where(even, a[stop], -1)
        flags[at[top[stop] <= R[stop]]] |= F_BOUND
        # Refill the finished slots from the queue; once it is empty, drop
        # the slots left over.
        fill, stop = stop[: pending.size], stop[pending.size :]
        if fill.size:
            new, pending = pending[: fill.size], pending[fill.size :]
            lane[fill] = new
            R[fill] = P[fill] = r[new]
            Q[fill] = q1[new]
            Q_prev[fill] = 1
            top[fill] = 0
            start[fill] = step
        if stop.size:
            keep = np.ones(lane.size, bool)
            keep[stop] = False
            lane, R, P, Q, Q_prev, top, start = (
                x[keep] for x in (lane, R, P, Q, Q_prev, top, start)
            )
    _finish(q1, (lane, R, P, Q, Q_prev, top, start), step, ell, center, flags)


def _finish(q1, live, step, ell, center, flags) -> None:
    """Walk each lane of ``_half_walk`` to its centre, one at a time.

    ``live`` holds the walk's arrays (lane, R, P, Q, Q_prev, top, start)
    after round ``step``.  Each lane goes on from its own state, with the
    same stops as the numpy rounds.
    """
    for i, R, P, Q, Q_prev, top, start in zip(*(x.tolist() for x in live)):
        k = step - start
        while True:
            a = (R + P) // Q
            if a > top:
                top = a
            P_next = a * Q - P
            Q_next = Q_prev + a * (P - P_next)
            k += 1
            if P_next == P:
                ell[i], center[i] = 2 * k, a
                break
            if Q_next == Q:
                ell[i], center[i] = 2 * k + 1, -1
                break
            if Q_next == 1:
                raise _missed_centre(R * R + int(q1[i]))
            P, Q, Q_prev = P_next, Q_next, Q
        if top <= R:
            flags[i] |= F_BOUND


def _missed_centre(d) -> InternalConsistencyError:
    return InternalConsistencyError(f"period of sqrt({d}) ended without a centre")


def sweep_range(lo: int, hi: int):
    """Per-d expansion structure for lo <= d < hi.

    Returns (ell, a0, center, flags) int64/uint8 arrays.  Squares have ell 0,
    centre -1 and flags F_SQUARE; every other d has F_PAL | F_TERM, F_BOUND
    where its interior quotients are <= a0, and centre -1 for odd ell.
    """
    _check_range(lo, hi)
    d = np.arange(lo, hi, dtype=np.int64)
    a0 = _isqrt_vec(d)
    q1 = d - a0 * a0
    ell = (q1 == 1).astype(np.int64)
    center = np.full(d.size, -1, np.int64)
    flags = np.full(d.size, F_PAL | F_TERM, np.uint8)
    flags[q1 == 1] |= F_BOUND
    flags[q1 == 0] = F_SQUARE
    _half_walk(a0, q1, np.flatnonzero(q1 > 1), ell, center, flags)
    return ell, a0, center, flags


def _primes_upto(m: int) -> np.ndarray:
    sieve = np.ones(m + 1, bool)
    sieve[:2] = False
    for p in range(2, isqrt(m) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


def two_squares_range(lo: int, hi: int) -> np.ndarray:
    """Mask over [lo, hi): d is a sum of two coprime positive squares.

    d > 1 qualifies iff 4 does not divide d and every odd prime factor of d
    is 1 (mod 4); d = 1 is False.  The sieve marks multiples of 4 and of each
    prime p = 3 (mod 4) up to isqrt(hi - 1).  An unmarked d has at most one
    prime factor above isqrt(hi - 1), and every other odd prime factor is
    1 (mod 4), so the odd part of d is that cofactor (mod 4): d is rejected
    when it is 3.  The cost grows with the width of the window and the
    number of sieving primes, not with hi.
    """
    _check_range(lo, hi)
    d = np.arange(lo, hi, dtype=np.int64)
    odd_part = np.where(d % 2 == 0, d // 2, d)
    bad = (d == 1) | (d % 4 == 0) | (odd_part % 4 == 3)
    for p in _primes_upto(isqrt(max(hi - 1, 0))).tolist():
        if p % 4 == 3:
            bad[-lo % p :: p] = True
    return (~bad).astype(np.uint8)


__all__ = [
    "F_SQUARE",
    "F_PAL",
    "F_TERM",
    "F_BOUND",
    "F_OVERFLOW",
    "KERNEL_D_LIMIT",
    "WIDTH",
    "TAIL",
    "backend_name",
    "sweep_range",
    "two_squares_range",
]
