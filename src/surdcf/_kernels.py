"""Vectorised numpy kernels for bulk d-range sweeps.

The exact big-integer engine stays the source of truth; these kernels exist
because range sweeps (structure checks over every d up to 1e5 and beyond) are
dominated by a tiny machine-word inner loop.  Values are gated well inside
int64 range before a kernel is allowed to run.

Backend selection, via ``SURDCF_KERNEL`` or ``analyze --kernel``:

    numpy   - the kernels below (default)
    python  - the exact engine, one radicand at a time

Any other value is an error.  Both backends fill the same fact columns
(ell, a0, center, flags, twosq), and ``analyzer`` folds them into a report in
one place.  Tests pin the kernels against ``engine.period_facts``, so reports
are byte-identical whichever backend runs; ``perfbench/run.py`` compares
their speed.

``sweep_range`` is a compacting kernel.  It works in blocks of ``BLOCK``
radicands: every live lane takes one quotient step per round and leaves the
live set as soon as Q == 1, so a block costs its total number of quotient
steps rather than its longest period times its width.  The (lane, quotient)
pairs logged along the way are laid out as flat period words at ``cumsum(ell)``
offsets, and the palindrome, bound, terminal and centre facts are vectorised
operations over those words.

``two_squares_range`` is a segmented factor sieve over the window, built on
the criterion: d > 1 is a sum of two coprime positive squares iff 4 does not
divide d and every odd prime factor of d is 1 (mod 4).
"""

from __future__ import annotations

import os
from math import isqrt

import numpy as np

# Bit layout of the per-d flags array.
F_SQUARE = 1
F_PAL = 2
F_TERM = 4
F_BOUND = 8
F_OVERFLOW = 16

# Periods for d <= 1e7 stay far below this; overflowing lanes are redone
# exactly by the caller.
WORD_BUFFER = 8192

# Kernels use int64 intermediates up to d itself; keep a wide safety margin.
KERNEL_D_LIMIT = 10**12

# Radicands per sweep block.  The quotient log of one block is held in
# memory at once; 8192-wide blocks raised the peak RSS of a 5e4-wide
# analyze run from about 50 to 89 MB.
BLOCK = 1024

BACKENDS = ("numpy", "python")


def backend_name(choice: str | None = None) -> str:
    """The sweep backend to run: ``choice``, else ``SURDCF_KERNEL``, else numpy.

    Raises ValueError for any name other than numpy or python.
    """
    name = choice or os.environ.get("SURDCF_KERNEL", "").strip().lower() or "numpy"
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


def _period_words(d: np.ndarray, r: np.ndarray, lane: np.ndarray, buf_len: int):
    """Expand sqrt(d[k]) for the block positions k in ``lane``.

    Returns (ell, words, overflow): ell[k] is the period length of position
    k (0 where it was not expanded or overflowed), ``words`` the periods laid
    end to end in position order, and ``overflow`` the positions whose period
    is longer than ``buf_len``.
    """
    ell = np.zeros(d.shape[0], np.int64)
    # The state of sqrt(d) after k quotients is (P + sqrt(d)) / Q.  Q comes
    # from the division-free recurrence Q_{k+1} = Q_{k-1} + a_k (P_k - P_{k+1}),
    # with Q_0 = 1, P_1 = a0 and Q_1 = d - a0^2.
    R = r[lane]
    P = R.copy()
    Q = d[lane] - R * R
    Q_prev = np.ones_like(Q)
    lane_log, a_log = [], []
    overflow = lane[:0]
    step = 0
    while lane.size:
        if step == buf_len:
            overflow = lane
            break
        a = (R + P) // Q
        lane_log.append(lane)
        a_log.append(a)
        step += 1
        done = Q == 1
        if np.count_nonzero(done):
            ell[lane[done]] = step
            live = ~done
            lane, R, P, Q, Q_prev, a = lane[live], R[live], P[live], Q[live], Q_prev[live], a[live]
        P_next = a * Q - P
        Q, Q_prev = Q_prev + a * (P - P_next), Q
        P = P_next

    # Lane k's quotient from step j goes to start[k] + j; the partial words
    # of overflowed lanes (ell 0) are dropped.  The empty lead array keeps
    # the concatenation defined when no step ran.
    lanes = np.concatenate([lane[:0], *lane_log])
    quots = np.concatenate([lane[:0], *a_log])
    steps = np.repeat(np.arange(step), [x.size for x in lane_log])
    kept = ell[lanes] > 0
    start = np.cumsum(ell) - ell
    words = np.empty(int(ell.sum()), np.int64)
    words[start[lanes[kept]] + steps[kept]] = quots[kept]
    return ell, words, overflow


def _sweep_block(d: np.ndarray, buf_len: int):
    n = d.shape[0]
    r = _isqrt_vec(d)
    flags = np.zeros(n, np.uint8)
    centers = np.full(n, -1, np.int64)
    square = r * r == d
    flags[square] = F_SQUARE
    ell, words, overflow = _period_words(d, r, np.flatnonzero(~square), buf_len)
    flags[overflow] = F_OVERFLOW

    done = np.flatnonzero(ell)
    L = ell[done]
    first = np.cumsum(ell)[done] - L
    last = first + L - 1
    # Per entry of the flat words: its lane and its word's ends.
    lane_of = np.repeat(done, L)
    idx = np.arange(words.size)
    inner = idx < np.repeat(last, L)
    # The interior w[0..L-2] is a palindrome: entry idx mirrors first+last-1-idx.
    mirror = np.where(inner, np.repeat(first + last - 1, L) - idx, idx)
    ok = np.full(n, F_PAL | F_BOUND, np.uint8)
    ok[lane_of[inner & (words != words[mirror])]] &= ~np.uint8(F_PAL)
    ok[lane_of[inner & (words > r[lane_of])]] &= ~np.uint8(F_BOUND)
    ok[done[words[last] == 2 * r[done]]] |= F_TERM
    flags[done] |= ok[done]
    even = L % 2 == 0
    centers[done[even]] = words[first[even] + L[even] // 2 - 1]
    return ell, r, centers, flags


def sweep_range(lo: int, hi: int, buf_len: int = WORD_BUFFER):
    """Per-d expansion structure for lo <= d < hi.

    Returns (ell, a0, center, flags) int64/uint8 arrays.  Callers must redo
    any F_OVERFLOW lane (period longer than ``buf_len``) with the exact
    engine; its ell is 0 and its centre -1.
    """
    _check_range(lo, hi)
    d = np.arange(lo, hi, dtype=np.int64)
    # One block at least, so that an empty range gives empty arrays.
    parts = [_sweep_block(d[i : i + BLOCK], buf_len) for i in range(0, max(d.size, 1), BLOCK)]
    return tuple(np.concatenate([p[i] for p in parts]) for i in range(4))


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
    "backend_name",
    "sweep_range",
    "two_squares_range",
]
