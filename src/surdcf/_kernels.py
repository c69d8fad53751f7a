"""Vectorised numpy kernels for bulk d-range sweeps.

The exact big-integer engine stays the source of truth; these kernels exist
because range sweeps (structure checks over every d up to 1e5 and beyond) are
dominated by a tiny machine-word inner loop.  A range is gated by
``KERNEL_D_LIMIT`` before a kernel is allowed to run.

Backend selection, via ``analyze --kernel``:

    numpy   - the kernels below (default)
    python  - the exact engine, one radicand at a time

Any other value is an error.  Both backends fill the same fact columns
(ell, a0, center, flags, twosq), and ``analyzer`` folds them into a report in
one place.  Tests pin the kernels against a literal walk of each whole
period, so reports are byte-identical whichever backend runs.

``sweep_range`` is a half-walk kernel.  Like ``engine.half_period`` it walks
each sqrt(d) only to the centre of its period and logs no quotient.  Its
live set is ``WIDTH`` lanes wide, every lane value held in float32 (see
below), and it is loaded largest d first; a lane that reaches its centre is
refilled from the queue of pending radicands, one numpy round at a time,
and the set shrinks only once the queue is empty, by moving live lanes from
its end into the stopped slots (``_drop``).  From then on the live set
drains in blocks of rounds: a block steps every live lane a few rounds at
once, with one ufunc call per operation and row, and then finds each lane's
first stop in one scan of the block.  A numpy call on a few hundred lanes
costs a few tenths of a microsecond, nearly all of it dispatch, so a narrow
set pays eight calls per round in a block, about 3 us a row, where a round
on its own pays about fifteen.  The lanes that stop are not written to the
fact columns where they stop: a round or block with stops pays about nine
calls to add their records to a batch (``_Stops``), which is written once
it holds a live set's worth and once more when the walk ends.  A lane walks
at most a block's length past its centre; ``_block_rounds`` keeps that
under 1/16 of the rounds it walked before.  Once no more than ``TAIL``
lanes are live, the walk hands them to a scalar loop in Python ints.  The
palindrome and terminal facts hold by construction of the mirrored period,
so no flag records them, and F_BOUND is "largest walked quotient <= a0".

The lanes are float32, and their arithmetic is exact under the gate.  Every
lane value is an integer of magnitude at most 2R + 1, where R = isqrt(d) <=
isqrt(KERNEL_D_LIMIT): 0 < P_k <= R and 0 < Q_k <= 2R + 1 for k >= 1, and
the numerator R + P_k, the product a_k Q_k <= R + P_k and the product
a_k (P_k - P_{k+1}) = Q_{k+1} - Q_{k-1} are no larger, in every row past a
stop too, since the expansion just goes on there.  Under the gate 2R + 1 <=
2,000,001 < 2^24, so float32 holds every such integer, and every sum,
difference and product of two of them is exact.  The one inexact operation
is the division, and its floor is exact: for integers 0 <= x < 2^24 and
y >= 1, fl(x / y) errs from x / y by at most (x / y) 2^-24 < 1 / y, while an
x / y below an integer n lies at least 1 / y below it, so
floor(fl(x / y)) = floor(x / y) = x // y.  d itself, up to 2^40, is never
formed in float32: only the int64 a0 and q1 columns hold it.

``two_squares_range`` is a segmented factor sieve over the window, built on
the criterion: d > 1 is a sum of two coprime positive squares iff 4 does not
divide d and every odd prime factor of d is 1 (mod 4).
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .exact import InternalConsistencyError

# Bit layout of the per-d flags array.  No bit records the palindrome or
# terminal fact, which the mirror makes true.
F_SQUARE = 1
F_BOUND = 8
# Reserved and never set; readers of the flags may still test it.
F_OVERFLOW = 16

# The sweep holds its lanes in float32, which is exact while every lane
# value, at most 2 isqrt(d) + 1, stays below 2^24 (see the module docstring):
# up to d of about 7e13.  The gate keeps a wide margin below that, and
# ``_isqrt_vec`` floors exactly far beyond it.
KERNEL_D_LIMIT = 10**12

# The dtype of every lane value of the half walk.
LANE = np.float32

# Lanes in the live set of the half walk.
WIDTH = 16384

# Live lanes at or below which the half walk, its queue empty, finishes each
# lane in Python ints, at about 0.15 us per quotient, where a block row
# costs about 3 us however few lanes it steps.  Whole in-process `analyze
# --jobs 1` calls, median ms of 8 to 12 rounds that run the values in turn:
#
#     window              TAIL 8    16     32     64
#     50000500..+999        28.6   27.3   27.6   30.9
#     1e9..+199             53.6   50.1   51.1   63.4
#     1e10..+999           258.9  248.9  250.7  295.7
TAIL = 16

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
    """isqrt of each d.  Exact for 0 <= d < 2^52: the correctly rounded
    sqrt(m^2 - 1) = m - 1/(2m) - ... stays below m while 1/(2m) exceeds half
    an ulp of m, about m 2^-53, and sqrt is monotone."""
    return np.sqrt(d.astype(np.float64)).astype(np.int64)


def _quotient(x, y, out=None):
    """floor(x / y) of float32 lanes, exact for 0 <= x < 2^24 and y >= 1."""
    return np.floor(np.divide(x, y, out), out)


def _half_walk(r, q1, queue, ell, center, flags) -> None:
    """Walk sqrt(d) to its centre for the positions in ``queue``, in place.

    Sets ell and center there, and F_BOUND where it holds.  A lane holds
    (P + sqrt(d)) / Q after k quotients, the previous Q, its largest
    quotient ``top`` and the round ``start`` it was loaded in, all ``LANE``
    but ``start``, which is int64 like ``lane``.  Q steps by
    Q_{k+1} = Q_{k-1} + a_k (P_k - P_{k+1}), from Q_0 = 1, P_1 = a0 and
    Q_1 = d - a0^2.  The stops are those of ``engine.half_period``: the
    first P_{k+1} == P_k gives ell = 2k with centre a_k, the first
    Q_{k+1} == Q_k gives ell = 2k + 1, and Q_{k+1} == 1 before either raises
    InternalConsistencyError.

    While the queue holds radicands, the walk goes one round at a time and
    refills each finished lane at once.  Once it is empty, the live lanes
    step ``_block_rounds`` rounds at a time, through ``_block`` wherever
    that is more than one, and the lanes that stopped are dropped.  The
    stopped lanes gather in ``_Stops``, which writes them to the columns a
    batch at a time.  Once at most ``TAIL`` lanes are live, each of them is
    finished on its own by ``_finish``, in Python ints, which adds their
    stops to the batch before its last write.
    """
    stops = _Stops(r, q1, ell, center, flags)
    lane = queue[:WIDTH].copy()
    pending = queue[lane.size :]
    R = r[lane].astype(LANE)
    P = R.copy()
    Q = q1[lane].astype(LANE)
    Q_prev = np.ones_like(Q)
    top = np.zeros_like(Q)
    start = np.zeros(lane.size, np.int64)
    step = loaded = 0
    while pending.size or lane.size > TAIL:
        # No live lane started after round ``loaded``, the last refill.
        rounds = 1 if pending.size else _block_rounds(step - loaded, lane.size)
        if rounds > 1:
            live = lane, R, P, Q, Q_prev, top, start
            lane, R, P, Q, Q_prev, top, start = _block(live, step, rounds, stops)
            step += rounds
            continue
        a = _quotient(R + P, Q)
        np.maximum(top, a, out=top)
        P_next = a * Q - P
        Q_next = Q_prev + a * (P - P_next)
        step += 1
        even, odd = P_next == P, Q_next == Q
        stop = np.flatnonzero(even | odd | (Q_next == 1))
        P, Q, Q_prev = P_next, Q_next, Q
        if not stop.size:
            continue
        stops.add(lane[stop], even[stop], odd[stop], step - start[stop], a[stop],
                  top[stop] <= R[stop])
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
            start[fill] = loaded = step
        if stop.size:
            lane, R, P, Q, Q_prev, top, start = _drop(stop, (lane, R, P, Q, Q_prev, top, start))
    _finish((lane, R, P, Q, Q_prev, top, start), step, stops)
    stops.write()


def _drop(stop, arrays) -> list:
    """The walk's ``arrays`` without their slots ``stop`` (ascending).

    The live slots past the length that is kept move into the stopped slots
    before it, in place, and each array is cut to that length: a copy of at
    most ``stop.size`` values per array, where compacting the whole live set
    would copy all of it.  Lanes change slots, which no stop depends on.
    """
    n = len(arrays[0]) - stop.size
    cut = np.searchsorted(stop, n)
    live = np.ones(stop.size, bool)
    live[stop[cut:] - n] = False
    hole, move = stop[:cut], n + np.flatnonzero(live)
    for x in arrays:
        x[hole] = x[move]
    return [x[:n] for x in arrays]


def _block_rounds(walked: int, live: int) -> int:
    """Rounds in the next block of the drain.

    ``walked`` is at most the fewest rounds any of the ``live`` lanes has
    walked.  A lane walks at most a block's length past its centre, so a
    block of at most walked // 16 rounds keeps that extra work under 1/16 of
    the rounds the lane walked before it.  A block holds at most ``WIDTH``
    lane-rounds, so its rows take no more memory than one live set; a full
    live set steps one round at a time.
    """
    return max(1, min(walked // 16, WIDTH // live))


def _block(live, step, rounds, stops):
    """Step the lanes of ``_half_walk`` ``rounds`` rounds past round ``step``.

    ``live`` holds the walk's arrays (lane, R, P, Q, Q_prev, top, start).
    A block keeps U = R - P in place of P: since R + P_k = 2R - U_k =
    a_k Q_k + U_{k+1}, a_k = floor((2R - U_k) / Q_k), U_{k+1} =
    (2R - U_k) - a_k Q_k and Q_{k+1} = Q_{k-1} + a_k (U_{k+1} - U_k).
    Row j of the block holds every lane's quotient and next U and Q at
    round step + j + 1.  A lane's first row with a stop ends its walk: its
    stop record, added to the batch ``stops``, comes from that row and the
    rows before it.  The rows past it go on with the expansion, which never
    meets Q == 0 since d is not a square, and are ignored.  Returns the
    arrays of the lanes that did not stop.
    """
    lane, R, P, Q, Q_prev, top, start = live
    R2 = 2 * R
    a = np.empty((rounds, lane.size), LANE)
    U = np.empty((rounds + 1, lane.size), LANE)
    Qs = np.empty((rounds + 2, lane.size), LANE)
    U_k, Q_p, Q_k = U[0], Qs[0], Qs[1]
    np.subtract(R, P, out=U_k)
    Q_p[:], Q_k[:] = Q_prev, Q
    # A row's calls carry few lanes and cost mostly dispatch: local names
    # and positional outputs cut a row's time by about a sixth.
    sub, mul, add, quotient = np.subtract, np.multiply, np.add, _quotient
    for a_k, U_n, Q_n in zip(a, U[1:], Qs[2:]):
        sub(R2, U_k, U_n)
        quotient(U_n, Q_k, a_k)
        mul(a_k, Q_k, Q_n)
        sub(U_n, Q_n, U_n)
        sub(U_n, U_k, Q_n)
        mul(Q_n, a_k, Q_n)
        add(Q_n, Q_p, Q_n)
        U_k, Q_p, Q_k = U_n, Q_k, Q_n
    even = U[1:] == U[:-1]
    odd = Qs[2:] == Qs[1:-1]
    hit = even | odd | (Qs[2:] == 1)
    done = hit.any(axis=0)
    stop = np.flatnonzero(done)
    row = hit[:, stop].argmax(axis=0)
    peak = a.max(axis=0)
    peak[stop] = np.where(np.arange(rounds)[:, None] <= row, a[:, stop], 0).max(axis=0)
    np.maximum(top, peak, out=top)
    stops.add(lane[stop], even[row, stop], odd[row, stop], step + 1 + row - start[stop],
              a[row, stop], top[stop] <= R[stop])
    keep = ~done
    R = R[keep]
    return (lane[keep], R, R - U[rounds][keep], Qs[rounds + 1][keep],
            Qs[rounds][keep], top[keep], start[keep])


class _Stops:
    """The lanes of a half walk that stopped, written to the fact columns a
    batch at a time.

    Each ``add`` holds a record of stopped lanes: radicand positions ``at``,
    the masks ``even`` (P_{k+1} == P_k) and ``odd`` (Q_{k+1} == Q_k), the
    quotients walked k, the last quotient a and ``bound``, where F_BOUND
    holds.  Once the records hold a live set's worth (``WIDTH`` lanes), and
    at ``write``, they are written to ell, center and flags in one pass.
    Where both masks hold, the even centre wins, as in
    ``engine.half_period``.  A lane with neither stopped at Q_{k+1} == 1:
    ``write`` raises for the first such lane added.  The numpy rounds, the
    blocks and the scalar ``_finish`` all add their stops here, so ``write``
    is the walk's one writer of ell, center and F_BOUND, and its one
    missed-centre check.
    """

    def __init__(self, r, q1, ell, center, flags):
        self.r, self.q1, self.columns = r, q1, (ell, center, flags)
        self.records, self.size = [], 0

    def add(self, at, even, odd, k, a, bound) -> None:
        self.records.append((at, even, odd, k, a, bound))
        self.size += at.size
        if self.size >= WIDTH:
            self.write()

    def write(self) -> None:
        if not self.records:
            return
        at, even, odd, k, a, bound = map(np.concatenate, zip(*self.records))
        self.records, self.size = [], 0
        centred = even | odd
        if not centred.all():
            i = at[np.argmin(centred)]
            d = self.r[i] * self.r[i] + self.q1[i]
            raise InternalConsistencyError(f"period of sqrt({d}) ended without a centre")
        ell, center, flags = self.columns
        ell[at] = 2 * k + (odd & ~even)
        center[at] = np.where(even, a, -1)
        flags[at[bound]] |= F_BOUND


def _finish(live, step, stops) -> None:
    """Walk each lane of ``_half_walk`` to its stop, one at a time, and add
    the stops to the batch ``stops`` as one record.

    ``live`` holds the walk's arrays (lane, R, P, Q, Q_prev, top, start)
    after round ``step``.  Each lane goes on from its own state, in Python
    ints, to the first of the numpy rounds' stops; ``_Stops.write`` reads
    the lane's facts off its record, or raises for a missed centre.
    """
    record = []
    for i, R, P, Q, Q_prev, top, start in zip(*(x.astype(np.int64).tolist() for x in live)):
        k = step - start
        while True:
            a = (R + P) // Q
            if a > top:
                top = a
            P_next = a * Q - P
            Q_next = Q_prev + a * (P - P_next)
            k += 1
            if P_next == P or Q_next == Q or Q_next == 1:
                break
            P, Q, Q_prev = P_next, Q_next, Q
        record.append((i, P_next == P, Q_next == Q, k, a, top <= R))
    if record:
        stops.add(*map(np.array, zip(*record)))


def sweep_range(lo: int, hi: int):
    """Per-d expansion structure for lo <= d < hi.

    Returns (ell, a0, center, flags) int64/uint8 arrays.  Squares have ell 0,
    centre -1 and flags F_SQUARE; every other d has flags F_BOUND where its
    interior quotients are <= a0, else 0, and centre -1 for odd ell.
    """
    _check_range(lo, hi)
    d = np.arange(lo, hi, dtype=np.int64)
    a0 = _isqrt_vec(d)
    q1 = d - a0 * a0
    ell = (q1 == 1).astype(np.int64)
    center = np.full(d.size, -1, np.int64)
    flags = np.zeros(d.size, np.uint8)
    flags[q1 == 1] |= F_BOUND
    flags[q1 == 0] = F_SQUARE
    # Largest d first: periods grow like sqrt(d), so the lanes loaded last,
    # which the drain starts on, tend to be the shortest.
    _half_walk(a0, q1, np.flatnonzero(q1 > 1)[::-1], ell, center, flags)
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

    A prime p at least as wide as the window has at most one multiple in
    it, at offset (-lo) mod p when that is below the width, so all such
    primes are marked in one vectorised pass; only the narrower primes
    take a strided slice each.
    """
    _check_range(lo, hi)
    width = hi - lo
    d = np.arange(lo, hi, dtype=np.int64)
    odd_part = np.where(d % 2 == 0, d // 2, d)
    bad = (d == 1) | (d % 4 == 0) | (odd_part % 4 == 3)
    primes = _primes_upto(isqrt(max(hi - 1, 0)))
    primes = primes[primes % 4 == 3]
    wide = primes >= width
    first = -lo % primes[wide]
    bad[first[first < width]] = True
    for p in primes[~wide].tolist():
        bad[-lo % p :: p] = True
    return (~bad).astype(np.uint8)


__all__ = [
    "F_SQUARE",
    "F_BOUND",
    "F_OVERFLOW",
    "KERNEL_D_LIMIT",
    "LANE",
    "WIDTH",
    "TAIL",
    "backend_name",
    "sweep_range",
    "two_squares_range",
]
