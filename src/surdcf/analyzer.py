"""Empirical structure harness over ranges of radicands.

For every non-square d in a range this checks the classical period facts
(palindrome interior, terminal quotient 2*a0, interior quotient bound, and
odd period length iff d is a sum of two coprime squares) and evaluates the
three central-term parity claims, one per central-term class.

Each chunk of the range first becomes fact columns (ell, a0, center, flags,
twosq): from the numpy kernels, or from the exact engine for the python
backend and for radicands past the kernels' int64 gate.  One fold turns the
columns into a report, with one boolean mask per claim, whichever source
filled them.  Both sources walk sqrt(d) only to the centre of its period
and take the rest as the mirror image, so the palindrome and terminal facts
hold by construction in either: no flag records them, and the fold counts
both claims with no failing row.  The test oracle ``conftest.sqrt_full_walk``
checks them on whole periods (``test_matches_per_d_oracle``).

``jobs`` must be at least 1 and is capped at the CPU count.  ``_chunks``
sizes a range's pool by its estimated work, against the measured crossover
of the engine that fills its columns (the numpy kernel, or the exact
engine): a range too small to pay for a pool gets one worker.  The range
splits into equal widths, the fewest that ``CHUNK_MAX`` allows, times the
workers; a range narrower than that cap and too small for a pool is one
chunk, run in-process.  ``CHUNK_MAX`` bounds the columns a chunk holds.  A
kernel chunk wider than the kernel's live set refills its lanes as they
reach their centres; each chunk drains once, in blocks of rounds over ever
fewer lanes, until no more than ``_kernels.TAIL`` are live, which the
kernel finishes in scalar code.  ``period_stats`` maps the same chunks,
but builds only their sweep columns (ell and the square flags make its
histogram): no two-squares column and no claim.  ``_map_chunks`` runs the
chunks in range order: in-process at jobs 1 or for a single chunk, otherwise
in one ``ProcessPoolExecutor`` of min(jobs, chunks) processes, the package's
only pool, whose module is imported only when it opens.  The family verifier
and the miner run in the calling process.

Counterexamples are data, reported and never asserted away: each claim
reports ``ok`` or ``counterexamples``, and ``analyze`` exits 0 either way.  The classical facts, ``center-a0-mod4`` and
``center-a0m1-parity`` (the last two proven in ``_fold``) are theorems, so
a counterexample there means an engine bug; the two-squares converse and
``center-lt-parity`` are printed observations with counterexamples.

Counterexamples are kept as columns.  A chunk keeps, per claim, only its
failing rows: a ``d`` array and the claim's detail columns at those rows.
``check_claims`` concatenates each claim's columns once, in range order, and
no dict is built per row until a caller reads
``ClaimResult.counterexamples``.  ``write_json`` writes the report's JSON
from the columns, a block of rows at a time, through the package's one row
formatter, ``_jsontext``; its bytes are those of
``json.dumps(report.to_dict(), sort_keys=True)``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import _jsontext, _kernels
from ._jsontext import WRITE_BLOCK
from .engine import expand_sqrt, half_period
from .exact import DomainError, is_square, isqrt, sum_two_coprime_squares

CLAIM_PALINDROME = "palindrome"
CLAIM_TERMINAL = "terminal-2a0"
CLAIM_BOUND = "quotient-bound"
CLAIM_TWOSQ = "odd-period-two-squares"
CLAIM_TWOSQ_CONVERSE = "two-squares-odd-period-converse"
CLAIM_CENTER_LT = "center-lt-parity"
CLAIM_CENTER_EQM1 = "center-a0m1-parity"
CLAIM_CENTER_EQ = "center-a0-mod4"
CLAIM_CLASS = "center-class-coverage"

# Theorems, where a counterexample means an engine bug: the first four, and
# center-a0-mod4 and center-a0m1-parity (proven in ``_fold``).  The converse
# and center-lt-parity are observations; the class coverage holds by the
# bound fact.  This order is the output order.
CLAIM_IDS = [
    CLAIM_PALINDROME,
    CLAIM_TERMINAL,
    CLAIM_BOUND,
    CLAIM_TWOSQ,
    CLAIM_TWOSQ_CONVERSE,
    CLAIM_CENTER_LT,
    CLAIM_CENTER_EQM1,
    CLAIM_CENTER_EQ,
    CLAIM_CLASS,
]


@dataclass
class ClaimResult:
    """One claim over a range: how many radicands it tested, and where it failed.

    ``columns`` holds the failing rows only, in d order: "d" first, then the
    claim's detail names, each an array with one entry per counterexample.
    ``counterexamples`` builds the row dicts from them on each access; ``count``
    reads the number of rows without building any.
    """

    id: str
    tested: int = 0
    columns: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.columns["d"]) if self.columns else 0

    @property
    def counterexamples(self) -> list[dict]:
        names = list(self.columns)
        rows = zip(*(col.tolist() for col in self.columns.values()))
        return [dict(zip(names, row)) for row in rows]

    @property
    def status(self) -> str:
        return "ok" if not self.count else "counterexamples"

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "tested": self.tested,
            "status": self.status,
            "counterexamples": self.counterexamples,
        }


@dataclass
class StructReport:
    d_min: int
    d_max: int
    tested: int = 0
    skipped: int = 0
    claims: dict[str, ClaimResult] = field(
        default_factory=lambda: {cid: ClaimResult(cid) for cid in CLAIM_IDS}
    )
    histogram: dict[int, int] = field(default_factory=dict)

    def claim(self, cid: str) -> ClaimResult:
        return self.claims[cid]

    def to_dict(self) -> dict:
        """No package code calls it: acceptance criterion 7 reads it, and the
        tests check ``write_json``'s bytes against it."""
        return {
            "range": [self.d_min, self.d_max],
            "tested": self.tested,
            "skipped": self.skipped,
            "claims": [self.claims[cid].to_dict() for cid in CLAIM_IDS],
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
        }


def write_json(report: StructReport, out) -> None:
    """Write ``json.dumps(report.to_dict(), sort_keys=True)`` to the text stream ``out``.

    The same bytes, built from the columns: keys sorted in every object,
    histogram keys as strings (so "10" sorts before "2"), booleans as
    true/false and period words as JSON lists.  Counterexample rows are
    formatted by ``_jsontext`` and written WRITE_BLOCK at a time, so the
    whole report never exists as one string.
    """
    out.write('{"claims": [')
    for n, cid in enumerate(CLAIM_IDS):
        c = report.claims[cid]
        out.write(', {"counterexamples": [' if n else '{"counterexamples": [')
        _jsontext.write_rows(out, c.count, WRITE_BLOCK,
                             lambda rows: {k: col[rows] for k, col in c.columns.items()}, sep=", ")
        out.write(f'], "id": {json.dumps(c.id)}, "status": "{c.status}", "tested": {c.tested}}}')
    hist = sorted((str(k), v) for k, v in report.histogram.items())
    out.write('], "histogram": {' + ", ".join(f'"{k}": {v}' for k, v in hist) + "}")
    out.write(f', "range": [{report.d_min}, {report.d_max}]'
              f', "skipped": {report.skipped}, "tested": {report.tested}}}')


def _exact_columns(lo: int, hi: int) -> list[np.ndarray]:
    """The sweep columns (ell, a0, center, flags) of [lo, hi), exactly.

    Each radicand's are read off its half walk (``engine.half_period``):
    ell is 2k + odd for a half of k quotients, the centre is the last of
    them for even ell, and the bound fact is "largest walked quotient <= a0".
    The palindrome and terminal facts hold by construction of the mirror.
    The columns hold Python ints (object dtype): a0 fits in int64 far
    beyond the kernels' gate, but a0 * a0 would wrap.
    """
    rows = []
    for d in range(lo, hi):
        if is_square(d):
            rows.append((0, isqrt(d), -1, _kernels.F_SQUARE))
        else:
            a0, half, odd = half_period(d)
            bound = _kernels.F_BOUND if max(half, default=0) <= a0 else 0
            rows.append((2 * len(half) + odd, a0, -1 if odd else half[-1], bound))
    return [np.array(col, dtype=object) for col in zip(*rows)]


def _is_exact(hi: int, backend: str) -> bool:
    """A chunk below ``hi`` takes the exact columns: on the python backend,
    and past the kernels' int64 gate."""
    return backend == "python" or hi > _kernels.KERNEL_D_LIMIT


def _histogram(ell: np.ndarray, live: np.ndarray) -> dict[int, int]:
    """Period length -> count over the rows where ``live`` holds."""
    lengths, counts = np.unique(ell[live], return_counts=True)
    return dict(zip(lengths.tolist(), counts.tolist()))


def _fold(lo, hi, ell, a0, center, flags, twosq) -> StructReport:
    """One chunk's report from its fact columns: one boolean mask per claim.

    Each claim keeps the d and detail columns at its failing rows, in d order.
    """
    report = StructReport(lo, hi - 1)
    d = np.arange(lo, hi, dtype=a0.dtype)
    live = (flags & _kernels.F_SQUARE) == 0
    report.tested = int(np.count_nonzero(live))
    report.skipped = hi - lo - report.tested
    report.histogram = _histogram(ell, live)

    def claim(cid, tested, failed, **cols):
        # Count ``cid`` over ``tested``; keep d and the detail columns at the
        # rows where it fails, and return them.
        result = report.claim(cid)
        result.tested = int(np.count_nonzero(tested))
        idx = np.flatnonzero(tested & failed)
        result.columns = {"d": d[idx], **{name: col[idx] for name, col in cols.items()}}
        return result.columns

    # Either source mirrors its half walk, so the palindrome and terminal
    # facts hold by construction: counted, they never fail.
    claim(CLAIM_PALINDROME, live, False)
    claim(CLAIM_TERMINAL, live, False)
    # The bound fact only fails on an engine or kernel bug; its failing rows
    # get the exact word, so that the report is actionable.
    unbound = claim(CLAIM_BOUND, live, (flags & _kernels.F_BOUND) == 0, a0=a0)
    words = np.empty(len(unbound["d"]), dtype=object)
    for j, n in enumerate(unbound["d"].tolist()):
        words[j] = list(expand_sqrt(n).period)
    unbound["period"] = words

    # Odd period length implies a coprime two-square splitting (theorem);
    # the printed converse is checked separately and does have exceptions
    # (the smallest is d = 34 = 3^2 + 5^2 with period length 4).
    twosq = live & twosq.astype(bool)
    odd = live & (ell & 1 == 1)
    even = live & (ell & 1 == 0)
    claim(CLAIM_TWOSQ, odd, ~twosq, ell=ell, two_squares=twosq)
    claim(CLAIM_TWOSQ_CONVERSE, twosq, even, ell=ell, two_squares=twosq)

    # Central-term claims, with the canonical split d = a0^2 + b.  Two are
    # theorems.  Let the k-th complete quotient be (P_k + sqrt(d)) / Q_k:
    # P_0 = 0, Q_0 = 1, P_{k+1} = a_k Q_k - P_k, Q_{k+1} Q_k = d - P_{k+1}^2.
    # For k >= 1, 0 < P_k <= a0, and Q_k >= 1 with Q_k = 1 only where ell
    # divides k.  At the centre k = ell / 2 of an even period, with c = a_k,
    # P_{k+1} = P_k, so 2 P_k = c Q_k and d = P_k^2 + Q_k Q_{k-1}.  And
    # gcd(Q_{k-1}, 2 P_k, Q_k) = 1 (the form (Q_{k-1}, 2 P_k, -Q_k) is
    # primitive): so at k = 1, and a common divisor of Q_k, 2 P_{k+1} =
    # 2 a_k Q_k - 2 P_k and Q_{k+1} = Q_{k-1} + a_k (2 P_k - a_k Q_k)
    # divides 2 P_k and Q_{k-1}, the triple one step before.
    # center-a0-mod4: c = a0 gives a0 Q_k = 2 P_k <= 2 a0, so Q_k = 2 (not
    # 1), P_k = a0 and b = 2 Q_{k-1}, with Q_{k-1} odd by the gcd: b = 2 mod 4.
    # center-a0m1-parity: c = a0 - 1 and a0 >= 4 give Q_k <= 2a0 / (a0 - 1)
    # < 3, so Q_k = 2, P_k = a0 - 1, Q_{k-1} is odd, and b = 2 Q_{k-1} -
    # 2 a0 + 1 is 1 (mod 4) for odd a0, 3 for even.  a0 <= 3 means d <= 15,
    # where no even period is longer than 4, so ell > 4 leaves a0 >= 4; it
    # drops d = 8 and 12 (ell 2, Q_k = 4 and 3).
    b = d - a0 * a0
    detail = dict(center=center, a0=a0, b=b, ell=ell)
    claim(CLAIM_CLASS, even & (center > a0), True, **detail)
    claim(CLAIM_CENTER_EQ, even & (center == a0), b & 3 != 2, **detail)
    # The parity claim for this class is stated for periods longer than 4.
    eqm1_ok = ((a0 & 1 == 1) & (b & 3 == 1)) | ((a0 & 1 == 0) & (b & 3 == 3))
    claim(CLAIM_CENTER_EQM1, even & (center == a0 - 1) & (ell > 4), ~eqm1_ok, **detail)
    lt_ok = ((center & 1 == 1) & (a0 & 1 == 0) & (b & 1 == 0)) | (
        (center & 1 == 0) & (a0 & 1 == 1) & (b & 1 == 1)
    )
    claim(CLAIM_CENTER_LT, even & (center < a0 - 1), ~lt_ok, **detail)
    return report


def _claims_chunk(args) -> StructReport:
    """One chunk's report: its sweep columns, its two-squares column, the fold."""
    lo, hi, backend = args
    if _is_exact(hi, backend):
        cols = _exact_columns(lo, hi)
        twosq = np.array(
            [not (f & _kernels.F_SQUARE) and sum_two_coprime_squares(d)
             for d, f in zip(range(lo, hi), cols[3].tolist())],
            dtype=object,
        )
    else:
        cols = _kernels.sweep_range(lo, hi)
        twosq = _kernels.two_squares_range(lo, hi)
    return _fold(lo, hi, *cols, twosq)


def _histogram_chunk(args) -> dict[int, int]:
    """One chunk's period-length histogram, from its ell and square flags only."""
    lo, hi, backend = args
    ell, _, _, flags = (_exact_columns if _is_exact(hi, backend) else _kernels.sweep_range)(lo, hi)
    return _histogram(ell, (flags & _kernels.F_SQUARE) == 0)


# Estimated work (W, see ``_chunks``) that each pool worker must get before
# a pool pays, on the numpy kernel.  Opening a pool of two, mapping two
# no-op tasks and shutting it down takes about 7.5 ms.
# ``cli.main`` running ``analyze --jobs 2``
# in-process, one chunk against two equal-width chunks in a pool of two,
# medians of 15 alternating runs (2 CPUs, Python 3.11, numpy 2.4):
#
#     range          W       one chunk   two chunks   one faster
#     5e7..+999      7.1e6   87 ms       89 ms        12 of 15
#     2..50000       1.1e7   90 ms       101 ms       15 of 15
#     2..100000      3.2e7   179 ms      163 ms       7 of 15
#     1e7..+19999    6.3e7   284 ms      216 ms       0 of 15
#
# Two workers pay from about W = 3e7, so 2^24 (1.7e7) for each.  Only a
# pool of two on 2 CPUs was measured: that each further worker pays at
# another 2^24 is an extrapolation, unverified for larger pools, whose
# start-up and shut-down cost grows with their size.
POOL_MIN_WORK = 1 << 24

# The widest chunk on the numpy kernel, in radicands: 16 live sets.  It
# bounds the columns that one chunk builds and holds at once.  Chunks are
# not cut much narrower than they must be, because each chunk drains its
# lanes once: below 1e8 one 262,144-wide chunk swept in 4.4 s, and the same
# radicands in 8,948-wide chunks took 7.9 s; ``check_claims(2, 10**6)``
# took 1.68 s in 4 chunks and 1.93 s in 8 (medians of 10, in-process).
# The widest chunk sets the peak memory of a run in-process: 2..10^6 peaked
# at 85.1 MB with chunks up to 2^17 wide, 89.0 MB up to 250,000 and
# 91.9 MB up to 2^18.
CHUNK_MAX = 16 * _kernels.WIDTH

# POOL_MIN_WORK for the exact engine (the python backend, and ranges past
# the kernels' gate), which spends far more per quotient than the kernel.
# ``cli.main`` running ``analyze --kernel python --jobs 2`` in-process, one
# chunk against two equal-width chunks in a pool of two, medians of 31
# alternating runs (2 CPUs, Python 3.11, numpy 2.4), with the columns read
# off the half walk:
#
#     range          W       one chunk   two chunks   one faster
#     2..3000        1.6e5   18.6 ms     29.2 ms      30 of 31
#     2..4500        3.0e5   30.7 ms     38.3 ms      27 of 31
#     2..5200        3.7e5   46.6 ms     46.1 ms      14 of 31
#     2..6000        4.6e5   38.6 ms     44.6 ms      19 of 31
#     1e6..+499      5.0e5   28.8 ms     34.0 ms      27 of 31
#     2..7000        5.8e5   46.3 ms     45.8 ms      14 of 31
#     5e7..+99       7.1e5   31.1 ms     36.9 ms      16 of 31
#     1e6..+999      1.0e6   59.5 ms     55.2 ms      13 of 31
#
# Two workers pay from about W = 5e5, so 2^18 (2.6e5) for each; larger
# pools are extrapolated, as for POOL_MIN_WORK.  The host was shared, and
# medians moved by up to 2x between repeated tables; in each of them one
# chunk was the faster at W = 3e5 and two were at W = 1e6.
EXACT_POOL_MIN_WORK = 1 << 18


def _chunks(d_min: int, d_max: int, jobs: int, backend: str):
    """The (lo, hi, backend) tasks of [d_min, d_max]: equal widths, in order.

    The count follows the estimated work.  A period of sqrt(d) is about
    sqrt(d) quotients long, so [d_min, d_max] costs about the sum of
    sqrt(d), which W = span * isqrt(d_max) bounds from above.
    ``min(jobs, W // min_work)`` workers share it, at least one, where
    min_work is ``POOL_MIN_WORK`` on the numpy kernel and
    ``EXACT_POOL_MIN_WORK`` on the exact engine (the python backend, and
    ranges past the kernels' gate): a range too small to pay for a pool is
    one chunk, run in-process.  Each worker gets the fewest equal widths
    that ``CHUNK_MAX`` allows, since each kernel chunk drains its lanes once.
    """
    span = d_max - d_min + 1
    min_work = EXACT_POOL_MIN_WORK if _is_exact(d_max + 1, backend) else POOL_MIN_WORK
    workers = max(1, min(jobs, span * isqrt(d_max) // min_work))
    n = min(span, workers * -(-span // CHUNK_MAX))
    size = -(-span // n)
    return [(lo, min(lo + size, d_max + 1), backend) for lo in range(d_min, d_max + 1, size)]


def check_claims(
    d_min: int, d_max: int, jobs: int = 1, backend: str | None = None
) -> StructReport:
    """Evaluate every structure claim for each non-square d in [d_min, d_max].

    Parity claims use the canonical split d = a^2 + b with a = isqrt(d).
    Deterministic: chunk results merge in range order, so output does not
    depend on the parallelism degree.  ``jobs`` below 1 raises DomainError.
    ``backend`` is numpy or python (see ``_kernels.backend_name``); any other
    name raises ValueError.
    """
    parts = _map_chunks(_claims_chunk, d_min, d_max, jobs, backend)
    return _merge(StructReport(d_min, d_max), parts)


def _map_chunks(fn, d_min: int, d_max: int, jobs: int, backend: str | None) -> list:
    """``fn`` over the chunks of [d_min, d_max], in range order, on no more
    processes than there are CPUs (or in-process, at jobs 1 or for one chunk)."""
    if d_min < 1 or d_max < d_min:
        raise DomainError("want 1 <= d_min <= d_max")
    if jobs < 1:
        raise DomainError("want jobs >= 1")
    jobs = min(jobs, os.cpu_count() or 1)
    chunks = _chunks(d_min, d_max, jobs, _kernels.backend_name(backend))
    if jobs == 1 or len(chunks) <= 1:
        return list(map(fn, chunks))
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
        return list(pool.map(fn, chunks))


def _merge(report: StructReport, parts: list[StructReport]) -> StructReport:
    """Sum the chunk reports into ``report``, in range order.

    Each claim's columns are concatenated once; the parts' columns are
    dropped claim by claim, so that no more than one claim is held twice.
    """
    for part in parts:
        report.tested += part.tested
        report.skipped += part.skipped
        for k, v in part.histogram.items():
            report.histogram[k] = report.histogram.get(k, 0) + v
    for cid in CLAIM_IDS:
        mine, theirs = report.claims[cid], [part.claims[cid] for part in parts]
        mine.tested = sum(t.tested for t in theirs)
        mine.columns = {
            name: np.concatenate([t.columns[name] for t in theirs])
            for name in theirs[0].columns
        }
        for t in theirs:
            t.columns = {}
    return report


def period_stats(
    d_min: int, d_max: int, jobs: int = 1, backend: str | None = None
) -> dict[int, int]:
    """Histogram of period lengths over the range (squares skipped).

    The chunks and backends of ``check_claims``, but only the sweep columns
    are built: no two-squares test and no claim.
    """
    total: dict[int, int] = {}
    for part in _map_chunks(_histogram_chunk, d_min, d_max, jobs, backend):
        for k, v in part.items():
            total[k] = total.get(k, 0) + v
    return dict(sorted(total.items()))


__all__ = [
    "ClaimResult",
    "StructReport",
    "check_claims",
    "period_stats",
    "write_json",
    "CLAIM_IDS",
]
