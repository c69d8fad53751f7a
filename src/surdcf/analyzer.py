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
hold by construction in either; no source path checks them against a walked
word.  The test oracle ``conftest.sqrt_full_walk``, which walks whole
periods, is that check (``test_matches_per_d_oracle``).

``jobs`` must be at least 1 and is capped at the CPU count, and a range
splits into up to 4 * jobs chunks.  On the numpy kernel it splits into no
more than ceil(width / _kernels.WIDTH), so that a chunk fills the kernel's
live set where the range can: a chunk narrower than the live set never
refills its lanes, and drains from its first round, in blocks of rounds
over ever fewer lanes, until no more than ``_kernels.TAIL`` are live, which
the kernel finishes in scalar code.  The python backend, and ranges past
the kernels' int64 gate, keep the plain split.  ``period_stats`` maps the
same chunks, but builds only their sweep columns (ell and the square flags
make its histogram): no two-squares column and no claim.  The chunks run
through the package's one fan-out, ``_fanout.fan_out``: in-process at jobs 1
or for a single chunk, otherwise in one pool of min(jobs, chunks) processes.

Counterexamples are data: they are collected and reported, never asserted
away.  The classical facts are theorems, so a counterexample there means an
engine bug; the central-term parity claims are unproven observations and the
report carries a distinct status when instances violate them.

Counterexamples are kept as columns.  A chunk keeps, per claim, only its
failing rows: a ``d`` array and the claim's detail columns at those rows.
``check_claims`` concatenates each claim's columns once, in range order, and
no dict is built per row until a caller reads
``ClaimResult.counterexamples``.  ``write_json`` writes the report's JSON
from the columns, a block of rows at a time; its bytes are those of
``json.dumps(report.to_dict(), sort_keys=True)``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import _fanout, _kernels
from .engine import expand_sqrt, period_facts
from .exact import PRIME_TEST_LIMIT, DomainError, is_prime, is_square, isqrt, pollard_brent

CLAIM_PALINDROME = "palindrome"
CLAIM_TERMINAL = "terminal-2a0"
CLAIM_BOUND = "quotient-bound"
CLAIM_TWOSQ = "odd-period-two-squares"
CLAIM_TWOSQ_CONVERSE = "two-squares-odd-period-converse"
CLAIM_CENTER_LT = "center-lt-parity"
CLAIM_CENTER_EQM1 = "center-a0m1-parity"
CLAIM_CENTER_EQ = "center-a0-mod4"
CLAIM_CLASS = "center-class-coverage"

# The first four are classical theorems: a counterexample means an engine bug.
# The converse of the two-squares fact and the three central-term parity
# claims are printed observations; their counterexamples are findings, and
# the report carries them under a distinct status instead of failing.
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


# Trial divisors below this run with no primality test of the cofactor.
_TRIAL_ONLY = 1 << 10


def sum_two_coprime_squares(d: int) -> bool:
    """True iff d = a^2 + b^2 with a >= b >= 1 and gcd(a, b) = 1.

    By the criterion: d > 1 is such a sum iff 4 does not divide d and every
    odd prime factor of d is 1 (mod 4).  Trial division of the odd part
    stops at the first prime factor that is 3 (mod 4); the cofactor left
    above the square root is 1 or a prime.  Past the divisor _TRIAL_ONLY,
    a cofactor n that ``is_prime`` can test ends the search: it is split
    into primes by ``pollard_brent`` and ``is_prime``, and each prime is
    tested, so no large cofactor costs O(sqrt(n)) trial division.  A
    cofactor too large for ``is_prime`` is trial-divided on until a division
    brings it into range.  d = 1 (the b = 0 edge, gcd(1, 0) = 1) is admitted.
    """
    if d < 1:
        raise DomainError("sum_two_coprime_squares wants d >= 1")
    if d % 4 == 0:
        return False
    n = d >> 1 if d % 2 == 0 else d
    p, probe = 3, _TRIAL_ONLY
    while p * p <= n:
        if n % p == 0:
            if p % 4 == 3:
                return False
            n //= p
            while n % p == 0:
                n //= p
            probe = max(p, _TRIAL_ONLY)
        elif p >= probe:
            if n < PRIME_TEST_LIMIT:
                return all(q % 4 == 1 for q in _prime_factors(n))
            # No further test until a division changes n.
            probe = n
        p += 2
    return n % 4 != 3


def _prime_factors(n: int):
    """The prime factors of odd 1 < n < PRIME_TEST_LIMIT, with multiplicity.

    Each split is an exact division by a factor ``pollard_brent`` found.
    """
    parts = [n]
    while parts:
        m = parts.pop()
        if is_prime(m):
            yield m
        else:
            f = pollard_brent(m)
            parts += (f, m // f)


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
        return {
            "range": [self.d_min, self.d_max],
            "tested": self.tested,
            "skipped": self.skipped,
            "claims": [self.claims[cid].to_dict() for cid in CLAIM_IDS],
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
        }


# Counterexample rows that write_json formats per write.
WRITE_BLOCK = 4096


def write_json(report: StructReport, out) -> None:
    """Write ``json.dumps(report.to_dict(), sort_keys=True)`` to the text stream ``out``.

    The same bytes, built from the columns: keys sorted in every object,
    histogram keys as strings (so "10" sorts before "2"), booleans as
    true/false and period words as JSON lists.  Counterexample rows are
    formatted and written WRITE_BLOCK at a time, so the whole report never
    exists as one string.
    """
    out.write('{"claims": [')
    for n, cid in enumerate(CLAIM_IDS):
        c = report.claims[cid]
        out.write(', {"counterexamples": [' if n else '{"counterexamples": [')
        _write_rows(c.columns, out)
        out.write(f'], "id": {json.dumps(c.id)}, "status": "{c.status}", "tested": {c.tested}}}')
    hist = sorted((str(k), v) for k, v in report.histogram.items())
    out.write('], "histogram": {' + ", ".join(f'"{k}": {v}' for k, v in hist) + "}")
    out.write(f', "range": [{report.d_min}, {report.d_max}]'
              f', "skipped": {report.skipped}, "tested": {report.tested}}}')


def _write_rows(columns: dict[str, np.ndarray], out) -> None:
    """The rows of one claim's columns as comma-separated JSON objects.

    Values are ints, bools or lists of ints; ``str`` of an int or of a list
    of ints is already its JSON, so only the bool columns are mapped.
    """
    names = sorted(columns)
    template = "{" + ", ".join(f"{json.dumps(k)}: %s" for k in names) + "}"
    cols = [columns[k] for k in names]
    for start in range(0, len(cols[0]) if cols else 0, WRITE_BLOCK):
        block = [
            np.where(b, "true", "false").tolist() if b.dtype == bool else b.tolist()
            for b in (col[start:start + WRITE_BLOCK] for col in cols)
        ]
        rows = ", ".join(map(template.__mod__, zip(*block)))
        out.write(", " + rows if start else rows)


def _exact_columns(lo: int, hi: int) -> list[np.ndarray]:
    """The sweep columns (ell, a0, center, flags) of [lo, hi), exactly.

    They hold Python ints (object dtype): a0 fits in int64 far beyond the
    kernels' gate, but a0 * a0 would wrap.
    """
    rows = []
    for d in range(lo, hi):
        if is_square(d):
            rows.append((0, isqrt(d), -1, _kernels.F_SQUARE))
        else:
            cf = expand_sqrt(d)
            center, pal, term, bound = period_facts(cf)
            flags = _kernels.F_PAL * pal | _kernels.F_TERM * term | _kernels.F_BOUND * bound
            rows.append((cf.length, cf.a0, center, flags))
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
        # A detail is a chunk-wide column, or a function of the failing rows.
        result = report.claim(cid)
        result.tested = int(np.count_nonzero(tested))
        idx = np.flatnonzero(tested & failed)
        result.columns = {"d": d[idx]}
        for name, col in cols.items():
            result.columns[name] = col(idx) if callable(col) else col[idx]

    pal, term, bound = (
        (flags & bit) != 0 for bit in (_kernels.F_PAL, _kernels.F_TERM, _kernels.F_BOUND)
    )
    # The classical facts only fail on an engine or kernel bug; pull the
    # exact word so that the report is actionable.  Only the rows where one
    # of them fails get a word.
    broken = np.flatnonzero(live & ~(pal & term & bound))
    words = np.empty(len(broken), dtype=object)
    for j, i in enumerate(broken.tolist()):
        words[j] = list(expand_sqrt(lo + i).period)

    def period(idx):
        return words[np.searchsorted(broken, idx)]

    claim(CLAIM_PALINDROME, live, ~pal, period=period)
    claim(CLAIM_TERMINAL, live, ~term, period=period)
    claim(CLAIM_BOUND, live, ~bound, period=period, a0=a0)

    # Odd period length implies a coprime two-square splitting (theorem);
    # the printed converse is checked separately and does have exceptions
    # (the smallest is d = 34 = 3^2 + 5^2 with period length 4).
    twosq = live & twosq.astype(bool)
    odd = live & (ell % 2 == 1)
    even = live & (ell % 2 == 0)
    claim(CLAIM_TWOSQ, odd, ~twosq, ell=ell, two_squares=twosq)
    claim(CLAIM_TWOSQ_CONVERSE, twosq, even, ell=ell, two_squares=twosq)

    # Central-term claims, with the canonical split d = a0^2 + b.
    b = d - a0 * a0
    detail = dict(center=center, a0=a0, b=b, ell=ell)
    claim(CLAIM_CLASS, even & (center > a0), True, **detail)
    claim(CLAIM_CENTER_EQ, even & (center == a0), b % 4 != 2, **detail)
    # The parity claim for this class is stated for periods longer than 4.
    eqm1_ok = ((a0 % 2 == 1) & (b % 4 == 1)) | ((a0 % 2 == 0) & (b % 4 == 3))
    claim(CLAIM_CENTER_EQM1, even & (center == a0 - 1) & (ell > 4), ~eqm1_ok, **detail)
    lt_ok = ((center % 2 == 1) & (a0 % 2 == 0) & (b % 2 == 0)) | (
        (center % 2 == 0) & (a0 % 2 == 1) & (b % 2 == 1)
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


def _chunks(d_min: int, d_max: int, jobs: int, backend: str):
    span = d_max - d_min + 1
    kernel = backend == "numpy" and d_max < _kernels.KERNEL_D_LIMIT
    n = max(1, min(jobs * 4, -(-span // _kernels.WIDTH) if kernel else span))
    size = (span + n - 1) // n
    return [
        (lo, min(lo + size, d_max + 1), backend)
        for lo in range(d_min, d_max + 1, size)
    ]


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
    """``fn`` over the chunks of [d_min, d_max], in range order, through ``_fanout``,
    on no more processes than there are CPUs."""
    if d_min < 1 or d_max < d_min:
        raise DomainError("want 1 <= d_min <= d_max")
    if jobs < 1:
        raise DomainError("want jobs >= 1")
    jobs = min(jobs, os.cpu_count() or 1)
    chunks = _chunks(d_min, d_max, jobs, _kernels.backend_name(backend))
    return list(_fanout.fan_out(fn, chunks, jobs))


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
    "sum_two_coprime_squares",
    "write_json",
    "CLAIM_IDS",
]
