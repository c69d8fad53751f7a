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

A range splits into up to 4 * jobs chunks.  On the numpy kernel it splits
into no more than ceil(width / _kernels.WIDTH), so that a chunk fills the
kernel's live set where the range can: a chunk narrower than the live set
never refills its lanes, and pays its longest half period in rounds.  The
python backend, and ranges past the kernels' int64 gate, keep the plain
split.

Counterexamples are data: they are collected and reported, never asserted
away.  The classical facts are theorems, so a counterexample there means an
engine bug; the central-term parity claims are unproven observations and the
report carries a distinct status when instances violate them.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
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
    id: str
    tested: int = 0
    counterexamples: list[dict] = field(default_factory=list)

    @property
    def status(self) -> str:
        return "ok" if not self.counterexamples else "counterexamples"

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

    def merge(self, other: "StructReport") -> None:
        self.tested += other.tested
        self.skipped += other.skipped
        for cid in CLAIM_IDS:
            mine, theirs = self.claims[cid], other.claims[cid]
            mine.tested += theirs.tested
            mine.counterexamples.extend(theirs.counterexamples)
        for k, v in other.histogram.items():
            self.histogram[k] = self.histogram.get(k, 0) + v


def _exact_columns(lo: int, hi: int) -> list[np.ndarray]:
    """The fact columns (ell, a0, center, flags, twosq) of [lo, hi), exactly.

    They hold Python ints (object dtype): a0 fits in int64 far beyond the
    kernels' gate, but a0 * a0 would wrap.
    """
    rows = []
    for d in range(lo, hi):
        if is_square(d):
            rows.append((0, isqrt(d), -1, _kernels.F_SQUARE, False))
        else:
            cf = expand_sqrt(d)
            center, pal, term, bound = period_facts(cf)
            flags = _kernels.F_PAL * pal | _kernels.F_TERM * term | _kernels.F_BOUND * bound
            rows.append((cf.length, cf.a0, center, flags, sum_two_coprime_squares(d)))
    return [np.array(col, dtype=object) for col in zip(*rows)]


def _kernel_columns(lo: int, hi: int) -> list[np.ndarray]:
    """The same columns from the sweep kernels."""
    return [*_kernels.sweep_range(lo, hi), _kernels.two_squares_range(lo, hi)]


def _fold(lo, hi, ell, a0, center, flags, twosq) -> StructReport:
    """One chunk's report from its fact columns: one boolean mask per claim.

    Counterexample dicts are built only at failing rows, in d order.
    """
    report = StructReport(lo, hi - 1)
    d = np.arange(lo, hi, dtype=a0.dtype)
    live = (flags & _kernels.F_SQUARE) == 0
    report.tested = int(np.count_nonzero(live))
    report.skipped = hi - lo - report.tested
    lengths, counts = np.unique(ell[live], return_counts=True)
    report.histogram = dict(zip(lengths.tolist(), counts.tolist()))

    def claim(cid, tested, failed, **cols):
        result = report.claim(cid)
        result.tested = int(np.count_nonzero(tested))
        idx = np.flatnonzero(tested & failed)
        rows = zip(d[idx].tolist(), *(col[idx].tolist() for col in cols.values()))
        result.counterexamples = [dict(zip(("d", *cols), row)) for row in rows]

    pal, term, bound = (
        (flags & bit) != 0 for bit in (_kernels.F_PAL, _kernels.F_TERM, _kernels.F_BOUND)
    )
    # The classical facts only fail on an engine or kernel bug; pull the
    # exact word so that the report is actionable.
    period = np.empty(hi - lo, dtype=object)
    for i in np.flatnonzero(live & ~(pal & term & bound)).tolist():
        period[i] = list(expand_sqrt(lo + i).period)
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
    lo, hi, backend = args
    exact = backend == "python" or hi > _kernels.KERNEL_D_LIMIT
    return _fold(lo, hi, *(_exact_columns if exact else _kernel_columns)(lo, hi))


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
    depend on the parallelism degree.  ``backend`` is numpy or python (see
    ``_kernels.backend_name``); any other name raises ValueError.
    """
    if d_min < 1 or d_max < d_min:
        raise DomainError("want 1 <= d_min <= d_max")
    backend = _kernels.backend_name(backend)
    report = StructReport(d_min, d_max)
    chunks = _chunks(d_min, d_max, jobs, backend)
    if jobs <= 1 or len(chunks) == 1:
        parts = map(_claims_chunk, chunks)
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
            parts = list(pool.map(_claims_chunk, chunks))
    for part in parts:
        report.merge(part)
    return report


def period_stats(
    d_min: int, d_max: int, jobs: int = 1, backend: str | None = None
) -> dict[int, int]:
    """Histogram of period lengths over the range (squares skipped)."""
    report = check_claims(d_min, d_max, jobs=jobs, backend=backend)
    return dict(sorted(report.histogram.items()))


__all__ = [
    "ClaimResult",
    "StructReport",
    "check_claims",
    "period_stats",
    "sum_two_coprime_squares",
    "CLAIM_IDS",
]
