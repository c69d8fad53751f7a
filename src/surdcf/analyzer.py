"""Empirical structure harness over ranges of radicands.

For every non-square d in a range this checks the classical period facts
(palindrome interior, terminal quotient 2*a0, interior quotient bound, and
odd period length iff d is a sum of two coprime squares) and evaluates the
three central-term parity claims, one per central-term class.

Counterexamples are data: they are collected and reported, never asserted
away.  The classical facts are theorems, so a counterexample there means an
engine bug; the central-term parity claims are unproven observations and the
report carries a distinct status when instances violate them.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import gcd

from . import _kernels
from .engine import expand_sqrt
from .exact import DomainError, is_square, isqrt

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


def sum_two_coprime_squares(d: int) -> bool:
    """True iff d = a^2 + b^2 with a >= b >= 1 and gcd(a, b) = 1.

    Brute force over b <= sqrt(d/2).  The b = 0 edge is admitted only for
    d = 1 (gcd(1, 0) = 1).
    """
    if d < 1:
        raise DomainError("sum_two_coprime_squares wants d >= 1")
    if d == 1:
        return True
    b = 1
    while 2 * b * b <= d:
        rest = d - b * b
        a = isqrt(rest)
        if a * a == rest and gcd(a, b) == 1:
            return True
        b += 1
    return False


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


def _record(report, d, ell, a0, center, pal_ok, term_ok, bound_ok, twosq, word=None):
    """Fold one expansion's structure facts into a chunk report."""
    report.tested += 1
    report.histogram[ell] = report.histogram.get(ell, 0) + 1
    b = d - a0 * a0

    def fail(cid, **extra):
        cex = {"d": d}
        cex.update(extra)
        report.claim(cid).counterexamples.append(cex)

    report.claim(CLAIM_PALINDROME).tested += 1
    if not pal_ok:
        fail(CLAIM_PALINDROME, period=word)
    report.claim(CLAIM_TERMINAL).tested += 1
    if not term_ok:
        fail(CLAIM_TERMINAL, period=word)
    report.claim(CLAIM_BOUND).tested += 1
    if not bound_ok:
        fail(CLAIM_BOUND, period=word, a0=a0)
    # Odd period length implies a coprime two-square splitting (theorem);
    # the printed converse is checked separately and does have exceptions
    # (the smallest is d = 34 = 3^2 + 5^2 with period length 4).
    if ell % 2 == 1:
        report.claim(CLAIM_TWOSQ).tested += 1
        if not twosq:
            fail(CLAIM_TWOSQ, ell=ell, two_squares=False)
    if twosq:
        report.claim(CLAIM_TWOSQ_CONVERSE).tested += 1
        if ell % 2 == 0:
            fail(CLAIM_TWOSQ_CONVERSE, ell=ell, two_squares=True)

    if ell % 2 == 1:
        return
    detail = dict(center=center, a0=a0, b=b, ell=ell)
    if center > a0:
        report.claim(CLAIM_CLASS).tested += 1
        fail(CLAIM_CLASS, **detail)
    elif center == a0:
        report.claim(CLAIM_CENTER_EQ).tested += 1
        if b % 4 != 2:
            fail(CLAIM_CENTER_EQ, **detail)
    elif center == a0 - 1:
        # The parity claim for this class is stated for periods longer than 4.
        if ell > 4:
            report.claim(CLAIM_CENTER_EQM1).tested += 1
            ok = (a0 % 2 == 1 and b % 4 == 1) or (a0 % 2 == 0 and b % 4 == 3)
            if not ok:
                fail(CLAIM_CENTER_EQM1, **detail)
    else:
        report.claim(CLAIM_CENTER_LT).tested += 1
        ok = (center % 2 == 1 and a0 % 2 == 0 and b % 2 == 0) or (
            center % 2 == 0 and a0 % 2 == 1 and b % 2 == 1
        )
        if not ok:
            fail(CLAIM_CENTER_LT, **detail)


def _expansion_facts(d: int):
    cf = expand_sqrt(d)
    word = list(cf.period)
    ell = cf.length
    inner = word[:-1]
    pal = inner == inner[::-1]
    term = word[-1] == 2 * cf.a0
    bound = all(a <= cf.a0 for a in inner)
    center = word[ell // 2 - 1] if ell % 2 == 0 else -1
    return cf.a0, ell, center, pal, term, bound, word


def _claims_chunk(args) -> StructReport:
    lo, hi, backend = args
    report = StructReport(lo, hi - 1)
    if backend == "python" or hi > _kernels.KERNEL_D_LIMIT:
        for d in range(lo, hi):
            if is_square(d):
                report.skipped += 1
                continue
            a0, ell, center, pal, term, bound, word = _expansion_facts(d)
            twosq = sum_two_coprime_squares(d)
            _record(report, d, ell, a0, center, pal, term, bound, twosq, word)
        return report

    ell_a, a0_a, center_a, flags_a = _kernels.sweep_range(lo, hi)
    twosq_a = _kernels.two_squares_range(lo, hi)
    for i in range(hi - lo):
        d = lo + i
        flags = int(flags_a[i])
        if flags & _kernels.F_SQUARE:
            report.skipped += 1
            continue
        if flags & _kernels.F_OVERFLOW:
            a0, ell, center, pal, term, bound, word = _expansion_facts(d)
            _record(report, d, ell, a0, center, pal, term, bound, bool(twosq_a[i]), word)
            continue
        pal = bool(flags & _kernels.F_PAL)
        term = bool(flags & _kernels.F_TERM)
        bound = bool(flags & _kernels.F_BOUND)
        word = None
        if not (pal and term and bound):
            # Classical facts only fail if the kernel and engine disagree;
            # pull the exact word so the report is actionable.
            word = list(expand_sqrt(d).period)
        _record(
            report,
            d,
            int(ell_a[i]),
            int(a0_a[i]),
            int(center_a[i]),
            pal,
            term,
            bound,
            bool(twosq_a[i]),
            word,
        )
    return report


def _chunks(d_min: int, d_max: int, jobs: int, backend: str):
    span = d_max - d_min + 1
    n = max(1, min(jobs * 4, span))
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
        with ProcessPoolExecutor(max_workers=jobs) as pool:
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
