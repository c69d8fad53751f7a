"""Periodic continued fractions of quadratic surds, computed exactly.

The square-root case runs the classical (P, Q) step recurrences

    a_k = floor((a0 + P_k) / Q_k)
    P_{k+1} = a_k Q_k - P_k
    Q_{k+1} = (d - P_{k+1}^2) / Q_k

and terminates at the first Q_k = 1 with k >= 1, which is exactly one full
period.  General surds (P + sqrt(d))/Q detect their cycle by first repetition
of the (P, Q) state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .exact import DomainError, InternalConsistencyError, ResourceLimitError, is_square, isqrt


@dataclass(frozen=True)
class PeriodicCF:
    """Expansion of sqrt(d): integer part a0 plus one full period."""

    d: int
    a0: int
    period: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.period)

    def interior(self) -> tuple[int, ...]:
        """The palindromic part of the period (everything but the final 2*a0)."""
        return self.period[:-1]

    def as_list(self) -> list[int]:
        return [self.a0, *self.period]

    def __str__(self) -> str:
        inner = ",".join(str(a) for a in self.period)
        return f"[{self.a0}; {inner}]"


class CenterRelation(enum.Enum):
    LESS_THAN_A0_MINUS_1 = "lt-a0-1"
    EQUALS_A0_MINUS_1 = "eq-a0-1"
    EQUALS_A0 = "eq-a0"


@dataclass(frozen=True)
class CentralClass:
    """Central term of an even-length period and how it compares to a0.

    Odd-length periods have no central term: center and relation are None.
    """

    center: int | None
    relation: CenterRelation | None

    @property
    def has_center(self) -> bool:
        return self.center is not None


@dataclass(frozen=True)
class SurdState:
    """The complete-quotient state (P + sqrt(d)) / Q of an expansion step."""

    P: int
    Q: int
    d: int

    def __post_init__(self):
        if self.Q == 0:
            raise DomainError("surd denominator Q must be nonzero")
        if self.d <= 0 or is_square(self.d):
            raise DomainError(f"radicand must be a positive non-square, got {self.d}")

    @property
    def is_reduced_form(self) -> bool:
        return (self.d - self.P * self.P) % self.Q == 0

    def normalized(self) -> "SurdState":
        """Scale so Q divides d - P^2, keeping the represented value equal."""
        if self.is_reduced_form:
            return self
        q = abs(self.Q)
        return SurdState(self.P * q, self.Q * q, self.d * q * q)


class SurdExpansion(NamedTuple):
    preperiod: list[int]
    period: list[int]


def _check_sqrt_arg(d: int) -> int:
    if d <= 0:
        raise DomainError(f"radicand must be positive, got {d}")
    a0 = isqrt(d)
    if a0 * a0 == d:
        raise DomainError(f"{d} is a perfect square")
    return a0


def expand_sqrt(d: int) -> PeriodicCF:
    """Full periodic expansion of sqrt(d) for positive non-square d."""
    a0 = _check_sqrt_arg(d)
    period = []
    P, Q = a0, d - a0 * a0
    while True:
        a = (a0 + P) // Q
        period.append(a)
        if Q == 1:
            return PeriodicCF(d, a0, tuple(period))
        P = a * Q - P
        Q2, rem = divmod(d - P * P, Q)
        if rem:
            raise InternalConsistencyError(f"step left a remainder at d={d}")
        Q = Q2


def period_length(d: int) -> int:
    return expand_sqrt(d).length


class PeriodFacts(NamedTuple):
    """The structure facts of one period word w = (w_1..w_ell) of sqrt(d)."""

    center: int  # w_{ell/2} for even ell, -1 for odd ell
    palindrome: bool  # w_1..w_{ell-1} reads the same reversed
    terminal: bool  # w_ell == 2*a0
    bound: bool  # every w_i with i < ell is <= a0


def period_facts(cf: PeriodicCF) -> PeriodFacts:
    """Centre, palindrome, terminal and bound facts of an expansion's period."""
    inner = cf.interior()
    ell = cf.length
    return PeriodFacts(
        cf.period[ell // 2 - 1] if ell % 2 == 0 else -1,
        inner == inner[::-1],
        cf.period[-1] == 2 * cf.a0,
        all(a <= cf.a0 for a in inner),
    )


def central_class(d: int) -> CentralClass:
    """Central term of sqrt(d)'s period, or NoCenter for odd length."""
    cf = expand_sqrt(d)
    center = period_facts(cf).center
    if center < 0:
        return CentralClass(None, None)
    if center == cf.a0:
        rel = CenterRelation.EQUALS_A0
    elif center == cf.a0 - 1:
        rel = CenterRelation.EQUALS_A0_MINUS_1
    else:
        rel = CenterRelation.LESS_THAN_A0_MINUS_1
    return CentralClass(center, rel)


def _floor_quotient(P: int, Q: int, a0: int) -> int:
    """floor((P + sqrt(d)) / Q) with a0 = isqrt(d); exact for either sign of Q.

    sqrt(d) is irrational, so floor(P + sqrt(d)) = P + a0 and the value is
    never an exact integer; negative Q flips via floor(-x) = -floor(x) - 1.
    """
    num = P + a0
    if Q > 0:
        return num // Q
    return -(num // (-Q)) - 1


def expand_surd(state: SurdState, max_steps: int = 10**6) -> SurdExpansion:
    """Preperiod and period of a general quadratic surd (P + sqrt(d)) / Q.

    The state is normalized first if Q does not divide d - P^2.  Cycle
    detection is by first repetition of the (P, Q) state; purely periodic
    inputs come back with an empty preperiod.  Exhausting max_steps raises
    ResourceLimitError rather than truncating silently.
    """
    state = state.normalized()
    d = state.d
    a0 = isqrt(d)
    P, Q = state.P, state.Q
    seen: dict[tuple[int, int], int] = {}
    quotients: list[int] = []
    for step in range(max_steps):
        key = (P, Q)
        if key in seen:
            start = seen[key]
            return SurdExpansion(quotients[:start], quotients[start:])
        seen[key] = step
        a = _floor_quotient(P, Q, a0)
        quotients.append(a)
        P = a * Q - P
        Q2, rem = divmod(d - P * P, Q)
        if rem:
            raise InternalConsistencyError("normalized surd step left a remainder")
        Q = Q2
    raise ResourceLimitError(
        f"no period within {max_steps} steps for ({state.P}+sqrt({d}))/{state.Q}"
    )


def is_primitive_word(word: Sequence[int]) -> bool:
    """True unless the word is a whole number (>1) of copies of a shorter word."""
    n = len(word)
    for r in range(1, n):
        if n % r == 0 and all(word[i] == word[i % r] for i in range(n)):
            return False
    return True


__all__ = [
    "PeriodicCF",
    "CentralClass",
    "CenterRelation",
    "SurdState",
    "SurdExpansion",
    "PeriodFacts",
    "expand_sqrt",
    "expand_surd",
    "period_length",
    "central_class",
    "period_facts",
    "is_primitive_word",
]
