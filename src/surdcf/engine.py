"""Periodic continued fractions of quadratic surds, computed exactly.

The square-root case runs the classical (P, Q) step recurrences

    a_k = floor((a0 + P_k) / Q_k)
    P_{k+1} = a_k Q_k - P_k
    Q_{k+1} = (d - P_{k+1}^2) / Q_k

only as far as the centre of the period: the period is a palindrome followed
by 2*a0, so the second half is the first half mirrored.  ``_resume`` is the
one scalar loop that runs them, from any state, with the stop rules at the
centre.  It steps Q in the conserved form Q_{k+1} = Q_{k-1} + a_k (P_k -
P_{k+1}), which leaves P_{k+1}^2 + Q_k Q_{k+1} unchanged for any integer
a_k, so one check that it equals d before the loop stands for the division
of every step.  ``half_period`` walks it from the start for ``expand_sqrt``,
the family verifier and the analyzer's exact columns, and the numpy sweep
resumes it for its last lanes (``_kernels._finish``).  General surds
(P + sqrt(d))/Q detect their cycle by first repetition of the (P, Q) state.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
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

    def as_list(self) -> list[int]:
        """[a0, *period], the expansion as one list.

        Nothing in the package calls it: acceptance criterion 1 checks the
        golden expansions in this form.
        """
        return [self.a0, *self.period]

    def __str__(self) -> str:
        inner = ",".join(str(a) for a in self.period)
        return f"[{self.a0}; {inner}]"


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


def half_period(d: int) -> tuple[int, list[int], bool]:
    """The half walk of sqrt(d) for positive non-square d: (a0, half, odd).

    ``half`` is a_1..a_k, the quotients up to the centre of the period, and
    ``odd`` tells whether the centre is repeated: the period has length
    ell = 2k + odd.  For a period of length ell, P_k = P_{ell+1-k} and
    Q_k = Q_{ell-k} (Perron, Die Lehre von den Kettenbruechen), so the
    quotients a_1..a_{ell-1} read the same reversed and a_ell = 2*a0.
    ``_resume`` checks P_1^2 + Q_0 Q_1 == d and walks d from P_1 = a0,
    Q_1 = d - a0^2 and Q_0 = 1, unless Q_1 == 1 (d = a0^2 + 1): the period
    (2*a0,), an empty half with ``odd``.
    """
    a0 = _check_sqrt_arg(d)
    Q = d - a0 * a0
    half: list[int] = []
    return a0, half, Q == 1 or _resume(d, a0, a0, Q, 1, half)


def _resume(d: int, a0: int, P: int, Q: int, Q_prev: int, half: list[int]) -> bool:
    """Walk sqrt(d), a0 = isqrt(d), from (P_k, Q_k) and Q_{k-1}, k >= 1, to
    the centre; append a_k, a_{k+1}, ... to ``half`` and return ``odd``.

    * the first P_{k+1} == P_k means ell = 2k, and the period is
      a_1..a_k, a_{k-1}..a_1, 2*a0;
    * the first Q_{k+1} == Q_k means ell = 2k + 1, and the period is
      a_1..a_k, a_k..a_1, 2*a0.

    The Q step keeps P_{k+1}^2 + Q_k Q_{k+1} = P_k^2 + Q_{k-1} Q_k for any
    integer a_k, since a_k Q_k = P_k + P_{k+1}: so if the state handed in
    has P^2 + Q_prev Q == d, every Q_k divides d - P_{k+1}^2.  If it has
    not, InternalConsistencyError is raised before the first quotient, and
    likewise if Q == 1 comes before either centre.
    """
    if P * P + Q_prev * Q != d:
        raise InternalConsistencyError(f"step left a remainder at d={d}")
    append = half.append
    while True:
        a = (a0 + P) // Q
        append(a)
        P1 = a * Q - P
        Q1 = Q_prev + a * (P - P1)
        if P1 == P or Q1 == Q or Q1 == 1:
            break
        Q_prev, P, Q = Q, P1, Q1
    if P1 != P and Q1 != Q:
        raise InternalConsistencyError(f"period of sqrt({d}) ended without a centre")
    return P1 != P


def mirror(a0: int, half: list[int], odd: bool) -> list[int]:
    """The whole period that the half walk (a0, half, odd) stands for.

    It is built onto ``half`` in place, which is returned.
    """
    # Mirror in place from a reverse iterator, which is fixed to the walked
    # half when it is made.  A reversed slice or a tuple grown from a chain
    # raised peak memory by about 16% over repeated long-period calls.
    half.extend(reversed(half) if odd else islice(reversed(half), 1, None))
    half.append(2 * a0)
    return half


def expand_sqrt(d: int) -> PeriodicCF:
    """Full periodic expansion of sqrt(d) for positive non-square d: the
    half walk (``half_period``), mirrored."""
    a0, half, odd = half_period(d)
    return PeriodicCF(d, a0, tuple(mirror(a0, half, odd)))


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
    for r in range(1, n // 2 + 1):
        # With r dividing n, shifting by r fixes the word iff it repeats.
        if n % r == 0 and word[r:] == word[:-r]:
            return False
    return True


__all__ = [
    "PeriodicCF",
    "SurdState",
    "SurdExpansion",
    "expand_sqrt",
    "half_period",
    "mirror",
    "expand_surd",
    "is_primitive_word",
]
