"""Exact integer and rational foundations.

Everything in this package runs on unbounded Python integers; no floating
point enters any computation whose result is asserted exact.  Rationals are
``fractions.Fraction`` (aliased ``Rat``), which already guarantees the
reduced-form invariant (gcd(num, den) = 1, den > 0) on construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

Rat = Fraction


class DomainError(ValueError):
    """Input outside an operation's mathematical domain."""


class ResourceLimitError(RuntimeError):
    """A bounded iteration ran out of budget; diagnostic, never silent."""


class InternalConsistencyError(RuntimeError):
    """An identity that must hold by construction failed; indicates a bug."""


class RationalValueError(DomainError):
    """A continued fraction turned out to denote a rational, not a surd."""


def isqrt(n: int) -> int:
    """Floor of the square root: r*r <= n < (r+1)*(r+1)."""
    if n < 0:
        raise DomainError(f"isqrt of negative value {n}")
    return math.isqrt(n)


def is_square(n: int) -> bool:
    """True iff n is a perfect square (negatives never are)."""
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


@dataclass(frozen=True)
class CongruenceSolution:
    """Least nonnegative solution of a linear congruence, if one exists.

    When ``solvable``, every solution of the original congruence is
    ``residue + t*modulus`` for integer t, with 0 <= residue < modulus.
    """

    solvable: bool
    residue: int = 0
    modulus: int = 0


def solve_linear_congruence(c1: int, c0: int, mod: int) -> CongruenceSolution:
    """Solve c1*x + c0 == 0 (mod mod) for x.

    Solvable iff g = gcd(c1, mod) divides c0; the solution is unique modulo
    m2 = mod // g, and is -(c0/g) times the inverse of c1/g modulo m2.
    """
    if mod <= 0:
        raise DomainError(f"modulus must be positive, got {mod}")
    g = gcd(c1, mod)
    if c0 % g != 0:
        return CongruenceSolution(False)
    m2 = mod // g
    x = (-c0 // g) * pow(c1 // g, -1, m2) % m2
    return CongruenceSolution(True, x, m2)


def rat(num: int, den: int = 1) -> Rat:
    """Exact rational; den must be nonzero."""
    if den == 0:
        raise DomainError("zero denominator")
    return Fraction(num, den)


__all__ = [
    "Rat",
    "rat",
    "isqrt",
    "is_square",
    "gcd",
    "CongruenceSolution",
    "solve_linear_congruence",
    "DomainError",
    "ResourceLimitError",
    "InternalConsistencyError",
    "RationalValueError",
]
