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


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    r0, r1 = a, b
    x0, x1 = 1, 0
    y0, y1 = 0, 1
    while r1 != 0:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if r0 < 0:
        r0, x0, y0 = -r0, -x0, -y0
    return r0, x0, y0


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

    Solvable iff gcd(c1, mod) divides c0; the solution is unique modulo
    mod // gcd(c1, mod).  Uses the extended Euclidean algorithm only.
    """
    if mod <= 0:
        raise DomainError(f"modulus must be positive, got {mod}")
    g, inv, _ = ext_gcd(c1 % mod, mod)
    if c0 % g != 0:
        return CongruenceSolution(False)
    m2 = mod // g
    x = ((-c0 // g) * inv) % m2
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
    "ext_gcd",
    "CongruenceSolution",
    "solve_linear_congruence",
    "DomainError",
    "ResourceLimitError",
    "InternalConsistencyError",
    "RationalValueError",
]
