"""Exact integer and rational foundations.

Everything in this package runs on unbounded Python integers; no floating
point enters any computation whose result is asserted exact.  Rationals are
``fractions.Fraction`` (aliased ``Rat``), which already guarantees the
reduced-form invariant (gcd(num, den) = 1, den > 0) on construction.
"""

from __future__ import annotations

import itertools
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


# Miller-Rabin to the first 13 prime bases is exact below this bound
# (Sorenson and Webster, 2017).
PRIME_TEST_LIMIT = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Primality of 0 <= n < PRIME_TEST_LIMIT, by deterministic Miller-Rabin."""
    if not 0 <= n < PRIME_TEST_LIMIT:
        raise DomainError(f"is_prime wants 0 <= n < {PRIME_TEST_LIMIT}, got {n}")
    if n < 2 or any(n % p == 0 for p in _MR_BASES):
        return n in _MR_BASES
    m, s = n - 1, 0
    while m % 2 == 0:
        m, s = m // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, m, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_RHO_BATCH = 128


def pollard_brent(n: int) -> int:
    """A factor 1 < f < n of an odd composite n, by Brent's variant of Pollard's rho.

    Deterministic: it iterates y -> y^2 + c (mod n) from y = 2 for
    c = 1, 2, ..., taking the first c whose walk meets a nontrivial gcd.
    Each walk is periodic mod n, so it ends; on a prime n no walk would
    succeed and it would not return, so test primality first.  Products of
    |x - y| are taken 128 at a time, one gcd per batch, and a batch that
    overshoots to gcd n is replayed one step at a time.
    """
    if n < 9 or n % 2 == 0:
        raise DomainError(f"pollard_brent wants an odd composite n, got {n}")
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


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
    "is_prime",
    "pollard_brent",
    "PRIME_TEST_LIMIT",
    "gcd",
    "CongruenceSolution",
    "solve_linear_congruence",
    "DomainError",
    "ResourceLimitError",
    "InternalConsistencyError",
    "RationalValueError",
]
