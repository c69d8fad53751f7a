"""Exact integer and rational foundations.

No floating point enters any computation whose result is asserted exact.
Integers are unbounded Python ints.  Rationals are ``fractions.Fraction``
(aliased ``Rat``), which already guarantees the reduced-form invariant
(gcd(num, den) = 1, den > 0) on construction.

The scalar two-squares test ``sum_two_coprime_squares`` lives here with the
primality test and the factor search it runs (``is_prime``,
``pollard_brent``); ``analyzer`` imports it for the columns that the exact
engine fills.  Like every exact module, this one imports no numpy.
"""

from __future__ import annotations

import itertools
import math
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


def _power(base, n: int, one):
    """base**n for n >= 0 by square and multiply, for any associative ``*``
    with identity ``one``: the one power loop of ``mat2.mat_pow`` and
    ``sequences.QuadRingElem.power``."""
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


__all__ = [
    "Rat",
    "isqrt",
    "is_square",
    "is_prime",
    "pollard_brent",
    "sum_two_coprime_squares",
    "PRIME_TEST_LIMIT",
    "DomainError",
    "ResourceLimitError",
    "InternalConsistencyError",
    "RationalValueError",
]
