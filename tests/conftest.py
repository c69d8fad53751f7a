"""Shared fixtures and independent oracles for the test suite.

The expansion oracle here deliberately avoids the engine's (P, Q) step
recurrences: it expands a high-precision *rational* approximation of the surd
with the schoolbook floor/reciprocal loop, at two precisions, and only trusts
the common stable prefix.  ``sqrt_pq_walk`` is the (P, Q) walk itself, run
over the whole period with no use of its symmetry; ``sqrt_full_walk`` keeps
its quotients.  ``brute_two_coprime_squares`` searches for the two squares
directly.
``reference_mine`` is the miner's rule for one palindrome, run scalar: the
whole word's matrix, the head congruence by gcd and a modular inverse, then
the search for the first head one c at a time.  ``reference_member`` is a
family member evaluated one ``PolyExpr.eval`` per expression, from a fresh
generator call for a ladder.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, gcd, isqrt

import pytest

from surdcf.convergents import realizes, word_matrix
from surdcf.engine import expand_sqrt, is_primitive_word
from surdcf.exact import DomainError, is_square
from surdcf.families import GENERATORS, FamilyValidityError, PolyExpr
from surdcf.miner import ACCEPT_INSTANCES, MinedFamily


def rational_cf_prefix(x: Fraction, terms: int) -> list[int]:
    out = []
    for _ in range(terms):
        a = floor(x)
        out.append(a)
        frac = x - a
        if frac == 0:
            break
        x = 1 / frac
    return out


def sqrt_cf_oracle(d: int, terms: int) -> list[int]:
    """Leading CF quotients of sqrt(d), via stable rational approximation."""

    def run(prec: int) -> list[int]:
        approx = Fraction(isqrt(d * 10 ** (2 * prec)), 10**prec)
        return rational_cf_prefix(approx, terms)

    first, second = run(60), run(90)
    assert first == second, "oracle precision too low"
    return first


def surd_cf_oracle(p: int, q: int, d: int, terms: int) -> list[int]:
    """Leading CF quotients of (p + sqrt(d)) / q, same stabilization idea."""

    def run(prec: int) -> list[int]:
        approx = Fraction(isqrt(d * 10 ** (2 * prec)), 10**prec)
        return rational_cf_prefix((p + approx) / q, terms)

    first, second = run(60), run(90)
    assert first == second, "oracle precision too low"
    return first


def sqrt_pq_walk(d: int) -> tuple[int, tuple[int, ...], list[int], list[int]]:
    """(a0, period, P, Q) of sqrt(d): the literal (P, Q) walk to the first
    Q == 1.  The k-th complete quotient is (P[k] + sqrt(d)) / Q[k], for
    k = 0 .. ell, from P[0] = 0 and Q[0] = 1."""
    a0 = isqrt(d)
    P, Q = [0, a0], [1, d - a0 * a0]
    period = []
    while True:
        a = (a0 + P[-1]) // Q[-1]
        period.append(a)
        if Q[-1] == 1:
            return a0, tuple(period), P, Q
        P.append(a * Q[-1] - P[-1])
        q, rem = divmod(d - P[-1] * P[-1], Q[-1])
        assert rem == 0, f"step left a remainder at d={d}"
        Q.append(q)


def sqrt_full_walk(d: int) -> tuple[int, tuple[int, ...]]:
    """(a0, period) of sqrt(d), from ``sqrt_pq_walk``."""
    a0, period, _, _ = sqrt_pq_walk(d)
    return a0, period


def brute_two_coprime_squares(d: int) -> bool:
    """True iff d = a^2 + b^2 with a >= b >= 1 and gcd(a, b) = 1, or d = 1.

    Brute force over b <= sqrt(d/2); the b = 0 edge is admitted only for
    d = 1 (gcd(1, 0) = 1).
    """
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


def reference_mine(palindrome) -> MinedFamily | None:
    """The family ``miner.mine`` derives from a palindrome, or None, by the
    scalar rule: solve 2B*a + C == 0 (mod A), take b_slope and b_const, try
    c = 0, 1, ... up to limit = 4*(A + max entry + |b_const|) + 16 for the
    first head that ``realizes``, then check the next four heads."""
    pal = tuple(palindrome)
    if pal:
        m = word_matrix(pal)
        A, B, C = m.m11, m.m12, m.m22
    else:
        A, B, C = 1, 0, 1
    g = gcd(2 * B, A)
    if C % g:
        return None
    mod = A // g
    res = (-C // g) * pow(2 * B // g, -1, mod) % mod
    b_slope = 2 * B * mod // A
    b_const = (2 * B * res + C) // A
    top = max(pal, default=0)
    limit = 4 * (A + top + abs(b_const)) + 16
    c = 0
    while not realizes((A, B, C), top, mod * c + res, b_slope * c + b_const):
        c += 1
        if c > limit:
            return None
    for k in range(c + 1, c + ACCEPT_INSTANCES):
        if not realizes((A, B, C), top, mod * k + res, b_slope * k + b_const):
            return None
    return MinedFamily(pal, res, mod, b_slope, b_const, c, ACCEPT_INSTANCES)


def reference_member(fam, assignment) -> tuple[int, int, list[int]]:
    """(d, head, word) of one family member, or the DomainError or
    FamilyValidityError that ``families`` raises for it, in its order: the
    parameter ranges, a, b and head evaluated one at a time, a, b >= 1, the
    pattern one entry at a time with a bound to the head, then the word's
    checks and d not square."""
    for p in fam.params:
        v = assignment.get(p.name)
        if v is None:
            raise DomainError(f"{fam.id}: missing parameter {p.name}")
        if v < p.lo or (p.hi is not None and v > p.hi):
            raise DomainError(f"{fam.id}: parameter {p.name}={v} out of range")
    if fam.generator:
        gen, wanted = GENERATORS[fam.generator]
        a_s, b_s, pattern_s = gen(*(fam.bind[name] if name in fam.bind else assignment[name]
                                    for name in wanted))
        a_e = head_e = PolyExpr(a_s)
        b_e, pattern = PolyExpr(b_s), [PolyExpr(s) for s in pattern_s]
    else:
        head_e, a_e, b_e, pattern = fam.head_expr or fam.a_expr, fam.a_expr, fam.b_expr, fam.pattern
    env = dict(assignment)
    a = a_e.eval(env)
    b = b_e.eval(env)
    head = head_e.eval(env)
    if a < 1 or b < 1:
        raise FamilyValidityError(f"{fam.id}: a={a}, b={b} outside validity")
    env["a"] = head
    word = [e.eval(env) for e in pattern]
    if min(word, default=1) < 1:
        raise FamilyValidityError(f"{fam.id}: nonpositive quotient at {assignment}")
    if max(word[:-1], default=0) > head:
        raise FamilyValidityError(f"{fam.id}: interior quotient exceeds head at {assignment}")
    if not is_primitive_word(word):
        raise FamilyValidityError(f"{fam.id}: period collapses at {assignment}")
    d = a * a + b
    if is_square(d):
        raise FamilyValidityError(f"{fam.id}: d={d} is a perfect square")
    return d, head, word


@pytest.fixture(scope="session")
def expansions_10k() -> dict:
    """Exact engine expansions for every non-square d up to 10^4."""
    table = {}
    for d in range(2, 10_001):
        r = isqrt(d)
        if r * r == d:
            continue
        table[d] = expand_sqrt(d)
    return table
