"""Convergents, the word/matrix correspondence, and surd reconstruction.

A quotient word a_0..a_n corresponds to the matrix product of [[a_k,1],[1,0]],
whose columns are the last two convergent pairs.  Word matrices are built
with the convergent recurrence, ``sequences._recurrence``, which this module
imports.  Reconstruction runs that correspondence backwards: from
[a0; period] to the exact quadratic surd the expansion denotes.

Each step matrix is symmetric, so a palindrome's word matrix is symmetric
too, [[A, B], [B, C]].  ``realizes`` carries it as the plain triple
(A, B, C) of the realisation identity b*A == 2*a*B + C, and ``palindrome_b``
solves that identity for b; the miner builds the triples on numpy columns
(``miner.palindromes``).

Like the rest of the exact core (``exact``, ``engine``, ``mat2``,
``sequences``), this module imports no numpy, so the ``convergents``
command and the library calls of this module start without it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .exact import DomainError, RationalValueError, is_square, isqrt
from .mat2 import IDENTITY, Mat2
from .sequences import _recurrence


@dataclass(frozen=True)
class Convergent:
    p: int
    q: int
    index: int


@dataclass(frozen=True)
class QuadSolution:
    """Exact root (root_num_P + sqrt(d)) / root_den_Q of A2 x^2 + A1 x + A0 = 0."""

    A2: int
    A1: int
    A0: int
    d: int
    root_num_P: int
    root_den_Q: int


def _check_word(word: Sequence[int]) -> None:
    if len(word) == 0:
        raise DomainError("empty quotient word")
    if word[0] < 0:
        raise DomainError("leading quotient must be >= 0")
    if any(a < 1 for a in word[1:]):
        raise DomainError("quotients after the first must be >= 1")


def convergents_of_word(word: Sequence[int]) -> list[Convergent]:
    """All convergents p_k/q_k of a finite quotient word, k = 0..len-1.

    c_0 = word[0]/1; see `_recurrence` for the seeds.
    """
    _check_word(word)
    return [Convergent(p, q, k) for k, (p, _, q, _) in enumerate(_recurrence(word))]


def word_matrix(word: Sequence[int]) -> Mat2:
    """Product of the step matrices [[a,1],[1,0]] over the word.

    Built from the convergent recurrence rather than by multiplying: the
    columns are the last two convergents, (p_n, q_n) and (p_{n-1}, q_{n-1}).
    The determinant of an (n+1)-factor product is (-1)^(n+1).
    """
    if len(word) == 0:
        raise DomainError("empty quotient word")
    return Mat2(*deque(_recurrence(word), maxlen=1)[0])


def _square_free_reduce(P: int, Q: int, D: int) -> tuple[int, int, int]:
    """Divide (P + sqrt(D))/Q by the largest e | gcd(P, Q) with e^2 | D."""
    g = gcd(P, Q)
    if g <= 1:
        return P, Q, D
    best = 1
    f = 1
    while f * f <= g:
        if g % f == 0:
            for e in (g // f, f):
                if e > best and D % (e * e) == 0:
                    best = e
        f += 1
    if best > 1:
        return P // best, Q // best, D // (best * best)
    return P, Q, D


def surd_from_periodic_cf(a0: int, period: Sequence[int]) -> QuadSolution:
    """Exact value of [a0; period repeating] as a quadratic surd.

    The purely periodic tail x = [p1; p2..pl, p1, ...] is a fixed point of its
    own word matrix, which gives an integer quadratic for the full value
    v = a0 + 1/x.  The positive root is returned in normalized form: when the
    input is the expansion of some sqrt(D), the result is exactly (0+sqrt(D))/1.
    A library function the README documents; no command calls it.
    """
    if len(period) == 0:
        raise DomainError("period must be nonempty")
    if any(a < 1 for a in period):
        raise DomainError("period entries must be >= 1")
    m = word_matrix(period)
    A, A_prev = m.m11, m.m12
    B, B_prev = m.m21, m.m22
    # x = (x*A + A_prev)/(x*B + B_prev), substituted with x = 1/(v - a0):
    a2 = A_prev
    a1 = -(2 * A_prev * a0 + B_prev - A)
    a0c = A_prev * a0 * a0 + (B_prev - A) * a0 - B
    g = gcd(gcd(abs(a2), abs(a1)), abs(a0c))
    if g > 1:
        a2, a1, a0c = a2 // g, a1 // g, a0c // g
    disc = a1 * a1 - 4 * a2 * a0c
    if disc <= 0:
        raise DomainError("period does not denote a real quadratic irrational")
    if is_square(disc):
        raise RationalValueError("degenerate quadratic: value is rational, not a surd")
    if a1 % 2 == 0:
        P, Q, D = -(a1 // 2), a2, (a1 // 2) ** 2 - a2 * a0c
    else:
        P, Q, D = -a1, 2 * a2, disc
    P, Q, D = _square_free_reduce(P, Q, D)
    return QuadSolution(a2, a1, a0c, D, P, Q)


def palindrome_half(palindrome: Sequence[int]) -> tuple[int, ...]:
    """The determining half of a palindrome, its first ceil(length/2) entries.

    Raises DomainError for a word that is not a palindrome or has an entry
    below 1.
    """
    pal = tuple(palindrome)
    if pal != pal[::-1]:
        raise DomainError("word is not a palindrome")
    if any(a < 1 for a in pal):
        raise DomainError("palindrome entries must be >= 1")
    return pal[: (len(pal) + 1) // 2]


def realizes(abc: tuple[int, int, int], max_entry: int, a: int, b: int) -> bool:
    """True iff sqrt(a^2 + b) = [a; w, 2a] for the palindrome w with matrix ``abc``.

    ``abc`` = (A, B, C) holds the entries of the symmetric word matrix
    [[A, B], [B, C]] of w (entries >= 1; the identity for the empty word) and
    ``max_entry`` is w's largest entry, 0 for the empty word.  The identity
    is b*A == 2*a*B + C, with every entry of w at most a and 1 <= b <= 2a.
    Then a = isqrt(a^2 + b), a^2 + b is not a square, and
    [a; w, 2a, w, 2a, ...] has all quotients >= 1 and is fixed by the same
    quadratic as sqrt(a^2 + b); infinite continued fractions are unique
    (Friesen, Proc. AMS 103, 1988), so they are equal.  The period is exactly
    (w, 2a), not a repetition of a shorter word, because 2a exceeds every
    entry of w.

    The tests are joined with ``&``, so every argument may as well be a
    column: the result is then a boolean column, row by row.
    """
    A, B, C = abc
    return (max_entry <= a) & (1 <= b) & (b <= 2 * a) & (b * A == 2 * a * B + C)


def palindrome_b(palindrome: Sequence[int], a0: int) -> Fraction:
    """The unique b making [a0; palindrome, 2*a0] expand sqrt(a0^2 + b).

    The word matrix of a palindrome is symmetric, [[A, B], [B, C]], and this
    solves for b the realisation identity b*A == 2*a0*B + C, which
    ``realizes`` checks for a given b: b = (2*a0*B + C) / A.  The pattern is
    realized by an actual square root exactly when this rational is an
    integer in [1, 2*a0] and no entry exceeds a0.  The empty palindrome is legal
    (identity matrix, b = 1).  Raises DomainError as ``palindrome_half``
    does.  A library function the README documents; the miner checks the
    same identity on columns, through ``realizes``.
    """
    palindrome_half(palindrome)
    m = word_matrix(palindrome) if len(palindrome) else IDENTITY
    return Fraction(2 * a0 * m.m12 + m.m22, m.m11)


__all__ = [
    "Convergent",
    "QuadSolution",
    "convergents_of_word",
    "word_matrix",
    "surd_from_periodic_cf",
    "palindrome_half",
    "palindrome_b",
    "realizes",
]
