"""Second-order linear recurrences and the named sequence families.

Each recurrence fact has one loop.  ``_terms`` runs every constant-coefficient
recurrence u(n+1) = a*u(n) + b*u(n-1): the named ladders are ``LinRecSpec``
seeds evaluated by it.  ``_extend`` is the package's one step of the
convergent recurrence p_k = a_k*p_{k-1} + p_{k-2}, and ``_recurrence`` runs it
along a word; ``convergents`` imports both for its word matrices and
palindromes.  ``_convergent_pairs`` builds the word of [a0; block repeating]
and runs it through ``_recurrence``.  Powers in Z[sqrt(D)] (``QuadRingElem``,
``quad_power``) use the square-and-multiply loop ``exact._power`` and stay
integer pairs; ``chebyshev.cousin_closed_form`` reads its closed form off
them, so no float enters.  Of the package, this module imports ``exact``
only, so ``mat2``, ``convergents`` and ``chebyshev`` can all build on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, cycle, islice
from typing import Iterator, Sequence

from .exact import DomainError, _power


@dataclass(frozen=True)
class LinRecSpec:
    """u(n+1) = a*u(n) + b*u(n-1) with seeds u0, u1."""

    a: int
    b: int
    u0: int
    u1: int


FIBONACCI = LinRecSpec(1, 1, 0, 1)


@dataclass(frozen=True)
class QuadRingElem:
    """s + t*sqrt(D) with integer s and t.

    D is fixed per computation and may be any nonzero integer (negative D
    works the same way; sqrt(D) stays symbolic).
    """

    s: int
    t: int
    D: int

    def __mul__(self, other: "QuadRingElem") -> "QuadRingElem":
        if self.D != other.D:
            raise DomainError("mixed radicands in quadratic ring product")
        return QuadRingElem(
            self.s * other.s + self.t * other.t * self.D,
            self.s * other.t + self.t * other.s,
            self.D,
        )

    def power(self, n: int) -> "QuadRingElem":
        if n < 0:
            raise DomainError("quadratic ring power wants n >= 0")
        return _power(self, n, QuadRingElem(1, 0, self.D))


def quad_power(s: int, t: int, D: int, n: int) -> tuple[int, int]:
    """(s + t*sqrt(D))^n as an integer pair, denominator-free."""
    e = QuadRingElem(s, t, D).power(n)
    return e.s, e.t


def _terms(spec: LinRecSpec) -> Iterator[int]:
    # u(0), u(1), ...: the one loop of the constant-coefficient recurrence.
    u0, u1 = spec.u0, spec.u1
    while True:
        yield u0
        u0, u1 = u1, spec.a * u1 + spec.b * u0


def _extend(state: tuple[int, int, int, int], a: int) -> tuple[int, int, int, int]:
    """The state (p_k, p_{k-1}, q_k, q_{k-1}) one quotient a further on.

    p_k = a*p_{k-1} + p_{k-2}, likewise q: this is the one implementation of
    the convergent recurrence, and it accepts any integer quotient.  A state
    holds the entries m11, m12, m21, m22 of the word matrix so far, and the
    empty word's state is that of ``mat2.IDENTITY``: p(-1) = 1, p(-2) = 0,
    q(-1) = 0, q(-2) = 1.
    """
    p1, p0, q1, q0 = state
    return a * p1 + p0, p1, a * q1 + q0, q1


def _recurrence(word: Sequence[int]) -> Iterator[tuple[int, int, int, int]]:
    """(p_k, p_{k-1}, q_k, q_{k-1}) for each quotient of the word, k = 0..len-1,
    from the empty word's state (1, 0, 0, 1), that of ``mat2.IDENTITY``."""
    state = (1, 0, 0, 1)
    for a in word:
        state = _extend(state, a)
        yield state


def linrec_nth(spec: LinRecSpec, n: int) -> int:
    """u(n) by direct iteration (exact, linear time)."""
    if n < 0:
        raise DomainError("sequence index must be >= 0")
    return next(islice(_terms(spec), n, None))


def _convergent_pairs(a0: int, block: tuple[int, ...], length: int) -> list[tuple[int, int]]:
    """(p_j, q_j), j = -1..length-1, of [a0; block repeating]: the seed
    (p_-1, q_-1) = (1, 0), then the convergents of the first ``length``
    quotients, by the convergent recurrence."""
    word = list(islice(chain((a0,), cycle(block)), length))
    return [(1, 0), *((p, q) for p, _, q, _ in _recurrence(word))]


# The seeds (numerators, denominators) of the ladders that ``_terms`` runs.
_PELL = LinRecSpec(2, 1, 1, 1), LinRecSpec(2, 1, 0, 1)
_AB = LinRecSpec(4, -1, 1, 3), LinRecSpec(4, -1, 0, 1)
_TRIPLE113 = LinRecSpec(8, 1, -1, 1), LinRecSpec(8, 1, 4, 0)


def pell_pair(k: int) -> tuple[int, int]:
    """k-th numerator/denominator pair of the sqrt(2) convergent ladder.

    Seeds (p0, q0) = (1, 0), (p1, q1) = (1, 1); both satisfy
    x(k+1) = 2 x(k) + x(k-1).  pell_pair(4) = (17, 12).
    """
    if k < 0:
        raise DomainError("pell_pair wants k >= 0")
    return tuple(linrec_nth(spec, k) for spec in _PELL)


def sqrt3_pair(k: int) -> tuple[int, int]:
    """k-th entry of the printed sqrt(3) convergent list: 2/1, 5/3, 7/4, ...

    The list starts at the classical convergent c_1, so sqrt3_pair(0) = (2, 1).
    """
    if k < 0:
        raise DomainError("sqrt3_pair wants k >= 0")
    # sqrt(3) = [1; 1, 2 repeating]; c_(k+1) follows the seed and c_0.
    return _convergent_pairs(1, (1, 2), k + 2)[k + 2]


def sqrt3_denominators(up_to: int) -> list[int]:
    """Classical sqrt(3) convergent denominators q_0..q_up_to (q_0 = 1)."""
    if up_to < 0:
        raise DomainError("sqrt3_denominators wants up_to >= 0")
    return [q for _, q in _convergent_pairs(1, (1, 2), up_to + 1)[1:]]


def ab_pair(k: int) -> tuple[int, int]:
    """(A_k, B_k) with X(k+1) = 4 X(k) - X(k-1); A: 1,3,11,...  B: 0,1,4,...

    Equals (q_{2k}, q_{2k-1}) of the sqrt(3) denominators.
    """
    if k < 1:
        raise DomainError("ab_pair wants k >= 1")
    return tuple(linrec_nth(spec, k) for spec in _AB)


def triple113_pair(k: int) -> tuple[int, int]:
    """(p_k, q_k) with x(k) = 8 x(k-1) + x(k-2); p: -1,1,7,57,...  q: 4,0,4,32,..."""
    if k < 0:
        raise DomainError("triple113_pair wants k >= 0")
    return tuple(linrec_nth(spec, k + 1) for spec in _TRIPLE113)


def odd_quotient_seq(m: int, up_to: int) -> list[int]:
    """u_0..u_up_to for u(n+1) = (2m+1) u(n) + u(n-1), u0 = 0, u1 = 1."""
    if m < 0:
        raise DomainError("odd quotient sequence wants m >= 0")
    return list(islice(_terms(LinRecSpec(2 * m + 1, 1, 0, 1)), max(up_to + 1, 0)))


def even_quotient_pairs(m: int, up_to: int) -> list[tuple[int, int]]:
    """(p_j, q_j) pairs, j = 0..up_to, of sqrt((2m)^2 + 4) = [2m; m, 4m ...].

    Index convention: p_1/q_1 = 2m/1 is the first convergent; seeds
    p_0 = 1, q_0 = 0.  Even steps multiply by m, odd steps by 4m.
    """
    if m < 1 or up_to < 0:
        raise DomainError("even quotient sequence wants m >= 1, up_to >= 0")
    return _convergent_pairs(2 * m, (m, 4 * m), up_to)


def interleaved_even_pair(m: int, k: int) -> tuple[int, int]:
    """k-th printed convergent of sqrt((2m)^2 + 4); k = 0 gives 2m/1."""
    if m < 1 or k < 0:
        raise DomainError("interleaved_even_pair wants m >= 1, k >= 0")
    return even_quotient_pairs(m, k + 1)[k + 1]


def pair_m2m_denominators(m: int, up_to: int) -> list[int]:
    """Classical denominators q_0..q_up_to of sqrt(m^2 + 2) = [m; m, 2m ...]."""
    if m < 1 or up_to < 0:
        raise DomainError("pair_m2m_denominators wants m >= 1, up_to >= 0")
    return [q for _, q in _convergent_pairs(m, (m, 2 * m), up_to + 1)[1:]]


# Named single-value sequences exposed for CSV export.
NAMED_SEQUENCES = {
    "fibonacci": lambda k: linrec_nth(FIBONACCI, k),
    "pell-p": lambda k: pell_pair(k)[0],
    "pell-q": lambda k: pell_pair(k)[1],
    "sqrt3-p": lambda k: sqrt3_pair(k)[0],
    "sqrt3-q": lambda k: sqrt3_pair(k)[1],
    "ab-a": lambda k: ab_pair(k + 1)[0],
    "ab-b": lambda k: ab_pair(k + 1)[1],
    "triple113-p": lambda k: triple113_pair(k)[0],
    "triple113-q": lambda k: triple113_pair(k)[1],
}


def named_sequence(name: str, count: int, m: int | None = None) -> list[tuple[int, int]]:
    """(index, value) rows for one named sequence; some names need the m knob."""
    if count < 0:
        raise DomainError("count must be >= 0")
    if name in NAMED_SEQUENCES:
        if m is not None:
            raise DomainError(f"sequence {name!r} takes no m")
        fn = NAMED_SEQUENCES[name]
        return [(k, fn(k)) for k in range(count)]
    m = 1 if m is None else m
    if name == "odd-u":
        seq = odd_quotient_seq(m, max(count - 1, 0))
        return list(enumerate(seq[:count]))
    if name in ("even-p", "even-q"):
        pairs = even_quotient_pairs(m, max(count - 1, 0))
        idx = 0 if name == "even-p" else 1
        return [(k, pairs[k][idx]) for k in range(count)]
    raise DomainError(f"unknown sequence name {name!r}")


__all__ = [
    "LinRecSpec",
    "FIBONACCI",
    "QuadRingElem",
    "quad_power",
    "linrec_nth",
    "pell_pair",
    "sqrt3_pair",
    "sqrt3_denominators",
    "ab_pair",
    "triple113_pair",
    "odd_quotient_seq",
    "even_quotient_pairs",
    "interleaved_even_pair",
    "pair_m2m_denominators",
    "named_sequence",
    "NAMED_SEQUENCES",
]
