"""Second-order linear recurrences and the named sequence families.

Closed forms are evaluated in the ring Z[sqrt(D)] with an explicit power-of-two
denominator, so "closed form equals recurrence" is a hard integer equality,
never a float comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

# Looked up at call time: convergents imports mat2, which imports this module.
from . import convergents
from .exact import DomainError, InternalConsistencyError


@dataclass(frozen=True)
class LinRecSpec:
    """u(n+1) = a*u(n) + b*u(n-1) with seeds u0, u1."""

    a: int
    b: int
    u0: int
    u1: int

    @property
    def discriminant(self) -> int:
        return self.a * self.a + 4 * self.b


FIBONACCI = LinRecSpec(1, 1, 0, 1)


@dataclass(frozen=True)
class QuadRingElem:
    """(s + t*sqrt(D)) / den with integer s, t and den > 0.

    D is fixed per computation and may be any nonzero integer (negative D
    works the same way; sqrt(D) stays symbolic).
    """

    s: int
    t: int
    D: int
    den: int = 1

    def __mul__(self, other: "QuadRingElem") -> "QuadRingElem":
        if self.D != other.D:
            raise DomainError("mixed radicands in quadratic ring product")
        return QuadRingElem(
            self.s * other.s + self.t * other.t * self.D,
            self.s * other.t + self.t * other.s,
            self.D,
            self.den * other.den,
        )

    def conjugate(self) -> "QuadRingElem":
        return QuadRingElem(self.s, -self.t, self.D, self.den)

    def power(self, n: int) -> "QuadRingElem":
        if n < 0:
            raise DomainError("quadratic ring power wants n >= 0")
        result = QuadRingElem(1, 0, self.D, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result


def quad_power(s: int, t: int, D: int, n: int) -> tuple[int, int]:
    """(s + t*sqrt(D))^n as an integer pair, denominator-free."""
    e = QuadRingElem(s, t, D).power(n)
    return e.s, e.t


def linrec_nth(spec: LinRecSpec, n: int) -> int:
    """u(n) by direct iteration (exact, linear time)."""
    if n < 0:
        raise DomainError("sequence index must be >= 0")
    u0, u1 = spec.u0, spec.u1
    for _ in range(n):
        u0, u1 = u1, spec.a * u1 + spec.b * u0
    return u0


def binet_nth(spec: LinRecSpec, n: int) -> int:
    """u(n) from the closed form lambda*alpha^n + mu*beta^n, evaluated exactly.

    With Delta = a^2 + 4b and (a + sqrt(Delta))^n = s + t*sqrt(Delta), the
    closed form collapses to (u0*s + (2*u1 - a*u0)*t) / 2^n.  The division is
    checked exact; Delta = 0 (degenerate lambda/mu solve) is rejected.  The
    same formula covers perfect-square Delta, where alpha and beta are plain
    integers.
    """
    if n < 0:
        raise DomainError("sequence index must be >= 0")
    delta = spec.discriminant
    if delta == 0:
        raise DomainError("repeated characteristic root; no Binet form")
    s, t = quad_power(spec.a, 1, delta, n)
    num = spec.u0 * s + (2 * spec.u1 - spec.a * spec.u0) * t
    q, r = divmod(num, 1 << n)
    if r:
        raise InternalConsistencyError(
            f"closed form for {spec} at n={n} did not divide out"
        )
    return q


def _pair_iter(a_rec, b_rec, p0, p1, q0, q1, k):
    for _ in range(k):
        p0, p1 = p1, a_rec * p1 + b_rec * p0
        q0, q1 = q1, a_rec * q1 + b_rec * q0
    return p0, q0


def pell_pair(k: int) -> tuple[int, int]:
    """k-th numerator/denominator pair of the sqrt(2) convergent ladder.

    Seeds (p0, q0) = (1, 0), (p1, q1) = (1, 1); both satisfy
    x(k+1) = 2 x(k) + x(k-1).  pell_pair(4) = (17, 12).
    """
    if k < 0:
        raise DomainError("pell_pair wants k >= 0")
    return _pair_iter(2, 1, 1, 1, 0, 1, k)


def _sqrt3_word(count):
    # sqrt(3) = [1; 1, 2 repeating]
    word = [1]
    while len(word) < count:
        word.append(1)
        word.append(2)
    return word[:count]


def sqrt3_pair(k: int) -> tuple[int, int]:
    """k-th entry of the printed sqrt(3) convergent list: 2/1, 5/3, 7/4, ...

    The list starts at the classical convergent c_1, so sqrt3_pair(0) = (2, 1).
    """
    if k < 0:
        raise DomainError("sqrt3_pair wants k >= 0")
    c = convergents.convergents_of_word(_sqrt3_word(k + 2))[k + 1]
    return c.p, c.q


def sqrt3_denominators(up_to: int) -> list[int]:
    """Classical sqrt(3) convergent denominators q_0..q_up_to (q_0 = 1)."""
    return [c.q for c in convergents.convergents_of_word(_sqrt3_word(up_to + 1))]


def ab_pair(k: int) -> tuple[int, int]:
    """(A_k, B_k) with X(k+1) = 4 X(k) - X(k-1); A: 1,3,11,...  B: 0,1,4,...

    Equals (q_{2k}, q_{2k-1}) of the sqrt(3) denominators.
    """
    if k < 1:
        raise DomainError("ab_pair wants k >= 1")
    return _pair_iter(4, -1, 1, 3, 0, 1, k)


def triple113_pair(k: int) -> tuple[int, int]:
    """(p_k, q_k) with x(k) = 8 x(k-1) + x(k-2); p: -1,1,7,57,...  q: 4,0,4,32,..."""
    if k < 0:
        raise DomainError("triple113_pair wants k >= 0")
    return _pair_iter(8, 1, -1, 1, 4, 0, k + 1)


def odd_quotient_seq(m: int, up_to: int) -> list[int]:
    """u_0..u_up_to for u(n+1) = (2m+1) u(n) + u(n-1), u0 = 0, u1 = 1."""
    if m < 0:
        raise DomainError("odd quotient sequence wants m >= 0")
    a = 2 * m + 1
    u = [0, 1]
    while len(u) <= up_to:
        u.append(a * u[-1] + u[-2])
    return u[: up_to + 1]


def odd_multiplier(m: int) -> int:
    """(2m+1)((2m+1)^2 + 3): the index-5 jump multiplier of the u-sequence."""
    if m < 0:
        raise DomainError("odd_multiplier wants m >= 0")
    t = 2 * m + 1
    return t * (t * t + 3)


def even_quotient_pairs(m: int, up_to: int) -> list[tuple[int, int]]:
    """(p_j, q_j) pairs, j = 0..up_to, of sqrt((2m)^2 + 4) = [2m; m, 4m ...].

    Index convention: p_1/q_1 = 2m/1 is the first convergent; seeds
    p_0 = 1, q_0 = 0.  Even steps multiply by m, odd steps by 4m.
    """
    if m < 1:
        raise DomainError("even quotient sequence wants m >= 1")
    p = [1, 2 * m]
    q = [0, 1]
    j = 2
    while len(p) <= up_to:
        mult = m if j % 2 == 0 else 4 * m
        p.append(mult * p[-1] + p[-2])
        q.append(mult * q[-1] + q[-2])
        j += 1
    return list(zip(p[: up_to + 1], q[: up_to + 1]))


def interleaved_even_pair(m: int, k: int) -> tuple[int, int]:
    """k-th printed convergent of sqrt((2m)^2 + 4); k = 0 gives 2m/1."""
    if m < 1 or k < 0:
        raise DomainError("interleaved_even_pair wants m >= 1, k >= 0")
    return even_quotient_pairs(m, k + 1)[k + 1]


def pair_m2m_denominators(m: int, up_to: int) -> list[int]:
    """Classical denominators q_0..q_up_to of sqrt(m^2 + 2) = [m; m, 2m ...]."""
    if m < 1:
        raise DomainError("pair_m2m_denominators wants m >= 1")
    word = [m]
    while len(word) <= up_to:
        word.append(m)
        word.append(2 * m)
    return [c.q for c in convergents.convergents_of_word(word[: up_to + 1])]


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
        fn = NAMED_SEQUENCES[name]
        return [(k, fn(k)) for k in range(count)]
    if name == "odd-u":
        mm = 1 if m is None else m
        seq = odd_quotient_seq(mm, max(count - 1, 0))
        return list(enumerate(seq[:count]))
    if name in ("even-p", "even-q"):
        mm = 1 if m is None else m
        pairs = even_quotient_pairs(mm, max(count - 1, 0))
        idx = 0 if name == "even-p" else 1
        return [(k, pairs[k][idx]) for k in range(count)]
    raise DomainError(f"unknown sequence name {name!r}")


__all__ = [
    "LinRecSpec",
    "FIBONACCI",
    "QuadRingElem",
    "quad_power",
    "linrec_nth",
    "binet_nth",
    "pell_pair",
    "sqrt3_pair",
    "sqrt3_denominators",
    "ab_pair",
    "triple113_pair",
    "odd_quotient_seq",
    "odd_multiplier",
    "even_quotient_pairs",
    "interleaved_even_pair",
    "pair_m2m_denominators",
    "named_sequence",
    "NAMED_SEQUENCES",
]
