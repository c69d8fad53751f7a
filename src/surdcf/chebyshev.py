"""Chebyshev polynomials of the second kind and their all-positive cousin.

Coefficients are stored against ascending powers of (2x), which keeps every
coefficient an integer.  U satisfies U(n+1) = 2x U(n) - U(n-1); the cousin U'
flips the recurrence sign to U'(n+1) = 2x U'(n) + U'(n-1), so its coefficients
are the absolute values of U's.  One loop, ``_cheb``, runs both recurrences
and takes the sign as its argument.

One identity, ``_cayley_hamilton``, gives both matrix powers: M^n =
P_{n-1}(x) M - det(M) P_{n-2}(x) I at half the trace x, with P = U for det +1
(`cheb_mat_pow`) and U' for det -1 (`cousin_mat_pow`, on [[2m+1,1],[1,0]]).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .exact import DomainError, Rat
from .mat2 import Mat2
from .sequences import quad_power


@dataclass(frozen=True)
class Poly:
    """Integer polynomial in t = 2x, coefficients ascending in t."""

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = "" if abs(c) == 1 and i > 0 else str(abs(c))
            var = "" if i == 0 else ("(2x)" if i == 1 else f"(2x)^{i}")
            parts.append(("-" if c < 0 else "+") + mag + var)
        s = "".join(parts)
        return s[1:] if s.startswith("+") else s


def _cheb(n: int, sign: int, name: str) -> Poly:
    # The one loop of both recurrences, P(n+1) = 2x P(n) + sign*P(n-1), from
    # P(-1) = 0 and P(0) = 1, on coefficients: times t = 2x shifts them up.
    if n < 0:
        raise DomainError(f"{name} wants n >= 0")
    prev, cur = (), (1,)
    for _ in range(n):
        prev, cur = cur, tuple(c + sign * p for c, p in zip_longest((0, *cur), prev, fillvalue=0))
    return Poly(cur)


def cheb_u(n: int) -> Poly:
    """U_n from the recurrence U(n+1) = 2x U(n) - U(n-1); U_0 = 1, U_1 = 2x."""
    return _cheb(n, -1, "cheb_u")


def cheb_u_prime(n: int) -> Poly:
    """The all-positive cousin: U'(n+1) = 2x U'(n) + U'(n-1), same seeds."""
    return _cheb(n, +1, "cheb_u_prime")


def _horner(p: Poly, t):
    """p at t = 2x, one Horner sum: an int at an integer t."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * t + c
    return acc


def eval_poly(p: Poly, x: Rat | int) -> Fraction:
    """Exact value of p at rational x (substituting t = 2x once).

    Nothing in the package calls it (``_cayley_hamilton`` sums at the
    integer trace): acceptance criterion 4 holds the cousin polynomials to
    ``cousin_closed_form`` through it.
    """
    return Fraction(_horner(p, 2 * Fraction(x)))


def cousin_closed_form(n: int, x: Rat | int) -> Fraction:
    """U'_n(x) from its surd closed form, evaluated exactly in Z[sqrt(p^2+q^2)].

    With x = p/q, (p + sqrt(p^2+q^2))^(n+1) = s + t*sqrt(p^2+q^2) gives
    U'_n(x) = t / q^n; no rounding anywhere.  Nothing in the package calls
    it: acceptance criterion 4 checks the cousin polynomials against it.
    """
    if n < 0:
        raise DomainError("cousin_closed_form wants n >= 0")
    xf = Fraction(x)
    p, q = xf.numerator, xf.denominator
    _, t = quad_power(p, 1, p * p + q * q, n + 1)
    return Fraction(t, q**n)


def _cayley_hamilton(m: Mat2, n: int) -> Mat2:
    """M^n, n >= 1, for det(M) = +1 or -1: M^2 = tM - det(M) I for the trace
    t, so M^n = P_{n-1}(x) M - det(M) P_{n-2}(x) I at x = t/2, P_{-1} = 0,
    with P = U for det +1 and U' for det -1.  ``Poly`` is a polynomial in
    2x, the trace itself, so every entry is an integer Horner sum."""
    det = m.det()
    cheb = cheb_u if det == 1 else cheb_u_prime
    t = m.m11 + m.m22
    p1 = _horner(cheb(n - 1), t)
    p2 = det * _horner(cheb(n - 2), t) if n >= 2 else 0
    return Mat2(m.m11 * p1 - p2, m.m12 * p1, m.m21 * p1, m.m22 * p1 - p2)


def cheb_mat_pow(m: Mat2, n: int) -> Mat2:
    """M^n for det(M) = +1 via U evaluated at half the trace.

    Nothing in the package calls it: it is the det = +1 identity that a
    proof of the ladder families for every k would use.
    """
    if n < 1:
        raise DomainError("cheb_mat_pow wants n >= 1")
    if m.det() != 1:
        raise DomainError("cheb_mat_pow needs determinant +1 (see cousin_mat_pow)")
    return _cayley_hamilton(m, n)


def cousin_mat_pow(m: int, n: int) -> Mat2:
    """[[2m+1,1],[1,0]]^n via the cousin polynomials at x = (2m+1)/2.

    The determinant -1 analogue of cheb_mat_pow: entry 11 is (2m+1) U'_{n-1}
    + U'_{n-2} = U'_n, so the entries are U'_n, U'_{n-1} and U'_{n-2}.
    Nothing in the package calls it: acceptance criterion 4 checks it
    against ``mat_pow``.
    """
    if m < 0 or n < 1:
        raise DomainError("cousin_mat_pow wants m >= 0, n >= 1")
    return _cayley_hamilton(Mat2(2 * m + 1, 1, 1, 0), n)


__all__ = [
    "Poly",
    "cheb_u",
    "cheb_u_prime",
    "eval_poly",
    "cousin_closed_form",
    "cheb_mat_pow",
    "cousin_mat_pow",
]
