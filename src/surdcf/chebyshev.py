"""Chebyshev polynomials of the second kind and their all-positive cousin.

Coefficients are stored against ascending powers of (2x), which keeps every
coefficient an integer.  U satisfies U(n+1) = 2x U(n) - U(n-1); the cousin U'
flips the recurrence sign to U'(n+1) = 2x U'(n) + U'(n-1), so its coefficients
are the absolute values of U's.  One loop, ``_cheb``, runs both recurrences
and takes the sign as its argument.

The classical det=+1 matrix-power identity is exposed as `cheb_mat_pow`.  For
the quotient matrix [[2m+1,1],[1,0]] - determinant -1, where that identity
does not apply - the cousin version `cousin_mat_pow` is the correct one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import DomainError, InternalConsistencyError, Rat
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


ZERO = Poly(())
ONE = Poly((1,))


def _shift(p: Poly) -> Poly:
    # multiply by t = 2x
    if not p.coeffs:
        return ZERO
    return Poly((0, *p.coeffs))


def _combine(p: Poly, q: Poly, sign: int) -> Poly:
    n = max(len(p.coeffs), len(q.coeffs))
    cs = [0] * n
    for i, c in enumerate(p.coeffs):
        cs[i] += c
    for i, c in enumerate(q.coeffs):
        cs[i] += sign * c
    while cs and cs[-1] == 0:
        cs.pop()
    return Poly(tuple(cs))


def _cheb(n: int, sign: int, name: str) -> Poly:
    # The one loop of both recurrences, P(n+1) = 2x P(n) + sign*P(n-1), from
    # P(-1) = 0 and P(0) = 1.
    if n < 0:
        raise DomainError(f"{name} wants n >= 0")
    prev, cur = ZERO, ONE
    for _ in range(n):
        prev, cur = cur, _combine(_shift(cur), prev, sign)
    return cur


def cheb_u(n: int) -> Poly:
    """U_n from the recurrence U(n+1) = 2x U(n) - U(n-1); U_0 = 1, U_1 = 2x."""
    return _cheb(n, -1, "cheb_u")


def cheb_u_prime(n: int) -> Poly:
    """The all-positive cousin: U'(n+1) = 2x U'(n) + U'(n-1), same seeds."""
    return _cheb(n, +1, "cheb_u_prime")


def eval_poly(p: Poly, x: Rat | int) -> Fraction:
    """Exact value of p at rational x (substituting t = 2x once)."""
    t = 2 * Fraction(x)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * t + c
    return acc


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


def _int_or_fail(v: Fraction, what: str) -> int:
    if v.denominator != 1:
        raise InternalConsistencyError(f"{what} evaluated to non-integer {v}")
    return v.numerator


def cheb_mat_pow(m: Mat2, n: int) -> Mat2:
    """M^n for det(M) = +1 via U evaluated at half the trace.

    Entries must come out integral; a non-integer entry means the identity was
    applied outside its hypotheses and raises InternalConsistencyError.
    Nothing in the package calls it: it is the det = +1 identity that a
    proof of the ladder families for every k would use.
    """
    if n < 1:
        raise DomainError("cheb_mat_pow wants n >= 1")
    if m.det() != 1:
        raise DomainError("cheb_mat_pow needs determinant +1 (see cousin_mat_pow)")
    a = Fraction(m.m11 + m.m22, 2)
    u1 = eval_poly(cheb_u(n - 1), a)
    u2 = eval_poly(cheb_u(n - 2), a) if n >= 2 else Fraction(0)
    return Mat2(
        _int_or_fail(m.m11 * u1 - u2, "power entry 11"),
        _int_or_fail(m.m12 * u1, "power entry 12"),
        _int_or_fail(m.m21 * u1, "power entry 21"),
        _int_or_fail(m.m22 * u1 - u2, "power entry 22"),
    )


def cousin_mat_pow(m: int, n: int) -> Mat2:
    """[[2m+1,1],[1,0]]^n via the cousin polynomials at x = (2m+1)/2.

    This is the determinant -1 analogue of cheb_mat_pow: the entries are
    U'_n, U'_{n-1}, U'_{n-2} at half the odd quotient, and they agree with
    the linear-recurrence matrix entries.  Nothing in the package calls it:
    acceptance criterion 4 checks it against ``mat_pow``.
    """
    if m < 0 or n < 1:
        raise DomainError("cousin_mat_pow wants m >= 0, n >= 1")
    x = Fraction(2 * m + 1, 2)
    top = eval_poly(cheb_u_prime(n), x)
    mid = eval_poly(cheb_u_prime(n - 1), x)
    low = eval_poly(cheb_u_prime(n - 2), x) if n >= 2 else Fraction(0)
    return Mat2(
        _int_or_fail(top, "cousin entry 11"),
        _int_or_fail(mid, "cousin entry 12"),
        _int_or_fail(mid, "cousin entry 21"),
        _int_or_fail(low, "cousin entry 22"),
    )


__all__ = [
    "Poly",
    "cheb_u",
    "cheb_u_prime",
    "eval_poly",
    "cousin_closed_form",
    "cheb_mat_pow",
    "cousin_mat_pow",
]
