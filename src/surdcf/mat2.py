"""Exact 2x2 integer matrices, fast powers, and closed-form power generators.

``mat_pow`` runs the package's one square-and-multiply loop, ``exact._power``.
The three named generators (`pell_power`, `sqrt3_power`, `odd_quotient_power`)
rebuild matrix powers out of the linear-recurrence sequences instead of
multiplying matrices, so each one cross-validates `mat_pow` independently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import DomainError, _power
from . import sequences


@dataclass(frozen=True)
class Mat2:
    m11: int
    m12: int
    m21: int
    m22: int

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def det(self) -> int:
        return self.m11 * self.m22 - self.m12 * self.m21


IDENTITY = Mat2(1, 0, 0, 1)


def mat_pow(m: Mat2, n: int) -> Mat2:
    """n-th power by binary exponentiation; mat_pow(m, 0) is the identity.

    Nothing in the package calls it: it is the reference that the
    generators below and ``chebyshev``'s powers are checked against
    (acceptance criteria 3-4).
    """
    if n < 0:
        raise DomainError(f"matrix power wants n >= 0, got {n}")
    return _power(m, n, IDENTITY)


def pell_power(k: int) -> Mat2:
    """[[1,2],[1,1]]^k assembled from the sqrt(2) convergent pair (p_k, q_k).

    Nothing in the package calls it: acceptance criterion 3
    checks it against ``mat_pow``, and a proof of the ladder families for
    every k would rest on it.
    """
    if k < 1:
        raise DomainError("pell_power wants k >= 1")
    p, q = sequences.pell_pair(k)
    return Mat2(p, 2 * q, q, p)


def sqrt3_power(k: int) -> Mat2:
    """[[3,2],[1,1]]^k assembled from sqrt(3) convergent denominators.

    Nothing in the package calls it; it stays for the reasons
    ``pell_power`` gives.
    """
    if k < 1:
        raise DomainError("sqrt3_power wants k >= 1")
    q = sequences.sqrt3_denominators(2 * k)
    return Mat2(q[2 * k], 2 * q[2 * k - 1], q[2 * k - 1], q[2 * k - 2])


def odd_quotient_power(m: int, n: int) -> Mat2:
    """[[2m+1,1],[1,0]]^n assembled from u(n+1) = (2m+1)u(n) + u(n-1).

    Nothing in the package calls it; it stays for the reasons
    ``pell_power`` gives.
    """
    if m < 0 or n < 1:
        raise DomainError("odd_quotient_power wants m >= 0, n >= 1")
    u = sequences.odd_quotient_seq(m, n + 1)
    return Mat2(u[n + 1], u[n], u[n], u[n - 1])


__all__ = [
    "Mat2",
    "IDENTITY",
    "mat_pow",
    "pell_power",
    "sqrt3_power",
    "odd_quotient_power",
]
