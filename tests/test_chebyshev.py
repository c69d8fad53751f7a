from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surdcf.chebyshev import (
    Poly,
    cheb_mat_pow,
    cheb_u,
    cheb_u_prime,
    cousin_closed_form,
    cousin_mat_pow,
    eval_poly,
)
from surdcf.exact import DomainError
from surdcf.mat2 import IDENTITY, Mat2, mat_pow


def binomial_sum_u(n):
    """Oracle: alternating binomial-sum coefficients against powers of 2x."""
    coeffs = [0] * (n + 1)
    for k in range(n // 2 + 1):
        coeffs[n - 2 * k] = (-1) ** k * comb(n - k, k)
    return tuple(coeffs)


class TestPolynomials:
    def test_printed_table(self):
        assert cheb_u(0).coeffs == (1,)
        assert cheb_u(1).coeffs == (0, 1)
        assert cheb_u(2).coeffs == (-1, 0, 1)
        assert cheb_u(3).coeffs == (0, -2, 0, 1)
        assert cheb_u(4).coeffs == (1, 0, -3, 0, 1)
        assert cheb_u(5).coeffs == (0, 3, 0, -4, 0, 1)

    def test_recurrence_equals_binomial_sum(self):
        for n in range(65):
            assert cheb_u(n).coeffs == binomial_sum_u(n)

    def test_cousin_examples(self):
        assert cheb_u_prime(0).coeffs == (1,)
        assert cheb_u_prime(2).coeffs == (1, 0, 1)
        assert cheb_u_prime(3).coeffs == (0, 2, 0, 1)

    def test_sign_scheme(self):
        for n in range(65):
            u = cheb_u(n).coeffs
            up = cheb_u_prime(n).coeffs
            assert tuple(abs(c) for c in u) == up
            assert all(c >= 0 for c in up)

    def test_negative_degree_rejected(self):
        with pytest.raises(DomainError):
            cheb_u(-1)


class TestEval:
    def test_examples(self):
        assert eval_poly(cheb_u(1), Fraction(3, 2)) == 3
        assert eval_poly(cheb_u_prime(2), Fraction(3, 2)) == 10
        assert eval_poly(cheb_u(2), 1) == 3

    def test_closed_form_matches_recurrence(self):
        args = [Fraction(1, 2), Fraction(3, 2), Fraction(5, 2), Fraction(2), Fraction(3)]
        for n in range(41):
            poly = cheb_u_prime(n)
            for x in args:
                assert cousin_closed_form(n, x) == eval_poly(poly, x)


def _random_unimodular(rng):
    m = IDENTITY
    for _ in range(rng.randint(2, 6)):
        if rng.random() < 0.5:
            m = m * Mat2(1, rng.randint(-4, 4), 0, 1)
        else:
            m = m * Mat2(1, 0, rng.randint(-4, 4), 1)
    return m


class TestMatrixPower:
    def test_examples(self):
        assert cheb_mat_pow(Mat2(2, 1, 1, 1), 2) == Mat2(5, 3, 3, 2)
        assert cheb_mat_pow(Mat2(1, 1, 0, 1), 5) == Mat2(1, 5, 0, 1)
        assert cheb_mat_pow(IDENTITY, 7) == IDENTITY

    def test_rejects_other_determinants(self):
        with pytest.raises(DomainError):
            cheb_mat_pow(Mat2(3, 1, 1, 0), 2)  # det -1 lives in cousin_mat_pow

    def test_random_unimodular_matrices(self):
        import random
        rng = random.Random(20250808)
        for _ in range(200):
            m = _random_unimodular(rng)
            n = rng.randint(1, 30)
            assert cheb_mat_pow(m, n) == mat_pow(m, n)

    def test_cousin_examples(self):
        assert cousin_mat_pow(1, 2) == Mat2(10, 3, 3, 1)
        assert cousin_mat_pow(1, 3) == Mat2(33, 10, 10, 3)
        assert cousin_mat_pow(0, 4) == Mat2(5, 3, 3, 2)

    def test_cousin_equals_direct_power(self):
        for m in range(9):
            base = Mat2(2 * m + 1, 1, 1, 0)
            for n in range(1, 101):
                assert cousin_mat_pow(m, n) == mat_pow(base, n)

    def test_cousin_entries_are_the_printed_polynomials(self):
        # The printed form: [[U'_n, U'_{n-1}], [U'_{n-1}, U'_{n-2}]] at half
        # the odd quotient, with U'_{-1} = 0.
        for m in range(9):
            x = Fraction(2 * m + 1, 2)
            u = [Fraction(0)] + [eval_poly(cheb_u_prime(n), x) for n in range(61)]
            for n in range(1, 61):
                assert cousin_mat_pow(m, n) == Mat2(u[n + 1], u[n], u[n], u[n - 1])


def test_poly_str_smoke():
    assert str(cheb_u(2)) == "(2x)^2-1"
    assert str(Poly(())) == "0"
