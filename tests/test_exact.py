import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surdcf.exact import (
    PRIME_TEST_LIMIT,
    DomainError,
    Rat,
    is_prime,
    is_square,
    isqrt,
    pollard_brent,
)


class TestIsqrt:
    def test_examples(self):
        assert isqrt(13) == 3
        assert isqrt(49) == 7
        assert isqrt(10**18) == 10**9

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            isqrt(-1)

    def test_exhaustive_small(self):
        bad = [n for n in range(1_000_001)
               if not isqrt(n) ** 2 <= n < (isqrt(n) + 1) ** 2]
        assert bad == []

    @given(st.integers(min_value=0, max_value=10**220))
    @settings(max_examples=300)
    def test_matches_stdlib(self, n):
        assert isqrt(n) == math.isqrt(n)

    @given(st.integers(min_value=0, max_value=10**40))
    def test_defining_inequality(self, n):
        r = isqrt(n)
        assert r * r <= n < (r + 1) * (r + 1)


class TestIsSquare:
    def test_examples(self):
        assert is_square(16)
        assert not is_square(13)
        assert not is_square(-4)

    @given(st.integers(min_value=0, max_value=10**15))
    def test_square_neighbourhood(self, k):
        assert is_square(k * k)
        if k > 1:
            assert not is_square(k * k + 1)
            assert not is_square(k * k - 1)


def trial_division_prime(n):
    return n >= 2 and all(n % p for p in range(2, math.isqrt(n) + 1))


class TestIsPrime:
    def test_exhaustive_small(self):
        for n in range(20_000):
            assert is_prime(n) == trial_division_prime(n), n

    @settings(max_examples=300, deadline=None)
    @given(st.integers(10**9, 10**12))
    def test_matches_trial_division(self, n):
        assert is_prime(n) == trial_division_prime(n)

    def test_strong_pseudoprimes_rejected(self):
        # The least strong pseudoprimes to all of the first 5, 6, 8, 11 and
        # 12 prime bases.
        for n in (2152302898747, 3474749660383, 341550071728321,
                  3825123056546413051, 318665857834031151167461):
            assert not is_prime(n), n

    def test_large_primes(self):
        assert is_prime(2**61 - 1)
        assert is_prime(161425556767073)
        assert not is_prime((10**9 + 7) * (10**9 + 9))

    def test_domain(self):
        for bad in (-1, PRIME_TEST_LIMIT):
            with pytest.raises(DomainError):
                is_prime(bad)


class TestPollardBrent:
    @pytest.mark.parametrize(
        "n",
        [
            9, 15, 25, 1025**3, 29209 * 157885789156189,
            (10**9 + 7) * (10**9 + 9), (2**31 - 1) ** 2, 3 * 5 * 7 * 11 * 13,
            # the strong pseudoprimes of TestIsPrime
            3825123056546413051, 318665857834031151167461,
        ],
    )
    def test_proper_factor(self, n):
        f = pollard_brent(n)
        assert 1 < f < n and n % f == 0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(3, 10**6), st.integers(3, 10**6))
    def test_proper_factor_of_odd_products(self, x, y):
        n = (2 * x + 1) * (2 * y + 1)
        f = pollard_brent(n)
        assert 1 < f < n and n % f == 0

    def test_deterministic(self):
        n = (2**31 - 1) * 1000003
        assert len({pollard_brent(n) for _ in range(3)}) == 1

    def test_domain(self):
        # even or below the least odd composite; primes are the caller's to exclude
        for bad in (-9, 1, 4, 7, 10**12):
            with pytest.raises(DomainError):
                pollard_brent(bad)


class TestRat:
    def test_reduced_on_construction(self):
        r = Rat(6, -4)
        assert (r.numerator, r.denominator) == (-3, 2)
        with pytest.raises(ZeroDivisionError):
            Rat(1, 0)

    @given(st.integers(-10**9, 10**9), st.integers(1, 10**9),
           st.integers(-10**9, 10**9), st.integers(1, 10**9))
    def test_field_ops_cross_multiplied(self, a, b, c, d):
        x, y = Fraction(a, b), Fraction(c, d)
        s = x + y
        assert s.numerator * (b * d) == (a * d + c * b) * s.denominator
        p = x * y
        assert p.numerator * (b * d) == (a * c) * p.denominator
        assert (x < y) == (a * d < c * b)
