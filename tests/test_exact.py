import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surdcf.convergents import word_matrix
from surdcf.exact import (
    PRIME_TEST_LIMIT,
    DomainError,
    is_prime,
    is_square,
    isqrt,
    pollard_brent,
    rat,
    solve_linear_congruence,
)


# palindromes of length <= 30 with entries <= 50: the miner's word matrices,
# whose entries run well past 2**64
palindromes = st.builds(
    lambda half, odd: tuple(half + half[::-1][odd:]),
    st.lists(st.integers(1, 50), min_size=1, max_size=15),
    st.integers(0, 1),
)


def assert_congruence_definition(c1, c0, mod):
    sol = solve_linear_congruence(c1, c0, mod)
    g = math.gcd(c1, mod)
    assert (sol is not None) == (c0 % g == 0)
    if sol is not None:
        residue, modulus = sol
        assert modulus == mod // g
        assert 0 <= residue < modulus
        assert (c1 * residue + c0) % mod == 0


def brute_congruence(c1, c0, mod):
    """Oracle: scan all residues."""
    hits = [x for x in range(mod) if (c1 * x + c0) % mod == 0]
    return hits


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


class TestLinearCongruence:
    def test_examples(self):
        # frozen from the brute-force oracle below
        assert brute_congruence(4, 1, 5) == [1]
        assert solve_linear_congruence(4, 1, 5) == (1, 5)
        assert brute_congruence(2, 1, 2) == []
        assert solve_linear_congruence(2, 1, 2) is None
        assert solve_linear_congruence(1, 0, 7) == (0, 7)

    def test_bad_modulus(self):
        with pytest.raises(DomainError):
            solve_linear_congruence(1, 1, 0)

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 60))
    def test_against_brute_force(self, c1, c0, mod):
        sol = solve_linear_congruence(c1, c0, mod)
        hits = brute_congruence(c1, c0, mod)
        assert (sol is not None) == bool(hits)
        if sol is not None:
            residue, modulus = sol
            assert 0 <= residue < modulus
            assert residue == hits[0]
            assert mod % modulus == 0
            # the solution set is exactly the arithmetic progression
            assert hits == list(range(residue, mod, modulus))
            for x in (residue, residue + modulus):
                assert (c1 * x + c0) % mod == 0

    @given(palindromes, st.integers(-2, 2))
    @example((50,) * 30, 0)
    def test_definition_at_miner_sizes(self, pal, shift):
        m = word_matrix(pal)
        A, B, C = m.m11, m.m12, m.m22
        # the miner's head congruence 2B*a + C == 0 (mod A), shifted so that
        # unsolvable cases occur too, and with a negative coefficient
        assert_congruence_definition(2 * B, C + shift, A)
        assert_congruence_definition(-B, C + shift, A)

    def test_miner_operands_exceed_64_bits(self):
        m = word_matrix((50,) * 30)
        assert min(m.m11, m.m12, m.m22) > 2**64
        assert_congruence_definition(2 * m.m12, m.m22, m.m11)

    def test_unit_modulus(self):
        for c1, c0 in [(0, 0), (3, -7), (-5, 2), (2**70, 2**65 + 1)]:
            assert solve_linear_congruence(c1, c0, 1) == (0, 1)

    def test_zero_coefficient(self):
        assert solve_linear_congruence(0, 6, 3) == (0, 1)
        assert solve_linear_congruence(0, 0, 7) == (0, 1)
        assert solve_linear_congruence(0, 5, 3) is None

    def test_negative_coefficient(self):
        assert brute_congruence(-4, 1, 5) == [4]
        assert solve_linear_congruence(-4, 1, 5) == (4, 5)
        assert brute_congruence(-6, 4, 10) == [4, 9]
        assert solve_linear_congruence(-6, 4, 10) == (4, 5)

    def test_coefficient_multiple_of_modulus(self):
        assert solve_linear_congruence(10, 5, 5) == (0, 1)
        assert solve_linear_congruence(-15, 0, 5) == (0, 1)
        assert solve_linear_congruence(10, 3, 5) is None
        assert solve_linear_congruence(12, 4, 6) is None


# Every (c1, c0, mod) that TestLinearCongruence names.
CONGRUENCE_CASES = [
    (4, 1, 5), (2, 1, 2), (1, 0, 7),
    (0, 0, 1), (3, -7, 1), (-5, 2, 1), (2**70, 2**65 + 1, 1),
    (0, 6, 3), (0, 0, 7), (0, 5, 3),
    (-4, 1, 5), (-6, 4, 10),
    (10, 5, 5), (-15, 0, 5), (10, 3, 5), (12, 4, 6),
]


def column_solutions(c1, c0, mod, dtype):
    """``solve_linear_congruence`` on each row of columns of ``dtype``: numpy
    int64 scalars, or Python ints (``dtype=object``)."""
    cols = [np.array(col, dtype=dtype) for col in (c1, c0, mod)]
    return [solve_linear_congruence(*row) for row in zip(*cols)]


class TestLinearCongruenceColumns:
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_named_cases(self, dtype):
        # Every case named above, against the definition and the brute-force
        # scan; int64 rows only where they fit.
        cases = [case for case in CONGRUENCE_CASES if dtype is object or max(map(abs, case)) < 2**62]
        for case in cases:
            assert_congruence_definition(*case)
        want = [(hits[0], mod // math.gcd(c1, mod)) if (hits := brute_congruence(c1, c0, mod)) else None
                for c1, c0, mod in cases]
        assert column_solutions(*zip(*cases), dtype) == want

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_against_brute_force_grid(self, dtype):
        grid = [(c1, c0, mod) for c1 in range(-12, 13) for c0 in range(-12, 13) for mod in range(1, 31)]
        got = column_solutions(*zip(*grid), dtype)
        for (c1, c0, mod), sol in zip(grid, got):
            hits = brute_congruence(c1, c0, mod)
            assert sol == ((hits[0], mod // math.gcd(c1, mod)) if hits else None), (c1, c0, mod)

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_bad_modulus(self, dtype):
        for mod in (0, -3):
            with pytest.raises(DomainError):
                column_solutions([1], [1], [mod], dtype)


class TestRat:
    def test_reduced_on_construction(self):
        r = rat(6, -4)
        assert (r.numerator, r.denominator) == (-3, 2)
        with pytest.raises(DomainError):
            rat(1, 0)

    @given(st.integers(-10**9, 10**9), st.integers(1, 10**9),
           st.integers(-10**9, 10**9), st.integers(1, 10**9))
    def test_field_ops_cross_multiplied(self, a, b, c, d):
        x, y = Fraction(a, b), Fraction(c, d)
        s = x + y
        assert s.numerator * (b * d) == (a * d + c * b) * s.denominator
        p = x * y
        assert p.numerator * (b * d) == (a * c) * p.denominator
        assert (x < y) == (a * d < c * b)
