from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surdcf.convergents import (
    convergents_of_word,
    palindrome_b,
    realizes,
    surd_from_periodic_cf,
    word_matrix,
)
from surdcf.engine import expand_sqrt
from surdcf.exact import DomainError
from surdcf.mat2 import IDENTITY, Mat2, quotient_matrix

words = st.lists(st.integers(1, 9), min_size=1, max_size=12)


class TestConvergents:
    def test_sqrt2_table(self):
        conv = convergents_of_word([1, 2, 2, 2, 2, 2, 2])
        assert [(c.p, c.q) for c in conv] == [
            (1, 1), (3, 2), (7, 5), (17, 12), (41, 29), (99, 70), (239, 169),
        ]

    def test_sqrt3_tail_table(self):
        conv = convergents_of_word([1, 1, 2, 1, 2, 1, 2])
        assert [(c.p, c.q) for c in conv[1:]] == [
            (2, 1), (5, 3), (7, 4), (19, 11), (26, 15), (71, 41),
        ]

    def test_single_term(self):
        conv = convergents_of_word([5])
        assert len(conv) == 1 and (conv[0].p, conv[0].q) == (5, 1)

    def test_rejects_bad_words(self):
        with pytest.raises(DomainError):
            convergents_of_word([])
        with pytest.raises(DomainError):
            convergents_of_word([1, 0, 2])

    @given(words)
    def test_determinant_identity(self, word):
        conv = convergents_of_word(word)
        prev_p, prev_q = 1, 0
        for k, c in enumerate(conv):
            assert c.p * prev_q - c.q * prev_p == (-1) ** (k - 1)
            prev_p, prev_q = c.p, c.q

    @given(words)
    def test_coprime(self, word):
        from math import gcd
        for c in convergents_of_word(word):
            assert gcd(c.p, c.q) == 1


class TestWordMatrix:
    def test_examples_direct_product(self):
        two = quotient_matrix(1) * quotient_matrix(2)
        assert word_matrix([1, 2]) == two == Mat2(3, 1, 2, 1)
        assert word_matrix([2, 2]) == Mat2(5, 2, 2, 1)
        assert word_matrix([7]) == Mat2(7, 1, 1, 0)

    @given(words)
    def test_columns_are_last_convergents(self, word):
        m = word_matrix(word)
        conv = convergents_of_word(word)
        assert (m.m11, m.m21) == (conv[-1].p, conv[-1].q)
        if len(conv) >= 2:
            assert (m.m12, m.m22) == (conv[-2].p, conv[-2].q)
        else:
            assert (m.m12, m.m22) == (1, 0)

    @given(words)
    def test_determinant_sign(self, word):
        assert word_matrix(word).det() == (-1) ** len(word)

    @given(st.lists(st.integers(-5, 60), min_size=1, max_size=40))
    @example(list(range(-5, 35)))
    def test_equals_step_matrix_product(self, word):
        # the reference is the literal product, independent of the recurrence
        want = reduce(Mat2.__mul__, map(quotient_matrix, word), IDENTITY)
        assert word_matrix(word) == want

    def test_empty_word_rejected(self):
        with pytest.raises(DomainError):
            word_matrix([])


def _palindromes(max_len, max_entry):
    import itertools
    yield ()
    for length in range(1, max_len + 1):
        half = (length + 1) // 2
        for head in itertools.product(range(1, max_entry + 1), repeat=half):
            yield head + head[: length - half][::-1]


class TestSurdFromPeriodicCF:
    def test_printed_sqrt_values(self):
        assert surd_from_periodic_cf(3, [1, 1, 1, 1, 6]).is_pure_sqrt
        assert surd_from_periodic_cf(3, [1, 1, 1, 1, 6]).d == 13
        sol = surd_from_periodic_cf(1, [2])
        assert sol.is_pure_sqrt and sol.d == 2

    def test_engine_round_trip_example(self):
        cf = expand_sqrt(7)
        sol = surd_from_periodic_cf(cf.a0, cf.period)
        assert sol.is_pure_sqrt and sol.d == 7

    def test_round_trip_everywhere(self, expansions_10k):
        for d, cf in expansions_10k.items():
            sol = surd_from_periodic_cf(cf.a0, cf.period)
            assert sol.is_pure_sqrt and sol.d == d, f"round trip broke at {d}"

    def test_root_satisfies_quadratic(self):
        # rational + irrational parts of A2 x^2 + A1 x + A0 must both vanish
        for a0, period in [(0, [1, 2]), (5, [1, 3, 1]), (2, [3, 3]), (1, [1, 1, 1, 2])]:
            s = surd_from_periodic_cf(a0, period)
            P, Q, D = s.root_num_P, s.root_den_Q, s.d
            assert s.A2 * (P * P + D) + s.A1 * P * Q + s.A0 * Q * Q == 0
            assert 2 * s.A2 * P + s.A1 * Q == 0

    def test_rejects_bad_periods(self):
        with pytest.raises(DomainError):
            surd_from_periodic_cf(1, [])
        with pytest.raises(DomainError):
            surd_from_periodic_cf(1, [2, 0])

    def test_general_value_matches_numerics(self):
        # the reconstructed surd re-expands to the same quotient stream
        from surdcf.engine import SurdState, expand_surd
        cases = [(0, [1, 2]), (5, [1, 3, 1]), (2, [3, 3]), (4, [2, 1, 1]), (1, [1, 1, 1, 2])]
        for a0, period in cases:
            s = surd_from_periodic_cf(a0, period)
            got = expand_surd(SurdState(s.root_num_P, s.root_den_Q, s.d))
            stream = got.preperiod + got.period * 3
            want = ([a0] + list(period) * 3)[: len(stream)]
            assert stream[: len(want)] == want


class TestPalindromeB:
    def test_pattern_22(self):
        assert word_matrix([2, 2]) == Mat2(5, 2, 2, 1)
        assert palindrome_b([2, 2], 6) == 5
        assert expand_sqrt(41).as_list() == [6, 2, 2, 12]

    def test_empty_palindrome_is_unit(self):
        for n in (1, 5, 40):
            assert palindrome_b([], n) == 1
            assert expand_sqrt(n * n + 1).as_list() == [n, 2 * n]

    def test_pattern_11_never_integral(self, expansions_10k):
        assert palindrome_b([1, 1], 4) == Fraction(9, 2)
        assert all(cf.period[:-1] != (1, 1) for cf in expansions_10k.values())

    def test_non_palindrome_rejected(self):
        with pytest.raises(DomainError):
            palindrome_b([1, 2], 3)

    def test_entry_below_one_rejected(self):
        with pytest.raises(DomainError):
            palindrome_b([2, 0, 2], 3)

    def test_palindromic_words_give_symmetric_matrices(self):
        count = 0
        for pal in _palindromes(9, 4):
            if pal:
                assert word_matrix(pal).is_symmetric
                count += 1
        assert count > 1500

    def test_consistency_with_engine(self, expansions_10k):
        for d, cf in expansions_10k.items():
            assert palindrome_b(cf.interior(), cf.a0) == d - cf.a0 * cf.a0


palindromes = st.builds(
    lambda half, odd: tuple(half + half[::-1][odd:]),
    st.lists(st.integers(1, 9), max_size=4),
    st.integers(0, 1),
)  # length <= 8


def engine_realizes(pal, a, b):
    try:
        cf = expand_sqrt(a * a + b)
    except DomainError:  # a perfect square, or below 1
        return False
    return cf.a0 == a and cf.period == (*pal, 2 * a)


class TestRealizes:
    # The engine is the oracle for the identity: at the nearest integer b
    # to (2aB + C)/A, and one either side of it.
    @settings(max_examples=400, deadline=None)
    @given(palindromes, st.integers(1, 60))
    @example((), 1)              # sqrt(2) = [1; 2]
    @example((2, 2), 6)          # sqrt(41) = [6; 2, 2, 12]
    @example((4,), 2)            # b = 1 and the identity hold, but 4 > a
    @example((4,), 4)            # sqrt(18) = [4; 4, 8]
    @example((1, 2, 1), 3)       # sqrt(14) = [3; 1, 2, 1, 6]
    def test_agrees_with_engine(self, pal, a):
        m = word_matrix(pal) if pal else IDENTITY
        b0 = round(Fraction(2 * a * m.m12 + m.m22, m.m11))
        for b in (b0 - 1, b0, b0 + 1):
            assert realizes(m, max(pal, default=0), a, b) == engine_realizes(pal, a, b), (pal, a, b)
