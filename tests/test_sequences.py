import pytest

from surdcf.convergents import convergents_of_word
from surdcf.exact import DomainError
from surdcf.mat2 import Mat2, mat_pow
from surdcf.sequences import (
    FIBONACCI,
    LinRecSpec,
    ab_pair,
    even_quotient_pairs,
    interleaved_even_pair,
    linrec_nth,
    named_sequence,
    odd_quotient_seq,
    pair_m2m_denominators,
    pell_pair,
    quad_power,
    sqrt3_denominators,
    sqrt3_pair,
    triple113_pair,
)

ODD3 = LinRecSpec(3, 1, 0, 1)


def binet_nth(spec, n):
    """u(n) by Binet's closed form, apart from the recurrence loop.

    With D = a^2 + 4b != 0 and (a + sqrt(D))^k = s + t*sqrt(D), the
    sequence with seeds (0, 1) is U(k) = t / 2^(k-1), and
    u(n) = u1*U(n) + b*u0*U(n-1).
    """
    def unit(k):
        if k == 0:
            return 0
        _, t = quad_power(spec.a, 1, spec.a**2 + 4 * spec.b, k)
        q, r = divmod(t, 2 ** (k - 1))
        assert r == 0
        return q

    return spec.u1 * unit(n) + spec.b * spec.u0 * unit(n - 1) if n else spec.u0


def even_quotient_oracle(m, up_to):
    """(p_j, q_j), j = 0..up_to, of [2m; m, 4m ...] by the alternating
    multiplier, written out apart from the convergent recurrence:
    p_0 = 1, q_0 = 0, p_1/q_1 = 2m/1, then even steps multiply by m and
    odd steps by 4m."""
    p, q = [1, 2 * m], [0, 1]
    for j in range(2, up_to + 1):
        mult = m if j % 2 == 0 else 4 * m
        p.append(mult * p[-1] + p[-2])
        q.append(mult * q[-1] + q[-2])
    return list(zip(p, q))[: up_to + 1]


class TestLinRec:
    def test_examples(self):
        assert linrec_nth(FIBONACCI, 10) == 55
        assert linrec_nth(ODD3, 6) == 360
        assert linrec_nth(LinRecSpec(9, -2, 4, 7), 0) == 4

    def test_binet_examples(self):
        assert binet_nth(FIBONACCI, 7) == linrec_nth(FIBONACCI, 7) == 13
        assert binet_nth(ODD3, 3) == linrec_nth(ODD3, 3) == 10
        assert binet_nth(LinRecSpec(5, 3, 2, 11), 1) == linrec_nth(LinRecSpec(5, 3, 2, 11), 1) == 11

    def test_binet_equals_iteration(self):
        specs = [
            FIBONACCI,
            ODD3,
            LinRecSpec(2, 1, 1, 1),       # sqrt(2) numerators
            LinRecSpec(4, -1, 1, 3),      # the 4x - 1 pair
            LinRecSpec(8, 1, 1, 7),       # the 8x + 1 pair
            LinRecSpec(3, 4, 5, 1),       # perfect-square discriminant (25)
            LinRecSpec(1, -3, 2, 9),      # negative discriminant
        ]
        for spec in specs:
            for n in range(101):
                assert binet_nth(spec, n) == linrec_nth(spec, n), (spec, n)

    def test_degenerate_discriminant(self):
        # a^2 + 4b = 0: a double root a/2, and u(n) = n (a/2)^(n-1) from
        # seeds (0, 1).
        for a in (2, 4, -6):
            spec = LinRecSpec(a, -(a * a) // 4, 0, 1)
            for n in range(1, 61):
                assert linrec_nth(spec, n) == n * (a // 2) ** (n - 1), (a, n)

    def test_power_sequence_parity(self):
        # u(3r) even, u(3r+1) and u(3r+2) odd
        for m in range(9):
            u = odd_quotient_seq(m, 92)
            for r in range(31):
                assert u[3 * r] % 2 == 0
                assert u[3 * r + 1] % 2 == 1
                assert u[3 * r + 2] % 2 == 1


class TestPellPair:
    def test_examples(self):
        assert pell_pair(0) == (1, 0)
        assert pell_pair(4) == (17, 12)
        assert pell_pair(7) == (239, 169)

    def test_shift_identities(self):
        for k in range(201):
            p, q = pell_pair(k)
            p1, q1 = pell_pair(k + 1)
            assert p + q == q1
            assert p + 2 * q == p1


class TestSqrt3:
    def test_examples(self):
        assert sqrt3_pair(0) == (2, 1)
        assert sqrt3_pair(3) == (19, 11)
        assert sqrt3_pair(7) == (265, 153)

    def test_relations_via_word_convergents(self):
        # independent route: convergents of the actual quotient word
        word = [1] + [1, 2] * 110
        conv = convergents_of_word(word)
        p = [c.p for c in conv]
        q = [c.q for c in conv]
        for n in range(1, 100):
            assert p[2 * n - 1] == q[2 * n] - q[2 * n - 1]
            assert p[2 * n + 1] == q[2 * n] + q[2 * n + 1]
            assert 3 * q[2 * n] + 2 * q[2 * n - 1] == q[2 * n + 2]
            assert 3 * q[2 * n - 1] + q[2 * n - 2] == q[2 * n + 1]
        # and the module's pair/denominator views agree with it
        for k in range(100):
            assert sqrt3_pair(k) == (p[k + 1], q[k + 1])
        assert sqrt3_denominators(100) == q[:101]


class TestAbPair:
    def test_examples(self):
        assert ab_pair(1) == (3, 1)
        assert ab_pair(3) == (41, 15)
        assert ab_pair(5) == (571, 209)

    def test_equals_sqrt3_denominators(self):
        q = sqrt3_denominators(200)
        for k in range(1, 101):
            assert ab_pair(k) == (q[2 * k], q[2 * k - 1])


class TestTriple113:
    def test_examples(self):
        assert triple113_pair(0) == (1, 0)
        assert triple113_pair(1) == (7, 4)
        assert triple113_pair(2) == (57, 32)

    def test_matrix_identity_and_evenness(self):
        base = Mat2(7, 2, 4, 1)
        for k in range(1, 21):
            p, q = triple113_pair(k)
            p_prev, q_prev = triple113_pair(k - 1)
            assert q % 2 == 0 and q_prev % 2 == 0
            assert mat_pow(base, k) == Mat2(p, q // 2, q, p_prev + q_prev // 2)
        for k in range(60):
            assert triple113_pair(k)[1] % 2 == 0


class TestEvenQuotient:
    def test_printed_lists(self):
        m1 = [interleaved_even_pair(1, k) for k in range(5)]
        assert m1 == [(2, 1), (3, 1), (14, 5), (17, 6), (82, 29)]
        assert interleaved_even_pair(2, 2) == (76, 17)
        assert interleaved_even_pair(3, 1) == (19, 3)

    def test_matches_word_convergents(self):
        for m in (1, 2, 3, 4):
            pairs = even_quotient_oracle(m, 16)
            assert even_quotient_pairs(m, 16) == pairs
            for k in range(15):
                assert interleaved_even_pair(m, k) == pairs[k + 1]

    def test_empty_word_and_zero_count(self):
        for m in (1, 2, 3):
            assert even_quotient_pairs(m, 0) == [(1, 0)]
            assert even_quotient_pairs(m, 1) == [(1, 0), (2 * m, 1)]
            assert odd_quotient_seq(m, 0) == [0]
            assert pair_m2m_denominators(m, 0) == [1]
        assert sqrt3_denominators(0) == [1]

    def test_negative_index_rejected(self):
        for call in (lambda: even_quotient_pairs(1, -1), lambda: sqrt3_denominators(-1),
                     lambda: pair_m2m_denominators(1, -1)):
            with pytest.raises(DomainError):
                call()

    def test_even_power_matrix(self):
        # [[p2,8q2],[q2,p2]]^k pattern for the doubled-step matrix at m=1
        pairs = even_quotient_pairs(1, 41)
        base = Mat2(3, 8, 1, 3)
        for k in range(1, 21):
            p, q = pairs[2 * k]
            assert mat_pow(base, k) == Mat2(p, 8 * q, q, p)


class TestOddMultiplier:
    def test_examples(self):
        # The ladder multiplier (2m+1)((2m+1)^2 + 3) is the trace of the
        # cube of the step matrix [[2m+1, 1], [1, 0]].
        for m, mult in [(0, 4), (1, 36), (2, 140)]:
            cube = mat_pow(Mat2(2 * m + 1, 1, 1, 0), 3)
            assert cube.m11 + cube.m22 == mult == (2 * m + 1) * ((2 * m + 1) ** 2 + 3)

    def test_fibonacci_triple_step(self):
        f = [linrec_nth(FIBONACCI, n) for n in range(40)]
        for k in range(2, 12):
            assert f[3 * k + 3] == 4 * f[3 * k] + f[3 * k - 3]

    def test_pair_recurrences_match_word_convergents(self):
        # the index-(5k-2) and index-5k convergents of [0; m,1,1,m,4m+2 ...]
        # are the inverted (u(3k-1), 2u(3k-2)) and (u(3k+1), 2u(3k)) pairs,
        # and both ladders advance by the multiplier (2m+1)((2m+1)^2 + 3), the
        # trace of the cube of the step matrix [[2m+1, 1], [1, 0]]
        for m in range(1, 6):
            word = [0] + [m, 1, 1, m, 4 * m + 2] * 11
            conv = convergents_of_word(word)
            u = odd_quotient_seq(m, 34)
            cube = mat_pow(Mat2(2 * m + 1, 1, 1, 0), 3)
            mult = cube.m11 + cube.m22
            for k in range(1, 11):
                c = conv[5 * k - 2]
                assert (c.q, c.p) == (u[3 * k - 1], 2 * u[3 * k - 2])
                c2 = conv[5 * k]
                assert (c2.q, c2.p) == (u[3 * k + 1], 2 * u[3 * k])
            for k in range(2, 10):
                assert u[3 * (k + 1) - 1] == mult * u[3 * k - 1] + u[3 * (k - 1) - 1]
                assert u[3 * (k + 1) + 1] == mult * u[3 * k + 1] + u[3 * (k - 1) + 1]


class TestNamedSequences:
    def test_rows(self):
        assert named_sequence("pell-p", 5) == [(0, 1), (1, 1), (2, 3), (3, 7), (4, 17)]
        assert named_sequence("fibonacci", 4) == [(0, 0), (1, 1), (2, 1), (3, 2)]
        assert named_sequence("even-q", 4, m=2) == [(0, 0), (1, 1), (2, 2), (3, 17)]

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            named_sequence("nope", 3)

    def test_m_only_where_read(self):
        with pytest.raises(DomainError, match="takes no m"):
            named_sequence("pell-p", 3, m=7)
        assert named_sequence("odd-u", 4) == named_sequence("odd-u", 4, m=1)


def test_pair_m2m_denominators_match_known_values():
    q3 = pair_m2m_denominators(1, 12)
    assert q3 == sqrt3_denominators(12)
    q6 = pair_m2m_denominators(2, 6)
    assert q6 == [1, 2, 9, 20, 89, 198, 881]
    q11 = pair_m2m_denominators(3, 6)
    assert q11 == [1, 3, 19, 60, 379, 1197, 7561]
