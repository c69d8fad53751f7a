import pytest

from conftest import sqrt_cf_oracle, surd_cf_oracle
from surdcf.engine import (
    CenterRelation,
    PeriodicCF,
    SurdState,
    central_class,
    expand_sqrt,
    expand_surd,
    is_primitive_word,
    period_facts,
    period_length,
)
from surdcf.exact import DomainError, ResourceLimitError, isqrt


class TestExpandSqrt:
    def test_printed_values(self):
        assert expand_sqrt(2).as_list() == [1, 2]
        assert expand_sqrt(13).as_list() == [3, 1, 1, 1, 1, 6]

    def test_against_independent_oracle(self):
        # d = 19 and 21: small members of the period-6 families
        for d in (19, 21):
            cf = expand_sqrt(d)
            want = sqrt_cf_oracle(d, 1 + 2 * cf.length)
            assert cf.as_list() + list(cf.period)[: cf.length - 1] == want[: 2 * cf.length]
        assert expand_sqrt(19).as_list() == [4, 2, 1, 3, 1, 2, 8]
        assert expand_sqrt(21).as_list() == [4, 1, 1, 2, 1, 1, 8]

    def test_rejects_squares_and_nonpositive(self):
        for bad in (16, 1, 0, -5):
            with pytest.raises(DomainError):
                expand_sqrt(bad)

    def test_period_length(self):
        assert period_length(2) == 1
        assert period_length(13) == 5
        assert period_length(7) == 4
        assert expand_sqrt(7).as_list() == [2, 1, 1, 1, 4]


class TestStructuralSweep:
    def test_step_identities_and_structure(self):
        # Re-run the recurrences independently and check the step identities
        # Q(k)Q(k-1) = d - P(k)^2 and a(k)Q(k) = P(k) + P(k+1) hold along the
        # way, then the palindrome/terminal/bound facts on the result.
        for d in range(2, 20_001):
            a0 = isqrt(d)
            if a0 * a0 == d:
                continue
            cf = expand_sqrt(d)
            P, Q = a0, d - a0 * a0
            prev_q = 1
            for k, a in enumerate(cf.period):
                assert Q * prev_q == d - P * P
                assert a == (a0 + P) // Q
                P_next = a * Q - P
                assert a * Q == P + P_next
                prev_q, P, Q = Q, P_next, (d - P_next * P_next) // Q
                if k == cf.length - 1:
                    assert prev_q == 1
            inner = cf.period[:-1]
            assert inner == inner[::-1]
            assert cf.period[-1] == 2 * cf.a0
            assert all(a <= cf.a0 for a in inner)


class TestLargeRadicands:
    def test_random_large_d_against_oracle(self):
        import random
        rng = random.Random(0x5eed)
        checked = 0
        while checked < 40:
            d = rng.randrange(10**10, 10**12)
            if isqrt(d) ** 2 == d:
                continue
            cf = expand_sqrt(d)
            take = min(30, cf.length + 1)
            want = sqrt_cf_oracle(d, take)
            assert cf.as_list()[:take] == want
            inner = cf.period[:-1]
            assert inner == inner[::-1]
            assert cf.period[-1] == 2 * cf.a0
            checked += 1

    def test_huge_d_structure(self):
        # family-scale radicand (~1.4e21, a run of twelve 5s): exact and fast
        from surdcf.families import family_by_id, instantiate
        fam = family_by_id("odd-run-long-ladder")
        d, expected = instantiate(fam, {"m": 2, "k": 4, "n": 101})
        assert d > 10**21
        cf = expand_sqrt(d)
        assert cf.as_list() == expected.as_list()
        assert cf.period == (5,) * 12 + (2 * cf.a0,)


class TestCentralClass:
    def test_examples(self):
        c21 = central_class(21)
        assert (c21.center, c21.relation) == (2, CenterRelation.LESS_THAN_A0_MINUS_1)
        c7 = central_class(7)
        assert (c7.center, c7.relation) == (1, CenterRelation.EQUALS_A0_MINUS_1)
        c13 = central_class(13)
        assert not c13.has_center and c13.relation is None
        c22 = central_class(22)
        assert (c22.center, c22.relation) == (4, CenterRelation.EQUALS_A0)


class TestPeriodFacts:
    def test_engine_periods(self):
        assert period_facts(expand_sqrt(22)) == (4, True, True, True)
        assert period_facts(expand_sqrt(2)) == (-1, True, True, True)
        assert period_facts(expand_sqrt(13)) == (-1, True, True, True)

    def test_each_fact_can_fail(self):
        # Hand-built words, not expansions: each breaks one fact.
        assert period_facts(PeriodicCF(0, 3, (1, 2, 1, 6))) == (2, True, True, True)
        assert period_facts(PeriodicCF(0, 3, (1, 2, 2, 6))) == (2, False, True, True)
        assert period_facts(PeriodicCF(0, 3, (1, 2, 1, 5))) == (2, True, False, True)
        assert period_facts(PeriodicCF(0, 3, (4, 6))) == (4, True, True, False)


class TestExpandSurd:
    def test_purely_periodic_one_plus_sqrt2(self):
        got = expand_surd(SurdState(1, 1, 2))
        assert got.preperiod == [] and got.period == [2]

    def test_sqrt13_forms(self):
        assert expand_surd(SurdState(0, 1, 13)) == ([3], [1, 1, 1, 1, 6])
        assert expand_surd(SurdState(-3, 1, 13)) == ([0], [1, 1, 1, 1, 6])

    def test_printed_sqrt29_tail_is_a_typo(self):
        # the tail quotient is 2*a0 = 10; the printed 29 cannot occur
        got = expand_surd(SurdState(-5, 1, 29))
        assert got.preperiod == [0]
        assert got.period == [2, 1, 1, 2, 10]
        assert got.period != [2, 1, 1, 2, 29]

    def test_agrees_with_expand_sqrt(self, expansions_10k):
        for d, cf in expansions_10k.items():
            got = expand_surd(SurdState(0, 1, d))
            assert got.preperiod == [cf.a0]
            assert got.period == list(cf.period)

    def test_purely_periodic_criterion(self, expansions_10k):
        # a0 + sqrt(d) > 1 with conjugate in (-1, 0): no preperiod
        for d, cf in expansions_10k.items():
            got = expand_surd(SurdState(cf.a0, 1, d))
            assert got.preperiod == []

    def test_normalization_preserves_value(self):
        raw = SurdState(1, 3, 5)
        assert not raw.is_reduced_form
        norm = raw.normalized()
        assert norm.is_reduced_form
        assert (norm.P, norm.Q, norm.d) == (3, 9, 45)
        got = expand_surd(raw)
        quotients = got.preperiod + got.period + got.period
        want = surd_cf_oracle(1, 3, 5, len(quotients))
        assert quotients[: len(want)] == want

    def test_negative_q_floor(self):
        got = expand_surd(SurdState(0, -1, 2))
        quotients = got.preperiod + got.period + got.period
        want = surd_cf_oracle(0, -1, 2, len(quotients))
        assert quotients == want

    def test_max_steps_budget(self):
        with pytest.raises(ResourceLimitError):
            expand_surd(SurdState(0, 1, 19), max_steps=3)

    def test_bad_states(self):
        with pytest.raises(DomainError):
            SurdState(0, 0, 2)
        with pytest.raises(DomainError):
            SurdState(0, 1, 9)


def test_is_primitive_word():
    assert is_primitive_word([1, 2])
    assert not is_primitive_word([2, 2])
    assert not is_primitive_word([1, 2, 1, 2, 1, 2])
    assert is_primitive_word([1, 2, 1, 2, 1])
    assert is_primitive_word([5])
