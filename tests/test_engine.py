import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sqrt_cf_oracle, sqrt_full_walk, sqrt_pq_walk, surd_cf_oracle
from surdcf import engine
from surdcf.engine import (
    SurdState,
    expand_sqrt,
    expand_surd,
    half_period,
    is_primitive_word,
    mirror,
)
from surdcf.exact import DomainError, InternalConsistencyError, ResourceLimitError, isqrt


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
        assert expand_sqrt(2).length == 1
        assert expand_sqrt(13).length == 5
        assert expand_sqrt(7).length == 4
        assert expand_sqrt(7).as_list() == [2, 1, 1, 1, 4]


def assert_half_walk(d):
    """The half walk, mirrored, is the whole walked period, and its length
    is 2k + odd for a half of k quotients."""
    a0, half, odd = half_period(d)
    k = len(half)
    full = sqrt_full_walk(d)
    assert (a0, tuple(mirror(a0, half, odd))) == full, f"d={d}"
    assert len(full[1]) == 2 * k + odd
    return a0, half[:k], odd


def assert_full_walk(d):
    assert_half_walk(d)
    cf = expand_sqrt(d)
    assert (cf.a0, cf.period) == sqrt_full_walk(d), f"d={d}"
    return cf


class TestHalfWalk:
    """half_period stops at the centre, and it and expand_sqrt mirror; the
    full walk does not."""

    def test_every_small_d(self):
        for d in range(2, 30_001):
            if isqrt(d) ** 2 != d:
                assert_full_walk(d)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(2, 10**9 - 1))
    def test_random_d(self, d):
        if isqrt(d) ** 2 != d:
            assert_full_walk(d)

    @pytest.mark.parametrize("a", [1, 2, 3, 10, 999, 10**12])
    def test_short_periods(self, a):
        assert assert_full_walk(a * a + 1).period == (2 * a,)
        assert assert_full_walk(a * a + 2).period == (a, 2 * a)
        assert assert_full_walk(a * a + 2 * a).period == (1, 2 * a)

    def test_even_and_odd_centres(self):
        assert assert_full_walk(7).period == (1, 1, 1, 4)
        assert assert_full_walk(13).period == (1, 1, 1, 1, 6)

    def test_long_erratum_member(self):
        # pair-m2m-k2-printed at m=5, n=22: its printed period has length 10,
        # the actual one 100,398.
        from surdcf.families import family_by_id, instantiate
        d, _ = instantiate(family_by_id("pair-m2m-k2-printed"), {"m": 5, "n": 22})
        assert assert_full_walk(d).length > 100_000

    def test_failed_step_raises(self, monkeypatch):
        # Faults driven through the real loop.  A radicand whose subtraction
        # is off by one starts the walk from a wrong Q_1, so the conserved
        # P^2 + Q_prev*Q is not d when the walk stops: a step's remainder.
        class OffByOne(int):
            def __sub__(self, other):
                return int(self) - other + 1

        for d in (2, 19):
            for walk in (expand_sqrt, half_period):
                with pytest.raises(InternalConsistencyError, match=f"remainder at d={d}$"):
                    walk(OffByOne(d))
        # An a0 one too small keeps the invariant, and at d = 5 reaches
        # Q == 1 before either centre.
        monkeypatch.setattr(engine, "isqrt", lambda d: isqrt(d) - 1)
        for walk in (expand_sqrt, half_period):
            with pytest.raises(InternalConsistencyError, match="without a centre"):
                walk(5)

    def test_multi_limb_registry_radicands(self):
        # Every registry member past int64, against the literal walk.
        from surdcf import families
        radicands = set()
        for fam in families.registry():
            for assignment in families._assignments(fam, None):
                try:
                    d, _, _ = families._member(fam, assignment)
                except families.FamilyValidityError:
                    continue
                if d >= 2**63:
                    radicands.add(d)
        assert len(radicands) == 93
        for d in radicands:
            assert_full_walk(d)
        assert sum(len(half_period(d)[1]) for d in radicands) == 558


@settings(deadline=None, max_examples=200)
@given(st.one_of(
    st.integers(2, 10**6),
    # (mb)^2 + b has the period (2m, 2mb), or (2m,) at b = 1: multi-limb
    # states in at most two steps.
    st.builds(lambda m, b: (m * b) ** 2 + b, st.integers(1, 2**70), st.integers(1, 2**70)),
))
def test_pq_walk_conserves_its_form(d):
    # P_k^2 + Q_{k-1} Q_k = d at every state k >= 1 of the literal walk: the
    # identity that half_period's one check after its loop rests on.
    if isqrt(d) ** 2 == d:
        return
    _, period, P, Q = sqrt_pq_walk(d)
    assert len(P) == len(Q) == len(period) + 1
    for k in range(1, len(P)):
        assert P[k] * P[k] + Q[k - 1] * Q[k] == d, (d, k)


class TestHalfPeriod:
    @pytest.mark.parametrize("a", [1, 2, 3, 10**12])
    def test_period_of_length_one_has_an_empty_half(self, a):
        assert assert_half_walk(a * a + 1) == (a, [], True)

    def test_even_and_odd_centres(self):
        # ell 2, 3 and 4: the centre is walked once, twice, once.
        assert assert_half_walk(3) == (1, [1], False)
        assert assert_half_walk(41) == (6, [2], True)
        assert assert_half_walk(7) == (2, [1, 1], False)
        assert assert_half_walk(13) == (3, [1, 1], True)

    def test_mirror_builds_onto_the_half(self):
        half = [1, 2]
        assert mirror(5, half, False) is half and half == [1, 2, 1, 10]


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


def primitive_by_definition(word):
    """No shorter word r, r dividing n, repeats to the whole word."""
    n = len(word)
    return not any(n % r == 0 and all(word[i] == word[i % r] for i in range(n)) for r in range(1, n))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.integers(1, 3), max_size=12),
    st.builds(lambda w, k: w * k, st.lists(st.integers(1, 3), min_size=1, max_size=4), st.integers(1, 5)),
))
def test_is_primitive_word_is_the_definition(word):
    assert is_primitive_word(word) == primitive_by_definition(word)
    assert is_primitive_word(tuple(word)) == primitive_by_definition(word)


def test_is_primitive_word():
    assert is_primitive_word([1, 2])
    assert not is_primitive_word([2, 2])
    assert not is_primitive_word([1, 2, 1, 2, 1, 2])
    assert is_primitive_word([1, 2, 1, 2, 1])
    assert is_primitive_word([5])
