import json

import pytest

from surdcf import analyzer
from surdcf.analyzer import (
    CLAIM_BOUND,
    CLAIM_CENTER_EQ,
    CLAIM_CENTER_EQM1,
    CLAIM_CENTER_LT,
    CLAIM_CLASS,
    CLAIM_PALINDROME,
    CLAIM_TERMINAL,
    CLAIM_TWOSQ,
    CLAIM_TWOSQ_CONVERSE,
    check_claims,
    period_stats,
    sum_two_coprime_squares,
)
from surdcf.engine import expand_sqrt
from surdcf.exact import DomainError, is_square


class TestTwoSquares:
    def test_examples(self):
        assert sum_two_coprime_squares(13)      # 3^2 + 2^2
        assert not sum_two_coprime_squares(12)
        assert sum_two_coprime_squares(2)       # 1^2 + 1^2
        assert sum_two_coprime_squares(1)       # the b = 0 edge
        assert not sum_two_coprime_squares(4)
        assert not sum_two_coprime_squares(45)  # only 6^2 + 3^2, not coprime

    def test_bad_input(self):
        with pytest.raises(DomainError):
            sum_two_coprime_squares(0)


class TestCheckClaims:
    def test_small_range_classical_claims_hold(self):
        report = check_claims(2, 100)
        for cid in (CLAIM_PALINDROME, CLAIM_TERMINAL, CLAIM_BOUND, CLAIM_TWOSQ):
            assert report.claim(cid).status == "ok"
        # spot value: ell(41) = 3 is odd and 41 = 5^2 + 4^2
        assert expand_sqrt(41).length == 3
        assert sum_two_coprime_squares(41)

    def test_counts_add_up(self):
        report = check_claims(2, 1000)
        assert report.tested + report.skipped == 999
        assert report.skipped == sum(1 for d in range(2, 1001) if is_square(d))

    def test_center_class_coverage_never_flags(self):
        report = check_claims(2, 2000)
        assert report.claim(CLAIM_CLASS).counterexamples == []

    def test_center_eq_a0_spot(self):
        # d = 22 = [4; 1,2,4,2,1,8]: center = a0 and b = 6 = 2 mod 4
        cf = expand_sqrt(22)
        assert cf.period[cf.length // 2 - 1] == cf.a0
        assert (22 - 16) % 4 == 2
        report = check_claims(2, 100)
        assert report.claim(CLAIM_CENTER_EQ).status == "ok"
        assert report.claim(CLAIM_CENTER_EQM1).status == "ok"

    def test_two_squares_converse_has_known_exceptions(self):
        report = check_claims(2, 200)
        conv = report.claim(CLAIM_TWOSQ_CONVERSE)
        assert conv.status == "counterexamples"
        assert conv.counterexamples[0]["d"] == 34
        assert expand_sqrt(34).length == 4

    def test_center_lt_parity_reports_not_fails(self):
        report = check_claims(2, 100)
        lt = report.claim(CLAIM_CENTER_LT)
        assert lt.status == "counterexamples"
        ds = [c["d"] for c in lt.counterexamples]
        assert 20 in ds and 21 in ds

    def test_backends_identical(self):
        # The second range has periods of thousands of quotients, and its
        # two-squares mask depends on prime cofactors above sqrt(d).
        for lo, hi in ((2, 3000), (5 * 10**7, 5 * 10**7 + 199)):
            views = [
                json.dumps(check_claims(lo, hi, backend=b).to_dict(), sort_keys=True)
                for b in ("numpy", "python")
            ]
            assert views[0] == views[1], (lo, hi)

    def test_jobs_deterministic(self):
        one = json.dumps(check_claims(2, 4000, jobs=1).to_dict(), sort_keys=True)
        four = json.dumps(check_claims(2, 4000, jobs=4).to_dict(), sort_keys=True)
        assert one == four

    def test_bad_range(self):
        with pytest.raises(DomainError):
            check_claims(5, 4)


class TestPeriodStats:
    def test_small_tables(self):
        stats = period_stats(2, 20)
        want = {}
        for d in range(2, 21):
            if is_square(d):
                continue
            want[expand_sqrt(d).length] = want.get(expand_sqrt(d).length, 0) + 1
        assert stats == want
        assert stats[1] == 4  # 2, 5, 10, 17

    def test_two_element_range(self):
        assert period_stats(2, 3) == {1: 1, 2: 1}

    def test_single_square_range(self):
        assert period_stats(4, 4) == {}
