import io
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_two_coprime_squares, sqrt_full_walk
from surdcf import analyzer, exact
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
    CLAIM_IDS,
    ClaimResult,
    StructReport,
    check_claims,
    period_stats,
    sum_two_coprime_squares,
    write_json,
)
from surdcf import _kernels
from surdcf.engine import expand_sqrt
from surdcf.exact import DomainError, is_square


def oracle_report(d_min, d_max):
    """check_claims(d_min, d_max).to_dict(), restated one d at a time."""
    claims = {cid: [0, []] for cid in CLAIM_IDS}
    histogram = {}
    skipped = 0

    def check(cid, ok, d, **detail):
        claims[cid][0] += 1
        if not ok:
            claims[cid][1].append({"d": d, **detail})

    for d in range(d_min, d_max + 1):
        if is_square(d):
            skipped += 1
            continue
        a0, word = sqrt_full_walk(d)
        word, ell = list(word), len(word)
        histogram[ell] = histogram.get(ell, 0) + 1
        inner = word[:-1]
        check(CLAIM_PALINDROME, inner == inner[::-1], d, period=word)
        check(CLAIM_TERMINAL, word[-1] == 2 * a0, d, period=word)
        check(CLAIM_BOUND, max(inner, default=0) <= a0, d, period=word, a0=a0)
        twosq = brute_two_coprime_squares(d)
        if ell % 2 == 1:
            check(CLAIM_TWOSQ, twosq, d, ell=ell, two_squares=twosq)
        if twosq:
            check(CLAIM_TWOSQ_CONVERSE, ell % 2 == 1, d, ell=ell, two_squares=twosq)
        if ell % 2 == 1:
            continue
        c, b = word[ell // 2 - 1], d - a0 * a0
        detail = dict(center=c, a0=a0, b=b, ell=ell)
        if c > a0:
            check(CLAIM_CLASS, False, d, **detail)
        elif c == a0:
            check(CLAIM_CENTER_EQ, b % 4 == 2, d, **detail)
        elif c == a0 - 1:
            if ell > 4:
                check(CLAIM_CENTER_EQM1, (a0 % 2, b % 4) in ((1, 1), (0, 3)), d, **detail)
        else:
            check(CLAIM_CENTER_LT, (c % 2, a0 % 2, b % 2) in ((1, 0, 0), (0, 1, 1)), d, **detail)
    return {
        "range": [d_min, d_max],
        "tested": d_max - d_min + 1 - skipped,
        "skipped": skipped,
        "claims": [
            {"id": cid, "tested": n, "status": "counterexamples" if cex else "ok",
             "counterexamples": cex}
            for cid, (n, cex) in claims.items()
        ],
        "histogram": {str(k): v for k, v in sorted(histogram.items())},
    }


FACT_BITS = {"palindrome": _kernels.F_PAL, "terminal": _kernels.F_TERM, "bound": _kernels.F_BOUND}


def break_fact(monkeypatch, backend, fact, ds):
    """Clear one classical fact at the radicands ``ds`` in the source of ``backend``."""
    if backend == "numpy":
        sweep = _kernels.sweep_range

        def broken(lo, hi):
            ell, a0, center, flags = sweep(lo, hi)
            for d in ds:
                if lo <= d < hi:
                    flags[d - lo] ^= FACT_BITS[fact]
            return ell, a0, center, flags

        monkeypatch.setattr(_kernels, "sweep_range", broken)
    else:
        facts = analyzer.period_facts

        def broken(cf):
            got = facts(cf)
            return got._replace(**{fact: False}) if cf.d in ds else got

        monkeypatch.setattr(analyzer, "period_facts", broken)


def assert_writer_matches(report):
    """write_json's bytes are those of json.dumps(report.to_dict(), sort_keys=True)."""
    buf = io.StringIO()
    write_json(report, buf)
    assert buf.getvalue() == json.dumps(report.to_dict(), sort_keys=True)


class TestTwoSquares:
    def test_examples(self):
        assert sum_two_coprime_squares(13)      # 3^2 + 2^2
        assert not sum_two_coprime_squares(12)
        assert sum_two_coprime_squares(2)       # 1^2 + 1^2
        assert sum_two_coprime_squares(1)       # the b = 0 edge
        assert not sum_two_coprime_squares(4)
        assert not sum_two_coprime_squares(45)  # only 6^2 + 3^2, not coprime

    def test_bad_input(self):
        for bad in (0, -5):
            with pytest.raises(DomainError):
                sum_two_coprime_squares(bad)

    @pytest.mark.parametrize(
        "lo, hi",
        [(1, 20_000), (10**6, 10**6 + 300), (5 * 10**7, 5 * 10**7 + 300)],
        ids=["small-d", "1e6", "5e7"],
    )
    def test_criterion_matches_brute_force(self, lo, hi):
        for d in range(lo, hi):
            assert sum_two_coprime_squares(d) == brute_two_coprime_squares(d), f"d={d}"

    def test_large_composite_cofactor_is_fast(self):
        # 3037000499^2 + 1 = 2 * 29209 * 8029421 * 19663409: every cofactor
        # left past the trial divisors is composite, and trial division would
        # run to 8029421, about 4e6 more divisions.
        d = 3037000499**2 + 1
        start = time.perf_counter()
        assert sum_two_coprime_squares(d)
        assert time.perf_counter() - start < 0.05

    def test_composite_cofactors_match_brute_force(self, monkeypatch):
        # Products of two or three primes above the trial divisors, in both
        # classes mod 4, so that the answer rests on splitting the cofactor.
        splits = []

        def counting(n):
            splits.append(n)
            return exact.pollard_brent(n)

        monkeypatch.setattr(analyzer, "pollard_brent", counting)
        ones = [1033, 1049, 1093, 1097, 1109, 1117]
        threes = [1031, 1039, 1051, 1063, 1087, 1091]
        primes = ones + threes
        cases = [p * q for i, p in enumerate(primes) for q in primes[i:]]
        cases += [2 * p * q for p, q in zip(ones, threes)]
        cases += [p * q * r for p, q, r in zip(ones, ones[1:], threes)]
        cases += [1033 * 1049 * 1093, 5 * 1033 * 1097, 13 * 1031 * 1033]
        for d in cases:
            assert sum_two_coprime_squares(d) == brute_two_coprime_squares(d), f"d={d}"
        assert len(splits) >= len(cases)

    def test_large_prime_cofactor_is_fast(self):
        # 3037000500^2 + 1 = 17 * 3361 * 161425556767073, the last a prime
        # that trial division would reach only after ~6e6 divisions.
        d = 3037000500**2 + 1
        start = time.perf_counter()
        assert sum_two_coprime_squares(d)
        assert time.perf_counter() - start < 0.05


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

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    @pytest.mark.parametrize(
        "lo, hi",
        [
            (2, 3000),
            (5 * 10**7, 5 * 10**7 + 199),
            # Single radicands on the exact path, either side of 2**63 and
            # where a0 * a0 no longer fits in int64.  Only m^2 + 1: the
            # brute-force two-squares test is O(sqrt(d)) for non-sums.
            (3037000499**2 + 1, 3037000499**2 + 1),
            (3037000500**2 + 1, 3037000500**2 + 1),
            (10**20 + 1, 10**20 + 1),
        ],
        ids=["small-d", "long-periods", "below-2^63", "above-2^63", "1e20"],
    )
    def test_matches_per_d_oracle(self, lo, hi, backend):
        got = json.dumps(check_claims(lo, hi, backend=backend).to_dict())
        assert got == json.dumps(oracle_report(lo, hi))

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_classical_failure_reports_exact_word(self, monkeypatch, backend):
        # Break the bound fact at d = 22 = [4; 1,2,4,2,1,8] in whichever
        # source fills the columns: the report must carry the exact word.
        break_fact(monkeypatch, backend, "bound", [22])
        report = check_claims(2, 100, backend=backend)
        assert report.claim(CLAIM_BOUND).counterexamples == [
            {"d": 22, "period": [1, 2, 4, 2, 1, 8], "a0": 4}
        ]
        assert report.claim(CLAIM_BOUND).tested == report.tested
        assert report.claim(CLAIM_PALINDROME).status == "ok"

    def test_jobs_deterministic(self):
        one = json.dumps(check_claims(2, 4000, jobs=1).to_dict(), sort_keys=True)
        four = json.dumps(check_claims(2, 4000, jobs=4).to_dict(), sort_keys=True)
        assert one == four

    def test_chunk_floor(self):
        width = _kernels.WIDTH
        # numpy: no more chunks than live sets cover the range
        assert len(analyzer._chunks(2, 1001, 1, "numpy")) == 1
        assert len(analyzer._chunks(1, 3 * width, 8, "numpy")) == 3
        assert len(analyzer._chunks(1, 100 * width, 2, "numpy")) == 8
        # python, and past the kernels' gate: up to 4 * jobs chunks
        assert len(analyzer._chunks(2, 1001, 1, "python")) == 4
        limit = _kernels.KERNEL_D_LIMIT
        assert len(analyzer._chunks(limit, limit + 999, 1, "numpy")) == 4

    def test_bad_range(self):
        with pytest.raises(DomainError):
            check_claims(5, 4)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one(self, jobs):
        with pytest.raises(DomainError, match="jobs >= 1"):
            check_claims(2, 20, jobs=jobs)


class TestWriteJson:
    @settings(max_examples=40, deadline=None)
    @given(lo=st.integers(1, 30_000), width=st.integers(1, 600))
    def test_numpy_windows(self, lo, width):
        assert_writer_matches(check_claims(lo, lo + width - 1, backend="numpy"))

    @settings(max_examples=15, deadline=None)
    @given(lo=st.integers(1, 30_000), width=st.integers(1, 120))
    def test_python_windows(self, lo, width):
        assert_writer_matches(check_claims(lo, lo + width - 1, backend="python"))

    @pytest.mark.parametrize("block", [1, 3])
    def test_rows_cross_block_edges(self, monkeypatch, block):
        report = check_claims(2, 3000)
        assert report.claim(CLAIM_CENTER_LT).count > 3 * block
        monkeypatch.setattr(analyzer, "WRITE_BLOCK", block)
        assert_writer_matches(report)

    def test_histogram_keys_sort_as_strings(self):
        report = check_claims(2, 3000, jobs=2)
        assert 2 in report.histogram and 10 in report.histogram
        buf = io.StringIO()
        write_json(report, buf)
        hist = buf.getvalue().split('"histogram": {')[1]
        assert hist.index('"10": ') < hist.index('"2": ')

    @pytest.mark.parametrize(
        "lo, hi",
        [(1, 1), (2, 3), (4, 4), (3037000500**2 + 1, 3037000500**2 + 1)],
        ids=["one", "no-counterexamples", "square", "above-2^63"],
    )
    def test_small_reports(self, lo, hi):
        assert_writer_matches(check_claims(lo, hi))

    def test_fresh_report(self):
        report = StructReport(5, 9)
        assert all(c.count == 0 and c.counterexamples == [] for c in report.claims.values())
        assert_writer_matches(report)

    def test_both_two_squares_values(self, monkeypatch):
        report = StructReport(1, 100)
        report.claims[CLAIM_TWOSQ] = ClaimResult(CLAIM_TWOSQ, 5, {
            "d": np.array([13, 34, 41]),
            "ell": np.array([5, 4, 3]),
            "two_squares": np.array([True, False, True]),
        })
        monkeypatch.setattr(analyzer, "WRITE_BLOCK", 2)
        assert_writer_matches(report)
        assert report.claim(CLAIM_TWOSQ).counterexamples[1] == {"d": 34, "ell": 4, "two_squares": False}

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    @pytest.mark.parametrize("fact", ["palindrome", "terminal", "bound"])
    def test_broken_classical_fact(self, monkeypatch, backend, fact):
        # Period lists, and a0 on the bound claim, reach the writer.
        break_fact(monkeypatch, backend, fact, [22, 31, 94])
        report = check_claims(2, 100, backend=backend)
        cid = {"palindrome": CLAIM_PALINDROME, "terminal": CLAIM_TERMINAL, "bound": CLAIM_BOUND}[fact]
        assert [c["d"] for c in report.claim(cid).counterexamples] == [22, 31, 94]
        assert report.claim(cid).counterexamples[0]["period"] == [1, 2, 4, 2, 1, 8]
        monkeypatch.setattr(analyzer, "WRITE_BLOCK", 2)
        assert_writer_matches(report)

    def test_writer_builds_no_dicts(self, monkeypatch):
        report = check_claims(2, 500)
        want = json.dumps(report.to_dict(), sort_keys=True)

        def no_dicts(self):
            raise AssertionError("counterexample dicts built")

        monkeypatch.setattr(ClaimResult, "counterexamples", property(no_dicts))
        monkeypatch.setattr(StructReport, "to_dict", no_dicts)
        buf = io.StringIO()
        write_json(report, buf)
        assert buf.getvalue() == want


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

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("backend, d_max", [("numpy", 40_000), ("python", 3000)])
    def test_matches_check_claims_histogram(self, backend, d_max, jobs):
        # Several chunks on either backend at jobs 2.
        assert len(analyzer._chunks(2, d_max, jobs, backend)) > jobs
        want = check_claims(2, d_max, jobs=jobs, backend=backend).histogram
        got = period_stats(2, d_max, jobs=jobs, backend=backend)
        assert got == want
        assert list(got) == sorted(want)

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_builds_no_two_squares_or_claims(self, monkeypatch, backend):
        want = period_stats(2, 3000, backend=backend)

        def forbidden(*args):
            raise AssertionError("period_stats built more than the sweep columns")

        monkeypatch.setattr(analyzer, "sum_two_coprime_squares", forbidden)
        monkeypatch.setattr(analyzer, "_fold", forbidden)
        monkeypatch.setattr(_kernels, "two_squares_range", forbidden)
        assert period_stats(2, 3000, backend=backend) == want
        with pytest.raises(AssertionError, match="more than the sweep"):
            check_claims(2, 3000, backend=backend)

    def test_bad_range(self):
        with pytest.raises(DomainError):
            period_stats(5, 4)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one(self, jobs):
        with pytest.raises(DomainError, match="jobs >= 1"):
            period_stats(2, 20, jobs=jobs)
