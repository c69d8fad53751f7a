import io
import json
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_member
from surdcf import _kernels, families
from surdcf.convergents import palindrome_b
from surdcf.engine import PeriodicCF, expand_sqrt
from surdcf.exact import DomainError
from surdcf.families import (
    FamilyDescriptor,
    FamilyValidityError,
    ParamSpec,
    PolyExpr,
    VerifyReport,
    family_by_id,
    instantiate,
    registry,
    verify_family,
    write_record,
)

ERRATUM_PAIRS = [
    ("threes-printed-17n", "rep2-k3"),
    ("l7-a-m1-printed", "l7-a-m1"),
    ("l9-d-printed", "l9-d"),
    ("pair-m2m-m2-k3-printed", "pair-m2m-m2-k3"),
    ("pair-m2m-k2-printed", "pair-m2m-k2"),
]


# Values for the variables of generated expressions.
GRAMMAR_ENV = {"a": 7, "m": 3, "n": 5}


def _binop(parts):
    """Join two (source, value, precedence) trees, parenthesised only where needed."""
    (ls, lv, lp), op, (rs, rv, rp), spaced = parts
    prec = 1 if op in "+-" else 2
    ls = ls if lp >= prec else f"({ls})"
    rs = rs if rp > prec else f"({rs})"
    value = lv + rv if op == "+" else lv - rv if op == "-" else lv * rv
    return (f"{ls} {op} {rs}" if spaced else f"{ls}{op}{rs}"), value, prec


def _neg(tree):
    source, value, prec = tree
    return "-" + (source if prec >= 3 else f"({source})"), -value, 3


def _pow(parts):
    (source, value, prec), exp, wrapped = parts
    exp = exp if abs(value).bit_length() <= 32 else 1  # keep the values small
    base = source if prec > 4 else f"({source})"
    return f"{base}^({exp})" if wrapped else f"{base}^{exp}", value**exp, 4


# Trees over the grammar, printed to source with Python's precedence:
# + - (1) < * (2) < unary minus (3) < ^ (4) < atoms (5).
GRAMMAR_TREES = st.recursive(
    st.one_of(
        st.integers(0, 99).map(lambda v: (str(v), v, 5)),
        st.sampled_from(sorted(GRAMMAR_ENV)).map(lambda k: (k, GRAMMAR_ENV[k], 5)),
    ),
    lambda children: st.one_of(
        st.tuples(children, st.sampled_from("+-*"), children, st.booleans()).map(_binop),
        children.map(_neg),
        st.tuples(children, st.integers(0, 3), st.booleans()).map(_pow),
    ),
    max_leaves=12,
)


@pytest.mark.filterwarnings("error")
class TestPolyExpr:
    def test_eval(self):
        assert PolyExpr("2*m^2*n+m").eval({"m": 3, "n": 4}) == 75
        assert PolyExpr("a-1").eval({"a": 9}) == 8
        assert PolyExpr("2*(45*n+14)").eval({"n": 0}) == 28
        assert PolyExpr("-3+n").eval({"n": 1}) == -2

    def test_bad_syntax(self):
        for bad in ("2**n", "n+", "(n", "q@3"):
            with pytest.raises(DomainError):
                PolyExpr(bad)

    def test_unbound_variable(self):
        with pytest.raises(DomainError, match="unbound variable 'm'"):
            PolyExpr("n+m").eval({"n": 1})

    @pytest.mark.parametrize(
        "source, value",
        [
            ("-n^2", -25),  # ^ binds tighter than unary minus: -(n^2)
            (" n+1 ", 6),  # blanks around the expression
            ("n^(2)", 25),  # a parenthesised exponent is still a literal
            ("(n\n+1)", 6),  # a newline inside parentheses
            ("(n^2)^3", 15625),
            ("2 * (m - n) ^ 2 - a", 1),
            ("0", 0),
        ],
    )
    def test_grammar_accepts(self, source, value):
        assert PolyExpr(source).eval({"n": 5, "m": 3, "a": 7}) == value

    @pytest.mark.parametrize(
        "bad",
        ["007", "2**3", "n\n+1", "0x10", "1_0", "2j", "1e3", "n^2^3", "n^m", "n^-1", "n^(1+1)", "+n",
         "", "N", "\uff4e", "n)+(m", "-" * 3000 + "n"],
    )
    def test_grammar_rejects(self, bad):
        with pytest.raises(DomainError, match="bad expression"):
            PolyExpr(bad)

    @pytest.mark.parametrize(
        "bad",
        ["__import__('os')", "n.real", "abs(n)", "n[0]", "lambda n: n", "n/2", "n//2", "n%2",
         "True", "n1", "not n", "n and m", "n if m else a", "n<m", "1if n else 2"],
    )
    def test_python_beyond_the_grammar_is_rejected_when_built(self, bad):
        with pytest.raises(DomainError, match="bad expression"):
            PolyExpr(bad)

    @given(GRAMMAR_TREES)
    @settings(max_examples=300, deadline=None)
    def test_printed_tree_evaluates_to_its_value(self, tree):
        source, value, _ = tree
        assert PolyExpr(source).eval(GRAMMAR_ENV) == value


class TestRegistry:
    def test_loads_and_has_expected_ids(self):
        fams = registry()
        ids = {f.id for f in fams}
        for fid in ("euler-l1", "perron-l3", "kraitchik-l10-center-a0minus1",
                    "threes-printed-17n", "rep2-ladder", "even-run-ladder"):
            assert fid in ids
        assert len(fams) > 100

    def test_kraitchik_record_shape(self):
        fam = family_by_id("kraitchik-l10-center-a0minus1")
        d, cf = instantiate(fam, {"n": 1})
        assert cf.a0 == 15
        assert list(cf.period) == [1, 1, 3, 1, 14, 1, 3, 1, 1, 30]

    def test_path_override(self, tmp_path, monkeypatch):
        alt = tmp_path / "alt.jsonl"
        alt.write_text(json.dumps({
            "id": "only-one", "citation": "", "params": [["n", 1, None]],
            "a_expr": "n", "b_expr": "1", "pattern": ["2*a"],
        }) + "\n")
        assert [f.id for f in registry(str(alt))] == ["only-one"]
        # The path argument alone overrides: the environment picks no file.
        packaged = [f.id for f in registry()]
        monkeypatch.setenv("SURDCF_REGISTRY", str(alt))
        assert [f.id for f in registry()] == packaged and len(packaged) > 100


class TestInstantiate:
    def test_euler(self):
        d, cf = instantiate(family_by_id("euler-l1"), {"n": 7})
        assert d == 50 and cf.as_list() == [7, 14]
        assert expand_sqrt(50).as_list() == [7, 14]

    def test_period5_example(self):
        d, cf = instantiate(family_by_id("l5-central-ones"), {"n": 1})
        assert d == 13 and cf.as_list() == [3, 1, 1, 1, 1, 6]

    def test_rep2_ladder_example(self):
        d, cf = instantiate(family_by_id("rep2-ladder"), {"k": 1, "n": 1})
        assert d == 19 and cf.as_list() == [4, 2, 1, 3, 1, 2, 8]

    def test_out_of_range_is_domain_error(self):
        with pytest.raises(DomainError):
            instantiate(family_by_id("euler-l1"), {"n": 0})
        with pytest.raises(DomainError):
            instantiate(family_by_id("l8-a0-general"), {"m": 1, "n": 0})

    def test_zero_quotient_outside_validity(self):
        # the period-8 family's wing m-1 vanishes at m = 1
        fam = family_by_id("l8-a0-general")
        relaxed = FamilyDescriptor(
            id=fam.id, citation=fam.citation,
            params=(ParamSpec("m", 1), ParamSpec("n", 0)),
            a_expr=fam.a_expr, b_expr=fam.b_expr, pattern=fam.pattern,
        )
        with pytest.raises(FamilyValidityError):
            instantiate(relaxed, {"m": 1, "n": 2})

    def test_degenerate_period_outside_validity(self):
        # (m*n)^2 + n at n = 1 is d = m^2 + 1, whose true period length is 1
        fam = family_by_id("l2-2m")
        with pytest.raises(FamilyValidityError):
            instantiate(fam, {"m": 3, "n": 1})


class TestVerify:
    def test_euler_thousand(self):
        report = verify_family(family_by_id("euler-l1"), budget={"n": 1000})
        assert report.status == "verified"
        assert report.tested == 1000 and not report.failures

    @pytest.mark.parametrize("budget, name", [({"n": 0}, "n"), ({"m": 0, "n": 3}, "m")])
    def test_budget_leaving_no_member_raises(self, budget, name):
        # Nothing tested must not read as verified.
        fam = family_by_id("perron-l3")
        with pytest.raises(DomainError, match=f"leaves parameter {name} no value"):
            verify_family(fam, budget)
        with pytest.raises(DomainError, match=f"leaves parameter {name} no value"):
            families.write_record(fam, budget, io.StringIO())

    def test_period6_bridge(self):
        report = verify_family(family_by_id("l6-bridge"), budget={"n": 200})
        assert report.status == "verified" and report.tested == 200

    @pytest.mark.parametrize("printed,corrected", ERRATUM_PAIRS)
    def test_errata_fail_and_corrections_verify(self, printed, corrected):
        bad = family_by_id(printed)
        assert bad.is_erratum and bad.corrected_by == corrected
        bad_report = verify_family(bad, budget={"n": 8, "m": 3})
        assert bad_report.status == "erratum" and bad_report.failures
        good = family_by_id(corrected)
        assert good.corrects == printed
        good_report = verify_family(good, budget={"n": 8, "m": 3})
        assert good_report.status == "verified" and not good_report.failures

    def test_generator_records_match_explicit_ones(self):
        pairs = [
            (("rep2-ladder", {"k": 3, "n": 2}), ("rep2-k3", {"n": 2})),
            (("triple113-ladder", {"k": 2, "n": 1}), ("triple113-k2", {"n": 1})),
            (("pair-m2m-ladder", {"m": 1, "k": 1, "n": 3}), ("l6-a0-m1", {"n": 3})),
            (("pair12-ladder", {"k": 2, "n": 2}), ("l10-a0-12", {"n": 2})),
        ]
        for (gid, gasn), (xid, xasn) in pairs:
            dg, cg = instantiate(family_by_id(gid), gasn)
            dx, cx = instantiate(family_by_id(xid), xasn)
            assert (dg, cg.as_list()) == (dx, cx.as_list())

    def test_odd_run_coefficients_are_doubled_matrix_entries(self):
        # the run-of-odd-quotients ladders read their (a, b) slopes off the
        # quotient-matrix power: slope of a is u(3k-1) = top-left of the
        # (3k-2)th power, slope of b doubles the off-diagonal entry
        from surdcf.mat2 import odd_quotient_power
        for m in range(3):
            for k in range(1, 4):
                mat = odd_quotient_power(m, 3 * k - 2)
                P, Q = mat.m11, 2 * mat.m12
                for n in (1, 2, 5):
                    d, cf = instantiate(family_by_id("odd-run-short-ladder"),
                                        {"m": m, "k": k, "n": n})
                    assert cf.a0 == P * n - (P - (2 * m + 1)) // 2
                    assert d - cf.a0 ** 2 == Q * n - (Q - 2) // 2

    def test_palindrome_b_consistency_on_instances(self):
        for fam in registry():
            if fam.is_erratum:
                continue
            picks = []
            base = {p.name: p.lo for p in fam.params}
            picks.append(base)
            bumped = dict(base, n=base["n"] + 3)
            picks.append(bumped)
            for asn in picks:
                try:
                    d, cf = instantiate(fam, asn)
                except FamilyValidityError:
                    continue
                assert palindrome_b(cf.period[:-1], cf.a0) == d - cf.a0 * cf.a0


class TestWriteRecord:
    @pytest.mark.parametrize("fam", registry(), ids=lambda fam: fam.id)
    def test_streamed_line_is_the_report_line(self, fam):
        budget = {"n": 4, "m": 2, "k": 2}
        out = io.StringIO()
        report = verify_family(fam, budget)
        assert write_record(fam, budget, out) == len(report.failures)
        assert out.getvalue() == json.dumps(
            {**report.to_dict(), "registry_status": fam.status}, sort_keys=True) + "\n"
        # Every erratum fails at this budget, so the failure rows are covered.
        assert report.failures or not fam.is_erratum

    def test_failing_periods_are_written_in_pieces(self):
        # All 303 members fail at m <= 3, the longest half walk 8,605
        # quotients long.  Each failing period is written from its half in
        # pieces, so the write holds the half, one list of the half's texts
        # and one piece: about twice the half's list, and never the period
        # or its text whole, which took about four times.
        fam = family_by_id("pair-m2m-k2-printed")
        budget = {"m": 3}
        half_size = max(sys.getsizeof(f.half)
                        for f in families.iter_failures(fam, budget, VerifyReport(fam.id)))
        tracemalloc.start()
        try:
            assert write_record(fam, budget, _Discard()) == 303
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * half_size


class _Discard(io.TextIOBase):
    """A text sink that keeps nothing."""

    def write(self, s):
        return len(s)


def _outcome(member, fam, assignment):
    """``member``'s (d, head, word), or the type and text of what it raised."""
    try:
        d, head, word = member(fam, assignment)
    except (DomainError, FamilyValidityError) as exc:
        return type(exc), str(exc)
    return d, head, list(word)


def _instantiated(fam, assignment):
    d, cf = instantiate(fam, assignment)
    assert isinstance(cf, PeriodicCF) and cf.d == d
    return d, cf.a0, cf.period


class TestMemberPath:
    """The compiled member path against one ``PolyExpr.eval`` per expression."""

    @pytest.mark.parametrize("fam", registry(), ids=lambda fam: fam.id)
    def test_every_budgeted_member_matches_the_reference(self, fam):
        for assignment in families._assignments(fam, None):
            want = _outcome(reference_member, fam, assignment)
            assert _outcome(families._member, fam, assignment) == want, assignment
            assert _outcome(_instantiated, fam, assignment) == want, assignment

    def test_assignments_outside_the_ranges_match_the_reference(self):
        for fid, assignment in [("euler-l1", {"n": 0}), ("euler-l1", {}),
                                ("rep2-ladder", {"k": 0, "n": 1}), ("l2-2m", {"m": 3, "n": 1})]:
            fam = family_by_id(fid)
            want = _outcome(reference_member, fam, assignment)
            assert isinstance(want[0], type) and want[1].startswith(fid)
            assert _outcome(families._member, fam, assignment) == want
            assert _outcome(_instantiated, fam, assignment) == want

    @pytest.mark.parametrize(
        "record, name",
        [
            ({"a_expr": "n+z", "b_expr": "2*n", "pattern": ["y", "2*a"]}, "z"),
            ({"a_expr": "n", "b_expr": "2*q", "head_expr": "r", "pattern": ["2*a"]}, "q"),
            ({"a_expr": "n", "b_expr": "2*n", "head_expr": "n+r", "pattern": ["w", "2*a"]}, "r"),
            # The head is evaluated before a >= 1 is checked.
            ({"a_expr": "n-9", "b_expr": "2*n", "head_expr": "r", "pattern": ["2*a"]}, "r"),
            ({"a_expr": "n", "b_expr": "2*n", "pattern": ["1", "w", "v", "2*a"]}, "w"),
            # a is bound in the pattern only.
            ({"a_expr": "n", "b_expr": "2*a", "pattern": ["2*a"]}, "a"),
        ],
        ids=["a", "b", "head", "head-before-validity", "pattern", "a-outside-pattern"],
    )
    def test_unbound_variable_in_a_custom_registry(self, tmp_path, record, name):
        path = tmp_path / "families.jsonl"
        path.write_text(json.dumps({"id": "custom", "params": [["n", 1, None]], **record}) + "\n")
        (fam,) = registry(str(path))
        assignment = {"n": 1}
        want = _outcome(reference_member, fam, assignment)
        assert want == (DomainError, f"unbound variable {name!r}")
        assert _outcome(families._member, fam, assignment) == want
        assert _outcome(_instantiated, fam, assignment) == want
        out = io.StringIO()
        with pytest.raises(DomainError, match=f"unbound variable {name!r}"):
            write_record(fam, {"n": 3}, out)
        assert out.getvalue() == ""

    def test_pattern_reads_a_as_the_head(self):
        # The one registry head_expr has no `a` in its pattern.
        fam = FamilyDescriptor(
            id="custom", citation="", params=(ParamSpec("n", 1),),
            a_expr=PolyExpr("n"), b_expr=PolyExpr("2*n"), head_expr=PolyExpr("n+1"),
            pattern=(PolyExpr("a-1"), PolyExpr("2*a")),
        )
        for n in range(1, 6):
            want = _outcome(reference_member, fam, {"n": n})
            assert want == (n * n + 2 * n, n + 1, [n, 2 * n + 2])
            assert _outcome(families._member, fam, {"n": n}) == want

    @pytest.mark.parametrize(
        "pattern, collapsing",
        [(["a", "a"], {1, 2, 3, 4, 5, 6}), (["1", "1"], {1, 2, 3, 4, 5, 6}),
         (["a", "1", "a", "1"], {1, 2, 3, 4, 5, 6}), (["a", "1", "1"], {1}),
         (["1", "a"], {1}), (["2", "2*a"], set())],
    )
    def test_collapse_is_checked_unless_the_last_quotient_tops_the_head(self, pattern, collapsing):
        # Every registry member ends above its head, so only words like
        # these reach the collapse check.
        fam = FamilyDescriptor(
            id="custom", citation="", params=(ParamSpec("n", 1),),
            a_expr=PolyExpr("n"), b_expr=PolyExpr("1"), pattern=tuple(map(PolyExpr, pattern)),
        )
        collapsed = set()
        for n in range(1, 7):
            want = _outcome(reference_member, fam, {"n": n})
            assert _outcome(families._member, fam, {"n": n}) == want
            if want == (FamilyValidityError, f"custom: period collapses at {{'n': {n}}}"):
                collapsed.add(n)
        assert collapsed == collapsing

    def test_unbound_pattern_after_invalid_members(self, tmp_path):
        # Members whose a < 1 are skipped before the pattern is evaluated.
        path = tmp_path / "families.jsonl"
        path.write_text(json.dumps({"id": "custom", "params": [["n", 1, None]],
                                    "a_expr": "n-2", "b_expr": "2*n", "pattern": ["w", "2*a"]}) + "\n")
        (fam,) = registry(str(path))
        for n in (1, 2, 3):
            assert _outcome(families._member, fam, {"n": n}) == _outcome(reference_member, fam, {"n": n})
        out = io.StringIO()
        with pytest.raises(DomainError, match="unbound variable 'w'"):
            write_record(fam, {"n": 3}, out)
        assert out.getvalue() == ""

    # sqrt(13) = [3; 1, 1, 1, 1, 6] has odd ell = 5 and half [1, 1];
    # sqrt(19) = [4; 2, 1, 3, 1, 2, 8] has even ell = 6 and half [2, 1, 3].
    @pytest.mark.parametrize(
        "a, b, head, pattern, fails",
        [
            (3, 4, 3, [1, 1, 1, 1, 6], False),
            (3, 4, 2, [1, 1, 1, 1, 6], True),
            (3, 4, 3, [1, 1, 1, 1, 7], True),
            (3, 4, 3, [1, 1, 1, 2, 6], True),
            (3, 4, 3, [1, 1, 2, 1, 6], True),
            (4, 3, 4, [2, 1, 3, 1, 2, 8], False),
            (4, 3, 5, [2, 1, 3, 1, 2, 8], True),
            (4, 3, 4, [2, 1, 3, 1, 2, 9], True),
            (4, 3, 4, [2, 1, 3, 1, 1, 8], True),
            (4, 3, 4, [2, 1, 3, 2, 2, 8], True),
            (4, 3, 4, [2, 1, 3, 1, 2, 1, 8], True),
            (1, 1, 1, [2], False),
            (1, 1, 1, [3], True),
        ],
        ids=["odd-exact", "odd-a0", "odd-last", "odd-mirror-end", "odd-mirror-start",
             "even-exact", "even-a0", "even-last", "even-mirror-end", "even-mirror-start",
             "even-longer", "one-exact", "one-last"],
    )
    def test_iter_failures_flags_any_one_difference(self, a, b, head, pattern, fails):
        fam = FamilyDescriptor(
            id="custom", citation="", params=(ParamSpec("n", 1, 1),),
            a_expr=PolyExpr(str(a)), b_expr=PolyExpr(str(b)), head_expr=PolyExpr(str(head)),
            pattern=tuple(PolyExpr(str(q)) for q in pattern),
        )
        report = families.VerifyReport(fam.id)
        found = list(families.iter_failures(fam, None, report))
        assert (report.tested, report.skipped) == (1, 0)
        assert len(found) == fails
        if fails:
            (f,) = found
            d = a * a + b
            assert (f.params, f.d, f.expected) == ({"n": 1}, d, PeriodicCF(d, head, tuple(pattern)))
            actual = expand_sqrt(d)
            assert f.to_dict()["actual"] == {"a0": actual.a0, "period": list(actual.period)}

    def test_code_is_compiled_once_per_resolution(self, monkeypatch):
        calls = []
        compile_family = families._compile_family

        def counted(*exprs):
            calls.append(exprs)
            return compile_family(*exprs)

        monkeypatch.setattr(families, "_compile_family", counted)
        families._ladder.cache_clear()
        try:
            fams = [family_by_id(fid) for fid in ("euler-l1", "l8-a0-general", "pair-m2m-ladder")]
            assert not calls  # loading the registry compiles no family
            for fam in fams:
                verify_family(fam, {"n": 5, "m": 2, "k": 3})
        finally:
            families._ladder.cache_clear()
        assert len(calls) == 1 + 1 + 2 * 3


def test_ladder_generator_runs_once_per_argument(monkeypatch):
    # Every n of a ladder family shares one generator call per (m, k).
    calls = []
    gen, wanted = families.GENERATORS["pair-m2m"]

    def counted(*args):
        calls.append(args)
        return gen(*args)

    monkeypatch.setitem(families.GENERATORS, "pair-m2m", (counted, wanted))
    families._ladder.cache_clear()
    try:
        report = verify_family(family_by_id("pair-m2m-ladder"), {"n": 6, "m": 2, "k": 3})
    finally:
        families._ladder.cache_clear()
    assert report.tested == 6 * 2 * 3 and report.status == "verified"
    assert sorted(calls) == [(m, k) for m in (1, 2) for k in (1, 2, 3)]


def test_length_two_completeness():
    # every non-square d <= 1e5 with period length 2 matches one of the two
    # closed forms: period [x, 2*a0] with x*b = 2*a0 and x or b even
    ell, a0s, _, flags = _kernels.sweep_range(2, 100_001)
    checked = 0
    for i, d in enumerate(range(2, 100_001)):
        if flags[i] & _kernels.F_SQUARE or ell[i] != 2:
            continue
        cf = expand_sqrt(d)
        x = cf.period[0]
        b = d - cf.a0 * cf.a0
        match_2m = x % 2 == 0 and (x // 2) * b == cf.a0
        match_m = b % 2 == 0 and x * (b // 2) == cf.a0
        assert match_2m or match_m, f"d={d} outside both period-2 families"
        checked += 1
    assert checked > 2000
