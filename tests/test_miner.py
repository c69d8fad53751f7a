import dataclasses
import io
import json
import math

import numpy as np
import pytest
from conftest import reference_mine
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_convergents import _palindromes as reference_palindromes

from surdcf import _jsontext, convergents, miner
from surdcf.convergents import palindrome_half
from surdcf.engine import expand_sqrt
from surdcf.exact import DomainError, InternalConsistencyError
from surdcf.families import FamilyValidityError, family_by_id, instantiate
from surdcf._jsontext import WRITE_BLOCK
from surdcf.miner import (INT64_MAX, MinedFamilies, MinedFamily, mine, mine_sweep, palindrome_triples,
                          sweep_blocks, write_jsonl)

# The (max_len, max_entry) sweeps the tests run against the scalar reference.
SWEEP_CASES = [(7, 6), (0, 3), (1, 5), (6, 3), (3, 2), (9, 3)]


def reference_sweep(max_len, max_entry):
    return [fam for fam in map(reference_mine, reference_palindromes(max_len, max_entry)) if fam is not None]


# Palindromes of length <= 30 with entries <= 50: the miner's word matrices,
# whose entries run well past 2**64.
palindromes = st.builds(
    lambda half, odd: tuple(half + half[::-1][odd:]),
    st.lists(st.integers(1, 50), min_size=1, max_size=15),
    st.integers(0, 1),
)

# Palindromes with entries up to 10**12, whose word matrices run far past
# int64, mixed with small entries.
big_palindromes = st.builds(
    lambda half, odd: tuple(half + half[::-1][odd:]),
    st.lists(st.one_of(st.integers(1, 9), st.integers(1, 10**12)), max_size=5),
    st.integers(0, 1),
)


def assert_family_verifies(fam, upto=50):
    for c in range(fam.min_c, fam.min_c + upto):
        a, b = fam.a_of(c), fam.b_of(c)
        cf = expand_sqrt(a * a + b)
        assert cf.a0 == a and cf.period == (*fam.palindrome, 2 * a), (fam, c)


class TestMine:
    def test_pattern_22(self):
        fam = mine([2, 2])
        assert (fam.a_residue, fam.a_modulus) == (1, 5)
        assert (fam.b_slope, fam.b_const) == (4, 1)
        assert fam.min_c == 1
        assert fam.a_of(1) ** 2 + fam.b_of(1) == 41 and expand_sqrt(41).as_list() == [6, 2, 2, 12]
        assert_family_verifies(fam)

    def test_pattern_11_unsolvable(self):
        # congruence oracle: 2a + 1 is odd, never divisible by 2
        assert all((2 * a + 1) % 2 == 1 for a in range(50))
        assert mine([1, 1]) is None

    def test_empty_palindrome_is_unit_family(self):
        fam = mine([])
        assert (fam.a_residue, fam.a_modulus) == (0, 1)
        assert (fam.b_slope, fam.b_const) == (0, 1)
        assert fam.min_c == 1
        assert_family_verifies(fam)

    def test_single_even_entry_reproduces_length2_family(self):
        fam = mine([4])
        assert (fam.a_residue, fam.a_modulus) == (0, 2)
        assert (fam.b_slope, fam.b_const) == (1, 0)
        assert fam.min_c == 2       # c = 2 is d = 18 = [4; 4, 8]
        assert fam.a_of(2) ** 2 + fam.b_of(2) == 18
        assert_family_verifies(fam)

    def test_non_palindrome_rejected(self):
        with pytest.raises(DomainError):
            mine([1, 2])

    def test_entry_below_one_rejected(self):
        with pytest.raises(DomainError):
            mine([1, 0, 1])

    def test_no_pair_with_wings_12(self):
        # evidence for the claimed non-existence of 1,2,2m,2m,2,1 patterns
        for m in range(1, 7):
            assert mine([1, 2, 2 * m, 2 * m, 2, 1]) is None

    @pytest.mark.parametrize("max_len, max_entry", SWEEP_CASES)
    def test_matches_reference_on_every_swept_palindrome(self, max_len, max_entry):
        for pal in reference_palindromes(max_len, max_entry):
            assert mine(pal) == reference_mine(pal), pal

    @settings(max_examples=150, deadline=None)
    @given(big_palindromes)
    @example((10**12, 10**12))
    @example((10**12,))
    @example((1, 1))
    def test_matches_reference_on_big_entries(self, pal):
        assert mine(pal) == reference_mine(pal)


def triples_of(pals, dtype):
    """(A, B, C) columns of palindromes of one length, from halves of ``dtype``."""
    halves = np.array([palindrome_half(pal) for pal in pals], dtype=dtype).reshape(len(pals), -1)
    return palindrome_triples(halves, len(pals[0]))


def head_rows(pals, dtype):
    """``miner._head_congruence`` on ``pals`` as one (solvable, residue, modulus)
    per row, of Python ints whatever ``dtype``."""
    ok, res, mod = miner._head_congruence(triples_of(pals, dtype), len(pals[0]))
    assert ok.dtype == bool
    return list(zip(ok.tolist(), map(int, res), map(int, mod)))


def assert_head_definition(pal, row):
    """``row`` = (solvable, residue, modulus) solves 2B*a + C == 0 (mod A) for
    the word matrix [[A, B], [B, C]] of ``pal``: solvable iff g = gcd(2B, A)
    divides C, and then the one solution in [0, A/g)."""
    A, B, C = (int(col[0]) for col in triples_of([pal], object))
    g = math.gcd(2 * B, A)
    ok, res, mod = row
    assert ok == (C % g == 0)
    assert mod == A // g
    if ok:
        assert 0 <= res < mod and (2 * B * res + C) % A == 0


class TestHeadCongruence:
    @settings(max_examples=200, deadline=None)
    @given(palindromes)
    @example((50,) * 30)
    @example((1, 1))
    @example((3, 1, 3))
    def test_determinant_identity(self, pal):
        # W is a product of n step matrices of determinant -1, on both int64
        # and Python-int columns, whenever int64 holds the row.
        det = (-1) ** len(pal)
        A, B, C = triples_of([pal], object)
        assert (A * C - B * B == det).all()
        if 2 * A[0] ** 2 <= INT64_MAX:
            A, B, C = triples_of([pal], np.int64)
            assert A.dtype == np.int64 and (A * C - B * B == det).all()

    @settings(max_examples=200, deadline=None)
    @given(palindromes)
    @example((50,) * 30)
    @example((3,) * 20)      # A even, C odd: unsolvable
    @example((1, 1))
    def test_closed_form_matches_definition(self, pal):
        (row,) = head_rows([pal], object)
        assert_head_definition(pal, row)
        if 2 * int(triples_of([pal], object)[0][0]) ** 2 <= INT64_MAX:
            assert head_rows([pal], np.int64) == [row]

    @pytest.mark.parametrize("max_len, max_entry", [(7, 4), (10, 2)])
    def test_closed_form_matches_brute_force(self, max_len, max_entry):
        # Every head a modulo A that solves the congruence, scanned, on the
        # sweep's own int64 blocks and again on Python ints.
        unsolvable = 0
        for n in range(max_len + 1):
            for halves, (A, B, C) in miner.palindromes(n, max_entry):
                pals = [tuple(h) + tuple(h[: n // 2][::-1]) for h in halves.tolist()]
                got = head_rows(pals, np.int64)
                assert head_rows(pals, object) == got
                for a_, b_, c_, (ok, res, mod) in zip(A.tolist(), B.tolist(), C.tolist(), got):
                    hits = np.flatnonzero((2 * b_ * np.arange(a_) + c_) % a_ == 0).tolist()
                    assert ok == bool(hits)
                    if ok:
                        assert hits == list(range(res, a_, mod))
                    else:
                        assert a_ % 2 == 0 and c_ % 2 == 1
                        unsolvable += 1
        assert unsolvable

    def test_python_int_rows_at_miner_sizes(self):
        rows = [(pal, head_rows([pal], object)[0]) for pal in [(50,) * 30, (1, 2, 1) * 7, (9, 8, 9), (3,) * 20]]
        assert any(ok for _, (ok, _, _) in rows) and not all(ok for _, (ok, _, _) in rows)
        for pal, row in rows:
            assert_head_definition(pal, row)

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_named_cases(self, dtype):
        # (solvable, residue, modulus), frozen from the brute-force scan of
        # the heads modulo A; an unsolvable row's residue means nothing.
        cases = {
            (4,): (True, 0, 2),          # A = 4, g = 2: heads 0 and 2
            (1, 1): (False, None, 1),    # A = 2, C = 1 odd
            (2, 2): (True, 1, 5),
            (3, 3): (False, None, 5),    # A = 10, C = 1 odd
            (1, 2, 1): (True, 1, 2),     # A = 4: heads 1 and 3
            (3, 1, 3): (True, 13, 15),
            (1, 4, 1): (True, 2, 3),     # A = 6: heads 2 and 5
            (2, 2, 2, 2): (True, 1, 29),
        }
        for pal, (ok, res, mod) in cases.items():
            (row,) = head_rows([pal], dtype)
            assert (row[0], row[2]) == (ok, mod), pal
            if ok:
                assert row[1] == res, pal
            assert_head_definition(pal, row)

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_unit_modulus(self, dtype):
        # A/g = 1: every head solves, so the residue is 0 modulo 1.
        for pal in [(), (1,), (2,)]:
            assert head_rows([pal], dtype) == [(True, 0, 1)], pal

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_broken_determinant_raises(self, dtype):
        A, B, C = triples_of([(2, 2), (1, 1)], dtype)
        with pytest.raises(InternalConsistencyError):
            miner._head_congruence((A, B, C + np.array([0, 1], dtype=dtype)), 2)


class TestMineSweep:
    def test_len0(self):
        fams = list(mine_sweep(0, 3))
        assert len(fams) == 1 and fams[0].palindrome == ()

    def test_len2_includes_22(self):
        fams = {f.palindrome: f for f in mine_sweep(2, 2)}
        assert (2, 2) in fams
        assert (1, 1) not in fams

    def test_len1_slices(self):
        fams = {f.palindrome: f for f in mine_sweep(1, 4)}
        # singleton palindromes give the two period-2 ladders' fixed-m slices
        assert fams[(1,)].a_modulus == 1 and fams[(1,)].b_slope == 2
        assert fams[(2,)].a_modulus == 1 and fams[(2,)].b_slope == 1
        assert fams[(3,)].a_modulus == 3 and fams[(3,)].b_slope == 2
        assert fams[(4,)].a_modulus == 2 and fams[(4,)].b_slope == 1

    def test_deterministic_order(self):
        pals = [f.palindrome for f in mine_sweep(3, 3)]
        assert pals == sorted(pals, key=lambda p: (len(p), p))
        assert pals[0] == ()

    def test_sweep_families_verify(self):
        for fam in mine_sweep(3, 3):
            assert_family_verifies(fam, upto=20)

    def test_order_matches_reference_enumerator(self):
        # By length, then lexicographic over the determining half; each
        # family is the one the scalar reference derives from the whole word.
        want = reference_sweep(7, 6)
        assert len(want) == 1441
        assert list(mine_sweep(7, 6)) == want

    @pytest.mark.parametrize("max_len, max_entry", SWEEP_CASES[1:])
    def test_bounds_match_reference_enumerator(self, max_len, max_entry):
        assert list(mine_sweep(max_len, max_entry)) == reference_sweep(max_len, max_entry)

    def test_sweep_builds_no_matrix_object(self, monkeypatch):
        # The sweep carries the palindromes' matrices [[A, B], [B, C]] as the
        # columns (A, B, C); the reference builds its Mat2s before the patch.
        want = reference_sweep(6, 3)

        def no_mat2(*entries):
            raise AssertionError("a Mat2 was built")

        monkeypatch.setattr(convergents, "Mat2", no_mat2)
        assert list(mine_sweep(6, 3)) == want

    def test_heads_past_the_int64_bound_run_on_python_ints(self, monkeypatch):
        # At the least bound that keeps every block on int64, 2A^2 of the
        # sweep's widest word, the later heads of some rows cross their
        # c_safe and run on Python ints while the rest stay on int64; the
        # families do not change.
        want = reference_sweep(9, 3)
        widest = convergents.word_matrix([3] * 9).m11
        blocks, dtypes = set(), set()

        def block_spy(halves, length, abc):
            blocks.update(col.dtype for col in (halves, *abc))
            return mine_block(halves, length, abc)

        def spy(abc, top, a, b):
            dtypes.add(abc[0].dtype)
            return realizes(abc, top, a, b)

        mine_block, realizes = miner._mine_block, miner.realizes
        monkeypatch.setattr(miner, "_mine_block", block_spy)
        monkeypatch.setattr(miner, "realizes", spy)
        monkeypatch.setattr(miner, "INT64_MAX", 2 * widest * widest)
        assert list(mine_sweep(9, 3)) == want
        assert blocks == {np.dtype(np.int64)}
        assert dtypes == {np.dtype(np.int64), np.dtype(object)}

    def test_blocks_concatenate_to_the_sweep(self, monkeypatch):
        # One block per four palindromes, one of which realizes no family.
        monkeypatch.setattr(miner, "BLOCK_ROWS", 4)
        blocks = list(sweep_blocks(9, 3))
        assert any(len(b) == 0 for b in blocks)
        assert [fam for b in blocks for fam in b] == list(mine_sweep(9, 3)) == reference_sweep(9, 3)

    def test_concat_keeps_int64_where_every_value_fits(self):
        # The last blocks run on Python ints, yet every value fits in int64.
        blocks = list(sweep_blocks(48, 1))
        assert blocks[-1].a_modulus.dtype == object
        swept = mine_sweep(48, 1)
        assert {col.dtype for col in vars(swept).values()} == {np.dtype(np.int64)}
        assert swept.a_modulus.max() == 7_778_742_049
        assert list(swept) == [fam for b in blocks for fam in b]

    def test_concat_keeps_python_ints_past_int64(self):
        blocks = list(sweep_blocks(100, 1))
        swept = mine_sweep(100, 1)
        fams = list(swept)
        assert fams == [fam for b in blocks for fam in b]
        assert swept.palindrome.dtype == np.int64
        for name, col in list(vars(swept).items())[1:]:
            fits = all(-(2**63) <= getattr(fam, name) < 2**63 for fam in fams)
            assert col.dtype == (np.int64 if fits else object), name
        wide = {name for name, col in vars(swept).items() if col.dtype == object}
        assert wide == {"a_residue", "a_modulus", "b_slope", "b_const"}

    @pytest.mark.parametrize("bounds", [(-1, 3), (1, 0)])
    def test_bad_bounds_raise_before_mining(self, monkeypatch, bounds):
        monkeypatch.setattr(miner, "_mine_block", None)
        with pytest.raises(DomainError):
            sweep_blocks(*bounds)

    def test_engine_confirms_every_family_far_out(self):
        # The engine is the oracle for the realisation identity that mine
        # checks: at the five checked instances, and a million heads on.
        fams = mine_sweep(7, 6)
        assert len(fams) == 1441
        for fam in fams:
            for c in [*range(fam.min_c, fam.min_c + fam.verified_instances), fam.min_c + 10**6]:
                a, b = fam.a_of(c), fam.b_of(c)
                cf = expand_sqrt(a * a + b)
                assert cf.a0 == a and cf.period == (*fam.palindrome, 2 * a), (fam, c)


def columns_of(fams):
    """The families as ``MinedFamilies`` columns."""
    cols = [[getattr(fam, field.name) for fam in fams] for field in dataclasses.fields(MinedFamilies)]
    cols[0] = [list(pal) for pal in cols[0]]
    return MinedFamilies(*cols)


def reference_jsonl(fams):
    return "".join(json.dumps(f.to_dict(), sort_keys=True) + "\n" for f in fams)


class BlockCounter(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, s):
        self.writes += 1
        return super().write(s)


class TestWriteJsonl:
    HAND_BUILT = [
        MinedFamily((), 0, 1, 0, 1, 1, 5),               # the empty palindrome
        MinedFamily((4,), 0, 2, 1, 0, 2, 5),              # a 1-tuple prints as (4,)
        MinedFamily((1, 2, 1), 3, 7, 0, 12, 0, 5),        # b_slope == 0
        MinedFamily((2, 2), 1, 5, 4, 0, 1, 5),            # b_const == 0
        # Not minable (b_const = (2B res + C)/A >= 0), but the fields allow it.
        MinedFamily((1, 1, 1), 2, 3, 2, -17, 9, 3),
    ]

    def test_sweep_bytes(self):
        fams = mine_sweep(7, 6)
        out = io.StringIO()
        write_jsonl(fams, out)
        assert out.getvalue() == reference_jsonl(fams)

    def test_hand_built(self):
        out = io.StringIO()
        write_jsonl(columns_of(self.HAND_BUILT), out)
        assert out.getvalue() == reference_jsonl(self.HAND_BUILT)
        assert '"b_expr": "2*c-17"' in out.getvalue()

    @pytest.mark.parametrize("block, writes", [(1, 5), (3, 2), (5, 1), (4096, 1)])
    def test_rows_written_in_blocks(self, monkeypatch, block, writes):
        monkeypatch.setattr(miner, "WRITE_BLOCK", block)
        out = BlockCounter()
        write_jsonl(columns_of(self.HAND_BUILT), out)
        assert out.getvalue() == reference_jsonl(self.HAND_BUILT)
        assert out.writes == writes

    def test_no_families_writes_nothing(self):
        out = BlockCounter()
        write_jsonl(columns_of([]), out)
        assert out.getvalue() == "" and out.writes == 0


def reference_b_expr(slope, const):
    """The b_expr rule, one family at a time."""
    if slope == 0:
        return str(const)
    if const > 0:
        return f"{slope}*c+{const}"
    if const < 0:
        return f"{slope}*c-{-const}"
    return f"{slope}*c"


def reference_row(pal, res, mod, slope, const, min_c, checked):
    """A family's JSON row, built by the scalar rules alone."""
    return {"palindrome": list(pal), "a_residue": res, "a_modulus": mod,
            "b_expr": reference_b_expr(slope, const), "min_c": min_c, "verified_instances": checked}


def families_of(rows, dtype=None):
    """``MinedFamilies`` of the rows (tuples in ``MinedFamily`` field order),
    the int columns of ``dtype`` where given, and their reference JSON Lines."""
    cols = [list(col) for col in zip(*rows)] or [[] for _ in dataclasses.fields(MinedFamilies)]
    width = max(map(len, cols[0]), default=0)
    pal = np.array([list(p) + [0] * (width - len(p)) for p in cols[0]], dtype=np.int64).reshape(len(rows), width)
    ints = [np.array(col, dtype=dtype) if dtype else col for col in cols[1:]]
    fams = MinedFamilies(pal, *ints)
    return fams, "".join(json.dumps(reference_row(*row), sort_keys=True) + "\n" for row in rows)


class TestBExpr:
    int64_coefficients = st.one_of(st.integers(-3, 3), st.integers(-(2**63), 2**63 - 1))
    coefficients = st.one_of(int64_coefficients, st.integers(-(2**80), 2**80))

    def assert_cell(self, pairs, dtype):
        """The composite cell of ``pairs`` (slope, const) is the scalar rule's
        text: on its own, through ``b_exprs()`` and in the JSON rows."""
        want = [reference_b_expr(slope, const) for slope, const in pairs]
        slope, const = (np.array([pair[i] for pair in pairs], dtype=dtype) for i in (0, 1))
        assert _jsontext.strings(miner._b_expr(slope, const)) == want
        fams, jsonl = families_of([((1,), 0, 1, slope, const, 1, 5) for slope, const in pairs], dtype)
        assert fams.b_slope.dtype == dtype
        assert fams.b_exprs() == want
        out = io.StringIO()
        write_jsonl(fams, out)
        assert out.getvalue() == jsonl
        assert [json.loads(line)["b_expr"] for line in out.getvalue().splitlines()] == want

    EDGES = [(0, 0), (0, -7), (0, 12), (3, 0), (4, 1), (2, -17), (-5, 9), (-5, -(2**63)),
             (2**63 - 1, 2**63 - 1), (1, -(2**63))]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(int64_coefficients, int64_coefficients), min_size=1, max_size=8))
    @example(EDGES)
    @example([(0, 5)] * 3)  # no row with a c term
    @example([(2, 0)] * 3)  # every const hidden
    def test_int64_block(self, pairs):
        self.assert_cell(pairs, np.int64)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(coefficients, coefficients), min_size=1, max_size=8))
    @example([*EDGES, (2**70, 2**63), (0, -(2**80)), (-(2**64), 0), (2**64, -1)])
    @example([(1, 2), (0, 0)])  # fits in int64, held as Python ints
    def test_object_block(self, pairs):
        self.assert_cell(pairs, object)

    @pytest.mark.parametrize("n", [1, WRITE_BLOCK - 1, WRITE_BLOCK, WRITE_BLOCK + 1])
    def test_blocks_at_the_write_block_edges(self, n):
        rng = np.random.default_rng(n)
        slope = rng.integers(-50, 50, n) * (rng.random(n) < 0.8)
        const = rng.integers(-(10**12), 10**12, n) * (rng.random(n) < 0.7)
        lengths = rng.integers(0, 7, n)
        rows = [(tuple(rng.integers(1, 9, k).tolist()), int(r), int(m), int(s), int(c), int(c0), 5)
                for k, r, m, s, c, c0 in zip(lengths, rng.integers(0, 10**6, n), rng.integers(1, 10**6, n),
                                             slope, const, rng.integers(0, 40, n))]
        fams, jsonl = families_of(rows, np.int64)
        out = BlockCounter()
        write_jsonl(fams, out)
        assert out.getvalue() == jsonl
        assert out.writes == -(-n // WRITE_BLOCK)
        assert fams.b_exprs() == [reference_b_expr(row[3], row[4]) for row in rows]

    @pytest.mark.parametrize("pals", [
        [(1, 2, 1), (3, 3, 3), (8, 1, 8)],  # every palindrome full length
        [(), (), ()],  # every palindrome empty: a block of width 0
        [(1, 2, 1), (), (4,), (5, 5)],  # mixed
    ], ids=["full", "empty", "mixed"])
    def test_palindromes_of_every_shape(self, pals):
        rows = [(pal, 1, 2, 3, -4, 0, 5) for pal in pals]
        fams, jsonl = families_of(rows)
        out = io.StringIO()
        write_jsonl(fams, out)
        assert out.getvalue() == jsonl
        assert [fam.palindrome for fam in fams] == pals

    @pytest.mark.parametrize("width", [0, 1, 2, 5])
    def test_palindrome_lengths(self, width):
        rng = np.random.default_rng(width)
        lengths = np.r_[0, width, rng.integers(0, width + 1, 50)]
        pal = rng.integers(1, 9, (len(lengths), width)) * (np.arange(width) < lengths[:, None])
        assert miner._lengths(pal).tolist() == lengths.tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(coefficients, coefficients), max_size=8))
    @example([(0, 0), (0, -7), (3, 0), (4, 1), (2, -17), (-5, -(2**63)), (2**70, 2**63)])
    def test_columns_and_rows_match_the_scalar_rule(self, pairs):
        fams = [MinedFamily((1,), 0, 1, slope, const, 1, 5) for slope, const in pairs]
        want = [reference_b_expr(slope, const) for slope, const in pairs]
        assert columns_of(fams).b_exprs() == want
        assert [fam.b_expr() for fam in fams] == want


class TestRegistryConsistency:
    # each registry family with a constant palindrome and fixed m must have
    # its instances contained in the mined family's instance set
    CASES = [
        ("l2-2m", {"m": 2}, (4,)),
        ("l2-m", {"m": 3}, (3,)),
        ("perron-l3", {"m": 1}, (2, 2)),
        ("l6-c1", {}, (2, 2, 1, 2, 2)),
        # the miner re-derives the corrected form of the printed erratum
        ("l7-a-m1", {}, (1, 1, 1, 1, 1, 1)),
        ("l7-a-m2", {}, (1, 1, 2, 2, 1, 1)),
        ("l9-b", {}, (1, 1, 2, 4, 4, 2, 1, 1)),
    ]

    @pytest.mark.parametrize("fid,fixed,palindrome", CASES)
    def test_contains_registry_instances(self, fid, fixed, palindrome):
        fam = family_by_id(fid)
        mined = mine(list(palindrome))
        assert mined is not None
        n_lo = next(p.lo for p in fam.params if p.name == "n")
        sampled = 0
        n = n_lo
        while sampled < 10:
            try:
                d, cf = instantiate(fam, dict(fixed, n=n))
            except FamilyValidityError:
                n += 1
                continue
            a, b = cf.a0, d - cf.a0 * cf.a0
            q, r = divmod(a - mined.a_residue, mined.a_modulus)
            assert r == 0 and q >= mined.min_c, (fid, n)
            assert mined.b_of(q) == b, (fid, n)
            sampled += 1
            n += 1
