"""The row writer's text is that of ``json.dumps(row, sort_keys=True)``, byte for byte."""

import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surdcf import _jsontext, families
from surdcf._jsontext import WRITE_BLOCK, Ragged, Text, digits, rows, strings, write_rows
from surdcf.engine import expand_sqrt, half_period
from surdcf.families import Failure, _write_failure
from surdcf.exact import isqrt

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

int64s = st.one_of(st.integers(-99, 99), st.integers(INT64_MIN, INT64_MAX),
                   st.sampled_from([0, -1, INT64_MIN, INT64_MAX, INT64_MIN + 1, 10**18]))
# Python ints on both sides of int64, held in object columns.
bigs = st.one_of(int64s, st.integers(-(2**130), 2**130),
                 st.sampled_from([2**63, -(2**63) - 1, 2**64, 10**40]))
entries = st.integers(1, 10**12)


def reference(table, sep="", end=""):
    return "".join(sep + json.dumps(row, sort_keys=True) + end for row in table)


def int_column(values, dtype):
    return np.array(values, dtype=dtype) if values else np.zeros(0, np.int64)


def list_column(lists):
    """An ``object`` column of lists, as the analyzer's period words."""
    col = np.empty(len(lists), dtype=object)
    for i, x in enumerate(lists):
        col[i] = x
    return col


# Literal parts of a ``Text``: none of them needs JSON escaping.
literals = st.text("0123456789*c+- abxyz=()[]{}:,.'/", min_size=1, max_size=3)


@st.composite
def texts(draw, n):
    """A ``Text`` of n rows, of literal and int parts (int64 and past it),
    each kept per row or not, and the text of each row."""
    parts, want = [], [""] * n
    for _ in range(draw(st.integers(1, 4))):
        shown = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        if draw(st.booleans()):
            part = draw(literals)
            texts_ = [part] * n
            part = part.encode()
        else:
            dtype, ints_ = draw(st.sampled_from([(np.int64, int64s), (object, bigs)]))
            values = draw(st.lists(ints_, min_size=n, max_size=n))
            part = np.array(values, dtype=dtype)
            texts_ = [str(v) for v in values]
        parts.append((part, np.array(shown, dtype=bool)))
        want = [w + t if keep else w for w, t, keep in zip(want, texts_, shown)]
    return Text(tuple(parts)), want


@st.composite
def tables(draw):
    """Columns of every kind the writer takes, and the same rows as dicts."""
    n = draw(st.integers(0, 12))
    small = draw(st.lists(int64s, min_size=n, max_size=n))
    big = draw(st.lists(bigs, min_size=n, max_size=n))
    flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    word, words = draw(texts(n))
    ragged = draw(st.lists(st.lists(bigs, max_size=5), min_size=n, max_size=n))
    # Palindromes of mixed lengths in one block, 0-padded as in the miner.
    pals = draw(st.lists(st.lists(entries, max_size=6), min_size=n, max_size=n))
    padded = _jsontext.pad(pals)
    columns = {
        "small": int_column(small, np.int64),
        "big": np.array(big, dtype=object),
        "flag": np.array(flags, dtype=bool),
        "word": word,
        "period": list_column(ragged),
        "pal": Ragged(padded.values, np.count_nonzero(padded.values, axis=1)),
    }
    table = [
        dict(small=s, big=b, flag=f, word=w, period=r, pal=p)
        for s, b, f, w, r, p in zip(small, big, flags, words, ragged, pals)
    ]
    return columns, table


def block_of(col, rows):
    """The rows ``rows`` of a column of any kind."""
    if isinstance(col, Ragged):
        return Ragged(*(c[rows] for c in col))
    if isinstance(col, Text):
        return Text(tuple((p if isinstance(p, bytes) else p[rows], shown[rows]) for p, shown in col.parts))
    return col[rows]


class BlockCounter(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, s):
        self.writes += 1
        return super().write(s)


@settings(max_examples=200, deadline=None)
@given(tables(), st.sampled_from([("", "\n"), (", ", "")]))
def test_rows_match_json_dumps(table, seps):
    columns, want = table
    sep, end = seps
    if want:
        assert rows(columns, sep, end) == reference(want, sep, end)


@settings(max_examples=100, deadline=None)
@given(tables(), st.integers(1, 5), st.sampled_from([("", "\n"), (", ", "")]))
def test_write_rows_in_blocks(table, block, seps):
    columns, want = table
    sep, end = seps
    out = BlockCounter()
    write_rows(out, len(want), block, lambda s: {k: block_of(v, s) for k, v in columns.items()}, sep, end)
    # Rows joined by sep, the first with none.
    assert out.getvalue() == reference(want, sep, end)[len(sep) if want else 0:]
    assert out.writes == -(-len(want) // block)


# Every limb value and limb edge: each int up to 10^5, each side of every
# power of ten up to 10^18, and each side of 2^32, where the magnitudes
# leave uint32.
UP_TO_1E5 = list(range(10**5 + 1))
POWER_EDGES = [10**k + j for k in range(19) for j in (-1, 0, 1)]
WORD_EDGES = [2**32 - 1, 2**32, 2**32 + 1, INT64_MAX, -INT64_MAX, INT64_MIN]


@pytest.mark.parametrize("dtype", [np.int64, object])
@settings(max_examples=200, deadline=None)
@given(values=st.lists(int64s, max_size=20))
@example(values=[0])
@example(values=[INT64_MIN, INT64_MAX, -1, 0, 1, -10, 10])
@example(values=UP_TO_1E5)
@example(values=[-v for v in UP_TO_1E5])
@example(values=POWER_EDGES)
@example(values=[-v for v in POWER_EDGES])
@example(values=[2**32 - 1])
@example(values=WORD_EDGES)
def test_digits_of_int64(dtype, values):
    cells = digits(int_column(values, dtype))
    assert [_jsontext.text(row) for row in cells] == [str(v) for v in values]


@settings(max_examples=200, deadline=None)
@given(values=st.lists(bigs, max_size=20))
@example(values=[2**63, -(2**63) - 1, 0])
def test_digits_past_int64(values):
    cells = digits(np.array(values, dtype=object))
    assert [_jsontext.text(row) for row in cells] == [str(v) for v in values]


def test_digits_are_right_aligned_and_nul_padded():
    # The sign keeps a column of its own; no leading zero survives.
    cells = digits(np.array([5, -120, 0, 30]))
    assert cells.tolist() == [
        [0, 0, 0, ord("5")],
        [ord("-"), ord("1"), ord("2"), ord("0")],
        [0, 0, 0, ord("0")],
        [0, 0, ord("3"), ord("0")],
    ]


def test_empty_block_writes_nothing():
    out = BlockCounter()
    write_rows(out, 0, 4096, lambda s: pytest.fail("no rows to format"))
    assert out.getvalue() == "" and out.writes == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12).flatmap(texts))
def test_strings_are_the_text_of_each_row(text_rows):
    col, want = text_rows
    assert strings(col) == want


@pytest.mark.parametrize("literal", [b'"', b"\\", b"\n", b"\0", b"\x1f", b"\x7f", "\u00e9".encode(), b"c\"c"])
def test_text_literal_that_needs_escaping_raises(literal):
    col = Text(((literal, np.ones(2, dtype=bool)),))
    with pytest.raises(ValueError, match="needs JSON escaping"):
        rows({"t": col})
    with pytest.raises(ValueError, match="needs JSON escaping"):
        strings(col)


@pytest.mark.parametrize("values, lead, limbs, width", [
    ([0, 7, 9999], 0, 1, 4),  # non-negative and below 10^4: one limb, no sign
    ([0, 10**4], 0, 2, 5),
    ([3, 2**32 + 5], 0, 3, 10),  # past uint32: divided as int64
    ([-1, 9999], 0, 2, 5),  # a negative: a sign column
    ([-9, 5], 0, 1, 2),
    ([8, 1], 2, 1, 1),  # a list place: the separator's two bytes first
    ([99], 2, 1, 2),
    ([999], 2, 2, 3),
])
def test_limb_rows(values, lead, limbs, width):
    rows_, w = _jsontext._limb_rows(np.array(values), lead)
    assert rows_.shape == (len(values), 4 * limbs) and w == width
    assert not rows_[:, :lead].any()
    assert [_jsontext.text(row) for row in rows_] == [str(v) for v in values]


@pytest.mark.parametrize("lists", [
    [[1, 2, 3], [4, 5, 6]],  # every list full length
    [[], [], []],  # every list empty
    [[1], [], [10**5, 2, -3], [7, 8]],  # mixed, with multi-limb and signed entries
    [[2**70], [], [1, -(2**65)]],  # past int64
    [[0, 0], [0]],  # zeros inside the lists
])
@pytest.mark.parametrize("kind", ["ragged", "object"])
def test_lists_of_every_shape(lists, kind):
    if kind == "ragged":
        col = _jsontext.pad(lists)
    else:
        col = list_column(lists)
    want = reference([{"p": x} for x in lists], "", "\n")
    assert rows({"p": col}, end="\n") == want


def test_ragged_entries_past_the_lengths_are_dropped():
    # Row i is values[i, :lengths[i]], whatever the values past it hold.
    col = Ragged(np.array([[1, 2, 3], [4, -5, 600000], [7, 8, 9]]), np.array([1, 0, 3]))
    assert rows({"p": col}, end="\n") == '{"p": [1]}\n{"p": []}\n{"p": [7, 8, 9]}\n'


@pytest.mark.parametrize("n", [1, WRITE_BLOCK - 1, WRITE_BLOCK, WRITE_BLOCK + 1])
def test_write_rows_at_block_edges(n):
    rng = np.random.default_rng(n)
    lengths = rng.integers(0, 4, n)
    values = rng.integers(1, 10**6, (n, 3)) * (np.arange(3) < lengths[:, None])
    d = rng.integers(-(10**12), 10**12, n)
    flags = rng.random(n) < 0.5
    word = Text(((d, d != 0), (b"*c", flags)))
    columns = {"d": d, "f": flags, "p": Ragged(values, lengths), "w": word}
    table = [{"d": int(d[i]), "f": bool(flags[i]), "p": values[i, :lengths[i]].tolist(),
              "w": (str(d[i]) if d[i] else "") + ("*c" if flags[i] else "")} for i in range(n)]
    out = BlockCounter()
    write_rows(out, n, WRITE_BLOCK, lambda s: {k: block_of(v, s) for k, v in columns.items()}, ", ")
    assert out.getvalue() == reference(table, ", ")[2:]
    assert out.writes == -(-n // WRITE_BLOCK)


def test_empty_lists():
    period = list_column([[], [], []])
    pal = Ragged(np.zeros((3, 2), np.int64), np.zeros(3, np.int64))
    assert rows({"p": period, "q": pal}) == '{"p": [], "q": []}' * 3


# ``families._write_failure``, the verifier's writer of failure records,
# writes the actual period from the half walk in pieces of ``_PIECE``
# quotients; its bytes are held to ``json.dumps`` of the whole record.
def assert_period_text(d):
    """The record written from the half walk is ``json.dumps`` of the
    record holding the whole period."""
    a0, half, odd = half_period(d)
    expected = expand_sqrt(d)
    out = io.StringIO()
    _write_failure(Failure({"n": 1}, d, expected, a0, half, odd), out)
    want = {"actual": {"a0": a0, "period": list(expected.period)}, "d": d,
            "expected": {"a0": expected.a0, "period": list(expected.period)}, "params": {"n": 1}}
    assert out.getvalue() == json.dumps(want, sort_keys=True), f"d={d}"


SMALL_WALKS = [
    2, 10**12 + 1,  # d = a0^2 + 1: ell 1, an empty half
    3, 41, 7,  # ell 2, 3 and 4
    13, 19, 22,  # longer odd and even periods
    27, 99, 10**6 + 2 * 10**3,  # 2*a0 wider than every interior cell
    31, 61, 46, 109,  # halves of 4 to 7 quotients
]
PIECES = [1, 2, 3]


def test_small_walks_cover_the_piece_edges():
    # Empty halves, both parities of ell, and for each piece size halves
    # of exactly one and two pieces and of one quotient either side.
    walks = [half_period(d) for d in SMALL_WALKS]
    lengths = {len(half) for _, half, _ in walks}
    assert 0 in lengths and {odd for _, _, odd in walks} == {False, True}
    for piece in PIECES:
        assert {piece * j + e for j in (1, 2) for e in (-1, 0, 1)} <= lengths


@pytest.mark.parametrize("d", SMALL_WALKS)
def test_period_of_small_walks(d):
    assert_period_text(d)


@pytest.mark.parametrize("piece", PIECES)
@pytest.mark.parametrize("d", SMALL_WALKS)
def test_period_of_small_walks_in_small_pieces(d, piece):
    with mock.patch.object(families, "_PIECE", piece):
        assert_period_text(d)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 10**7))
def test_period_of_random_walks(d):
    if isqrt(d) ** 2 != d:
        assert_period_text(d)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 10**7), st.sampled_from(PIECES))
def test_period_of_random_walks_in_small_pieces(d, piece):
    if isqrt(d) ** 2 != d:
        with mock.patch.object(families, "_PIECE", piece):
            assert_period_text(d)


def test_period_of_the_longest_failing_member():
    from surdcf.families import family_by_id, instantiate
    d, _ = instantiate(family_by_id("pair-m2m-k2-printed"), {"m": 5, "n": 94})
    assert expand_sqrt(d).length == 271_170
    assert_period_text(d)
