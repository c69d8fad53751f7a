"""JSON text of rows held as numpy columns: the package's one row formatter.

A block of rows ``{"k1": v1, "k2": v2, ...}`` is laid out as one ``uint8``
matrix with a row per JSON row.  The keys, braces and separators are the
same in every row, so they are laid out once, as a one-row template, and
the matrix starts as that template broadcast down the rows.  Each value is
a cell of NUL-padded text in its own slice of the matrix's columns, and a
column's cells are written straight into that slice: an int's digits are
right-aligned by ``divmod(., 10^4)`` over the whole column, four digits (a
limb) a call, each limb's bytes looked up in one table; its sign takes a
byte of its own, and the bytes left over are NUL (0).  Dropping every NUL
(``text``) leaves the text of the rows, in row order, with no Python loop
over the rows and no join of the columns.

The value of a column decides its JSON, row by row:

- an int column (any int dtype, or ``object`` holding Python ints):
  the number;
- a bool column: ``true`` or ``false``;
- a ``Ragged`` pair (a 2-D int array and a length per row), or an
  ``object`` column of lists: a list per row, of the row's own length.
  Each place of the longest list is a cell of whole limbs, its separator
  and digits together, and the places past a row's own list are masked to
  NUL by a multiply;
- a ``Text``, a composite cell: a string, quoted, of its parts side by
  side, each literal bytes or an int column's digits and each kept or
  dropped per row.  A literal part that would need JSON escaping raises
  ValueError; digits never do.

An ``object`` column whose ints all fit in int64 is formatted as int64;
one that does not is formatted by ``str`` per element, packed into the
same NUL-padded cells.
"""

from __future__ import annotations

import itertools
import json
from typing import Callable, NamedTuple

import numpy as np

# Rows per write of analyzer.write_json and miner.write_jsonl.
WRITE_BLOCK = 4096

_MINUS, _ZERO = ord("-"), ord("0")
# ``_limb_rows`` splits each int into limbs of 4 decimal digits, each below LIMB.
LIMB = 10**4
_BOOLS = np.frombuffer(b"falsetrue\0", np.uint8).reshape(2, 5)
# The separator before each list entry but the first, in a place's first limb.
_SEP = np.frombuffer(b", \0\0", np.uint32)[0]


class Ragged(NamedTuple):
    """Lists of ints of their own lengths: row i is ``values[i, :lengths[i]]``."""

    values: np.ndarray
    lengths: np.ndarray


class Text(NamedTuple):
    """A string per row, of ``parts`` side by side: each part a pair
    ``(part, shown)``, where ``part`` is literal bytes or an int column and
    the bool column ``shown`` keeps it in a row or drops it."""

    parts: tuple


def ints(values) -> np.ndarray:
    """Ints (a list, or an array of any int dtype) as an int64 array where
    all of them fit, else ``object``.

    (numpy alone would make floats of ints on both sides of 2^63.)
    """
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _limb_table() -> np.ndarray:
    """The 4 bytes of each limb value v < 10^4, as one ``uint32`` each.

    Row v holds v NUL-padded on the left, with row 0 all NUL: the leading
    limb of an int.  Row 10^4 + v holds v zero-padded to 4 digits: a limb
    below the leading one.
    """
    v = np.arange(LIMB)
    cells = np.empty((2, LIMB, 4), np.uint8)
    for k in range(4):
        cells[:, :, -1 - k] = v // 10**k % 10 + _ZERO
        cells[0, :, -1 - k] *= v >= 10**k  # a leading zero is NUL
    return cells.reshape(-1, 4).view(np.uint32).ravel()


_LIMBS = _limb_table()


def _limb_rows(col, lead: int = 0) -> tuple[np.ndarray, int]:
    """The decimal text of the ints of ``col`` in rows of whole limbs: a
    ``uint8`` array of shape ``col.shape + (4 L,)``, each int right-aligned
    and NUL-padded after at least ``lead`` NUL bytes, and the width of the
    widest text, with a sign column when any int is negative.

    Each magnitude is split into 4-digit limbs by ``divmod(., 10^4)``, and
    each limb's 4 bytes come from ``_LIMBS``: NUL-padded where no higher
    limb is left, zero-padded below one.  The limbs are laid out as
    ``uint32``, one row per int, with a limb more where the sign or the
    lead needs the room.  0 alone has no limb text, and gets its "0" last.
    A column with no negative int skips the sign's work, and one whose ints
    are all below 10^4 needs no divide.  Ints past int64 are formatted by
    ``str``, left-aligned in a field as wide as the widest.
    """
    if col.dtype == object:
        col = ints(col)
    if col.dtype == object:
        text = np.array([str(v) for v in col.ravel().tolist()], dtype="S")
        rows = np.zeros((*col.shape, -(-(lead + text.itemsize) // 4) * 4), np.uint8)
        rows[..., rows.shape[-1] - text.itemsize:] = text.view(np.uint8).reshape(*col.shape, -1)
        return rows, text.itemsize
    lo, top = (int(col.min()), int(col.max())) if col.size else (0, 0)
    sign = int(lo < 0)
    mag = col
    if sign:
        neg = col < 0
        mag = col.astype(np.uint64)
        # Two's complement: -mag is |col| for the negatives, -2^63 included.
        np.negative(mag, out=mag, where=neg)
        top = int(mag.max())
    n_digits = len(str(top))
    width = sign + n_digits
    below = (n_digits - 1) // 4  # limbs below the leading one
    if below and top < 1 << 32:
        mag = mag.astype(np.uint32)  # divides several times faster than uint64
    limbs = np.empty((*col.shape, -(-(lead + width) // 4)), np.uint32)
    for k in range(1, below + 1):
        mag, limb = np.divmod(mag, LIMB)
        np.add(limb, LIMB, out=limb, where=mag != 0)
        # "clip" writes straight into the strided column; no index is out
        # of range to clip.
        _LIMBS.take(limb, out=limbs[..., -k], mode="clip")
    _LIMBS.take(mag, out=limbs[..., -below - 1], mode="clip")
    limbs[..., : -below - 1] = 0
    rows = limbs.view(np.uint8)
    np.maximum(rows[..., -1], _ZERO, out=rows[..., -1])
    if sign:
        rows[..., -width] = np.where(neg, _MINUS, 0)
    return rows, width


def digits(col) -> np.ndarray:
    """The decimal text of the ints of ``col``, one cell per int: a ``uint8``
    array of shape ``col.shape + (width,)``, right-aligned and NUL-padded,
    with a sign column first when any int is negative: the last bytes of
    each of ``_limb_rows``.
    """
    rows, width = _limb_rows(col)
    return rows[..., rows.shape[-1] - width:]


def pad(lists: list) -> Ragged:
    """Lists of ints as a ``Ragged`` pair, 0-padded to the longest."""
    lengths = np.array([len(x) for x in lists], dtype=np.int64)
    flat = ints(list(itertools.chain.from_iterable(lists)))
    values = np.zeros((len(lists), lengths.max(initial=0)), flat.dtype)
    values[np.arange(values.shape[1]) < lengths[:, None]] = flat
    return Ragged(values, lengths)


class _Layout:
    """A block's row: literal bytes in a one-row template, and the cells
    that are written into their slices of the block's matrix."""

    def __init__(self):
        self.template = bytearray()
        self.cells = []  # (start, width, write)

    def literal(self, part: bytes) -> None:
        self.template += part

    def cell(self, stamp: bytes, write: Callable[[np.ndarray], None]) -> None:
        """A cell stamped ``stamp`` in the template; ``write(out)`` fills in
        its slice ``out`` of the matrix, one row per row."""
        self.cells.append((len(self.template), len(stamp), write))
        self.template += stamp

    def matrix(self, n: int) -> np.ndarray:
        """The ``uint8`` matrix of n rows: the template in every row, then
        each cell written into its slice."""
        m = np.empty((n, len(self.template)), np.uint8)
        m[:] = np.frombuffer(self.template, np.uint8)
        for start, width, write in self.cells:
            write(m[:, start:start + width])
        return m


def _count(col) -> int:
    """The number of rows of a column."""
    if isinstance(col, Ragged):
        return len(col.lengths)
    if isinstance(col, Text):
        return len(col.parts[0][1])
    return len(col)


def _lists(layout: _Layout, values: np.ndarray, lengths: np.ndarray) -> None:
    """``[a, b, ...]`` of row i's first ``lengths[i]`` entries.

    Each place of the longest list is one row of whole limbs
    (``_limb_rows``): ``, `` in its first two bytes (but in the first
    place), then the entry's digits.  The places past a row's own list are
    masked to NUL by one multiply of the limbs, so the list's slice is one
    copy of the limb rows.
    """
    n, k = values.shape
    places, _ = _limb_rows(values, lead=2)
    words = places.view(np.uint32)
    words[:, 1:, 0] |= _SEP
    words *= (np.arange(k) < lengths[:, None])[..., None]
    layout.literal(b"[")
    layout.cell(bytes(k * places.shape[-1]), lambda out: np.copyto(out, places.reshape(n, -1)))
    layout.literal(b"]")


def _part(layout: _Layout, part, shown: np.ndarray) -> None:
    """One part of a ``Text``, dropped (NUL) in the rows where ``shown``
    does not hold: a literal in the matrix, an int's limb rows before they
    are copied there."""
    if isinstance(part, bytes):
        s = part.decode("latin-1")
        if json.dumps(s) != f'"{s}"':
            raise ValueError(f"{part!r} needs JSON escaping")
        hidden = ~shown[:, None]
        layout.cell(part, lambda out: np.copyto(out, 0, where=hidden))
    else:
        rows, width = _limb_rows(part)
        words = rows.view(np.uint32)
        words *= shown[:, None]
        cells = rows[:, rows.shape[1] - width:]
        layout.cell(bytes(width), lambda out: np.copyto(out, cells))


def _column(layout: _Layout, col) -> None:
    """Lay out one column's values: literal bytes, and cells to write."""
    if isinstance(col, Text):
        layout.literal(b'"')
        for part, shown in col.parts:
            _part(layout, part, shown)
        layout.literal(b'"')
    elif isinstance(col, Ragged):
        _lists(layout, *col)
    elif col.dtype == bool:
        layout.cell(bytes(5), lambda out: np.copyto(out, _BOOLS[col.astype(np.uint8)]))
    elif col.dtype == object and len(col) and isinstance(col[0], list):
        _lists(layout, *pad(col.tolist()))
    else:
        cells = digits(col)
        layout.cell(bytes(cells.shape[1]), lambda out: np.copyto(out, cells))


def text(cells: np.ndarray) -> str:
    """The text of NUL-padded cells, row after row, with the NULs dropped."""
    return cells.tobytes().translate(None, b"\0").decode("ascii")


def strings(col: Text) -> list[str]:
    """The text of ``col`` in each row, unquoted."""
    layout = _Layout()
    for part, shown in col.parts:
        _part(layout, part, shown)
    layout.literal(b"\n")
    return text(layout.matrix(_count(col))).split("\n")[:-1]


def rows(columns: dict, sep: str = "", end: str = "") -> str:
    """``sep + json.dumps(row, sort_keys=True) + end`` for each row of ``columns``."""
    layout, lead = _Layout(), sep + "{"
    for key in sorted(columns):
        layout.literal(f"{lead}{json.dumps(key)}: ".encode())
        _column(layout, columns[key])
        lead = ", "
    layout.literal(f"}}{end}".encode())
    return text(layout.matrix(_count(columns[key])))


def write_rows(out, n: int, block: int, columns_of: Callable[[slice], dict],
               sep: str = "", end: str = "") -> None:
    """Write n rows to the text stream ``out``, ``block`` rows per write.

    ``columns_of(s)`` gives the columns of the rows in slice ``s``.  Rows
    are joined by ``sep`` and each ends with ``end``.
    """
    for start in range(0, n, block):
        chunk = rows(columns_of(slice(start, start + block)), sep, end)
        out.write(chunk if start else chunk[len(sep):])
