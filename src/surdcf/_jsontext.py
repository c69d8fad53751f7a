"""JSON text of rows held as numpy columns: the package's one row formatter.

A block of rows ``{"k1": v1, "k2": v2, ...}`` is laid out as a ``uint8``
matrix with one row per JSON row.  The keys, braces and separators are
literal bytes, the same in every row.  Each value is a cell of NUL-padded
text: an int's digits are right-aligned by ``divmod(., 10^4)`` over the
whole column, four digits (a limb) a call, each limb's bytes looked up in
one table; its sign takes a byte of its own, and the cells left over are
NUL (0).  Dropping every NUL (``M[M != 0]``) leaves the text of the rows,
in row order, with no Python loop over the rows.

The value of a column decides its JSON, row by row:

- an int column (any int dtype, or ``object`` holding Python ints):
  the number;
- a bool column: ``true`` or ``false``;
- a bytes column (``S`` dtype): a string, quoted, with its NULs dropped.
  Its text must need no JSON escaping;
- a ``Ragged`` pair (a 2-D int array and a length per row), or an
  ``object`` column of lists: a list per row, of the row's own length.

An ``object`` column whose ints all fit in int64 is formatted as int64;
one that does not is formatted by ``str`` per element, packed into the
same NUL-padded cells as an ``S`` array.
"""

from __future__ import annotations

import itertools
import json
from typing import Callable, NamedTuple

import numpy as np

# Rows per write of analyzer.write_json and miner.write_jsonl.
WRITE_BLOCK = 4096

_MINUS, _ZERO = ord("-"), ord("0")
# ``digits`` splits each int into limbs of 4 decimal digits, each below LIMB.
LIMB = 10**4
_COMMA = np.frombuffer(b", ", np.uint8)


class Ragged(NamedTuple):
    """Lists of ints of their own lengths: row i is ``values[i, :lengths[i]]``."""

    values: np.ndarray
    lengths: np.ndarray


def ints(values) -> np.ndarray:
    """Python ints (a list, or an ``object`` array) as an int64 array where
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


def digits(col) -> np.ndarray:
    """The decimal text of the ints of ``col``, one cell per int: a ``uint8``
    array of shape ``col.shape + (width,)``, right-aligned and NUL-padded,
    with a sign column first when any int is negative.

    Each magnitude is split into 4-digit limbs by ``divmod(., 10^4)``, and
    each limb's 4 bytes come from ``_LIMBS``: NUL-padded where no higher
    limb is left, zero-padded below one.  The limbs are laid out as
    ``uint32`` in one row per int, with a limb more where the sign needs
    the room, and the cells are the last bytes of that row.  0 alone has no
    limb text, and gets its "0" last.
    """
    if col.dtype == object:
        col = ints(col)
    if col.dtype == object:
        text = np.array([str(v) for v in col.ravel().tolist()], dtype="S")
        return text.view(np.uint8).reshape(*col.shape, text.itemsize)
    neg = col < 0
    mag = col.astype(np.uint64)
    # Two's complement: -mag is |col| for the negatives, -2^63 included.
    np.negative(mag, out=mag, where=neg)
    top = mag.max() if mag.size else 0
    if top < 1 << 32:
        mag = mag.astype(np.uint32)  # divides several times faster than uint64
    width = len(str(top))
    sign = int(neg.any())
    below = (width - 1) // 4  # limbs below the leading one
    limbs = np.empty((*col.shape, -(-(sign + width) // 4)), np.uint32)
    for k in range(1, below + 1):
        mag, limb = np.divmod(mag, LIMB)
        np.add(limb, LIMB, out=limb, where=mag != 0)
        # "clip" writes straight into the strided column; no index is out
        # of range to clip.
        _LIMBS.take(limb, out=limbs[..., -k], mode="clip")
    _LIMBS.take(mag, out=limbs[..., -below - 1], mode="clip")
    limbs[..., : -below - 1] = 0
    cells = limbs.view(np.uint8)[..., 4 * limbs.shape[-1] - sign - width :]
    np.maximum(cells[..., -1], _ZERO, out=cells[..., -1])
    if sign:
        cells[..., 0] = np.where(neg, _MINUS, 0)
    return cells


def _lists(values: np.ndarray, lengths: np.ndarray) -> list:
    """``[a, b, ...]`` cells of row i's first ``lengths[i]`` entries."""
    n, k = values.shape
    entry = digits(values)
    w = entry.shape[-1]
    cells = np.concatenate([entry, np.broadcast_to(_COMMA, (n, k, 2))], axis=-1)
    at = np.arange(k) - lengths[:, None]
    cells[at >= 0] = 0
    cells[..., w:][at == -1] = 0
    return [b"[", cells.reshape(n, -1), b"]"]


def pad(lists: list) -> Ragged:
    """Lists of ints as a ``Ragged`` pair, 0-padded to the longest."""
    lengths = np.array([len(x) for x in lists], dtype=np.int64)
    flat = ints(list(itertools.chain.from_iterable(lists)))
    values = np.zeros((len(lists), lengths.max(initial=0)), flat.dtype)
    values[np.arange(values.shape[1]) < lengths[:, None]] = flat
    return Ragged(values, lengths)


def _cells(col) -> list:
    """The parts (literal bytes and cell matrices) of one column's values."""
    if isinstance(col, Ragged):
        return _lists(*col)
    if col.dtype == bool:
        return [np.where(col, b"true", b"false").view(np.uint8).reshape(len(col), 5)]
    if col.dtype.kind == "S":
        return [b'"', col.view(np.uint8).reshape(len(col), col.itemsize), b'"']
    if col.dtype == object and len(col) and isinstance(col[0], list):
        return _lists(*pad(col.tolist()))
    return [digits(col)]


def join(parts: list) -> np.ndarray:
    """The parts side by side, literal bytes repeated down the rows: one
    ``uint8`` matrix, one row per row of the cell matrices."""
    n = next(len(p) for p in parts if isinstance(p, np.ndarray))
    return np.concatenate([
        np.broadcast_to(np.frombuffer(p, np.uint8), (n, len(p))) if isinstance(p, bytes) else p
        for p in parts
    ], axis=1)


def text(cells: np.ndarray) -> str:
    """The text of NUL-padded cells, row after row, with the NULs dropped."""
    cells = cells.view(np.uint8)
    return cells[cells != 0].tobytes().decode("ascii")


def rows(columns: dict, sep: str = "", end: str = "") -> str:
    """``sep + json.dumps(row, sort_keys=True) + end`` for each row of ``columns``."""
    parts, lead = [], sep + "{"
    for key in sorted(columns):
        parts += [f"{lead}{json.dumps(key)}: ".encode(), *_cells(columns[key])]
        lead = ", "
    parts.append(f"}}{end}".encode())
    return text(join(parts))


def write_rows(out, n: int, block: int, columns_of: Callable[[slice], dict],
               sep: str = "", end: str = "") -> None:
    """Write n rows to the text stream ``out``, ``block`` rows per write.

    ``columns_of(s)`` gives the columns of the rows in slice ``s``.  Rows
    are joined by ``sep`` and each ends with ``end``.
    """
    for start in range(0, n, block):
        chunk = rows(columns_of(slice(start, start + block)), sep, end)
        out.write(chunk if start else chunk[len(sep):])
