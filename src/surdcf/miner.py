"""Derive one-parameter expansion families from constant palindrome patterns.

Given a palindrome w, the symmetric word matrix [[A, B], [B, C]] makes
b = (2aB + C)/A, so [a; w, 2a] is realized by sqrt(a^2 + b) only when
2B a + C == 0 (mod A).  Solving that congruence yields the arithmetic
progression of admissible heads and the matching affine b.  Each family's
first instances are then checked by the realisation identity
(``convergents.realizes``), not by expanding them: by the uniqueness of
infinite continued fractions the identity is equivalent to the expansion,
and the tests keep the engine as its oracle.

The head congruence has a closed form.  W is a product of n matrices
[[w_i, 1], [1, 0]], so AC - B^2 = (-1)^n: B is a unit modulo A with
B^-1 = (-1)^(n+1) B, gcd(2B, A) = gcd(2, A), and the solution needs no
gcd or Euclid loop (``_head_congruence``).  The miner checks the identity
on every block before it relies on it.

The miner works on columns, a block of palindromes at a time: the blocks
and their (A, B, C) columns come from ``palindromes`` (no matrix object is
built), the congruences are solved in closed form, and the heads are
searched and checked with ``realizes`` over the block's rows.  ``mine`` is
the one-row case on Python ints.  ``palindrome_triples`` builds a block's
columns from the determining halves alone: each step matrix is symmetric,
so a palindrome u + reverse(v) (u = v, or v followed by the centre) has the
word matrix W(u)·W(v)ᵀ.

Columns are int64 only where a bound shows that nothing wraps, and Python
ints (``dtype=object``) elsewhere, through the same code.  That policy is
this module's alone: the ``fits`` bound of ``palindromes`` and the
``c_safe`` bound of ``_mine_block``, which relies on it, read the one
``INT64_MAX``.  The exact modules (``exact``, ``engine``, ``convergents``
and the rest) import no numpy; it is imported here, and by ``analyzer``,
``_kernels`` and ``_jsontext``, alone.

``sweep_blocks`` yields the families of a sweep as columns
(``MinedFamilies``), one block of palindromes at a time, so a caller that
writes each block as it comes holds one block, whatever the sweep's size;
``mine_sweep`` concatenates them.  ``write_jsonl`` writes families as JSON
Lines through the package's one row formatter, ``_jsontext``, a block of
rows at a time, and ``write_text`` writes them as the text lines of ``mine
--format text``.  ``_b_expr`` makes the ``b_expr`` text of a block one
composite cell (``_jsontext.Text``), written in place into the JSON rows;
``MinedFamilies.b_exprs`` reads each row's text from the same cell, and
``MinedFamily.b_expr`` is its one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterator

import numpy as np

from . import _jsontext
from ._jsontext import WRITE_BLOCK
from .convergents import palindrome_half, realizes
from .exact import DomainError, InternalConsistencyError
from .sequences import _extend

ACCEPT_INSTANCES = 5


def _reflect(head: tuple[int, int, int, int], half: tuple[int, int, int, int]) -> tuple[int, int, int]:
    """(A, B, C) of W(u)·W(v)ᵀ = [[A, B], [B, C]] from the states of u and v:
    the word matrix of the palindrome u + reverse(v), whose lower left entry
    is B and is not computed."""
    P1, P0, Q1, Q0 = head
    p1, p0, q1, q0 = half
    return P1 * p1 + P0 * p0, P1 * q1 + P0 * q0, Q1 * q1 + Q0 * q0


def palindrome_triples(halves: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, B, C) columns of the palindromes of ``length`` whose determining
    halves are the rows of ``halves``, in the dtype of ``halves``.

    By the reflection identity a palindrome h + reverse(h) has the word
    matrix W(h)·W(h)ᵀ, and h + [c] + reverse(h) has W(hc)·W(h)ᵀ: the state
    of the half is carried down the columns with ``_extend`` and reflected
    with ``_reflect``.  The empty half's state is that of IDENTITY.
    """
    h, odd = divmod(length, 2)
    one, zero = np.ones(len(halves), halves.dtype), np.zeros(len(halves), halves.dtype)
    half = reduce(_extend, halves[:, :h].T, (one, zero, zero, one))
    return _reflect(_extend(half, halves[:, h]) if odd else half, half)


# Rows per block of ``palindromes``.  It bounds the memory a block's columns
# and their temporaries take, whatever the sweep's size: length 16 at entry 8
# alone holds 8^8 palindromes.
BLOCK_ROWS = 1 << 13

INT64_MAX = 2**63 - 1


def palindromes(length: int, max_entry: int) -> Iterator[tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """(halves, (A, B, C)) per block of the palindromes of ``length`` over 1..max_entry.

    ``halves`` holds one determining half per row, the first ceil(length/2)
    entries, and (A, B, C) are the columns of the rows' word matrices
    [[A, B], [B, C]] (``palindrome_triples``).  The rows run lexicographic
    over the halves, block after block, and a block holds the next
    BLOCK_ROWS halves or the rest; length 0 gives the empty word alone.

    The columns are int64 when twice the square of the largest A of the
    length, that of the all-max_entry word, fits in int64: A grows with every
    entry, and B, C and every entry of a half's state are at most A, so the
    triple, and any product of two of its entries doubled, is then exact.
    Otherwise they hold Python ints (``dtype=object``).
    """
    k = (length + 1) // 2
    widest = palindrome_triples(np.full((1, k), max_entry, dtype=object), length)[0][0]
    fits = 2 * widest * widest <= INT64_MAX
    count = max_entry**k
    for lo in range(0, count, BLOCK_ROWS):
        # The halves numbered lo.. are their numbers' base-max_entry digits, plus 1.
        rest = np.arange(lo, min(lo + BLOCK_ROWS, count))
        digits = []
        for _ in range(k):
            rest, digit = np.divmod(rest, max_entry)
            digits.append(digit + 1)
        halves = np.array(digits[::-1], dtype=np.int64).reshape(k, len(rest)).T
        if not fits:
            halves = halves.astype(object)
        yield halves, palindrome_triples(halves, length)


def _b_expr(slope: np.ndarray, const: np.ndarray) -> _jsontext.Text:
    """b = slope*c + const as text, per row: ``4*c+1``, ``2*c-17``, ``3*c``
    or ``1``.  One composite cell (``_jsontext.Text``) of the slope's
    digits, ``*c``, ``+`` and the const's digits, each kept or dropped per
    row; a negative const brings its own sign."""
    c_term = slope != 0
    return _jsontext.Text((
        (slope, c_term),
        (b"*c", c_term),
        (b"+", c_term & (const > 0)),
        (const, ~c_term | (const != 0)),
    ))


def _lengths(pal: np.ndarray) -> np.ndarray:
    """The length of each palindrome of a 0-padded block (its entries are at
    least 1): where its first 0 is, or the block's width if it has none.
    One ``argmin``; ``np.count_nonzero(pal, axis=1)`` is several times
    slower over rows this short."""
    if not pal.shape[1]:
        return np.zeros(len(pal), np.int64)
    filled = pal != 0
    return np.where(filled[:, -1], pal.shape[1], filled.argmin(axis=1))


@dataclass(frozen=True)
class MinedFamily:
    """Family a(c) = a_modulus*c + a_residue, b(c) = b_slope*c + b_const.

    Every c >= min_c satisfies sqrt(a(c)^2 + b(c)) = [a(c); palindrome..., 2 a(c)].
    The realisation identity holds for every c by the head congruence, and a,
    b and 2a - b do not decrease in c (b's slope is 2B/A times a's, and
    B <= A), so the bounds 1 <= b <= 2a and max(palindrome) <= a that hold at
    min_c hold beyond it.  ``verified_instances`` counts the instances from
    min_c on that ``convergents.realizes`` checked.
    """

    palindrome: tuple[int, ...]
    a_residue: int
    a_modulus: int
    b_slope: int
    b_const: int
    min_c: int
    verified_instances: int

    def a_of(self, c: int) -> int:
        """a(c).  Nothing in the package calls it: acceptance criterion 8
        checks the swept families' instances through it and ``b_of``."""
        return self.a_modulus * c + self.a_residue

    def b_of(self, c: int) -> int:
        """b(c), for acceptance criterion 8 as ``a_of``."""
        return self.b_slope * c + self.b_const

    def b_expr(self) -> str:
        return _jsontext.strings(_b_expr(_jsontext.ints([self.b_slope]), _jsontext.ints([self.b_const])))[0]

    def to_dict(self) -> dict:
        return {
            "palindrome": list(self.palindrome),
            "a_residue": self.a_residue,
            "a_modulus": self.a_modulus,
            "b_expr": self.b_expr(),
            "min_c": self.min_c,
            "verified_instances": self.verified_instances,
        }


@dataclass
class MinedFamilies:
    """The fields of ``MinedFamily`` as columns, one row per family.

    Each column is a 1-D array of ints (int64, or ``object`` holding Python
    ints), and ``palindrome`` a 2-D array with one palindrome per row,
    0-padded on the right (its entries are at least 1).  Lists are taken
    too, and made arrays.  Iterating yields the rows as ``MinedFamily``
    objects.
    """

    palindrome: np.ndarray
    a_residue: np.ndarray
    a_modulus: np.ndarray
    b_slope: np.ndarray
    b_const: np.ndarray
    min_c: np.ndarray
    verified_instances: np.ndarray

    def __post_init__(self):
        pal = self.palindrome
        self.palindrome = pal if isinstance(pal, np.ndarray) else _jsontext.pad(pal).values
        for name, col in list(vars(self).items())[1:]:
            setattr(self, name, col if isinstance(col, np.ndarray) else _jsontext.ints(col))

    def __len__(self) -> int:
        return len(self.palindrome)

    def _int_columns(self) -> list[np.ndarray]:
        """Every column but ``palindrome``, in field order."""
        return list(vars(self).values())[1:]

    def b_exprs(self) -> list[str]:
        """``MinedFamily.b_expr`` of every row, from the columns at once."""
        return _jsontext.strings(_b_expr(self.b_slope, self.b_const))

    def __iter__(self) -> Iterator[MinedFamily]:
        lengths = _lengths(self.palindrome).tolist()
        for pal, n, *fields in zip(self.palindrome.tolist(), lengths,
                                   *(col.tolist() for col in self._int_columns())):
            yield MinedFamily(tuple(pal[:n]), *fields)

    @classmethod
    def concat(cls, parts: list[MinedFamilies], width: int) -> MinedFamilies:
        """The rows of ``parts`` in order, palindromes padded to ``width``.

        Each column is int64 where all its values fit, even where a part
        holds it as Python ints, and Python ints where one does not.
        """
        pal = np.zeros((sum(map(len, parts)), width),
                       np.result_type(np.int64, *(p.palindrome for p in parts)))
        row = 0
        for p in parts:
            pal[row:row + len(p), :p.palindrome.shape[1]] = p.palindrome
            row += len(p)
        rest = (np.concatenate(cols) for cols in zip(*(p._int_columns() for p in parts)))
        return cls(*map(_jsontext.ints, (pal, *rest)))


def _head_congruence(abc: tuple[np.ndarray, np.ndarray, np.ndarray], length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve 2B*a + C == 0 (mod A) per row: ``(solvable, residue, modulus)``.

    (A, B, C) are the columns of the word matrices of palindromes of
    ``length`` n, so AC - B^2 = (-1)^n, and B^-1 = (-1)^(n+1) B modulo A.
    Hence g = gcd(2B, A) = 2 - (A & 1); a row is solvable iff g divides C,
    and its heads are then unique modulo m2 = A/g: a = (-C/g) times the
    inverse of 2B/g modulo m2, which is B^-1 when g = 2 and ((m2 + 1)/2) B^-1
    when g = 1.  Residues of unsolvable rows mean nothing.  No product
    passes A^2.  Raises InternalConsistencyError if a row breaks the
    determinant identity, on which the closed form rests.
    """
    A, B, C = abc
    det = 1 if length % 2 == 0 else -1
    if not (A * C - B * B == det).all():
        raise InternalConsistencyError(f"a palindrome of length {length} has det W != {det}")
    g = 2 - (A & 1)
    m2 = A // g
    b_inv = -det * B % m2
    inv = np.where(g == 2, b_inv, (m2 + 1) // 2 * b_inv % m2)
    return C % g == 0, -C // g % m2 * inv % m2, m2


def _mine_block(halves: np.ndarray, length: int, abc: tuple[np.ndarray, np.ndarray, np.ndarray]) -> MinedFamilies:
    """The families of the palindromes of ``length`` with determining halves
    ``halves`` (rows) and word matrix columns ``abc`` = (A, B, C).

    Per row, as the scalar rule: solve 2B*a + C == 0 (mod A) for the heads
    a = a_modulus*c + a_residue, with b_slope = 2B*a_modulus/A and
    b_const = (2B*a_residue + C)/A; min_c is the first c in 0..limit with
    ``realizes``, limit = 4*(A + max entry + |b_const|) + 16, and the
    ACCEPT_INSTANCES - 1 heads after it must realize too.  A row failing
    any step has no family.

    On int64 columns ``palindromes`` keeps 2A^2 below 2^63, which bounds the
    closed-form congruence (``_head_congruence``: the determinant check's
    products are at most A^2, and so is every product of two residues),
    b_slope's and b_const's numerators (below 2A^2) and limit.  The
    operands of the identity b*A == 2aB + C grow with c, so each row gets
    the largest c, ``c_safe``, at which a <= (INT64_MAX - C) // (2 max(B, 1)).
    Up to it 2a and 2aB + C stay within int64, and so do b and b*A: b_slope
    and b_const are floors of 2B*a_modulus/A and (2B*a_residue + C)/A, so
    b*A <= 2aB + C <= INT64_MAX, and the terms a_modulus*c and b_slope*c
    are at most a and b.  A row's heads past its c_safe are checked on
    Python ints.
    """
    A, B, C = abc
    top = halves.max(axis=1, initial=0)
    solvable, res, mod = _head_congruence(abc, length)
    rows = np.flatnonzero(solvable)
    A, B, C, top, res, mod = (col[rows] for col in (A, B, C, top, res, mod))
    slope = 2 * B * mod // A
    const = (2 * B * res + C) // A
    limit = 4 * (A + top + abs(const)) + 16
    cols = (A, B, C, top, mod, res, slope, const)
    if A.dtype == object:
        c_safe = np.full(len(A), -1)
    else:
        c_safe = ((INT64_MAX - C) // (2 * np.maximum(B, 1)) - res) // mod

    def realized(at: np.ndarray, c) -> np.ndarray:
        """``realizes`` at head number c (a number, or one per row) for the rows ``at``."""
        c = np.broadcast_to(c, at.shape)
        hit = np.empty(len(at), dtype=bool)
        narrow = c <= c_safe[at]
        for part in (narrow, ~narrow):
            if part.any():
                picked = [col[at[part]] for col in cols] + [c[part]]
                if part is not narrow:
                    picked = [col.astype(object) for col in picked]
                A_, B_, C_, top_, mod_, res_, slope_, const_, cc = picked
                hit[part] = realizes((A_, B_, C_), top_, mod_ * cc + res_, slope_ * cc + const_)
        return hit

    min_c = np.full(len(rows), -1)
    live = np.arange(len(rows))
    c = 0
    while live.size:
        hit = realized(live, c)
        min_c[live[hit]] = c
        live = live[~hit & (limit[live] > c)]
        c += 1
    found = np.flatnonzero(min_c >= 0)
    for k in range(1, ACCEPT_INSTANCES):
        found = found[realized(found, min_c[found] + k)]

    halves = halves[rows[found]]
    words = np.hstack([halves, halves[:, : length // 2][:, ::-1]])
    return MinedFamilies(
        words,
        *(col[found] for col in (res, mod, slope, const, min_c)),
        np.full(len(found), ACCEPT_INSTANCES),
    )


def mine(palindrome: list[int] | tuple[int, ...]) -> MinedFamily | None:
    """Family of heads realizing a constant palindrome, or None.

    Returns None when the head congruence is unsolvable or no head in the
    search bound satisfies ``convergents.realizes``.  The first
    ACCEPT_INSTANCES heads from min_c are checked by the identity; by the
    monotonicity in ``MinedFamily`` none of them can fail once min_c holds.
    Raises DomainError for a word that is not a palindrome or has an entry
    below 1.
    """
    halves = np.array([palindrome_half(palindrome)], dtype=object)
    length = len(palindrome)
    return next(iter(_mine_block(halves, length, palindrome_triples(halves, length))), None)


def sweep_blocks(max_len: int, max_entry: int) -> Iterator[MinedFamilies]:
    """The families of every palindrome up to the given bounds, one
    ``MinedFamilies`` per block of ``palindromes``.

    Enumeration is by length, then lexicographic over the determining half,
    a block of halves at a time; a block's palindromes are as wide as its
    length, its columns keep the block's dtype, and a block may hold no
    family.  Cost grows like max_entry^(max_len/2).  Bad bounds raise
    DomainError here, before the first block is mined.
    """
    if max_len < 0 or (max_len > 0 and max_entry < 1):
        raise DomainError("bad sweep bounds")
    return (_mine_block(halves, n, abc) for n in range(max_len + 1) for halves, abc in palindromes(n, max_entry))


def mine_sweep(max_len: int, max_entry: int) -> MinedFamilies:
    """Mine every palindrome up to the given bounds, in deterministic order:
    the blocks of ``sweep_blocks`` concatenated, palindromes padded to
    ``max_len``.  A column is int64 where all its values fit, and Python
    ints where one does not.
    The library form of ``mine --sweep``, which writes each block as it
    comes; acceptance criterion 8 runs it.
    """
    return MinedFamilies.concat(list(sweep_blocks(max_len, max_entry)), max_len)


def write_jsonl(families: MinedFamilies, out) -> None:
    """Write ``json.dumps(fam.to_dict(), sort_keys=True) + "\\n"`` per family to ``out``.

    The same bytes, formatted from the columns by ``_jsontext``,
    ``WRITE_BLOCK`` rows per write: the palindromes as lists of their own
    lengths and ``b_expr`` as a string, the composite cell of ``_b_expr``
    (it holds only digits, ``*``, ``c``, ``+`` and ``-``, so nothing needs
    escaping).
    """
    def columns_of(rows: slice) -> dict:
        pal = families.palindrome[rows]
        return {
            "a_modulus": families.a_modulus[rows],
            "a_residue": families.a_residue[rows],
            "b_expr": _b_expr(families.b_slope[rows], families.b_const[rows]),
            "min_c": families.min_c[rows],
            "palindrome": _jsontext.Ragged(pal, _lengths(pal)),
            "verified_instances": families.verified_instances[rows],
        }

    _jsontext.write_rows(out, len(families), WRITE_BLOCK, columns_of, end="\n")


def write_text(families: MinedFamilies, out) -> None:
    """Write the ``mine --format text`` line of each family to ``out``,
    ``[2,2]: a = 5*c+1, b = 4*c+1, c >= 1``, all of them in one write
    (none for a block with no family): from the columns, with no
    ``MinedFamily`` and no print per row."""
    if not len(families):
        return
    columns = (families.palindrome.tolist(), _lengths(families.palindrome).tolist(),
               families.a_modulus.tolist(), families.a_residue.tolist(),
               families.b_exprs(), families.min_c.tolist())
    out.write("".join(
        f"{str(pal[:n]).replace(' ', '')}: a = {mod}*c+{res}, b = {b_expr}, c >= {min_c}\n"
        for pal, n, mod, res, b_expr, min_c in zip(*columns)
    ))


__all__ = ["MinedFamily", "MinedFamilies", "mine", "mine_sweep", "sweep_blocks", "write_jsonl", "write_text",
           "ACCEPT_INSTANCES"]
