"""Derive one-parameter expansion families from constant palindrome patterns.

Given a palindrome w, the symmetric word matrix [[A, B], [B, C]] makes
b = (2aB + C)/A, so [a; w, 2a] is realized by sqrt(a^2 + b) only when
2B a + C == 0 (mod A).  Solving that congruence yields the arithmetic
progression of admissible heads and the matching affine b.  Each family's
first instances are then checked by the realisation identity
(``convergents.realizes``), not by expanding them: by the uniqueness of
infinite continued fractions the identity is equivalent to the expansion,
and the tests keep the engine as its oracle.

The miner works on columns, a block of palindromes at a time: the blocks
and their (A, B, C) columns come from ``convergents.palindromes`` (no
matrix object is built), the congruences are solved by
``exact.solve_linear_congruences``, and the heads are searched and checked
with ``realizes`` over the block's rows.  ``mine`` is the one-row case on
Python ints.  Columns are int64 only where a bound shows that nothing
wraps (see ``palindromes`` and ``_mine_block``), and Python ints
(``dtype=object``) elsewhere, through the same code.

``mine_sweep`` runs in the calling process and returns the families as
columns (``MinedFamilies``); ``write_jsonl`` writes them as JSON Lines, a
block of rows at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .analyzer import WRITE_BLOCK
from .convergents import INT64_MAX, palindrome_half, palindrome_triples, palindromes, realizes
from .exact import DomainError, solve_linear_congruences

ACCEPT_INSTANCES = 5


def _b_expr(slope: int, const: int) -> str:
    """b = slope*c + const as text: ``4*c+1``, ``2*c-17``, ``3*c`` or ``1``."""
    if slope == 0:
        return str(const)
    if const > 0:
        return f"{slope}*c+{const}"
    if const < 0:
        return f"{slope}*c-{-const}"
    return f"{slope}*c"


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
        return self.a_modulus * c + self.a_residue

    def b_of(self, c: int) -> int:
        return self.b_slope * c + self.b_const

    def d_of(self, c: int) -> int:
        a = self.a_of(c)
        return a * a + self.b_of(c)

    def b_expr(self) -> str:
        return _b_expr(self.b_slope, self.b_const)

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

    Each column is a list of Python ints, and ``palindrome`` a list of lists.
    Iterating yields the rows as ``MinedFamily`` objects.
    """

    palindrome: list[list[int]]
    a_residue: list[int]
    a_modulus: list[int]
    b_slope: list[int]
    b_const: list[int]
    min_c: list[int]
    verified_instances: list[int]

    def __len__(self) -> int:
        return len(self.palindrome)

    def __iter__(self) -> Iterator[MinedFamily]:
        for pal, *fields in zip(self.palindrome, self.a_residue, self.a_modulus, self.b_slope,
                                self.b_const, self.min_c, self.verified_instances):
            yield MinedFamily(tuple(pal), *fields)

    def extend(self, other: MinedFamilies) -> None:
        for col, more in zip(vars(self).values(), vars(other).values()):
            col.extend(more)


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
    congruence (its operands are below 2A and its residue product below
    A^2), b_slope's and b_const's numerators (below 2A^2) and limit.  The
    operands of the identity b*A == 2aB + C grow with c, so each row gets
    the largest c, ``c_safe``, at which b <= INT64_MAX // A and
    a <= (INT64_MAX - C) // (2 max(B, 1)): up to it a, b, 2a, b*A and
    2aB + C all stay within int64.  A row's heads past its c_safe are
    checked on Python ints.
    """
    A, B, C = abc
    top = halves.max(axis=1, initial=0)
    solvable, res, mod = solve_linear_congruences(2 * B, C, A)
    rows = np.flatnonzero(solvable)
    A, B, C, top, res, mod = (col[rows] for col in (A, B, C, top, res, mod))
    slope = 2 * B * mod // A
    const = (2 * B * res + C) // A
    limit = 4 * (A + top + abs(const)) + 16
    cols = (A, B, C, top, mod, res, slope, const)
    if A.dtype == object:
        c_safe = np.full(len(A), -1)
    else:
        c_safe = np.minimum((INT64_MAX // A - const) // np.maximum(slope, 1),
                            ((INT64_MAX - C) // (2 * np.maximum(B, 1)) - res) // mod)

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
        words.tolist(),
        *(col[found].tolist() for col in (res, mod, slope, const, min_c)),
        [ACCEPT_INSTANCES] * len(found),
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


def mine_sweep(max_len: int, max_entry: int) -> MinedFamilies:
    """Mine every palindrome up to the given bounds, in deterministic order.

    Enumeration is by length, then lexicographic over the determining half
    (``convergents.palindromes``), one block of halves at a time.  Cost grows
    like max_entry^(max_len/2).
    """
    if max_len < 0 or (max_len > 0 and max_entry < 1):
        raise DomainError("bad sweep bounds")
    found = MinedFamilies([], [], [], [], [], [], [])
    for n in range(max_len + 1):
        for halves, abc in palindromes(n, max_entry):
            found.extend(_mine_block(halves, n, abc))
    return found


def write_jsonl(families: MinedFamilies, out) -> None:
    """Write ``json.dumps(fam.to_dict(), sort_keys=True) + "\\n"`` per family to ``out``.

    The same bytes, formatted from the columns: keys in sorted order, the
    palindrome as a JSON list (a Python list of ints prints as one) and
    ``b_expr`` as a string (it holds only digits, ``*``, ``c``, ``+`` and
    ``-``, so nothing needs escaping).  Rows are joined and written
    ``analyzer.WRITE_BLOCK`` at a time.
    """
    rows = (
        f'{{"a_modulus": {m}, "a_residue": {r}, "b_expr": "{_b_expr(s, k)}", '
        f'"min_c": {c}, "palindrome": {p}, "verified_instances": {v}}}\n'
        for p, r, m, s, k, c, v in zip(families.palindrome, families.a_residue, families.a_modulus,
                                       families.b_slope, families.b_const, families.min_c,
                                       families.verified_instances)
    )
    while block := "".join(itertools.islice(rows, WRITE_BLOCK)):
        out.write(block)


__all__ = ["MinedFamily", "MinedFamilies", "mine", "mine_sweep", "write_jsonl", "ACCEPT_INSTANCES"]
