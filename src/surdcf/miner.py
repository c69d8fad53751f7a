"""Derive one-parameter expansion families from constant palindrome patterns.

Given a palindrome w, the symmetric word matrix [[A, B], [B, C]] makes
b = (2aB + C)/A, so [a; w, 2a] is realized by sqrt(a^2 + b) only when
2B a + C == 0 (mod A).  Solving that congruence yields the arithmetic
progression of admissible heads and the matching affine b.  The matrix is
carried as the triple (A, B, C); no matrix object is built.  Each family's
first instances are then checked by the realisation identity
(``convergents.realizes``), not by expanding them: by the uniqueness of
infinite continued fractions the identity is equivalent to the expansion,
and the tests keep the engine as its oracle.

``mine_sweep`` takes each palindrome and its triple from
``convergents.palindromes``, which derives the matrix from the determining
half's, so no word is scanned whole; it runs in the calling process.
``write_jsonl`` writes the families as JSON Lines, a block of rows at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .analyzer import WRITE_BLOCK
from .convergents import palindrome_matrix, palindromes, realizes
from .exact import DomainError, solve_linear_congruence

ACCEPT_INSTANCES = 5


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
        if self.b_slope == 0:
            return str(self.b_const)
        s = f"{self.b_slope}*c"
        if self.b_const > 0:
            s += f"+{self.b_const}"
        elif self.b_const < 0:
            s += f"-{-self.b_const}"
        return s

    def to_dict(self) -> dict:
        return {
            "palindrome": list(self.palindrome),
            "a_residue": self.a_residue,
            "a_modulus": self.a_modulus,
            "b_expr": self.b_expr(),
            "min_c": self.min_c,
            "verified_instances": self.verified_instances,
        }


def mine(palindrome: list[int] | tuple[int, ...]) -> MinedFamily | None:
    """Family of heads realizing a constant palindrome, or None.

    Returns None when the head congruence is unsolvable or no head in the
    search bound satisfies ``convergents.realizes``.  The first
    ACCEPT_INSTANCES heads from min_c are checked by the identity; by the
    monotonicity in ``MinedFamily`` none of them can fail once min_c holds.
    """
    pal = tuple(palindrome)
    m = palindrome_matrix(pal)
    return _family(pal, (m.m11, m.m12, m.m22))


def _family(pal: tuple[int, ...], abc: tuple[int, int, int]) -> MinedFamily | None:
    """``mine`` for a palindrome whose word matrix [[A, B], [B, C]] is known,
    given as ``abc`` = (A, B, C)."""
    A, B, C = abc
    sol = solve_linear_congruence(2 * B, C, A)
    if sol is None:
        return None
    res, mod = sol
    b_slope = 2 * B * mod // A
    b_const = (2 * B * res + C) // A
    max_entry = max(pal, default=0)
    limit = 4 * (A + max_entry + abs(b_const)) + 16
    c = 0
    while not realizes(abc, max_entry, mod * c + res, b_slope * c + b_const):
        c += 1
        if c > limit:
            return None
    # min_c = c is checked; the loop checks the other instances.
    for k in range(c + 1, c + ACCEPT_INSTANCES):
        if not realizes(abc, max_entry, mod * k + res, b_slope * k + b_const):
            return None
    return MinedFamily(pal, res, mod, b_slope, b_const, c, ACCEPT_INSTANCES)


def mine_sweep(max_len: int, max_entry: int) -> list[MinedFamily]:
    """Mine every palindrome up to the given bounds, in deterministic order.

    Enumeration is by length, then lexicographic over the determining half
    (``convergents.palindromes``).  Cost grows like max_entry^(max_len/2).
    """
    if max_len < 0 or (max_len > 0 and max_entry < 1):
        raise DomainError("bad sweep bounds")
    found = []
    for n in range(max_len + 1):
        for pal, abc in palindromes(n, max_entry):
            fam = _family(pal, abc)
            if fam is not None:
                found.append(fam)
    return found


def write_jsonl(families: Iterable[MinedFamily], out) -> None:
    """Write ``json.dumps(fam.to_dict(), sort_keys=True) + "\\n"`` per family to ``out``.

    The same bytes, formatted from the fields: keys in sorted order, the
    palindrome as a JSON list and ``b_expr`` as a string (it holds only
    digits, ``*``, ``c``, ``+`` and ``-``, so nothing needs escaping).  Rows
    are joined and written ``analyzer.WRITE_BLOCK`` at a time.
    """
    rows = (
        f'{{"a_modulus": {f.a_modulus}, "a_residue": {f.a_residue}, "b_expr": "{f.b_expr()}", '
        f'"min_c": {f.min_c}, "palindrome": [{", ".join(map(str, f.palindrome))}], '
        f'"verified_instances": {f.verified_instances}}}\n'
        for f in families
    )
    while block := "".join(itertools.islice(rows, WRITE_BLOCK)):
        out.write(block)


__all__ = ["MinedFamily", "mine", "mine_sweep", "write_jsonl", "ACCEPT_INSTANCES"]
