"""Derive one-parameter expansion families from constant palindrome patterns.

Given a palindrome w, the symmetric word matrix [[A, B], [B, C]] makes
b = (2aB + C)/A, so [a; w, 2a] is realized by sqrt(a^2 + b) only when
2B a + C == 0 (mod A).  Solving that congruence yields the arithmetic
progression of admissible heads and the matching affine b.  Each family's
first instances are then checked by the realisation identity
(``convergents.realizes``), not by expanding them: by the uniqueness of
infinite continued fractions the identity is equivalent to the expansion,
and the tests keep the engine as its oracle.  ``mine_sweep`` sends its
palindromes through the package's one process fan-out, ``_fanout.fan_out``,
in contiguous slices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import _fanout
from .convergents import palindrome_matrix, realizes, word_matrix
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
    m = palindrome_matrix(pal, word_matrix)
    A, B, C = m.m11, m.m12, m.m22
    sol = solve_linear_congruence(2 * B, C, A)
    if not sol.solvable:
        return None
    res, mod = sol.residue, sol.modulus
    b_slope = 2 * B * mod // A
    b_const = (2 * B * res + C) // A
    max_entry = max(pal, default=0)

    def realized(c: int) -> bool:
        return realizes(m, max_entry, mod * c + res, b_slope * c + b_const)

    c = 0
    while not realized(c):
        c += 1
        if c > 4 * (A + max_entry + abs(b_const)) + 16:
            return None
    min_c = c
    if not all(map(realized, range(min_c, min_c + ACCEPT_INSTANCES))):
        return None
    return MinedFamily(pal, res, mod, b_slope, b_const, min_c, ACCEPT_INSTANCES)


def _palindromes(max_len: int, max_entry: int):
    yield ()
    for length in range(1, max_len + 1):
        half = (length + 1) // 2
        for head in itertools.product(range(1, max_entry + 1), repeat=half):
            tail = head[: length - half][::-1]
            yield head + tail


def mine_sweep(max_len: int, max_entry: int, jobs: int = 1) -> list[MinedFamily]:
    """Mine every palindrome up to the given bounds, in deterministic order.

    Enumeration is by length then lexicographic over the determining half.
    The palindromes go out in contiguous slices through ``_fanout.fan_out``
    and the results merge in enumeration order, so the output is stable
    whatever ``jobs`` is.  Cost grows like max_entry^(max_len/2).
    """
    if max_len < 0 or (max_len > 0 and max_entry < 1):
        raise DomainError("bad sweep bounds")
    pals = list(_palindromes(max_len, max_entry))
    if jobs <= 1 or len(pals) < 8:
        slices = [pals]
    else:
        # Up to 4 * jobs contiguous slices: one task per palindrome would pay
        # a pickle round trip for each, which costs more than mining it.
        size = -(-len(pals) // min(4 * jobs, len(pals)))
        slices = [pals[i : i + size] for i in range(0, len(pals), size)]
    parts = _fanout.fan_out(_mine_slice, slices, jobs)
    found = next(parts)
    for part in parts:
        found.extend(part)
    return found


def _mine_slice(pals: list[tuple[int, ...]]) -> list[MinedFamily]:
    return [fam for fam in map(mine, pals) if fam is not None]


__all__ = ["MinedFamily", "mine", "mine_sweep", "ACCEPT_INSTANCES"]
