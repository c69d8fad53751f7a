"""Derive one-parameter expansion families from constant palindrome patterns.

Given a palindrome w, the symmetric word matrix [[A, B], [B, C]] makes
b = (2aB + C)/A, so [a; w, 2a] is realized by sqrt(a^2 + b) only when
2B a + C == 0 (mod A).  Solving that congruence yields the arithmetic
progression of admissible heads and the matching affine b.  Each family's
first instances are then checked by the realisation identity
(``convergents.realizes``), not by expanding them: by the uniqueness of
infinite continued fractions the identity is equivalent to the expansion,
and the tests keep the engine as its oracle.

``mine_sweep`` takes each palindrome and its word matrix from
``convergents.palindromes``, which derives the matrix from the determining
half's, so no word is scanned whole.  Its work goes through the package's one
process fan-out, ``_fanout.fan_out``, as spans of the sweep order that each
task enumerates itself.  ``write_jsonl`` writes the families as JSON Lines, a
block of rows at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from . import _fanout
from .analyzer import WRITE_BLOCK
from .convergents import palindrome_matrix, palindromes, realizes
from .exact import DomainError, solve_linear_congruence
from .mat2 import Mat2

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
    return _family(pal, palindrome_matrix(pal))


def _family(pal: tuple[int, ...], m: Mat2) -> MinedFamily | None:
    """``mine`` for a palindrome whose word matrix ``m`` is already known."""
    A, B, C = m.m11, m.m12, m.m22
    sol = solve_linear_congruence(2 * B, C, A)
    if not sol.solvable:
        return None
    res, mod = sol.residue, sol.modulus
    b_slope = 2 * B * mod // A
    b_const = (2 * B * res + C) // A
    max_entry = max(pal, default=0)
    limit = 4 * (A + max_entry + abs(b_const)) + 16
    c = 0
    while not realizes(m, max_entry, mod * c + res, b_slope * c + b_const):
        c += 1
        if c > limit:
            return None
    # min_c = c is checked; the loop checks the other instances.
    for k in range(c + 1, c + ACCEPT_INSTANCES):
        if not realizes(m, max_entry, mod * k + res, b_slope * k + b_const):
            return None
    return MinedFamily(pal, res, mod, b_slope, b_const, c, ACCEPT_INSTANCES)


def mine_sweep(max_len: int, max_entry: int, jobs: int = 1) -> list[MinedFamily]:
    """Mine every palindrome up to the given bounds, in deterministic order.

    Enumeration is by length, then lexicographic over the determining half
    (``convergents.palindromes``).  The work goes out through
    ``_fanout.fan_out`` as spans of that order, and the results merge in task
    order, so the output is the same whatever ``jobs`` is.  Cost grows like
    max_entry^(max_len/2).
    """
    if max_len < 0 or (max_len > 0 and max_entry < 1):
        raise DomainError("bad sweep bounds")
    parts = _fanout.fan_out(_mine_span, _spans(max_len, max_entry, jobs), jobs)
    found = next(parts)
    for part in parts:
        found.extend(part)
    return found


def _spans(max_len: int, max_entry: int, jobs: int) -> list[tuple]:
    """Tasks (max_entry, first, last): the palindromes from (length, leading
    entry) ``first`` to ``last`` inclusive, in enumeration order.

    One task at jobs <= 1.  Otherwise up to 4 * jobs tasks of about equal
    palindrome counts: one task per palindrome would pay a pickle round trip
    for each, which costs more than mining it.  Each worker enumerates its
    own span, so only these small tuples are pickled.
    """
    if jobs <= 1:
        return [(max_entry, (0, 1), (max_len, max_entry))]
    # Length 0 is one unit (the empty word); length n >= 1 has one unit per
    # leading entry, each of max_entry^(ceil(n/2) - 1) palindromes.
    units = [(0, 1)] + [(n, a) for n in range(1, max_len + 1) for a in range(1, max_entry + 1)]
    sizes = [max_entry ** ((n + 1) // 2 - 1) if n else 1 for n, _ in units]
    count = min(4 * jobs, len(units))
    total = sum(sizes)
    tasks = []
    done = 0
    for unit, size in zip(units, sizes):
        # The unit goes to the task its middle palindrome's position falls in.
        task = (2 * done + size) * count // (2 * total)
        if not tasks or task != tasks[-1][0]:
            tasks.append([task, unit, unit])
        tasks[-1][2] = unit
        done += size
    return [(max_entry, first, last) for _, first, last in tasks]


def _mine_span(task: tuple) -> list[MinedFamily]:
    """The families of one ``_spans`` task, in sweep order."""
    max_entry, (n0, a0), (n1, a1) = task
    found = []
    for n in range(n0, n1 + 1):
        first = a0 if n == n0 else 1
        last = a1 if n == n1 else max_entry
        for pal, m in palindromes(n, max_entry, first, last):
            fam = _family(pal, m)
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
