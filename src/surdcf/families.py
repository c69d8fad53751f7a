"""Registry of parameterized expansion families and the brute-force verifier.

A family is a recipe: integer polynomials for a and b (d = a^2 + b) plus a
period template whose entries are polynomials over the parameters and the
evaluated head ``a``.  The registry ships as a line-delimited data file so
errata stay diffs against data, never code edits.  Each expression is read
by Python's own parser, checked against a small grammar and compiled once
(``PolyExpr``); every record is checked whole when the registry loads.

Ladder families (a repeated block whose coefficients come from an integer
sequence) carry a generator name; the generator turns the integer parameters
(k, and m where applicable) into concrete polynomials in n before evaluation.

Each member is evaluated by ``_member``, behind both ``instantiate`` and
the verifier.  A family's expressions are compiled, from their checked
trees, into two code objects: (a, b, head) over the parameters and the
pattern over the parameters and a.  That happens at the family's first
member (a ladder's at the first member of each generator call), not when
the registry loads, and each member then runs two evaluations.

The verifier compares each member against the expansion engine, one
member after another in the calling process.  The engine walks each member
only to the centre of its period (``engine.half_period``), and the claimed
word is compared with that half in place, so a passing member builds no
period and no ``PeriodicCF``; a failure keeps the half.  ``write_record``
streams a family's JSON record, writing each failure's actual period from
its half, ``_PIECE`` quotients a write, as soon as the engine has walked it.
Neither a whole period nor its text is ever held, so its memory is bounded
by the longest failing half walk and one list of its quotients' texts,
rather than by the longest period or the sum over the family;
``verify_family`` collects the same failures into a ``VerifyReport``, each
with its whole period.
"""

from __future__ import annotations

import ast
import itertools
import json
import re
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from importlib import resources
from types import CodeType
from typing import Iterator, Mapping, NamedTuple

from . import sequences
from .engine import PeriodicCF, half_period, is_primitive_word, mirror
from .exact import DomainError, is_square

_REGISTRY_RESOURCE = "families.jsonl"


class FamilyValidityError(Exception):
    """The assignment is outside the family's validity (not a verification failure)."""


# ---------------------------------------------------------------------------
# Integer polynomial expressions: "2*m^2*n + m", "a-1", "2*(45*n+14)".
# Python's own parser reads them once ``^`` is spelled ``**``.  The source
# text and every node of the tree are checked first, so the grammar is
# decimal integers, [a-z]+ names, + - *, ^ with a literal exponent,
# parentheses and unary minus, under Python's precedence (-n^2 is -(n^2)).

_SOURCE = re.compile(r"[\sa-z0-9+*^()-]*", re.ASCII)
_NODES = (ast.Expression, ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.Pow,
          ast.UnaryOp, ast.USub, ast.Name, ast.Load, ast.Constant)
_NO_BUILTINS = {"__builtins__": {}}


class PolyExpr:
    """Integer expression over named integer variables, compiled once.

    ``tree`` is the checked expression node, which ``_compile_family``
    builds a family's code objects from.
    """

    __slots__ = ("source", "tree", "_code")

    def __init__(self, source: str):
        self.source = source
        self.tree, self._code = _compile(source)

    def eval(self, env: Mapping[str, int]) -> int:
        """The expression's value at ``env``.  Nothing in the package calls
        it, since a member runs its family's two code objects at once: the
        test oracle of family members evaluates one expression at a time
        through it."""
        return _eval(self._code, env)

    def __str__(self) -> str:
        return self.source

    def __repr__(self) -> str:
        return f"PolyExpr({self.source!r})"


def _eval(code: CodeType, env: Mapping[str, int]):
    try:
        return eval(code, _NO_BUILTINS, env)
    except NameError as exc:
        raise DomainError(f"unbound variable {exc.name!r}") from None


@lru_cache(maxsize=4096)
def _compile(source: str) -> tuple[ast.expr, CodeType]:
    """The expression node and code object of ``source``, checked against
    the grammar above."""
    text = source.strip().replace("^", "**")
    if "**" not in source and _SOURCE.fullmatch(text):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                tree = ast.parse(text, mode="eval")
            if all(_allowed(node, text) for node in ast.walk(tree)):
                return tree.body, compile(tree, "<expr>", "eval")
        except (SyntaxError, RecursionError):
            pass
    raise DomainError(f"bad expression {source!r}")


def _allowed(node: ast.AST, text: str) -> bool:
    # The text matched _SOURCE, so isalpha means [a-z]+ and isdigit [0-9]+.
    if isinstance(node, ast.Name):
        return node.id.isalpha()
    if isinstance(node, ast.Constant):
        return type(node.value) is int and ast.get_source_segment(text, node).isdigit()
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return isinstance(node.right, ast.Constant)
    return isinstance(node, _NODES)


def _affine(slope: int, const: int, var: str = "n") -> str:
    if slope == 0:
        return str(const)
    head = f"{slope}*{var}" if slope != 1 else var
    if const == 0:
        return head
    return f"{head}+{const}" if const > 0 else f"{head}-{-const}"


# ---------------------------------------------------------------------------
# Ladder generators: integer parameters -> concrete polynomials in n.


def _gen_rep2(k: int):
    p_hi = sequences.pell_pair(k + 1)[0]
    p_lo = sequences.pell_pair(k)[0]
    pattern = ["2"] * k + ["1", _affine(p_hi, 0), "1"] + ["2"] * k + ["2*a"]
    return _affine(p_hi, 1), _affine(2 * p_lo, 1), pattern


def _gen_pair12(k: int):
    a_k, b_k = sequences.ab_pair(k)
    pattern = ["1", "2"] * k + ["a"] + ["2", "1"] * k + ["2*a"]
    return _affine(a_k, 1), _affine(4 * b_k, 2), pattern


def _gen_pair_m2m(m: int, k: int):
    q = sequences.pair_m2m_denominators(m, 2 * k)
    pattern = [str(m), str(2 * m)] * k + ["a"] + [str(2 * m), str(m)] * k + ["2*a"]
    return _affine(q[2 * k], m), _affine(4 * q[2 * k - 1], 2), pattern


def _gen_triple113(k: int):
    p, q = sequences.triple113_pair(k)
    pattern = ["1", "1", "3"] * k + ["a"] + ["3", "1", "1"] * k + ["2*a"]
    return _affine(p, (p + 3) // 2), _affine(2 * q, q + 2), pattern


def _odd_run(m: int, reps: int, p: int, q: int):
    pattern = [str(2 * m + 1)] * reps + ["2*a"]
    return _affine(p, -(p - (2 * m + 1)) // 2), _affine(q, -(q - 2) // 2), pattern


def _gen_odd_run_short(m: int, k: int):
    u = sequences.odd_quotient_seq(m, 3 * k)
    return _odd_run(m, 3 * k - 2, u[3 * k - 1], 2 * u[3 * k - 2])


def _gen_odd_run_long(m: int, k: int):
    u = sequences.odd_quotient_seq(m, 3 * k + 1)
    return _odd_run(m, 3 * k, u[3 * k + 1], 2 * u[3 * k])


def _gen_even_run(m: int, k: int):
    p, q = sequences.interleaved_even_pair(m, k)
    pattern = [str(2 * m)] * k + ["2*a"]
    return _affine(q, m), _affine(p - 2 * m * q, 1), pattern


GENERATORS = {
    "rep2": (_gen_rep2, ("k",)),
    "pair12": (_gen_pair12, ("k",)),
    "pair-m2m": (_gen_pair_m2m, ("m", "k")),
    "triple113": (_gen_triple113, ("k",)),
    "odd-run-short": (_gen_odd_run_short, ("m", "k")),
    "odd-run-long": (_gen_odd_run_long, ("m", "k")),
    "even-run": (_gen_even_run, ("m", "k")),
}


# ---------------------------------------------------------------------------
# Descriptors and registry loading.


@dataclass(frozen=True)
class ParamSpec:
    name: str
    lo: int
    hi: int | None = None


@dataclass(frozen=True)
class FamilyDescriptor:
    id: str
    citation: str
    params: tuple[ParamSpec, ...]
    a_expr: PolyExpr | None = None
    b_expr: PolyExpr | None = None
    pattern: tuple[PolyExpr, ...] | None = None
    head_expr: PolyExpr | None = None
    generator: str | None = None
    bind: Mapping[str, int] = field(default_factory=dict)
    status: str = "ok"
    corrected_by: str | None = None
    corrects: str | None = None
    note: str | None = None
    budget: Mapping[str, int] = field(default_factory=dict)

    @property
    def is_erratum(self) -> bool:
        return self.status == "erratum"

    def free_params(self) -> list[str]:
        return [p.name for p in self.params]

    @cached_property
    def _compiled(self) -> "_Compiled":
        """The code of a family without a generator, built at its first member."""
        return _compile_family(self.head_expr or self.a_expr, self.a_expr, self.b_expr, self.pattern)


def _param_spec(triple) -> ParamSpec:
    """A ``[name, lo, hi]`` triple, hi an integer at least lo, or null."""
    if not (
        isinstance(triple, list)
        and len(triple) == 3
        and isinstance(triple[0], str)
        and type(triple[1]) is int
        and (triple[2] is None or type(triple[2]) is int)
    ):
        raise DomainError(f"params entry {triple!r} is not [name, lo, hi or null]")
    if triple[2] is not None and triple[2] < triple[1]:
        raise DomainError(f"params entry {triple!r} admits no value: hi < lo")
    return ParamSpec(*triple)


def _int_map(rec, key: str) -> dict:
    """The record's ``bind`` or ``budget``: an object of integers, empty if absent."""
    value = rec.get(key, {})
    if not (isinstance(value, dict) and all(type(v) is int for v in value.values())):
        raise DomainError(f"{key} {value!r} is not an object of integers")
    return value


def _expr(value) -> PolyExpr:
    if not isinstance(value, str):
        raise DomainError(f"expression {value!r} is not a string")
    return PolyExpr(value)


def _descriptor_from_record(rec) -> FamilyDescriptor:
    if not isinstance(rec, dict):
        raise DomainError("record is not a JSON object")
    for key in ("id", "params"):
        if key not in rec:
            raise DomainError(f"record has no {key!r}")
    if not isinstance(rec["params"], list):
        raise DomainError(f"params {rec['params']!r} is not a list")
    params = tuple(_param_spec(triple) for triple in rec["params"])
    names = [p.name for p in params]
    if len(set(names)) < len(names):
        raise DomainError(f"params {rec['params']!r} repeat a name")
    bind, budget = _int_map(rec, "bind"), _int_map(rec, "budget")
    generator = rec.get("generator")
    if generator:
        if generator not in GENERATORS:
            raise DomainError(f"unknown generator {generator!r}")
        for name in GENERATORS[generator][1]:
            if name not in names and name not in bind:
                raise DomainError(f"generator {generator!r} takes {name!r}, in neither params nor bind")
    else:
        for key in ("a_expr", "b_expr", "pattern"):
            if not rec.get(key):
                raise DomainError(f"record has no generator and no {key!r}")
    if rec.get("pattern") and not isinstance(rec["pattern"], list):
        raise DomainError(f"pattern {rec['pattern']!r} is not a list")
    expr = lambda key: _expr(rec[key]) if rec.get(key) else None
    pattern = tuple(map(_expr, rec["pattern"])) if rec.get("pattern") else None
    return FamilyDescriptor(
        id=rec["id"],
        citation=rec.get("citation", ""),
        params=params,
        a_expr=expr("a_expr"),
        b_expr=expr("b_expr"),
        pattern=pattern,
        head_expr=expr("head_expr"),
        generator=generator,
        bind=bind,
        status=rec.get("status", "ok"),
        corrected_by=rec.get("corrected_by"),
        corrects=rec.get("corrects"),
        note=rec.get("note"),
        budget=budget,
    )


def registry(path: str | None = None) -> list[FamilyDescriptor]:
    """All registry families, in file order.

    The data file is ``path`` unless it is None, else the packaged
    registry; an empty path is a file that does not open.  A
    record raises DomainError naming its 1-based line if it is not valid
    JSON or not an object, lacks ``id`` or ``params``, has a malformed
    params triple or a repeated param name, has a ``bind`` or ``budget``
    that is not an object of integers, names an unknown generator or one
    whose arguments are in neither ``params`` nor ``bind``, has neither a
    generator nor all of ``a_expr``, ``b_expr`` and ``pattern``, or holds
    an expression that is not a string in the grammar of ``PolyExpr``.
    """
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = resources.files(__package__).joinpath(_REGISTRY_RESOURCE).read_text("utf-8")
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append(_descriptor_from_record(json.loads(line)))
        except (json.JSONDecodeError, DomainError) as exc:
            raise DomainError(f"registry line {lineno}: {exc}") from None
    ids = [f.id for f in out]
    if len(ids) != len(set(ids)):
        raise DomainError("duplicate family ids in registry")
    return out


def family_by_id(fid: str, path: str | None = None) -> FamilyDescriptor:
    """The registry's family ``fid``.  A library lookup that acceptance
    criterion 6 uses; ``verify-families --id`` selects from ``registry``."""
    for fam in registry(path):
        if fam.id == fid:
            return fam
    raise DomainError(f"unknown family id {fid!r}")


# ---------------------------------------------------------------------------
# Instantiation and verification.


class _Compiled(NamedTuple):
    """The expressions of one resolution as two code objects: ``values``
    evaluates (a, b, head) over the parameters, and ``word`` the pattern,
    as a list, over the parameters and a."""

    values: CodeType
    word: CodeType


def _compile_family(head: PolyExpr, a: PolyExpr, b: PolyExpr, pattern) -> _Compiled:
    """Compile the expressions from their checked trees, left to right, so
    that an unbound variable is met in the order of separate evaluations."""
    values = ast.Tuple([a.tree, b.tree, head.tree], ast.Load(), lineno=1, col_offset=0)
    word = ast.List([e.tree for e in pattern], ast.Load(), lineno=1, col_offset=0)
    return _Compiled(compile(ast.Expression(values), "<family>", "eval"),
                     compile(ast.Expression(word), "<family>", "eval"))


def _resolve(fam: FamilyDescriptor, assignment: Mapping[str, int]) -> _Compiled:
    """The compiled expressions for one assignment."""
    if fam.generator:
        _, wanted = GENERATORS[fam.generator]
        args = tuple(fam.bind[name] if name in fam.bind else assignment[name] for name in wanted)
        return _ladder(fam.generator, args)
    return fam._compiled


@lru_cache(maxsize=256)
def _ladder(generator: str, args: tuple[int, ...]) -> _Compiled:
    """The compiled expressions of one ladder generator call.

    Cached because every n of a ladder family shares them: the packaged
    registry makes 72 distinct calls for its 11,110 ladder members.
    """
    a_s, b_s, pat_s = GENERATORS[generator][0](*args)
    a_e = PolyExpr(a_s)
    return _compile_family(a_e, a_e, PolyExpr(b_s), [PolyExpr(s) for s in pat_s])


def _member(fam: FamilyDescriptor, assignment: Mapping[str, int]) -> tuple[int, int, list[int]]:
    """One family member as (d, head, word): two evaluations of the code
    compiled for its resolution, then the validity checks of ``instantiate``."""
    for p in fam.params:
        v = assignment.get(p.name)
        if v is None:
            raise DomainError(f"{fam.id}: missing parameter {p.name}")
        if v < p.lo or (p.hi is not None and v > p.hi):
            raise DomainError(f"{fam.id}: parameter {p.name}={v} out of range")
    code = _resolve(fam, assignment)
    a, b, head = _eval(code.values, assignment)
    if a < 1 or b < 1:
        raise FamilyValidityError(f"{fam.id}: a={a}, b={b} outside validity")
    word = _eval(code.word, {**assignment, "a": head})
    if min(word, default=1) < 1:
        raise FamilyValidityError(f"{fam.id}: nonpositive quotient at {assignment}")
    if max(word[:-1], default=0) > head:
        raise FamilyValidityError(f"{fam.id}: interior quotient exceeds head at {assignment}")
    # A word of m > 1 copies of a shorter word u ends in u's last quotient,
    # which stands in word[:-1] too: a last quotient above the head, and so
    # above every other one, leaves the word primitive.
    if not (word and word[-1] > head) and not is_primitive_word(word):
        raise FamilyValidityError(f"{fam.id}: period collapses at {assignment}")
    d = a * a + b
    if is_square(d):
        raise FamilyValidityError(f"{fam.id}: d={d} is a perfect square")
    return d, head, word


def instantiate(
    fam: FamilyDescriptor, assignment: Mapping[str, int]
) -> tuple[int, PeriodicCF]:
    """Evaluate one family member: the radicand d and its claimed expansion.

    Out-of-range parameters raise DomainError, and so does a variable that
    the member's expressions leave unbound.  Assignments whose template
    degenerates (a quotient drops below 1, an interior quotient exceeds the
    head, or the period word collapses to a repetition of a shorter word)
    raise FamilyValidityError: the formula does not claim them.

    The family's expressions are compiled into two code objects at its
    first member (a ladder's at the first member of each generator call),
    and each member evaluates those two (``_member``).  The verifier calls
    ``_member`` directly; this is the library's one-member entry point,
    which the README documents.
    """
    d, head, word = _member(fam, assignment)
    return d, PeriodicCF(d, head, tuple(word))


@dataclass
class VerifyReport:
    family_id: str
    tested: int = 0
    skipped: int = 0
    failures: list[dict] = field(default_factory=list)

    @property
    def status(self) -> str:
        return status_of(len(self.failures))

    def to_dict(self) -> dict:
        """The record as a dict.  No package code calls it: it is the
        reference for ``write_record``'s bytes, which the tests compare."""
        return {
            "id": self.family_id,
            "tested": self.tested,
            "skipped": self.skipped,
            "failures": self.failures,
            "status": self.status,
        }


def status_of(failures: int) -> str:
    """A family's status from its failure count."""
    return "verified" if not failures else "erratum"


_FALLBACK_HI = {"n": None, "m": 5, "k": 6}


def _param_values(fam: FamilyDescriptor, p: ParamSpec, budget: Mapping[str, int] | None):
    hi_caps = []
    if p.hi is not None:
        hi_caps.append(p.hi)
    if p.name in fam.budget:
        hi_caps.append(fam.budget[p.name])
    if budget and p.name in budget:
        hi_caps.append(budget[p.name])
    if hi_caps:
        hi = min(hi_caps)
    else:
        fallback = _FALLBACK_HI.get(p.name)
        hi = (p.lo + 100) if fallback is None else fallback
    return range(p.lo, hi + 1)


def check_budget(fam: FamilyDescriptor, budget: Mapping[str, int] | None) -> None:
    """Raise DomainError naming the first parameter to which ``budget`` (with
    the family's own caps) leaves no value: such a family has no member, and
    would read as verified with nothing tested."""
    for p in fam.params:
        values = _param_values(fam, p, budget)
        if not values:
            raise DomainError(f"the budget leaves parameter {p.name} no value "
                              f"({p.name} >= {p.lo} but {p.name} <= {values.stop - 1})")


def _assignments(
    fam: FamilyDescriptor, budget: Mapping[str, int] | None
) -> Iterator[dict[str, int]]:
    """Every budgeted assignment, the first parameter varying slowest."""
    check_budget(fam, budget)
    names = fam.free_params()
    ranges = [_param_values(fam, p, budget) for p in fam.params]
    for values in itertools.product(*ranges):
        yield dict(zip(names, values))


class Failure(NamedTuple):
    """A failing member: its assignment, radicand and claimed expansion, and
    the engine's half walk of sqrt(d) (``engine.half_period``)."""

    params: dict[str, int]
    d: int
    expected: PeriodicCF
    a0: int
    half: list[int]
    odd: bool

    def to_dict(self) -> dict:
        """The failure's record, with the whole actual period."""
        return {
            "params": dict(self.params),
            "d": self.d,
            "expected": {"a0": self.expected.a0, "period": list(self.expected.period)},
            "actual": {"a0": self.a0, "period": mirror(self.a0, self.half[:], self.odd)},
        }


def iter_failures(
    fam: FamilyDescriptor, budget: Mapping[str, int] | None, report: VerifyReport
) -> Iterator[Failure]:
    """Yield each failing member, in assignment order.

    The one member loop: each budgeted assignment is evaluated from the
    family's compiled code (``_member``), walked to the centre of its period
    by the engine and compared term for term with the period that the half
    stands for, in place: a0, the length, the last quotient 2*a0, the first
    k quotients against the half and the k before the last against it
    reversed.  A passing member builds no period and no ``PeriodicCF``; a
    failing one gets its ``PeriodicCF`` when it is yielded.  ``report.tested``
    and ``report.skipped`` count the members as the loop reaches them; the
    failures go only to the caller.
    """
    for assignment in _assignments(fam, budget):
        try:
            d, head, word = _member(fam, assignment)
        except FamilyValidityError:
            report.skipped += 1
            continue
        a0, half, odd = half_period(d)
        report.tested += 1
        k = len(half)
        if (a0 != head or len(word) != 2 * k + odd or word[-1] != 2 * a0
                or word[:k] != half or word[k - 1 + odd:-1] != half[::-1]):
            yield Failure(assignment, d, PeriodicCF(d, head, tuple(word)), a0, half, odd)


def verify_family(
    fam: FamilyDescriptor, budget: Mapping[str, int] | None = None
) -> VerifyReport:
    """Compare every budgeted family member against the expansion engine.

    ``budget`` maps parameter names to inclusive maxima; unbounded n defaults
    to its first 101 values.  Comparison is term for term; mismatches are
    recorded verbatim, in assignment order.  A budget that leaves a
    parameter no value raises DomainError (``check_budget``).  The library
    form of ``verify-families``, which streams through ``write_record``
    instead; acceptance criteria 5-6 run it.
    """
    report = VerifyReport(fam.id)
    report.failures.extend(f.to_dict() for f in iter_failures(fam, budget, report))
    return report


# The text of each quotient below 1000, shared by every failing period.
_DECIMAL = [str(v) for v in range(1000)]
# Quotients per write of a failing period.  A piece costs about 16 bytes a
# quotient while it is written (its slice of the word list, its text and
# the text's encoding), some 32 kB, against 1.1 MB for the list of the
# longest failing half.  Writing the two longest-period errata's 605
# failures took the same time within noise from 1024 to 32768 (2 vCPUs,
# Python 3.11), and about 5% longer at 256.
_PIECE = 2048


def _write_failure(f: Failure, out) -> None:
    """Write ``json.dumps(f.to_dict(), sort_keys=True)`` to ``out`` in pieces.

    The actual period is written from the half walk (a0, half, odd) of
    sqrt(d) (``engine.half_period``).  Each quotient's text is made once,
    from ``_DECIMAL`` where it is below 1000, into one list of words, which
    is written ``_PIECE`` words at a time, then reversed in place and
    written again: from the centre on for odd ell, which repeats the
    centre, and from the quotient before it for even ell, whose centre is
    popped first.  2*a0 closes the list.  Neither the period nor its text
    is ever held whole: the write holds the half, its words and one piece.
    """
    out.write(f'{{"actual": {{"a0": {f.a0}, "period": [')
    words = [_DECIMAL[a] if a < 1000 else str(a) for a in f.half]
    _write_words(words, out)
    if not f.odd:
        words.pop()
    words.reverse()
    _write_words(words, out)
    expected = json.dumps({"a0": f.expected.a0, "period": list(f.expected.period)})
    out.write(f'{2 * f.a0}]}}, "d": {f.d}, "expected": {expected}, '
              f'"params": {json.dumps(f.params, sort_keys=True)}}}')


def _write_words(words: list[str], out) -> None:
    """Write each word followed by ", ", ``_PIECE`` words at a time."""
    for i in range(0, len(words), _PIECE):
        out.write(", ".join(words[i:i + _PIECE]))
        out.write(", ")


def write_record(fam: FamilyDescriptor, budget: Mapping[str, int] | None, out) -> int:
    """Write the family's JSON line to the text stream ``out``; return its failure count.

    The bytes are ``json.dumps({**verify_family(fam, budget).to_dict(),
    "registry_status": fam.status}, sort_keys=True) + "\\n"``.  Sorted,
    ``failures`` is the first key, and every key after it is known once the
    member loop ends, so each failure is written as soon as the engine has
    walked it and none is kept.  A failure's actual period is written from
    the engine's half walk, as the text of the half's quotients written
    ``_PIECE`` at a time once forward and once mirrored (``_write_failure``):
    neither the whole period nor its text is built, so the write holds the
    half, one list of its texts and one piece.  Nothing is written before
    the first failure.  An unbound variable raises DomainError at the first
    member that reaches the expression holding it, and every tested member
    reaches them all, so the error comes before any write and leaves no
    partial line.
    """
    counts = VerifyReport(fam.id)
    failures = 0
    for failure in iter_failures(fam, budget, counts):
        out.write(", " if failures else '{"failures": [')
        _write_failure(failure, out)
        failures += 1
    rest = {"id": fam.id, "registry_status": fam.status, "skipped": counts.skipped,
            "status": status_of(failures), "tested": counts.tested}
    if not failures:
        out.write('{"failures": [')
    out.write("], " + json.dumps(rest, sort_keys=True)[1:] + "\n")
    return failures


__all__ = [
    "PolyExpr",
    "ParamSpec",
    "FamilyDescriptor",
    "FamilyValidityError",
    "Failure",
    "VerifyReport",
    "GENERATORS",
    "registry",
    "family_by_id",
    "instantiate",
    "verify_family",
    "iter_failures",
    "status_of",
    "check_budget",
    "write_record",
]
