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

The verifier compares each member against the expansion engine, one
member after another in the calling process.  ``write_record`` streams a
family's JSON record, writing each failure as soon as the engine has
expanded it, so its memory is bounded by the longest failing member rather
than by the sum over the family; ``verify_family`` collects the same
failures into a ``VerifyReport``.
"""

from __future__ import annotations

import ast
import itertools
import json
import os
import re
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from typing import Iterator, Mapping

from . import sequences
from .engine import PeriodicCF, expand_sqrt, is_primitive_word
from .exact import DomainError, is_square

REGISTRY_ENV = "SURDCF_REGISTRY"
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
    """Integer expression over named integer variables, compiled once."""

    __slots__ = ("source", "_code")

    def __init__(self, source: str):
        self.source = source
        self._code = _compile(source)

    def eval(self, env: Mapping[str, int]) -> int:
        try:
            return eval(self._code, _NO_BUILTINS, env)
        except NameError as exc:
            raise DomainError(f"unbound variable {exc.name!r}") from None

    def __str__(self) -> str:
        return self.source

    def __repr__(self) -> str:
        return f"PolyExpr({self.source!r})"


@lru_cache(maxsize=4096)
def _compile(source: str):
    """The code object of ``source``, checked against the grammar above."""
    text = source.strip().replace("^", "**")
    if "**" not in source and _SOURCE.fullmatch(text):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                tree = ast.parse(text, mode="eval")
            if all(_allowed(node, text) for node in ast.walk(tree)):
                return compile(tree, "<expr>", "eval")
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


def _param_spec(triple) -> ParamSpec:
    """A ``[name, lo, hi]`` triple, hi an integer or null."""
    if not (
        isinstance(triple, list)
        and len(triple) == 3
        and isinstance(triple[0], str)
        and type(triple[1]) is int
        and (triple[2] is None or type(triple[2]) is int)
    ):
        raise DomainError(f"params entry {triple!r} is not [name, lo, hi or null]")
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

    Resolution order for the data file: explicit path argument, the
    SURDCF_REGISTRY environment variable, then the packaged registry.  A
    record raises DomainError naming its 1-based line if it is not valid
    JSON or not an object, lacks ``id`` or ``params``, has a malformed
    params triple or a repeated param name, has a ``bind`` or ``budget``
    that is not an object of integers, names an unknown generator or one
    whose arguments are in neither ``params`` nor ``bind``, has neither a
    generator nor all of ``a_expr``, ``b_expr`` and ``pattern``, or holds
    an expression that is not a string in the grammar of ``PolyExpr``.
    """
    path = path or os.environ.get(REGISTRY_ENV) or None
    if path:
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
    for fam in registry(path):
        if fam.id == fid:
            return fam
    raise DomainError(f"unknown family id {fid!r}")


# ---------------------------------------------------------------------------
# Instantiation and verification.


def _resolve(fam: FamilyDescriptor, assignment: Mapping[str, int]):
    """Concrete (head, a, b, pattern) expressions for one assignment."""
    if fam.generator:
        _, wanted = GENERATORS[fam.generator]
        args = tuple(fam.bind[name] if name in fam.bind else assignment[name] for name in wanted)
        return _ladder(fam.generator, args)
    head = fam.head_expr or fam.a_expr
    return head, fam.a_expr, fam.b_expr, fam.pattern


@lru_cache(maxsize=256)
def _ladder(generator: str, args: tuple[int, ...]):
    """The (head, a, b, pattern) expressions of one ladder generator call.

    Cached because every n of a ladder family shares them: the packaged
    registry makes 72 distinct calls for its 11,110 ladder members.
    """
    a_s, b_s, pat_s = GENERATORS[generator][0](*args)
    a_e, b_e = PolyExpr(a_s), PolyExpr(b_s)
    return a_e, a_e, b_e, tuple(PolyExpr(s) for s in pat_s)


def instantiate(
    fam: FamilyDescriptor, assignment: Mapping[str, int]
) -> tuple[int, PeriodicCF]:
    """Evaluate one family member: the radicand d and its claimed expansion.

    Out-of-range parameters raise DomainError.  Assignments whose template
    degenerates (a quotient drops below 1, an interior quotient exceeds the
    head, or the period word collapses to a repetition of a shorter word)
    raise FamilyValidityError: the formula does not claim them.
    """
    for p in fam.params:
        v = assignment.get(p.name)
        if v is None:
            raise DomainError(f"{fam.id}: missing parameter {p.name}")
        if v < p.lo or (p.hi is not None and v > p.hi):
            raise DomainError(f"{fam.id}: parameter {p.name}={v} out of range")
    head_e, a_e, b_e, pattern = _resolve(fam, assignment)
    env = dict(assignment)
    a = a_e.eval(env)
    b = b_e.eval(env)
    head = head_e.eval(env)
    if a < 1 or b < 1:
        raise FamilyValidityError(f"{fam.id}: a={a}, b={b} outside validity")
    env["a"] = head
    word = [e.eval(env) for e in pattern]
    if any(x < 1 for x in word):
        raise FamilyValidityError(f"{fam.id}: nonpositive quotient at {assignment}")
    if any(x > head for x in word[:-1]):
        raise FamilyValidityError(f"{fam.id}: interior quotient exceeds head at {assignment}")
    if not is_primitive_word(word):
        raise FamilyValidityError(f"{fam.id}: period collapses at {assignment}")
    d = a * a + b
    if is_square(d):
        raise FamilyValidityError(f"{fam.id}: d={d} is a perfect square")
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


def _assignments(
    fam: FamilyDescriptor, budget: Mapping[str, int] | None
) -> Iterator[dict[str, int]]:
    """Every budgeted assignment, the first parameter varying slowest."""
    names = fam.free_params()
    ranges = [_param_values(fam, p, budget) for p in fam.params]
    for values in itertools.product(*ranges):
        yield dict(zip(names, values))


def iter_failures(
    fam: FamilyDescriptor, budget: Mapping[str, int] | None, report: VerifyReport
) -> Iterator[dict]:
    """Yield the record of each failing member, in assignment order.

    The one member loop: each budgeted assignment is instantiated, expanded
    by the engine and compared term for term.  ``report.tested`` and
    ``report.skipped`` count the members as the loop reaches them; the
    failures go only to the caller.
    """
    for assignment in _assignments(fam, budget):
        try:
            d, expected = instantiate(fam, assignment)
        except FamilyValidityError:
            report.skipped += 1
            continue
        actual = expand_sqrt(d)
        report.tested += 1
        if actual.a0 != expected.a0 or actual.period != expected.period:
            yield {
                "params": dict(assignment),
                "d": d,
                "expected": {"a0": expected.a0, "period": list(expected.period)},
                "actual": {"a0": actual.a0, "period": list(actual.period)},
            }


def verify_family(
    fam: FamilyDescriptor, budget: Mapping[str, int] | None = None
) -> VerifyReport:
    """Compare every budgeted family member against the expansion engine.

    ``budget`` maps parameter names to inclusive maxima; unbounded n defaults
    to its first 101 values.  Comparison is term for term; mismatches are
    recorded verbatim, in assignment order.
    """
    report = VerifyReport(fam.id)
    report.failures.extend(iter_failures(fam, budget, report))
    return report


def write_record(fam: FamilyDescriptor, budget: Mapping[str, int] | None, out) -> int:
    """Write the family's JSON line to the text stream ``out``; return its failure count.

    The bytes are ``json.dumps({**verify_family(fam, budget).to_dict(),
    "registry_status": fam.status}, sort_keys=True) + "\\n"``.  Sorted,
    ``failures`` is the first key, and every key after it is known once the
    member loop ends, so each failure is written as soon as the engine has
    expanded it and none is kept.  Nothing is written before the first
    failure.  An unbound variable raises DomainError at the first member
    that reaches the expression holding it, and every tested member reaches
    them all, so the error comes before any write and leaves no partial line.
    """
    counts = VerifyReport(fam.id)
    failures = 0
    for failure in iter_failures(fam, budget, counts):
        out.write(", " if failures else '{"failures": [')
        out.write(json.dumps(failure, sort_keys=True))
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
    "VerifyReport",
    "GENERATORS",
    "registry",
    "family_by_id",
    "instantiate",
    "verify_family",
    "iter_failures",
    "status_of",
    "write_record",
    "REGISTRY_ENV",
]
