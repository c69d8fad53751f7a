"""Registry of parameterized expansion families and the brute-force verifier.

A family is a recipe: integer polynomials for a and b (d = a^2 + b) plus a
period template whose entries are polynomials over the parameters and the
evaluated head ``a``.  The registry ships as a line-delimited data file so
errata stay diffs against data, never code edits.

Ladder families (a repeated block whose coefficients come from an integer
sequence) carry a generator name; the generator turns the integer parameters
(k, and m where applicable) into concrete polynomials in n before evaluation.
"""

from __future__ import annotations

import json
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from typing import Iterable, Mapping, Sequence

from . import sequences
from .engine import PeriodicCF, expand_sqrt, is_primitive_word
from .exact import DomainError, is_square

REGISTRY_ENV = "SURDCF_REGISTRY"
_REGISTRY_RESOURCE = "families.jsonl"


class FamilyValidityError(Exception):
    """The assignment is outside the family's validity (not a verification failure)."""


# ---------------------------------------------------------------------------
# Tiny integer polynomial expressions: "2*m^2*n + m", "a-1", "2*(45*n+14)".

_TOKENS = re.compile(r"\s*(?:(\d+)|([a-z]+)|(\^|[-+*()]))")


class PolyExpr:
    """Parsed integer expression over named integer variables."""

    __slots__ = ("source", "_ast")

    def __init__(self, source: str):
        self.source = source
        self._ast = _parse(source)

    def eval(self, env: Mapping[str, int]) -> int:
        return _eval_ast(self._ast, env)

    def __str__(self) -> str:
        return self.source

    def __repr__(self) -> str:
        return f"PolyExpr({self.source!r})"

    def __getstate__(self):
        return self.source

    def __setstate__(self, source):
        self.source = source
        self._ast = _parse(source)


@lru_cache(maxsize=4096)
def _parse(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKENS.match(source, pos)
        if not m or m.end() == pos:
            raise DomainError(f"bad expression {source!r} at offset {pos}")
        pos = m.end()
        if m.group(1):
            tokens.append(("int", int(m.group(1))))
        elif m.group(2):
            tokens.append(("var", m.group(2)))
        else:
            tokens.append((m.group(3), None))
    tokens.append(("end", None))

    idx = 0

    def peek():
        return tokens[idx][0]

    def take(kind=None):
        nonlocal idx
        tok = tokens[idx]
        if kind is not None and tok[0] != kind:
            raise DomainError(f"bad expression {source!r}: expected {kind}, got {tok[0]}")
        idx += 1
        return tok

    def atom():
        kind = peek()
        if kind == "int":
            return ("int", take()[1])
        if kind == "var":
            return ("var", take()[1])
        if kind == "(":
            take()
            node = expr()
            take(")")
            return node
        if kind == "-":
            take()
            return ("neg", atom())
        raise DomainError(f"bad expression {source!r}: unexpected {kind}")

    def factor():
        node = atom()
        if peek() == "^":
            take()
            exp = take("int")[1]
            node = ("pow", node, exp)
        return node

    def term():
        node = factor()
        while peek() == "*":
            take()
            node = ("mul", node, factor())
        return node

    def expr():
        node = term()
        while peek() in ("+", "-"):
            op = take()[0]
            rhs = term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    node = expr()
    take("end")
    return node


def _eval_ast(node, env):
    op = node[0]
    if op == "int":
        return node[1]
    if op == "var":
        try:
            return env[node[1]]
        except KeyError:
            raise DomainError(f"unbound variable {node[1]!r}") from None
    if op == "neg":
        return -_eval_ast(node[1], env)
    if op == "pow":
        return _eval_ast(node[1], env) ** node[2]
    a = _eval_ast(node[1], env)
    b = _eval_ast(node[2], env)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    return a * b


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


def _descriptor_from_record(rec: dict) -> FamilyDescriptor:
    params = tuple(ParamSpec(name, lo, hi) for name, lo, hi in rec["params"])
    expr = lambda key: PolyExpr(rec[key]) if rec.get(key) else None
    pattern = tuple(PolyExpr(s) for s in rec["pattern"]) if rec.get("pattern") else None
    return FamilyDescriptor(
        id=rec["id"],
        citation=rec.get("citation", ""),
        params=params,
        a_expr=expr("a_expr"),
        b_expr=expr("b_expr"),
        pattern=pattern,
        head_expr=expr("head_expr"),
        generator=rec.get("generator"),
        bind=rec.get("bind", {}),
        status=rec.get("status", "ok"),
        corrected_by=rec.get("corrected_by"),
        corrects=rec.get("corrects"),
        note=rec.get("note"),
        budget=rec.get("budget", {}),
    )


def registry(path: str | None = None) -> list[FamilyDescriptor]:
    """All registry families, in file order.

    Resolution order for the data file: explicit path argument, the
    SURDCF_REGISTRY environment variable, then the packaged registry.
    """
    path = path or os.environ.get(REGISTRY_ENV) or None
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = resources.files(__package__).joinpath(_REGISTRY_RESOURCE).read_text("utf-8")
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        out.append(_descriptor_from_record(json.loads(line)))
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
        gen, wanted = GENERATORS[fam.generator]
        args = []
        for name in wanted:
            if name in fam.bind:
                args.append(fam.bind[name])
            else:
                args.append(assignment[name])
        a_s, b_s, pat_s = gen(*args)
        a_e, b_e = PolyExpr(a_s), PolyExpr(b_s)
        return a_e, a_e, b_e, tuple(PolyExpr(s) for s in pat_s)
    head = fam.head_expr or fam.a_expr
    return head, fam.a_expr, fam.b_expr, fam.pattern


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
        return "verified" if not self.failures else "erratum"

    def to_dict(self) -> dict:
        return {
            "id": self.family_id,
            "tested": self.tested,
            "skipped": self.skipped,
            "failures": self.failures,
            "status": self.status,
        }


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


def _assignments(fam: FamilyDescriptor, budget: Mapping[str, int] | None):
    names = fam.free_params()
    ranges = [_param_values(fam, p, budget) for p in fam.params]
    out = [{}]
    for name, rng in zip(names, ranges):
        out = [dict(asgn, **{name: v}) for asgn in out for v in rng]
    return out


def _verify_chunk(args) -> VerifyReport:
    fam, chunk = args
    report = VerifyReport(fam.id)
    for assignment in chunk:
        try:
            d, expected = instantiate(fam, assignment)
        except FamilyValidityError:
            report.skipped += 1
            continue
        actual = expand_sqrt(d)
        report.tested += 1
        if actual.a0 != expected.a0 or actual.period != expected.period:
            report.failures.append(
                {
                    "params": dict(assignment),
                    "d": d,
                    "expected": {"a0": expected.a0, "period": list(expected.period)},
                    "actual": {"a0": actual.a0, "period": list(actual.period)},
                }
            )
    return report


def verify_family(
    fam: FamilyDescriptor,
    budget: Mapping[str, int] | None = None,
    jobs: int = 1,
) -> VerifyReport:
    """Compare every budgeted family member against the expansion engine.

    ``budget`` maps parameter names to inclusive maxima; unbounded n defaults
    to its first 101 values.  Comparison is term for term; mismatches are
    recorded verbatim.  Chunk results merge in assignment order, so the
    report is independent of ``jobs``.
    """
    assignments = _assignments(fam, budget)
    if jobs <= 1 or len(assignments) < 64:
        return _verify_chunk((fam, assignments))
    size = (len(assignments) + jobs - 1) // jobs
    chunks = [
        (fam, assignments[i : i + size]) for i in range(0, len(assignments), size)
    ]
    report = VerifyReport(fam.id)
    with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
        for part in pool.map(_verify_chunk, chunks):
            report.tested += part.tested
            report.skipped += part.skipped
            report.failures.extend(part.failures)
    return report


def verify_all(
    families: Iterable[FamilyDescriptor] | None = None,
    budget: Mapping[str, int] | None = None,
    jobs: int = 1,
    path: str | None = None,
) -> list[VerifyReport]:
    fams = list(families) if families is not None else registry(path)
    return [verify_family(f, budget=budget, jobs=jobs) for f in fams]


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
    "verify_all",
    "REGISTRY_ENV",
]
