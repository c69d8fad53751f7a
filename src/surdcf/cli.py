"""Command-line surface.

Subcommands: expand, surd, convergents, verify-families, mine, analyze,
sequences.  Multi-record output is JSON Lines, single-record output a single
JSON object; everything is emitted with sorted keys so runs are byte-identical
regardless of parallelism.

Exit codes: 0 success, 1 usage error, 2 domain error.  Mathematical findings
(erratum families, claim counterexamples) are data, never nonzero exits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import _kernels, analyzer, families, miner, sequences
from .convergents import convergents_of_word
from .engine import SurdState, expand_sqrt, expand_surd
from .exact import DomainError, ResourceLimitError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(obj, fmt: str, text_fn):
    """One record: ``text_fn(obj)`` under --format text, else sorted-key JSON."""
    if fmt == "text":
        print(text_fn(obj))
    else:
        print(json.dumps(obj, sort_keys=True))


def _parse_int_list(raw: str) -> list[int]:
    try:
        return [int(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError:
        raise DomainError(f"not a comma-separated integer list: {raw!r}") from None


def cmd_expand(args) -> int:
    try:
        cf = expand_sqrt(args.d)
    except DomainError as exc:
        print(f"expand: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    obj = {"d": cf.d, "a0": cf.a0, "period": list(cf.period), "length": cf.length}
    if args.format == "csv":
        print("d,a0,length,period")
        print(f"{cf.d},{cf.a0},{cf.length}," + " ".join(map(str, cf.period)))
        return EXIT_OK
    _emit(obj, args.format, lambda o: f"sqrt({o['d']}) = {cf}  (period length {o['length']})")
    return EXIT_OK


def cmd_surd(args) -> int:
    try:
        state = SurdState(args.p, args.q, args.d)
        exp = expand_surd(state, max_steps=args.max_steps)
    except (DomainError, ResourceLimitError) as exc:
        print(f"surd: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    obj = {
        "p": args.p,
        "q": args.q,
        "d": args.d,
        "preperiod": exp.preperiod,
        "period": exp.period,
    }
    _emit(
        obj,
        args.format,
        lambda o: f"({o['p']}+sqrt({o['d']}))/{o['q']} = "
        f"[{','.join(map(str, o['preperiod']))}; {','.join(map(str, o['period']))} ...]",
    )
    return EXIT_OK


def cmd_convergents(args) -> int:
    try:
        word = _parse_int_list(args.word)
        conv = convergents_of_word(word)
    except DomainError as exc:
        print(f"convergents: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    if args.format == "csv":
        print("k,p,q")
        for c in conv:
            print(f"{c.index},{c.p},{c.q}")
    elif args.format == "text":
        print(", ".join(f"{c.p}/{c.q}" for c in conv))
    else:
        for c in conv:
            print(json.dumps({"k": c.index, "p": c.p, "q": c.q}, sort_keys=True))
    return EXIT_OK


def _budget_from_args(args):
    budget = {}
    if args.n_max is not None:
        budget["n"] = args.n_max
    if args.m_max is not None:
        budget["m"] = args.m_max
    if args.k_max is not None:
        budget["k"] = args.k_max
    return budget or None


def cmd_verify_families(args) -> int:
    try:
        fams = families.registry(args.registry)
    except (OSError, DomainError) as exc:
        print(f"verify-families: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.id:
        by_id = {f.id: f for f in fams}
        missing = [fid for fid in args.id if fid not in by_id]
        if missing:
            print(f"verify-families: unknown id(s) {missing}", file=sys.stderr)
            return EXIT_USAGE
        fams = [by_id[fid] for fid in args.id]
    budget = _budget_from_args(args)
    all_ok = True
    for fam in fams:
        try:
            report = families.verify_family(fam, budget)
        except DomainError as exc:
            print(f"verify-families: {fam.id}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if report.failures and not fam.is_erratum:
            all_ok = False
        obj = report.to_dict()
        obj["registry_status"] = fam.status
        if args.format == "text":
            print(f"{fam.id}: {report.status} ({report.tested} tested, {len(report.failures)} failures)")
        else:
            print(json.dumps(obj, sort_keys=True))
    return EXIT_OK if all_ok else EXIT_DOMAIN


def cmd_mine(args) -> int:
    if args.sweep:
        try:
            found = miner.mine_sweep(args.max_len, args.max_entry)
        except DomainError as exc:
            print(f"mine: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if args.format == "text":
            for fam in found:
                print(
                    f"[{','.join(map(str, fam.palindrome))}]: a = {fam.a_modulus}*c+{fam.a_residue}, "
                    f"b = {fam.b_expr()}, c >= {fam.min_c}"
                )
        else:
            miner.write_jsonl(found, sys.stdout)
        return EXIT_OK
    if args.pattern is None:
        print("mine: need --pattern or --sweep", file=sys.stderr)
        return EXIT_USAGE
    try:
        pattern = _parse_int_list(args.pattern)
        fam = miner.mine(pattern)
    except DomainError as exc:
        print(f"mine: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if fam is None:
        _emit({"palindrome": pattern, "family": None}, args.format,
              lambda o: f"no family realizes [{args.pattern}]")
        return EXIT_OK
    _emit(fam.to_dict(), args.format,
          lambda o: f"a = {o['a_modulus']}*c+{o['a_residue']} (mod {o['a_modulus']}), b = {o['b_expr']}, c >= {o['min_c']}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    if args.d_from < 1 or args.d_to < args.d_from:
        print("analyze: need 1 <= --from <= --to", file=sys.stderr)
        return EXIT_USAGE
    if args.jobs < 1:
        print("analyze: need --jobs >= 1", file=sys.stderr)
        return EXIT_USAGE
    backend = _kernels.backend_name(args.kernel)
    if args.format == "csv":
        print("length,count")
        hist = analyzer.period_stats(args.d_from, args.d_to, jobs=args.jobs, backend=backend)
        for k, v in hist.items():
            print(f"{k},{v}")
        return EXIT_OK
    report = analyzer.check_claims(args.d_from, args.d_to, jobs=args.jobs, backend=backend)
    if args.format == "text":
        print(f"range [{report.d_min}, {report.d_max}]: {report.tested} tested, {report.skipped} squares skipped")
        for cid in analyzer.CLAIM_IDS:
            c = report.claim(cid)
            print(f"  {cid}: {c.status} ({c.tested} tested, {c.count} counterexamples)")
    else:
        analyzer.write_json(report, sys.stdout)
        sys.stdout.write("\n")
    return EXIT_OK


def cmd_sequences(args) -> int:
    try:
        rows = sequences.named_sequence(args.name, args.count, m=args.m)
    except DomainError as exc:
        print(f"sequences: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "csv":
        print("index,value")
        for k, v in rows:
            print(f"{k},{v}")
    elif args.format == "text":
        print(" ".join(str(v) for _, v in rows))
    else:
        for k, v in rows:
            print(json.dumps({"index": k, "value": v}, sort_keys=True))
    return EXIT_OK


def _add_format(p, choices=("json", "csv", "text")):
    p.add_argument("--format", choices=choices, default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="surdcf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="periodic expansion of sqrt(d)")
    p.add_argument("d", type=int)
    _add_format(p)
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("surd", help="expansion of a general surd (p + sqrt(d))/q")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--max-steps", type=int, default=10**6)
    _add_format(p, ("json", "text"))
    p.set_defaults(fn=cmd_surd)

    p = sub.add_parser("convergents", help="convergents of a quotient word")
    p.add_argument("--word", required=True, help="comma-separated quotients, e.g. 1,2,2,2")
    _add_format(p)
    p.set_defaults(fn=cmd_convergents)

    p = sub.add_parser("verify-families", help="check registry families against the engine")
    p.add_argument("--id", action="append", help="family id (repeatable); default all")
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--m-max", type=int, default=None)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--registry", default=None, help="registry file override (also SURDCF_REGISTRY)")
    _add_format(p, ("json", "text"))
    p.set_defaults(fn=cmd_verify_families)

    p = sub.add_parser("mine", help="derive families from palindrome patterns")
    p.add_argument("--pattern", default=None, help="comma-separated palindrome, e.g. 2,2")
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--max-len", type=int, default=3)
    p.add_argument("--max-entry", type=int, default=3)
    _add_format(p, ("json", "text"))
    p.set_defaults(fn=cmd_mine)

    p = sub.add_parser("analyze", help="structure claims over a d range")
    p.add_argument("--from", dest="d_from", type=int, required=True)
    p.add_argument("--to", dest="d_to", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--kernel", choices=_kernels.BACKENDS, default=None)
    _add_format(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("sequences", help="dump a named integer sequence")
    p.add_argument("--name", required=True,
                   help=f"one of {sorted(sequences.NAMED_SEQUENCES)} or odd-u/even-p/even-q (with --m)")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--m", type=int, default=None)
    _add_format(p)
    p.set_defaults(fn=cmd_sequences)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull, so that the
        # interpreter's flush at exit finds no broken pipe to report.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
