"""Command-line surface.

Subcommands: expand, surd, convergents, verify-families, mine, analyze,
sequences.  Multi-record output is JSON Lines, single-record output a single
JSON object; everything is emitted with sorted keys so runs are byte-identical
regardless of parallelism.

Exit codes: 0 success, 1 usage error, 2 domain error.  Mathematical findings
(erratum families, claim counterexamples) are data, never nonzero exits.

Each command imports the modules it runs inside its handler, and building
the parser imports none of them, so ``expand`` never loads numpy and
``mine`` never loads the analyzer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .exact import DomainError, ResourceLimitError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2

# `mine --sweep` bounds when --max-len or --max-entry is not given.
_SWEEP_DEFAULT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse calls it, and defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)

    def format_help(self) -> str:
        # Help that names what a command module defines is made here, when
        # it is printed, so that building the parser imports no command module.
        for action in self._actions:
            if hasattr(action, "help_from"):
                action.help = action.help_from()
        return super().format_help()


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
    from .engine import expand_sqrt

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
    if args.max_steps < 1:
        print("surd: need --max-steps >= 1", file=sys.stderr)
        return EXIT_USAGE
    from .engine import SurdState, expand_surd

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
    from .convergents import convergents_of_word

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
    from . import families

    for option, cap in (("--n-max", args.n_max), ("--m-max", args.m_max), ("--k-max", args.k_max)):
        if cap is not None and cap < 0:
            print(f"verify-families: need {option} >= 0", file=sys.stderr)
            return EXIT_USAGE
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
    # Every family is checked before the first record is written.
    for fam in fams:
        try:
            families.check_budget(fam, budget)
        except DomainError as exc:
            print(f"verify-families: {fam.id}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    all_ok = True
    for fam in fams:
        try:
            if args.format == "text":
                counts = families.VerifyReport(fam.id)
                failures = sum(1 for _ in families.iter_failures(fam, budget, counts))
                print(f"{fam.id}: {families.status_of(failures)} ({counts.tested} tested, {failures} failures)")
            else:
                failures = families.write_record(fam, budget, sys.stdout)
        except DomainError as exc:
            print(f"verify-families: {fam.id}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if failures and not fam.is_erratum:
            all_ok = False
    return EXIT_OK if all_ok else EXIT_DOMAIN


def cmd_mine(args) -> int:
    from . import miner

    bounds = (args.max_len, args.max_entry)
    if args.sweep:
        try:
            blocks = miner.sweep_blocks(*(_SWEEP_DEFAULT if b is None else b for b in bounds))
        except DomainError as exc:
            print(f"mine: {exc}", file=sys.stderr)
            return EXIT_USAGE
        # Each block is written as it is mined, so memory holds one block.
        for found in blocks:
            if args.format != "text":
                miner.write_jsonl(found, sys.stdout)
            elif len(found):
                # A block's lines from its columns, in one write: no
                # MinedFamily and no print per row.
                columns = (found.palindrome.tolist(), miner._lengths(found.palindrome).tolist(),
                           found.a_modulus.tolist(), found.a_residue.tolist(),
                           found.b_exprs(), found.min_c.tolist())
                sys.stdout.write("".join(
                    f"{str(pal[:n]).replace(' ', '')}: a = {mod}*c+{res}, b = {b_expr}, c >= {min_c}\n"
                    for pal, n, mod, res, b_expr, min_c in zip(*columns)
                ))
        return EXIT_OK
    if bounds != (None, None):
        print("mine: --max-len and --max-entry need --sweep", file=sys.stderr)
        return EXIT_USAGE
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
    from . import _kernels, analyzer

    try:
        backend = _kernels.backend_name(args.kernel)
    except ValueError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
    from . import sequences

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


def _kernel_help() -> str:
    from ._kernels import BACKENDS, backend_name

    return f"one of {list(BACKENDS)} (default {backend_name()})"


def _sequence_name_help() -> str:
    from .sequences import NAMED_SEQUENCES

    return f"one of {sorted(NAMED_SEQUENCES)} or odd-u/even-p/even-q (with --m)"


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
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--pattern", default=None, help="comma-separated palindrome, e.g. 2,2")
    mode.add_argument("--sweep", action="store_true")
    p.add_argument("--max-len", type=int, default=None, help=f"with --sweep (default {_SWEEP_DEFAULT})")
    p.add_argument("--max-entry", type=int, default=None, help=f"with --sweep (default {_SWEEP_DEFAULT})")
    _add_format(p, ("json", "text"))
    p.set_defaults(fn=cmd_mine)

    p = sub.add_parser("analyze", help="structure claims over a d range")
    p.add_argument("--from", dest="d_from", type=int, required=True)
    p.add_argument("--to", dest="d_to", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--kernel", default=None).help_from = _kernel_help
    _add_format(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("sequences", help="dump a named integer sequence")
    p.add_argument("--name", required=True).help_from = _sequence_name_help
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
