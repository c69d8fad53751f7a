"""Command-line surface.

Subcommands: expand, surd, convergents, verify-families, mine, analyze,
sequences.  Multi-record output is JSON Lines, single-record output a single
JSON object; everything is emitted with sorted keys so runs are byte-identical
regardless of parallelism.

Exit codes: 0 success; 2 for a domain error of expand, surd and convergents,
and when a family not marked erratum fails in verify-families; 1 for every
input error of verify-families, mine, analyze and sequences, for a bad option
value (such as ``surd --max-steps`` below 1) and for argparse errors.  Each
subparser declares its command's code for bad input (``bad_input``), and
``main`` is the one place where an error becomes a stderr line and a code.
Mathematical findings (erratum families, claim counterexamples) are data,
never nonzero exits.

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


class _UsageError(Exception):
    """A bad option value: exit 1, whatever the command's code for bad input."""


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

    cf = expand_sqrt(args.d)
    obj = {"d": cf.d, "a0": cf.a0, "period": list(cf.period), "length": cf.length}
    if args.format == "csv":
        print("d,a0,length,period")
        print(f"{cf.d},{cf.a0},{cf.length}," + " ".join(map(str, cf.period)))
        return EXIT_OK
    _emit(obj, args.format, lambda o: f"sqrt({o['d']}) = {cf}  (period length {o['length']})")
    return EXIT_OK


def cmd_surd(args) -> int:
    if args.max_steps < 1:
        raise _UsageError("need --max-steps >= 1")
    from .engine import SurdState, expand_surd

    exp = expand_surd(SurdState(args.p, args.q, args.d), max_steps=args.max_steps)
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

    conv = convergents_of_word(_parse_int_list(args.word))
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


def cmd_verify_families(args) -> int:
    from . import families

    caps = {"n": args.n_max, "m": args.m_max, "k": args.k_max}
    for name, cap in caps.items():
        if cap is not None and cap < 0:
            raise _UsageError(f"need --{name}-max >= 0")
    budget = {name: cap for name, cap in caps.items() if cap is not None} or None
    try:
        fams = families.registry(args.registry)
    except OSError as exc:
        raise _UsageError(exc) from None
    if args.id:
        by_id = {f.id: f for f in fams}
        missing = [fid for fid in args.id if fid not in by_id]
        if missing:
            raise _UsageError(f"unknown id(s) {missing}")
        fams = [by_id[fid] for fid in args.id]
    all_ok = True
    try:
        # Every family is checked before the first record is written.
        for fam in fams:
            families.check_budget(fam, budget)
        for fam in fams:
            if args.format == "text":
                counts = families.VerifyReport(fam.id)
                failures = sum(1 for _ in families.iter_failures(fam, budget, counts))
                print(f"{fam.id}: {families.status_of(failures)} ({counts.tested} tested, {failures} failures)")
            else:
                failures = families.write_record(fam, budget, sys.stdout)
            if failures and not fam.is_erratum:
                all_ok = False
    except DomainError as exc:
        raise DomainError(f"{fam.id}: {exc}") from None
    return EXIT_OK if all_ok else EXIT_DOMAIN


def cmd_mine(args) -> int:
    from . import miner

    bounds = (args.max_len, args.max_entry)
    if args.sweep:
        write = miner.write_text if args.format == "text" else miner.write_jsonl
        # Each block is written as it is mined, so memory holds one block.
        for found in miner.sweep_blocks(*(_SWEEP_DEFAULT if b is None else b for b in bounds)):
            write(found, sys.stdout)
        return EXIT_OK
    if bounds != (None, None):
        raise _UsageError("--max-len and --max-entry need --sweep")
    if args.pattern is None:
        raise _UsageError("need --pattern or --sweep")
    pattern = _parse_int_list(args.pattern)
    fam = miner.mine(pattern)
    if fam is None:
        _emit({"palindrome": pattern, "family": None}, args.format,
              lambda o: f"no family realizes [{args.pattern}]")
        return EXIT_OK
    _emit(fam.to_dict(), args.format,
          lambda o: f"a = {o['a_modulus']}*c+{o['a_residue']} (mod {o['a_modulus']}), b = {o['b_expr']}, c >= {o['min_c']}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    if args.d_from < 1 or args.d_to < args.d_from:
        raise _UsageError("need 1 <= --from <= --to")
    if args.jobs < 1:
        raise _UsageError("need --jobs >= 1")
    from . import _kernels, analyzer

    try:
        backend = _kernels.backend_name(args.kernel)
    except ValueError as exc:
        raise _UsageError(exc) from None
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

    rows = sequences.named_sequence(args.name, args.count, m=args.m)
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
    p.set_defaults(fn=cmd_expand, bad_input=EXIT_DOMAIN)

    p = sub.add_parser("surd", help="expansion of a general surd (p + sqrt(d))/q")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--max-steps", type=int, default=10**6)
    _add_format(p, ("json", "text"))
    p.set_defaults(fn=cmd_surd, bad_input=EXIT_DOMAIN)

    p = sub.add_parser("convergents", help="convergents of a quotient word")
    p.add_argument("--word", required=True, help="comma-separated quotients, e.g. 1,2,2,2")
    _add_format(p)
    p.set_defaults(fn=cmd_convergents, bad_input=EXIT_DOMAIN)

    p = sub.add_parser("verify-families", help="check registry families against the engine")
    p.add_argument("--id", action="append", help="family id (repeatable); default all")
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--m-max", type=int, default=None)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--registry", default=None, help="registry file in place of the packaged one")
    _add_format(p, ("json", "text"))
    p.set_defaults(fn=cmd_verify_families, bad_input=EXIT_USAGE)

    p = sub.add_parser("mine", help="derive families from palindrome patterns")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--pattern", default=None, help="comma-separated palindrome, e.g. 2,2")
    mode.add_argument("--sweep", action="store_true")
    p.add_argument("--max-len", type=int, default=None, help=f"with --sweep (default {_SWEEP_DEFAULT})")
    p.add_argument("--max-entry", type=int, default=None, help=f"with --sweep (default {_SWEEP_DEFAULT})")
    _add_format(p, ("json", "text"))
    p.set_defaults(fn=cmd_mine, bad_input=EXIT_USAGE)

    p = sub.add_parser("analyze", help="structure claims over a d range")
    p.add_argument("--from", dest="d_from", type=int, required=True)
    p.add_argument("--to", dest="d_to", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--kernel", default=None).help_from = _kernel_help
    _add_format(p)
    p.set_defaults(fn=cmd_analyze, bad_input=EXIT_USAGE)

    p = sub.add_parser("sequences", help="dump a named integer sequence")
    p.add_argument("--name", required=True).help_from = _sequence_name_help
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--m", type=int, default=None)
    _add_format(p)
    p.set_defaults(fn=cmd_sequences, bad_input=EXIT_USAGE)

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
    except (_UsageError, DomainError, ResourceLimitError) as exc:
        # Bad input, the one stderr line of a failed run.  An
        # InternalConsistencyError is an engine bug, and escapes with its
        # traceback.
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, _UsageError) else args.bad_input


if __name__ == "__main__":
    sys.exit(main())
