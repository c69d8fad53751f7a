"""Each command loads only the modules it runs, and the package's exports
are lazy (PEP 562).  The package's modules import one another one way, with
no cycle, so every module and every export works as the first import.

This test process has imported the whole package already, so every run is
made in a fresh interpreter, which then reports its ``sys.modules``.  All
runs may load ``surdcf.cli`` and ``surdcf.exact``; each row names the
package modules that a run loads besides them (no more, no fewer) and the
outside modules that it must not load.
"""

import ast
import collections
import graphlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import surdcf

SRC = Path(__file__).resolve().parent.parent / "src"
ALWAYS = {"cli", "exact"}
WATCHED = ("numpy", "concurrent.futures", "multiprocessing")
NO_POOL = ("concurrent.futures", "multiprocessing")

ANALYZE = {"analyzer", "_kernels", "_jsontext", "engine"}
MINE = {"miner", "convergents", "mat2", "sequences", "_jsontext"}
VERIFY = {"families", "engine", "sequences"}
SEQUENCES = {"sequences"}
MODULES = sorted(path.stem for path in (SRC / "surdcf").glob("*.py") if path.stem != "__init__")

# Every name that ``surdcf`` exports, by the module that defines it.
EXPORTS = {
    "exact": ["DomainError", "InternalConsistencyError", "Rat", "RationalValueError",
              "ResourceLimitError", "is_square", "isqrt", "sum_two_coprime_squares"],
    "engine": ["PeriodicCF", "SurdExpansion", "SurdState", "expand_sqrt", "expand_surd"],
    "convergents": ["Convergent", "QuadSolution", "convergents_of_word", "palindrome_b",
                    "surd_from_periodic_cf", "word_matrix"],
    "mat2": ["Mat2", "mat_pow", "odd_quotient_power", "pell_power", "sqrt3_power"],
    "chebyshev": ["Poly", "cheb_mat_pow", "cheb_u", "cheb_u_prime", "cousin_closed_form",
                  "cousin_mat_pow", "eval_poly"],
    "sequences": ["LinRecSpec", "QuadRingElem", "ab_pair", "interleaved_even_pair", "linrec_nth",
                  "pell_pair", "sqrt3_pair", "triple113_pair"],
    "families": ["FamilyDescriptor", "FamilyValidityError", "VerifyReport", "instantiate",
                 "registry", "verify_family"],
    "miner": ["MinedFamilies", "MinedFamily", "mine", "mine_sweep"],
    "analyzer": ["StructReport", "check_claims", "period_stats"],
}
EXPORTED = [name for names in EXPORTS.values() for name in names]

# The module-level functions, and the methods of module-level classes (as
# ``Class.method``), that nothing in the package refers to, each kept for
# the reason its docstring or comment gives: the matrix powers and
# Chebyshev identities that the acceptance criteria check, the library
# forms of commands and README examples, the forms in which acceptance
# criteria 1 and 8 check the golden expansions and the mined families'
# instances, the one-expression evaluation that the test oracle of family
# members runs, the reports as dicts that the tests hold the streamed
# bytes to, and an override that argparse calls.
UNCALLED = {
    "cheb_mat_pow", "cousin_closed_form", "cousin_mat_pow", "eval_poly",
    "mat_pow", "odd_quotient_power", "pell_power", "sqrt3_power",
    "palindrome_b", "surd_from_periodic_cf",
    "family_by_id", "instantiate", "verify_family",
    "mine_sweep",
    "PeriodicCF.as_list", "MinedFamily.a_of", "MinedFamily.b_of", "PolyExpr.eval",
    "StructReport.to_dict", "VerifyReport.to_dict",
    "_Parser.error",
}
# A method whose name more than one package class defines is not used just
# because some attribute has that name: each either stands in ``UNCALLED``
# or is named here with the package function (``module.qualname``) that
# calls it, which must hold an attribute of that name.
SHARED_NAME_CALLERS = {
    "ClaimResult.status": "analyzer.write_json",
    "ClaimResult.to_dict": "analyzer.StructReport.to_dict",
    "Failure.to_dict": "families.verify_family",
    "MinedFamily.to_dict": "cli.cmd_mine",
    "VerifyReport.status": "families.VerifyReport.to_dict",
}
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def fresh_json(code: str):
    """The JSON that ``code`` prints last, run in a fresh interpreter on
    the package's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def modules_after(code: str) -> tuple[set, set]:
    """(surdcf modules without the package prefix, watched outside modules)
    in ``sys.modules`` once ``code`` has run in a fresh interpreter."""
    loaded = fresh_json(code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n")
    return ({m.removeprefix("surdcf.") for m in loaded if m.startswith("surdcf.")},
            {m for m in WATCHED if m in loaded})


def cli_run(*argv: str) -> str:
    """Code that runs ``cli.main(argv)`` with its stdout dropped."""
    return ("import contextlib, io\n"
            "from surdcf import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({list(argv)!r}) == 0\n")


@pytest.mark.parametrize(
    "code, also, never",
    [
        ("import surdcf", set(), WATCHED),
        ("import surdcf.cli", set(), WATCHED),
        ("import surdcf\nsurdcf.expand_sqrt", {"engine"}, WATCHED),
        ("from surdcf import miner", MINE, NO_POOL),
        (cli_run("expand", "13"), {"engine"}, WATCHED),
        (cli_run("surd", "--p", "1", "--q", "2", "--d", "13"), {"engine"}, WATCHED),
        (cli_run("analyze", "--from", "2", "--to", "3000"), ANALYZE, NO_POOL),
        (cli_run("analyze", "--from", "2", "--to", "3000", "--kernel", "python"), ANALYZE, NO_POOL),
        (cli_run("mine", "--sweep", "--max-len", "5", "--max-entry", "3"), MINE, NO_POOL),
        (cli_run("mine", "--pattern", "2,2"), MINE, NO_POOL),
        # l7-a-m1-printed is an erratum: its failing periods are written too.
        (cli_run("verify-families", "--id", "euler-l1", "--id", "rep2-k1",
                 "--id", "l7-a-m1-printed", "--n-max", "5"), VERIFY, WATCHED),
        (cli_run("verify-families", "--id", "euler-l1", "--n-max", "5", "--format", "text"),
         VERIFY, WATCHED),
        (cli_run("sequences", "--name", "pell-p", "--count", "3"), SEQUENCES, WATCHED),
        (cli_run("convergents", "--word", "1,2,2,2"), {"convergents", "mat2", "sequences"}, WATCHED),
        ("import surdcf\nsurdcf.palindrome_b([2, 2], 6)", {"convergents", "mat2", "sequences"}, WATCHED),
        ("import surdcf\nsurdcf.sum_two_coprime_squares(13)", set(), WATCHED),
    ],
    ids=["import-surdcf", "import-cli", "export-attribute", "from-surdcf-import-miner",
         "expand", "surd", "analyze-numpy", "analyze-python", "mine-sweep", "mine-pattern",
         "verify-families-json", "verify-families-text", "sequences", "convergents",
         "palindrome-b", "sum-two-coprime-squares"],
)
def test_run_loads_only_its_modules(code, also, never):
    package, outside = modules_after(code)
    assert package - ALWAYS == also
    assert not outside & set(never)


def test_numpy_only_in_the_column_modules():
    # The exact modules import no numpy at any depth: a function-local
    # import or an ``if TYPE_CHECKING:`` block counts too.
    holders = set()
    for path in (SRC / "surdcf").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.partition(".")[0] == "numpy" for name in names):
                holders.add(path.stem)
    assert holders == {"_jsontext", "_kernels", "analyzer", "miner"}


def test_parsing_loads_no_command_module():
    package, outside = modules_after(
        "from surdcf import cli\n"
        "cli.build_parser().parse_args(['sequences', '--name', 'fibonacci'])\n")
    assert package == ALWAYS and not outside


def test_help_names_what_the_modules_define(capsys):
    from surdcf import _kernels, cli, sequences

    for command, names in (("sequences", sorted(sequences.NAMED_SEQUENCES)),
                           ("analyze", list(_kernels.BACKENDS))):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"one of {names}" in help_text


@pytest.mark.parametrize("name", EXPORTED)
def test_export_is_its_module_attribute(name):
    (module,) = [m for m, names in EXPORTS.items() if name in names]
    assert getattr(surdcf, name) is getattr(importlib.import_module(f"surdcf.{module}"), name)


def test_exports_listed_and_star_imported():
    assert sorted(EXPORTED) == surdcf.__all__
    assert set(EXPORTED) <= set(dir(surdcf))
    namespace = {}
    exec("from surdcf import *", namespace)
    assert set(EXPORTED) <= namespace.keys()
    assert surdcf.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        surdcf.no_such_name
    with pytest.raises(ImportError):
        from surdcf import no_such_name  # noqa: F401


def test_only_named_functions_lack_a_package_caller():
    # A module-level def or class, or a method or property of a module-level
    # class, that no name or attribute in the package refers to is reached
    # from outside it only, by tests at most.
    # A method counts as used only through an attribute: a bare name of
    # the same spelling (the builtin ``eval``, say) is not a call of it.
    defined, names, attributes, bodies = set(), set(), set(), {}
    for path in (SRC / "surdcf").glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (*DEFS, ast.ClassDef)):
                defined.add(node.name)
                bodies[f"{path.stem}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, DEFS):
                        defined.add(f"{node.name}.{sub.name}")
                        bodies[f"{path.stem}.{node.name}.{sub.name}"] = sub
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    methods = collections.Counter(name.rpartition(".")[2] for name in defined if "." in name)
    uncalled, shared = set(), set()
    for name in defined:
        owner, _, own = name.rpartition(".")
        if own.startswith("__") and own.endswith("__"):
            continue
        if owner and methods[own] > 1:
            shared.add(name)
        elif own not in (attributes if owner else names | attributes):
            uncalled.add(name)
    # Each shared-name method is either uncalled or mapped to its caller,
    # never both, and the map names no other method.
    assert uncalled | (shared - SHARED_NAME_CALLERS.keys()) == UNCALLED
    assert SHARED_NAME_CALLERS.keys() <= shared
    for method, caller in SHARED_NAME_CALLERS.items():
        own = method.rpartition(".")[2]
        assert any(isinstance(node, ast.Attribute) and node.attr == own
                   for node in ast.walk(bodies[caller])), f"{caller} does not call {method}"


def package_imports() -> dict[str, set[str]]:
    """Each module's module-level imports from the package, by module name:
    ``from . import x`` and ``from .x import y``, the latter as ``x``."""
    graph = {}
    for module in MODULES:
        path = SRC / "surdcf" / f"{module}.py"
        graph[module] = set()
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                graph[module].update([node.module] if node.module else
                                     [alias.name for alias in node.names])
    return graph


def test_module_imports_form_no_cycle():
    graph = package_imports()
    # Raises CycleError, naming the cycle, if the modules import in a ring.
    order = list(graphlib.TopologicalSorter(graph).static_order())
    assert set(order) == set(MODULES)
    # sequences, which holds the convergent recurrence, builds on exact alone.
    assert graph["sequences"] == {"exact"}


# Each case is a package module imported first, or a first access of each
# export of each defining module.
FIRST_ACCESS = ([f"import surdcf.{module}" for module in MODULES]
                + [f"from surdcf import {name}" for name in EXPORTED])


@pytest.fixture(scope="module")
def first_access_errors():
    """The error each ``FIRST_ACCESS`` case raises, or None, from one fresh
    interpreter that drops every ``surdcf`` module before each case, so
    that each case is the package's first import."""
    return fresh_json(
        "import json, sys\n"
        "errors = {}\n"
        f"for case in {FIRST_ACCESS!r}:\n"
        "    for name in [m for m in sys.modules if m.split('.')[0] == 'surdcf']:\n"
        "        del sys.modules[name]\n"
        "    try:\n"
        "        exec(case, {})\n"
        "        errors[case] = None\n"
        "    except Exception as exc:\n"
        "        errors[case] = f'{type(exc).__name__}: {exc}'\n"
        "print(json.dumps(errors))\n")


@pytest.mark.parametrize("case", FIRST_ACCESS)
def test_first_access_works(first_access_errors, case):
    assert first_access_errors[case] is None
