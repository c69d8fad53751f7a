"""The CI workflow runs the tier-1 command under a time limit, on the Python floor."""

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parent.parent
TIER1 = "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors"


def test_tier1_job_has_timeout_and_runs_tier1():
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    (job,) = workflow["jobs"].values()
    assert 0 < job["timeout-minutes"] <= 60
    assert TIER1 in [step.get("run") for step in job["steps"]]


def test_matrix_covers_requires_python_floor():
    # Parsed by pattern: tomllib is not in the standard library on 3.10.
    pyproject = (ROOT / "pyproject.toml").read_text()
    (floor,) = re.findall(r'^requires-python = ">=(\d+\.\d+)"$', pyproject, re.M)
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    (job,) = workflow["jobs"].values()
    assert floor in job["strategy"]["matrix"]["python-version"]


def digest_checks():
    """The runs of the CI steps that pipe into ``sha256sum -c``."""
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    (job,) = workflow["jobs"].values()
    runs = [step.get("run", "") for step in job["steps"]]
    return [run for run in runs if "sha256sum -c" in run]


def digest_check(command):
    """The run of the one CI step that pipes ``command`` into ``sha256sum -c``."""
    (check,) = [run for run in digest_checks() if f"{command} |" in run]
    assert "set -o pipefail" in check
    return check


def test_ci_checks_pinned_analyze_digest_on_a_pipe():
    from test_cli import ANALYZE_1E5_SHA256

    check = both_backends_check("python -W error -m surdcf.cli analyze --from 2 --to 100000")
    assert re.findall(r"\b[0-9a-f]{64}\b", check) == [ANALYZE_1E5_SHA256]


def both_backends_check(command):
    """The run of the one CI step that pipes ``command`` into ``sha256sum -c``
    once on each backend.

    The step loops over both backends, so no one command precedes the pipe,
    and a failed check in the first pass ends the step.
    """
    (check,) = [run for run in digest_checks() if f'{command} --kernel "$kernel" |' in run]
    assert "set -e -o pipefail" in check
    assert re.findall(r"^\s*for kernel in (.*); do$", check, re.M) == ["numpy python"]
    return check


def test_ci_checks_long_period_digest_on_a_pipe():
    from test_cli import ANALYZE_5E7_SHA256

    check = both_backends_check("python -W error -m surdcf.cli analyze --from 50000000 --to 50000999")
    assert re.findall(r"\b[0-9a-f]{64}\b", check) == [ANALYZE_5E7_SHA256]


def test_ci_checks_deep_window_digest_on_a_pipe():
    from test_cli import ANALYZE_1E9_SHA256

    check = both_backends_check("python -W error -m surdcf.cli analyze --from 1000000000 --to 1000000199")
    assert re.findall(r"\b[0-9a-f]{64}\b", check) == [ANALYZE_1E9_SHA256]


def test_ci_checks_1e10_window_digest_on_both_backends():
    from test_cli import ANALYZE_1E10_SHA256

    check = both_backends_check("python -W error -m surdcf.cli analyze --from 10000000000 --to 10000000199")
    assert re.findall(r"\b[0-9a-f]{64}\b", check) == [ANALYZE_1E10_SHA256]


def test_ci_checks_gate_window_digest_on_both_backends():
    from test_cli import ANALYZE_GATE_SHA256

    check = both_backends_check("python -W error -m surdcf.cli analyze --from 999999999984 --to 999999999999")
    assert re.findall(r"\b[0-9a-f]{64}\b", check) == [ANALYZE_GATE_SHA256]


# stdout sha256 of `analyze` over these ranges and formats, the same on
# both backends.
ANALYZE_CSV_AND_TEXT_SHA256 = [
    ("--from 2 --to 100000 --format csv",
     "e987523f2074b36356bfbd1bd62ea73c1458692519ec4da9b0a12a77abbecde9"),
    ("--from 50000000 --to 50000999 --format csv",
     "751589497f2c175e3ca98b6c0e03609f2d87d17eb2ee2eb4de6fa075653ccf6f"),
    ("--from 2 --to 100000 --format text",
     "6b2a5ff9e676fb37183012a3addd57fd9b0700d9761a2084108288c8cb7ace9c"),
]


def test_ci_checks_analyze_csv_and_text_digests_on_both_backends():
    # period_stats and the text report: one step, each command on each
    # backend piped into its own check, in this order.
    (args, _), *_ = ANALYZE_CSV_AND_TEXT_SHA256
    check = both_backends_check(f"python -W error -m surdcf.cli analyze {args}")
    commands = [line.strip() for line in check.splitlines() if "surdcf.cli analyze" in line]
    assert commands == [
        f'PYTHONPATH=src python -W error -m surdcf.cli analyze {args} --kernel "$kernel"'
        f' | sha256sum -c <(echo "{digest}  -")'
        for args, digest in ANALYZE_CSV_AND_TEXT_SHA256
    ]


def test_ci_checks_registry_digest_on_a_pipe():
    from test_cli import VERIFY_REGISTRY_SHA256

    check = digest_check("python -W error -m surdcf.cli verify-families")
    assert re.findall(r"\b[0-9a-f]{64}\b", check) == [VERIFY_REGISTRY_SHA256]


def test_ci_checks_registry_text_digest_with_warnings_as_errors():
    from test_cli import VERIFY_REGISTRY_TEXT_SHA256

    # Under -W error a warning from the expression parser fails the step.
    check = digest_check("python -W error -m surdcf.cli verify-families --format text")
    assert re.findall(r"\b[0-9a-f]{64}\b", check) == [VERIFY_REGISTRY_TEXT_SHA256]


def test_ci_runs_analyze_and_mine_digests_with_warnings_as_errors():
    # A float32 divide by zero or invalid value in the sweep kernel raises
    # RuntimeWarning under -W error, and fails the step.
    commands = [line.strip() for run in digest_checks() for line in run.splitlines()
                if re.search(r"surdcf\.cli (analyze|mine) ", line)]
    assert len(commands) == 14
    assert all(command.startswith("PYTHONPATH=src python -W error -m surdcf.cli ")
               for command in commands)


def test_ci_checks_analyze_digest_through_the_pool():
    from test_cli import ANALYZE_1E6_SHA256

    from surdcf import _kernels, analyzer

    # The one real-process pool check: 2..10^6 splits into several chunks on
    # the default kernel, so --jobs 2 runs them in a pool of two.
    assert len(analyzer._chunks(2, 1_000_000, 2, _kernels.backend_name(None))) >= 2
    check = digest_check("python -W error -m surdcf.cli analyze --from 2 --to 1000000 --jobs 2")
    assert re.findall(r"\b[0-9a-f]{64}\b", check) == [ANALYZE_1E6_SHA256]


def test_ci_checks_analyze_digest_at_jobs_2_in_process():
    from test_cli import ANALYZE_1E5_SHA256

    from surdcf import _kernels, analyzer

    # 2..10^5 is one chunk at --jobs 2, so the step runs it in-process.
    assert len(analyzer._chunks(2, 100_000, 2, _kernels.backend_name(None))) == 1
    check = digest_check("python -W error -m surdcf.cli analyze --from 2 --to 100000 --jobs 2")
    assert re.findall(r"\b[0-9a-f]{64}\b", check) == [ANALYZE_1E5_SHA256]


def test_ci_checks_mine_sweep_digest_in_process():
    from test_cli import MINE_SWEEP_SHA256

    check = digest_check("python -W error -m surdcf.cli mine --sweep --max-len 10 --max-entry 8")
    assert re.findall(r"\b[0-9a-f]{64}\b", check) == [MINE_SWEEP_SHA256]


def test_ci_checks_mine_sweep_text_digest():
    from test_cli import MINE_SWEEP_TEXT_SHA256

    check = digest_check("python -W error -m surdcf.cli mine --sweep --max-len 10 --max-entry 8 --format text")
    assert re.findall(r"\b[0-9a-f]{64}\b", check) == [MINE_SWEEP_TEXT_SHA256]


def test_ci_checks_sequences_digest():
    from test_cli import SEQUENCES_PINNED, SEQUENCES_SHA256, SEQUENCES_WITH_M

    # The step pipes a group of commands, so no one command precedes the pipe.
    (check,) = [run for run in digest_checks() if "surdcf.cli sequences" in run]
    assert "set -o pipefail" in check
    commands = [line.strip() for line in check.splitlines() if "surdcf.cli sequences" in line]
    assert len(commands) == 2
    assert all(command.startswith("PYTHONPATH=src python -W error -m surdcf.cli sequences ")
               for command in commands)
    # The step's loops run the same 18 commands as the pinned test, in order.
    loops = re.findall(r"^\s*for \w+ in (.*); do$", check, re.M)
    assert [loop.split() for loop in loops] == [SEQUENCES_PINNED, SEQUENCES_WITH_M, ["1", "2", "3"]]
    assert "--count 60 --format csv" in check
    assert re.findall(r"\b[0-9a-f]{64}\b", check) == [SEQUENCES_SHA256]


def test_ci_checks_long_mine_sweep_digest():
    from test_cli import MINE_SWEEP_26_2_SHA256

    check = digest_check("python -W error -m surdcf.cli mine --sweep --max-len 26 --max-entry 2")
    assert re.findall(r"\b[0-9a-f]{64}\b", check) == [MINE_SWEEP_26_2_SHA256]


def test_ci_checks_larger_mine_sweep_digest():
    from test_cli import MINE_SWEEP_12_8_SHA256

    check = digest_check("python -W error -m surdcf.cli mine --sweep --max-len 12 --max-entry 8")
    assert re.findall(r"\b[0-9a-f]{64}\b", check) == [MINE_SWEEP_12_8_SHA256]


# The argv that the CI step runs through ``check``, with the exit code each
# must give; each is a case of ``test_cli.ERROR_PATHS``.
CI_ERROR_PATHS = [
    ("expand 16", 2),
    ("mine --pattern 1,2", 1),
    ("surd --p -5 --q 1 --d 29 --max-steps 0", 1),
    ("analyze --from 2 --to 9 --kernel gpu", 1),
    ("verify-families --registry /nonexistent", 1),
    ('verify-families --registry ""', 1),
]


def test_ci_runs_error_paths_in_a_fresh_interpreter():
    from test_cli import ERROR_PATHS

    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    (job,) = workflow["jobs"].values()
    (check,) = [step["run"] for step in job["steps"] if "check() {" in step.get("run", "")]
    # Each run's stderr alone is kept, and a failed run does not end the
    # step before its exit code is compared.
    assert 'err=$(PYTHONPATH=src python -W error -m surdcf.cli "$@" 2>&1 >/dev/null) || code=$?' in check
    # The step fails unless the code is the wanted one and stderr is one
    # line that holds no traceback.
    assert ('if [ "$code" != "$want" ] || [ -z "$err" ] || [[ "$err" == *$\'\\n\'* ]]'
            ' || [[ "$err" == *Traceback* ]]; then') in check
    assert re.findall(r"^check (\d) (.*)$", check, re.M) == [(str(code), argv) for argv, code in CI_ERROR_PATHS]
    table = {argv: (code, err) for argv, code, _, err in ERROR_PATHS}
    for argv, code in CI_ERROR_PATHS:
        assert table[argv][0] == code and table[argv][1].count("\n") == 1


def memory_cap(argv):
    """The run of the one CI step that caps the peak RSS of ``argv``."""
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    (job,) = workflow["jobs"].values()
    command = ", ".join(f'"{arg}"' for arg in ["surdcf.cli", *argv])
    (check,) = [step["run"] for step in job["steps"]
                if "RUSAGE_CHILDREN" in step.get("run", "") and f'"-m", {command}]' in step["run"]]
    # The command runs as a child with stdout discarded, and the step fails
    # when the child's ru_maxrss (KiB on Linux) passes the cap.
    assert "stdout=subprocess.DEVNULL, check=True" in check
    assert "ru_maxrss / 1024" in check
    return check


def test_ci_caps_registry_peak_memory():
    assert "sys.exit(peak_mb > 25)" in memory_cap(["verify-families"])


@pytest.mark.parametrize(
    "argv, cap",
    [
        (["mine", "--sweep", "--max-len", "10", "--max-entry", "8"], 60),
        (["mine", "--sweep", "--max-len", "12", "--max-entry", "8"], 60),
        (["analyze", "--from", "2", "--to", "1000000", "--jobs", "1"], 135),
    ],
    ids=["mine-sweep", "mine-sweep-12-8", "analyze-1e6"],
)
def test_ci_caps_peak_memory(argv, cap):
    assert f"sys.exit(peak_mb > {cap})" in memory_cap(argv)


def start_up_check():
    """The run of the one CI step that reads ``python -X importtime``."""
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    (job,) = workflow["jobs"].values()
    (check,) = [step["run"] for step in job["steps"] if "-X importtime" in step.get("run", "")]
    # A failed run stops the step before its imports are read.
    assert check.startswith("set -e\n")
    return check


@pytest.mark.parametrize(
    "command, unwanted",
    [
        ('python -X importtime -c "import surdcf.cli" 2>&1)', r"(numpy|concurrent\.futures)"),
        ("python -X importtime -m surdcf.cli expand 13 2>&1 >/dev/null)", "numpy"),
        ("python -X importtime -m surdcf.cli verify-families --id euler-l1 --format text"
         " 2>&1 >/dev/null)", "numpy"),
        ("python -X importtime -m surdcf.cli sequences --name pell-p --count 3 2>&1 >/dev/null)",
         "numpy"),
        ("python -X importtime -m surdcf.cli convergents --word 1,2,2,2 2>&1 >/dev/null)", "numpy"),
        ('python -X importtime -c "import surdcf; surdcf.palindrome_b([2, 2], 6);'
         ' surdcf.sum_two_coprime_squares(13)" 2>&1)', "numpy"),
    ],
    ids=["import-cli", "expand", "verify-families-text", "sequences", "convergents", "exact-exports"],
)
def test_ci_checks_start_up_imports(command, unwanted):
    check = start_up_check()
    (var,) = re.findall(rf"^(\w+)=\$\(PYTHONPATH=src {re.escape(command)}$", check, re.M)
    assert f"""if grep -E '\\| +{unwanted}$' <<< "${var}"; then exit 1; fi""" in check.splitlines()
