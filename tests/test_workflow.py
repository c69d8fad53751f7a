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

    check = digest_check("python -m surdcf.cli analyze --from 2 --to 100000")
    assert re.findall(r"\b[0-9a-f]{64}\b", check) == [ANALYZE_1E5_SHA256]


def test_ci_checks_long_period_digest_on_a_pipe():
    from test_cli import ANALYZE_5E7_SHA256

    check = digest_check("python -m surdcf.cli analyze --from 50000000 --to 50000999")
    assert re.findall(r"\b[0-9a-f]{64}\b", check) == [ANALYZE_5E7_SHA256]


def test_ci_checks_deep_window_digest_on_a_pipe():
    from test_cli import ANALYZE_1E9_SHA256

    check = digest_check("python -m surdcf.cli analyze --from 1000000000 --to 1000000199")
    assert re.findall(r"\b[0-9a-f]{64}\b", check) == [ANALYZE_1E9_SHA256]


def test_ci_checks_registry_digest_on_a_pipe():
    from test_cli import VERIFY_REGISTRY_SHA256

    check = digest_check("python -m surdcf.cli verify-families")
    assert re.findall(r"\b[0-9a-f]{64}\b", check) == [VERIFY_REGISTRY_SHA256]


def test_ci_checks_registry_text_digest_with_warnings_as_errors():
    from test_cli import VERIFY_REGISTRY_TEXT_SHA256

    # Under -W error a warning from the expression parser fails the step.
    check = digest_check("python -W error -m surdcf.cli verify-families --format text")
    assert re.findall(r"\b[0-9a-f]{64}\b", check) == [VERIFY_REGISTRY_TEXT_SHA256]


def test_ci_checks_analyze_digest_through_the_pool():
    from test_cli import ANALYZE_1E5_SHA256

    from surdcf import _kernels, analyzer

    # The one real-process pool check: 2..10^5 splits into several chunks on
    # the default kernel, so --jobs 2 runs them in a pool of two.
    assert len(analyzer._chunks(2, 100_000, 2, _kernels.backend_name(None))) >= 2
    check = digest_check("python -m surdcf.cli analyze --from 2 --to 100000 --jobs 2")
    assert re.findall(r"\b[0-9a-f]{64}\b", check) == [ANALYZE_1E5_SHA256]


def test_ci_checks_mine_sweep_digest_in_process():
    from test_cli import MINE_SWEEP_SHA256

    check = digest_check("python -m surdcf.cli mine --sweep --max-len 10 --max-entry 8")
    assert re.findall(r"\b[0-9a-f]{64}\b", check) == [MINE_SWEEP_SHA256]


def test_ci_checks_sequences_digest():
    from test_cli import SEQUENCES_PINNED, SEQUENCES_SHA256, SEQUENCES_WITH_M

    # The step pipes a group of commands, so no one command precedes the pipe.
    (check,) = [run for run in digest_checks() if "python -m surdcf.cli sequences" in run]
    assert "set -o pipefail" in check
    # The step's loops run the same 18 commands as the pinned test, in order.
    loops = re.findall(r"^\s*for \w+ in (.*); do$", check, re.M)
    assert [loop.split() for loop in loops] == [SEQUENCES_PINNED, SEQUENCES_WITH_M, ["1", "2", "3"]]
    assert "--count 60 --format csv" in check
    assert re.findall(r"\b[0-9a-f]{64}\b", check) == [SEQUENCES_SHA256]


def test_ci_checks_long_mine_sweep_digest():
    from test_cli import MINE_SWEEP_26_2_SHA256

    check = digest_check("python -m surdcf.cli mine --sweep --max-len 26 --max-entry 2")
    assert re.findall(r"\b[0-9a-f]{64}\b", check) == [MINE_SWEEP_26_2_SHA256]


def test_ci_caps_registry_peak_memory():
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    (job,) = workflow["jobs"].values()
    (check,) = [step["run"] for step in job["steps"] if "RUSAGE_CHILDREN" in step.get("run", "")]
    # The whole registry runs as a child with stdout discarded, and the step
    # fails when the child's ru_maxrss (KiB on Linux) passes 90 MB.
    assert '[sys.executable, "-m", "surdcf.cli", "verify-families"]' in check
    assert "stdout=subprocess.DEVNULL, check=True" in check
    assert "ru_maxrss / 1024" in check
    assert "sys.exit(peak_mb > 90)" in check
