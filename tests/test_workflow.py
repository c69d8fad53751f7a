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


def digest_check(command):
    """The run of the one CI step that pipes ``command`` into ``sha256sum -c``."""
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    (job,) = workflow["jobs"].values()
    runs = [step.get("run", "") for step in job["steps"]]
    (check,) = [run for run in runs if "sha256sum -c" in run and f"{command} |" in run]
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
