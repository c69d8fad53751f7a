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
