"""Process pools are sized by the work they get and the CPU count, not by
--jobs alone.

A recording stand-in for ProcessPoolExecutor is patched into
``concurrent.futures``, where ``analyzer._map_chunks``, the package's one
fan-out, imports it from: it notes ``max_workers`` and maps serially, so no
process is started.  The analyzer's range chunks go through it, and the
CPU count that caps them is patched too; the family verifier and the miner
run in-process and open no pool.  In a fresh interpreter, only a pool that
opens imports ``concurrent.futures``.
"""

import concurrent.futures
import json

import pytest

from surdcf import analyzer
from surdcf.cli import main


class RecordingPool:
    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def check_claims_dict(jobs):
    # The python backend, on a range far too small to pay for a pool unless
    # ``cheap_pools`` lowers the work a worker must get.
    return analyzer.check_claims(2, 10, jobs=jobs, backend="python").to_dict()


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(RecordingPool, "sizes", [], raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return RecordingPool


@pytest.fixture
def cheap_pools(monkeypatch):
    """Every radicand's work pays for a worker of its own."""
    monkeypatch.setattr(analyzer, "EXACT_POOL_MIN_WORK", 1)


def patch_cpu_count(monkeypatch, cpus):
    monkeypatch.setattr(analyzer.os, "cpu_count", lambda: cpus)


@pytest.mark.parametrize(
    "call, tasks",
    [
        # 9 radicands make 9 chunks
        (check_claims_dict, 9),
    ],
    ids=["check_claims"],
)
def test_pool_capped_at_task_count(recording_pool, cheap_pools, monkeypatch, call, tasks):
    patch_cpu_count(monkeypatch, 64)
    assert call(64) == call(1)
    assert recording_pool.sizes == [tasks]


@pytest.mark.parametrize(
    "cpus, sizes",
    [
        # jobs 64 becomes 2: 2 chunks of the 9 radicands, in a pool of 2
        (2, [2]),
        # an unknown CPU count counts as one CPU, so the chunks run in-process
        (None, []),
    ],
    ids=["2-cpus", "unknown"],
)
def test_pool_capped_at_cpu_count(recording_pool, cheap_pools, monkeypatch, cpus, sizes):
    patch_cpu_count(monkeypatch, cpus)
    assert check_claims_dict(64) == check_claims_dict(1)
    assert recording_pool.sizes == sizes


@pytest.mark.parametrize("backend", ["numpy", "python"])
def test_small_range_opens_no_pool(recording_pool, monkeypatch, backend):
    # 2..10 at jobs 64 on 64 CPUs is one chunk, run in-process, on either engine.
    patch_cpu_count(monkeypatch, 64)
    report = analyzer.check_claims(2, 10, jobs=64, backend=backend)
    assert report.tested == 7 and recording_pool.sizes == []


class RaisingPool:
    def __init__(self, max_workers):
        raise AssertionError("a process pool was opened")


@pytest.mark.parametrize(
    "argv, key, want",
    [
        # even a family of 3 * 70 assignments never reaches the fan-out
        (["verify-families", "--id", "perron-l3", "--id", "euler-l1", "--m-max", "3", "--n-max", "70"],
         "tested", [210, 70]),
        # the 57 families of the 79 palindromes of length <= 6 over 1..3
        (["mine", "--sweep", "--max-len", "6", "--max-entry", "3"], "verified_instances", [5] * 57),
    ],
    ids=["verify-families", "mine-sweep"],
)
def test_in_process_commands_open_no_pool(capsys, monkeypatch, argv, key, want):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RaisingPool)
    assert main(argv) == 0
    assert [json.loads(line)[key] for line in capsys.readouterr().out.splitlines()] == want


@pytest.mark.parametrize("jobs, pooled", [(2, True), (1, False)], ids=["pool", "in-process"])
def test_only_a_pool_loads_concurrent_futures(jobs, pooled):
    # A fresh interpreter, since this one has patched the pool in; with
    # every radicand paying for a worker, --jobs 2 opens a real pool of two.
    from test_imports import modules_after

    _, outside = modules_after(
        "import os\n"
        "from surdcf import analyzer\n"
        "analyzer.EXACT_POOL_MIN_WORK = 1\n"
        "os.cpu_count = lambda: 2\n"
        f"analyzer.check_claims(2, 10, jobs={jobs}, backend='python')\n")
    assert ("concurrent.futures" in outside) is pooled
