"""Process pools are sized by the work they get, not by --jobs alone.

A recording stand-in for ProcessPoolExecutor is patched into ``_fanout``,
the package's one fan-out: it notes ``max_workers`` and the task count and
maps serially, so no process is started.  The analyzer's range chunks and
the miner's spans of its palindrome order go through it; the family
verifier runs in-process and opens no pool.
"""

import json

import pytest

from surdcf import _fanout, analyzer, miner
from surdcf.cli import main


class RecordingPool:
    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        items = list(items)
        self.tasks.append(len(items))
        return map(fn, items)


def check_claims_dict(jobs):
    # The python backend: the numpy kernel does not split a range this narrow.
    return analyzer.check_claims(2, 10, jobs=jobs, backend="python").to_dict()


def mine_sweep_list(jobs):
    return miner.mine_sweep(3, 2, jobs=jobs)


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(RecordingPool, "sizes", [], raising=False)
    monkeypatch.setattr(RecordingPool, "tasks", [], raising=False)
    monkeypatch.setattr(_fanout, "ProcessPoolExecutor", RecordingPool)
    return RecordingPool


@pytest.mark.parametrize(
    "call, tasks",
    [
        # 9 radicands make 9 chunks
        (check_claims_dict, 9),
        # 9 palindromes in 7 units (the empty word; lengths 1..3 by leading
        # entry 1..2), grouped into 6 spans of about equal palindrome count
        (mine_sweep_list, 6),
    ],
    ids=["check_claims", "mine_sweep"],
)
def test_pool_capped_at_task_count(recording_pool, call, tasks):
    assert call(64) == call(1)
    assert recording_pool.sizes == [tasks]


def test_mine_sweep_maps_contiguous_slices(recording_pool):
    # 79 palindromes of length <= 6 over entries 1..3 go out as at most
    # 4 * jobs spans, not one task per palindrome.
    assert miner.mine_sweep(6, 3, jobs=2) == miner.mine_sweep(6, 3)
    assert recording_pool.sizes == [2]
    assert len(recording_pool.tasks) == 1 and 1 < recording_pool.tasks[0] <= 8


class RaisingPool:
    def __init__(self, max_workers):
        raise AssertionError("a process pool was opened")


def test_verify_families_opens_no_pool(capsys, monkeypatch):
    # The verifier runs in-process; even a family of 3 * 70 assignments
    # never reaches the fan-out.
    monkeypatch.setattr(_fanout, "ProcessPoolExecutor", RaisingPool)
    argv = ["verify-families", "--id", "perron-l3", "--id", "euler-l1", "--m-max", "3", "--n-max", "70"]
    assert main(argv) == 0
    assert [json.loads(line)["tested"] for line in capsys.readouterr().out.splitlines()] == [210, 70]
