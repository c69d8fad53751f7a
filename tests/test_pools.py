"""Process pools are sized by the work they get, not by --jobs alone.

A recording stand-in for ProcessPoolExecutor is patched into each module:
it notes ``max_workers`` and maps serially, so no process is started.
"""

import pytest

from surdcf import analyzer, families, miner


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
    # The python backend: the numpy kernel does not split a range this narrow.
    return analyzer.check_claims(2, 10, jobs=jobs, backend="python").to_dict()


def verify_family_dict(jobs):
    fam = families.family_by_id("perron-l3")
    return families.verify_family(fam, budget={"m": 3, "n": 40}, jobs=jobs).to_dict()


def mine_sweep_list(jobs):
    return miner.mine_sweep(3, 2, jobs=jobs)


@pytest.mark.parametrize(
    "module, call, tasks",
    [
        # 9 radicands make 9 chunks
        (analyzer, check_claims_dict, 9),
        # 3 * 40 assignments in chunks of ceil(120 / 64) = 2
        (families, verify_family_dict, 60),
        # the empty word and 8 palindromes of length 1..3 over entries 1..2
        (miner, mine_sweep_list, 9),
    ],
    ids=["check_claims", "verify_family", "mine_sweep"],
)
def test_pool_capped_at_task_count(monkeypatch, module, call, tasks):
    monkeypatch.setattr(RecordingPool, "sizes", [], raising=False)
    monkeypatch.setattr(module, "ProcessPoolExecutor", RecordingPool)
    assert call(64) == call(1)
    assert RecordingPool.sizes == [tasks]
