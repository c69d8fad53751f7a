from math import isqrt

import numpy as np
import pytest

from conftest import brute_two_coprime_squares
from surdcf import _kernels
from surdcf.engine import expand_sqrt, period_facts
from surdcf.exact import InternalConsistencyError, is_square


def engine_row(d):
    cf = expand_sqrt(d)
    center, pal, term, bound = period_facts(cf)
    flags = _kernels.F_PAL * pal | _kernels.F_TERM * term | _kernels.F_BOUND * bound
    return cf.length, cf.a0, center, flags


def engine_rows(lo, hi):
    return [
        (0, isqrt(d), -1, _kernels.F_SQUARE) if is_square(d) else engine_row(d)
        for d in range(lo, hi)
    ]


def sweep_rows(lo, hi):
    ell, a0, center, flags = _kernels.sweep_range(lo, hi)
    assert ell.size == a0.size == center.size == flags.size == hi - lo
    return list(zip(ell.tolist(), a0.tolist(), center.tolist(), flags.tolist()))


# TAIL values every sweep is checked at: numpy rounds to the end, the
# default, and the scalar finish as soon as the queue is empty (no live set
# is wider).
TAILS = (0, _kernels.TAIL, 1 << 62)

# Rounds in every block of the drain under ``forced_blocks``.
FORCED = 13


def forced_blocks(walked, live):
    """Blocks of FORCED rounds from the first round the queue is empty."""
    return FORCED


# Block rules every sweep is checked under: the default, which steps one
# round at a time until every live lane has walked 32 rounds, and FORCED.
BLOCK_RULES = (_kernels._block_rounds, forced_blocks)


def check_against_engine(monkeypatch, lo, hi):
    """Sweep [lo, hi) at each of TAILS and BLOCK_RULES; each must match the
    engine row by row."""
    want = engine_rows(lo, hi)
    for tail in TAILS:
        for rule in BLOCK_RULES:
            monkeypatch.setattr(_kernels, "TAIL", tail)
            monkeypatch.setattr(_kernels, "_block_rounds", rule)
            got = sweep_rows(lo, hi)
            for d, row, w in zip(range(lo, hi), got, want):
                assert row == w, f"d={d}, TAIL={tail}, blocks={rule.__name__}"
    return np.array([row[0] for row in got])


def spy_blocks(monkeypatch):
    """Record (step, rounds, lane, start) of every block the drain runs."""
    calls = []
    block = _kernels._block

    def spy(r, q1, live, step, rounds, *cols):
        calls.append((step, rounds, live[0].copy(), live[6].copy()))
        return block(r, q1, live, step, rounds, *cols)

    monkeypatch.setattr(_kernels, "_block", spy)
    return calls


@pytest.mark.parametrize(
    "lo, hi, width",
    [
        (2, 4000, None),
        # Lanes refilled many times over at larger d.
        (100_001, 103_201, 64),
    ],
    ids=["small-d", "block-edges"],
)
def test_sweep_matches_engine(monkeypatch, lo, hi, width):
    if width is not None:
        monkeypatch.setattr(_kernels, "WIDTH", width)
    check_against_engine(monkeypatch, lo, hi)


def test_sweep_long_periods_match_engine(monkeypatch):
    # 32 periods here are longer than 8192 quotients, up to 18,624: the
    # lanes walk half of each.
    ell = check_against_engine(monkeypatch, 5 * 10**7, 5 * 10**7 + 1000)
    assert int(ell.max()) == 18_624
    assert int(np.count_nonzero(ell > 8192)) == 32


def walked(lo, hi):
    """The radicands in [lo, hi) that the kernel walks: not squares, ell > 1."""
    return [d for d in range(lo, hi) if d - isqrt(d) ** 2 > 1]


@pytest.mark.parametrize("short", [1, 7])
def test_refill_with_queue_short_of_width(monkeypatch, short):
    # The queue holds `short` radicands beyond the first live set.  The
    # first round finishes more lanes than that (every ell of 2 or 3), so
    # the queue empties part way through a round and the set compacts.
    lo, hi = 2, 4000
    queue = walked(lo, hi)
    width = len(queue) - short
    assert sum(expand_sqrt(d).length in (2, 3) for d in queue[:width]) > short
    monkeypatch.setattr(_kernels, "WIDTH", width)
    check_against_engine(monkeypatch, lo, hi)


def test_refill_one_lane(monkeypatch):
    monkeypatch.setattr(_kernels, "WIDTH", 1)
    check_against_engine(monkeypatch, 2, 600)


def test_refill_in_any_queue_order(monkeypatch):
    # Refilled lanes start afresh: walked from the largest d down, a stale
    # largest quotient would exceed the next lane's a0 and clear F_BOUND.
    walk = _kernels._half_walk
    monkeypatch.setattr(
        _kernels, "_half_walk", lambda r, q1, queue, *cols: walk(r, q1, queue[::-1], *cols)
    )
    monkeypatch.setattr(_kernels, "WIDTH", 3)
    check_against_engine(monkeypatch, 2, 600)


@pytest.mark.parametrize(
    "lo, hi", [(4, 6), (25, 27), (5, 5)], ids=["4-5", "25-26", "empty"]
)
def test_no_lane_to_walk(monkeypatch, lo, hi):
    # Squares and d = a0^2 + 1 only, or nothing: filled before the walk.
    assert walked(lo, hi) == []
    check_against_engine(monkeypatch, lo, hi)


@pytest.mark.filterwarnings("error")
def test_centre_missed_raises(monkeypatch):
    # A lane faked with a wrong a0 meets Q == 1 before a centre, at its k-th
    # quotient: in numpy rounds (TAIL 0), in the k-th row of a forced block,
    # and in the scalar finish.  The block's rows past the stop go on with
    # no numpy warning.
    blocks = spy_blocks(monkeypatch)
    for d, a0, k in ((5, 1, 1), (11, 5, 5)):
        assert k < FORCED
        message = rf"sqrt\({d}\) ended without a centre"
        for tail in TAILS:
            for rule in BLOCK_RULES:
                monkeypatch.setattr(_kernels, "TAIL", tail)
                monkeypatch.setattr(_kernels, "_block_rounds", rule)
                blocks.clear()
                cols = np.zeros(1, np.int64), np.full(1, -1, np.int64), np.zeros(1, np.uint8)
                with pytest.raises(InternalConsistencyError, match=message):
                    _kernels._half_walk(np.array([a0]), np.array([d - a0 * a0]), np.array([0]),
                                        *cols)
                if tail == 0 and rule is forced_blocks:
                    assert [(step, rounds) for step, rounds, _, _ in blocks] == [(0, FORCED)]


def test_blocks_stop_at_every_row_offset(monkeypatch):
    # Forced blocks from the first round, with no refill: a lane of [2, 4000)
    # stops at round ell // 2, in row ell // 2 - 1 - step of the block that
    # starts after round step.  Each row sees both even and odd periods.
    lo, hi = 2, 4000
    monkeypatch.setattr(_kernels, "TAIL", 0)
    monkeypatch.setattr(_kernels, "_block_rounds", forced_blocks)
    blocks = spy_blocks(monkeypatch)
    assert sweep_rows(lo, hi) == engine_rows(lo, hi)
    ell = np.array([expand_sqrt(d).length if not is_square(d) else 0 for d in range(lo, hi)])
    seen = set()
    for step, rounds, lane, start in blocks:
        assert rounds == FORCED and not start.any()
        row = ell[lane] // 2 - 1 - step
        assert row.min() >= 0
        here = row < rounds
        seen |= set(zip(row[here].tolist(), (ell[lane][here] % 2).tolist()))
    assert seen == {(j, parity) for j in range(FORCED) for parity in (0, 1)}


def test_block_walks_past_short_period(monkeypatch):
    # sqrt(11) = [3; 3, 6]: the lane stops in the first row of a forced
    # block, whose later rows walk the terminal 2 * a0 = 6 > a0 and on into
    # the next period.  Only the rows up to the stop count toward F_BOUND.
    assert expand_sqrt(11).period == (3, 6)
    monkeypatch.setattr(_kernels, "TAIL", 0)
    monkeypatch.setattr(_kernels, "_block_rounds", forced_blocks)
    blocks = spy_blocks(monkeypatch)
    assert sweep_rows(11, 12) == [engine_row(11)]
    assert engine_row(11)[3] & _kernels.F_BOUND
    assert [(step, rounds) for step, rounds, _, _ in blocks] == [(0, FORCED)]


def test_drain_runs_blocks(monkeypatch):
    # The default rule on a narrow window of long periods: once every live
    # lane has walked 32 rounds the drain steps in blocks, each at most 1/16
    # of the rounds every live lane has walked and at most WIDTH lane-rounds.
    blocks = spy_blocks(monkeypatch)
    lo = 5 * 10**7
    _kernels.sweep_range(lo, lo + 1000)
    assert max(rounds for _, rounds, _, _ in blocks) > 1
    for step, rounds, lane, start in blocks:
        assert 1 < rounds <= (step - int(start.max())) // 16
        assert rounds * lane.size <= _kernels.WIDTH
        assert lane.size > _kernels.TAIL
    assert _kernels._block_rounds(31, 1) == 1
    assert _kernels._block_rounds(10**6, _kernels.WIDTH) == 1


def test_scalar_finish_after_numpy_rounds(monkeypatch):
    # At the default TAIL a narrow window with long periods runs numpy
    # rounds until no more than TAIL lanes are live, then hands them to the
    # scalar finish, well before its longest half period.
    calls = []
    finish = _kernels._finish

    def spy(q1, live, step, *cols):
        calls.append((q1, live, step))
        finish(q1, live, step, *cols)

    monkeypatch.setattr(_kernels, "_finish", spy)
    lo = 5 * 10**7
    ell, _, center, flags = _kernels.sweep_range(lo, lo + 1000)
    ((q1, live, step),) = calls
    lane, R, P, Q, Q_prev, top, start = live
    assert 0 < lane.size <= _kernels.TAIL
    assert 0 < step < int(ell.max()) // 2
    # Each lane is handed over with the largest quotient it walked ...
    for i, t, s in zip(lane.tolist(), top.tolist(), start.tolist()):
        assert t == max(expand_sqrt(lo + i).period[: step - s])
    # ... and the finish keeps it: one above a0 leaves F_BOUND clear.
    cols = np.zeros_like(ell), np.full_like(center, -1), np.zeros_like(flags)
    finish(q1, (lane, R, P, Q, Q_prev, R + 1, start), step, *cols)
    assert np.array_equal(cols[0][lane], ell[lane])
    assert np.array_equal(cols[1][lane], center[lane])
    assert not np.any(cols[2][lane] & _kernels.F_BOUND)


def _has_big_3mod4_cofactor(lo, hi):
    """Some d in [lo, hi) has a prime factor = 3 (mod 4) above isqrt(hi - 1)."""
    root = isqrt(hi - 1)
    for d in range(max(lo, 2), hi):
        p = d
        for q in range(2, root + 1):
            while p % q == 0:
                p //= q
        if p > root and p % 4 == 3:
            return True
    return False


@pytest.mark.parametrize(
    "lo, hi",
    [(1, 2500), (10**6, 10**6 + 300)],
    ids=["small-d", "big-cofactor"],
)
def test_two_squares_sieve_matches_brute_force(lo, hi):
    assert _has_big_3mod4_cofactor(lo, hi)
    mask = _kernels.two_squares_range(lo, hi)
    for i, d in enumerate(range(lo, hi)):
        # the sieve covers a >= b >= 1; d = 1 is the lone b = 0 edge
        want = brute_two_coprime_squares(d) if d > 1 else False
        assert bool(mask[i]) == want, f"d={d}"


def test_backend_name():
    assert _kernels.backend_name() == "numpy"
    assert _kernels.backend_name("python") == "python"
    for bad in ("jit", "nump"):
        with pytest.raises(ValueError, match=r"numpy\|python"):
            _kernels.backend_name(bad)


def test_range_gates():
    with pytest.raises(ValueError):
        _kernels.sweep_range(0, 10)
    with pytest.raises(ValueError):
        _kernels.sweep_range(2, _kernels.KERNEL_D_LIMIT + 2)
