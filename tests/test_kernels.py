from math import isqrt

import numpy as np
import pytest

from conftest import brute_two_coprime_squares, sqrt_full_walk
from surdcf import _kernels, analyzer, engine
from surdcf.engine import expand_sqrt
from surdcf.exact import InternalConsistencyError, is_square, sum_two_coprime_squares


def word_facts(a0, word):
    """(center, palindrome, terminal, bound) of a period word with integer
    part a0, read literally: the middle quotient of an even period (-1 for
    an odd one), the word before the last quotient reads the same both ways,
    the last quotient is 2*a0, and no quotient before it exceeds a0."""
    ell, inner = len(word), word[:-1]
    center = word[ell // 2 - 1] if ell % 2 == 0 else -1
    return center, inner == inner[::-1], word[-1] == 2 * a0, max(inner, default=0) <= a0


def engine_row(d):
    """(ell, a0, center, flags) of sqrt(d), read off the literal walk of its
    whole period: no stop rule of the half walk and no mirror.

    The sweep holds no palindrome or terminal flag, since its mirror makes
    both facts true; this walk asserts them for every radicand compared."""
    a0, word = sqrt_full_walk(d)
    center, pal, term, bound = word_facts(a0, word)
    assert pal and term, f"period of sqrt({d}) is not a palindrome closed by 2*a0"
    return len(word), a0, center, _kernels.F_BOUND * bound


def engine_rows(lo, hi):
    return [
        (0, isqrt(d), -1, _kernels.F_SQUARE) if is_square(d) else engine_row(d)
        for d in range(lo, hi)
    ]


def sweep_rows(lo, hi):
    ell, a0, center, flags = _kernels.sweep_range(lo, hi)
    assert ell.size == a0.size == center.size == flags.size == hi - lo
    return list(zip(ell.tolist(), a0.tolist(), center.tolist(), flags.tolist()))


ALL_FACTS = _kernels.F_BOUND


@pytest.mark.parametrize("d, row", [(2, (1, 1, -1)), (13, (5, 3, -1)), (22, (6, 4, 4))])
def test_period_facts_of_engine_periods(d, row):
    # (ell, a0, center) and every fact, the same from the walked word, the
    # engine's expansion, the exact half-walk columns and the kernel sweep.
    a0, word = sqrt_full_walk(d)
    assert word == expand_sqrt(d).period
    assert engine_row(d) == (*row, ALL_FACTS)
    assert [int(col[0]) for col in analyzer._exact_columns(d, d + 1)] == [*row, ALL_FACTS]
    assert sweep_rows(d, d + 1) == [(*row, ALL_FACTS)]


@pytest.mark.parametrize("backend", ["numpy", "python"])
@pytest.mark.parametrize(
    "lo, hi",
    [(2, 3001), (5 * 10**7, 5 * 10**7 + 1000), (999_999_999_984, 10**12)],
    ids=["small-d", "long-periods", "gate"],
)
def test_flags_hold_only_square_and_bound(lo, hi, backend):
    # The palindrome and terminal facts hold by construction of the mirror,
    # so neither source keeps a bit for them: a square's flags are F_SQUARE,
    # and every other radicand's are F_BOUND or 0.
    source = _kernels.sweep_range if backend == "numpy" else analyzer._exact_columns
    flags = np.array(source(lo, hi)[3].tolist())
    square = np.array([is_square(d) for d in range(lo, hi)])
    assert flags.size == hi - lo
    assert np.all(flags[square] == _kernels.F_SQUARE)
    assert set(flags[~square].tolist()) <= {0, _kernels.F_BOUND}


@pytest.mark.parametrize(
    "word, facts",
    [
        ((1, 2, 1, 6), (2, True, True, True)),
        ((1, 2, 2, 6), (2, False, True, True)),
        ((1, 2, 1, 5), (2, True, False, True)),
        ((4, 6), (4, True, True, False)),
    ],
    ids=["none", "palindrome", "terminal", "bound"],
)
def test_each_oracle_fact_can_fail(word, facts):
    # Hand-built words with a0 = 3, not expansions: each breaks one fact, so
    # the oracle the sweep is checked against cannot pass vacuously.
    assert word_facts(3, word) == facts


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

    def spy(live, step, rounds, *cols):
        calls.append((step, rounds, live[0].copy(), live[6].copy()))
        return block(live, step, rounds, *cols)

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


def test_stop_batches_written_mid_walk(monkeypatch):
    # A live set of 64 lanes over 3,900 walked radicands: the stopped lanes
    # are written each time 64 of them have gathered, many times before the
    # walk ends, and once more at its end.
    writes = []
    write = _kernels._Stops.write

    def spy(stops):
        writes.append(stops.size)
        write(stops)

    monkeypatch.setattr(_kernels._Stops, "write", spy)
    monkeypatch.setattr(_kernels, "WIDTH", 64)
    check_against_engine(monkeypatch, 2, 4000)
    sweeps = len(TAILS) * len(BLOCK_RULES)
    assert sum(size >= 64 for size in writes) >= 50 * sweeps
    assert sum(size < 64 for size in writes) <= sweeps


def test_sweep_long_periods_match_engine(monkeypatch):
    # 32 periods here are longer than 8192 quotients, up to 18,624: the
    # lanes walk half of each.
    ell = check_against_engine(monkeypatch, 5 * 10**7, 5 * 10**7 + 1000)
    assert int(ell.max()) == 18_624
    assert int(np.count_nonzero(ell > 8192)) == 32


def test_sweep_matches_engine_at_the_gate(monkeypatch):
    # The widest lane values the gate allows: a0 = 999,999 on [10^12 - 16,
    # 10^12), with periods from 2 to 1,103,497 quotients.  At the default
    # TAIL the 16 walked lanes go straight to the scalar finish; at TAIL 8
    # they run numpy rounds, then blocks, until the 8 short periods stop
    # (the longest of them after 2,057 rounds), and the 8 long lanes hand
    # their float32 state over to the scalar finish.
    lo, hi = 10**12 - 16, 10**12
    want = engine_rows(lo, hi)
    blocks = spy_blocks(monkeypatch)
    for tail, rule in ((_kernels.TAIL, _kernels._block_rounds),
                       (8, _kernels._block_rounds), (8, forced_blocks)):
        monkeypatch.setattr(_kernels, "TAIL", tail)
        monkeypatch.setattr(_kernels, "_block_rounds", rule)
        blocks.clear()
        assert sweep_rows(lo, hi) == want, f"TAIL={tail}, blocks={rule.__name__}"
        assert bool(blocks) == (tail == 8)


def test_lane_values_fit_float32_under_the_gate():
    # Every lane value is an integer of magnitude at most 2 isqrt(d) + 1,
    # which float32 holds exactly below 2^(nmant + 1).
    top = 2 * isqrt(_kernels.KERNEL_D_LIMIT) + 1
    assert top < 2 ** (np.finfo(_kernels.LANE).nmant + 1)


def test_float_quotient_is_floor_division_at_the_top_numerators():
    # floor(fl(x / y)) errs only where x / y lies within x 2^-24 / y below an
    # integer, and that bound is largest at the largest numerators: the
    # walk's R + P <= 2R, and up to 2R + 1.  Every divisor up to 2R + 1.
    R = isqrt(_kernels.KERNEL_D_LIMIT)
    y = np.arange(1, 2 * R + 2, dtype=np.int64)
    y32 = y.astype(_kernels.LANE)
    for x in range(2 * R - 7, 2 * R + 2):
        got = _kernels._quotient(_kernels.LANE(x), y32)
        assert got.dtype == _kernels.LANE
        assert np.array_equal(got, (x // y).astype(_kernels.LANE)), f"x={x}"


def test_isqrt_vec_is_exact_to_the_gate():
    # Each side of every square up to the gate's isqrt; sqrt is monotone, so
    # every d from m^2 to m^2 + 2m between them floors to m as well.
    m = np.arange(1, isqrt(_kernels.KERNEL_D_LIMIT) + 1, dtype=np.int64)
    sq = m * m
    assert np.array_equal(_kernels._isqrt_vec(sq - 1), m - 1)
    for d in (sq, sq + 1, sq + 2 * m):
        assert np.array_equal(_kernels._isqrt_vec(d), m)


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
    # Refilled lanes start afresh: walked from the largest d down, as
    # ``sweep_range`` loads them, a stale largest quotient would exceed the
    # next lane's a0 and clear F_BOUND.  Here the queue runs ascending, so
    # both orders are covered.
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

    def spy(live, step, stops):
        calls.append((live, step, stops))
        finish(live, step, stops)

    monkeypatch.setattr(_kernels, "_finish", spy)
    lo = 5 * 10**7
    ell, _, center, flags = _kernels.sweep_range(lo, lo + 1000)
    ((live, step, stops),) = calls
    lane, R, P, Q, Q_prev, top, start = live
    assert 0 < lane.size <= _kernels.TAIL
    assert 0 < step < int(ell.max()) // 2
    # Each lane is handed over with the largest quotient it walked ...
    for i, t, s in zip(lane.tolist(), top.tolist(), start.tolist()):
        assert t == max(expand_sqrt(lo + i).period[: step - s])
    # ... and the finish keeps it: one above a0 leaves F_BOUND clear.
    cols = np.zeros_like(ell), np.full_like(center, -1), np.zeros_like(flags)
    batch = _kernels._Stops(stops.r, stops.q1, *cols)
    finish((lane, R, P, Q, Q_prev, R + 1, start), step, batch)
    batch.write()
    assert np.array_equal(cols[0][lane], ell[lane])
    assert np.array_equal(cols[1][lane], center[lane])
    assert not np.any(cols[2][lane] & _kernels.F_BOUND)


def test_corrupt_tail_lane_fails_the_hand_off(monkeypatch):
    # One lane's Q off by one when it is handed to the scalar finish: the
    # engine's loop checks P^2 + Q_prev Q == d against the lane's own d,
    # so the sweep raises instead of writing wrong facts for it.
    finish = _kernels._finish

    def corrupt(live, step, stops):
        live[3][0] += 1
        finish(live, step, stops)

    monkeypatch.setattr(_kernels, "_finish", corrupt)
    lo = 5 * 10**7
    with pytest.raises(InternalConsistencyError, match="step left a remainder"):
        _kernels.sweep_range(lo, lo + 1000)


def test_missed_centre_before_the_hand_off_is_reported_first(monkeypatch):
    # Two lanes faked with a wrong a0 (see test_centre_missed_raises): at
    # TAIL 1 sqrt(5)'s misses its centre in the numpy rounds and waits in
    # the batch, and sqrt(11)'s misses it later in the scalar finish.  The
    # first missed lane is the one reported.
    monkeypatch.setattr(_kernels, "TAIL", 1)
    cols = np.zeros(2, np.int64), np.full(2, -1, np.int64), np.zeros(2, np.uint8)
    with pytest.raises(InternalConsistencyError, match=r"sqrt\(5\) ended without a centre"):
        _kernels._half_walk(np.array([1, 5]), np.array([4, -14]), np.array([0, 1]), *cols)


def test_one_scalar_loop_walks_sqrt_d(monkeypatch):
    # The numpy kernel's tail and the python backend run the engine's one
    # scalar loop, as the verifier does through half_period: a spy on it
    # counts one call per lane handed to the scalar finish ...
    calls, handed = [], []
    resume, finish = engine._resume, _kernels._finish

    def count(*args):
        calls.append(args[0])
        return resume(*args)

    def spy(live, step, stops):
        handed.extend(live[0].tolist())
        finish(live, step, stops)

    monkeypatch.setattr(engine, "_resume", count)
    monkeypatch.setattr(_kernels, "_finish", spy)
    lo = 5 * 10**7
    _kernels.sweep_range(lo, lo + 1000)
    assert 1 <= len(handed) <= _kernels.TAIL
    assert calls == [lo + i for i in handed]
    # ... and one per non-square d with Q_1 > 1 on the exact engine.
    calls.clear()
    analyzer.check_claims(2, 3000, backend="python")
    assert calls == [d for d in range(2, 3001) if d - isqrt(d) ** 2 > 1]


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


def _wide_primes(lo, hi):
    """The sieving primes p = 3 (mod 4) at least as wide as [lo, hi), split
    into those with a multiple in the window and those without."""
    root = isqrt(hi - 1)
    sieve = bytearray([1]) * (root + 1)
    for q in range(2, isqrt(root) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, root + 1, q)))
    primes = [p for p in range(max(hi - lo, 3), root + 1) if sieve[p] and p % 4 == 3]
    hits = [p for p in primes if -lo % p < hi - lo]
    return hits, [p for p in primes if p not in hits]


@pytest.mark.parametrize(
    "lo, hi, wide",
    [
        (10**12 - 1, 10**12, True),  # 3^3 * 7 * 11 * 13 * 37 * 101 * 9901
        (999_999_999_989, 999_999_999_990, True),
        (5 * 10**7 + 1, 5 * 10**7 + 2, True),
        (10**12 - 64, 10**12, True),
        (5 * 10**7, 5 * 10**7 + 1000, True),
        (10**6, 10**6 + 1100, False),
    ],
    ids=["width-1-hit", "width-1-prime", "width-1-small", "1e12-64", "5e7-1000", "wider-than-primes"],
)
def test_two_squares_sieve_matches_trial_division(lo, hi, wide):
    hits, misses = _wide_primes(lo, hi)
    if wide:
        assert misses and (hits or hi - lo == 1)
    else:
        assert not hits and not misses
    mask = _kernels.two_squares_range(lo, hi)
    assert mask.shape == (hi - lo,)
    for i, d in enumerate(range(lo, hi)):
        assert bool(mask[i]) == (d > 1 and sum_two_coprime_squares(d)), f"d={d}"


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
