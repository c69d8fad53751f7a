from math import isqrt

import pytest

from conftest import brute_two_coprime_squares
from surdcf import _kernels
from surdcf.engine import expand_sqrt, period_facts
from surdcf.exact import is_square


def engine_row(d):
    cf = expand_sqrt(d)
    center, pal, term, bound = period_facts(cf)
    flags = _kernels.F_PAL * pal | _kernels.F_TERM * term | _kernels.F_BOUND * bound
    return cf.length, cf.a0, center, flags


@pytest.mark.parametrize(
    "lo, hi, buf_len",
    [
        (2, 4000, _kernels.WORD_BUFFER),
        # Three full sweep blocks and a partial one, at larger d.
        (100_001, 103_201, _kernels.WORD_BUFFER),
        # Many periods here are longer than the buffer: those lanes must be
        # flagged with their partial words dropped, the rest stay exact.
        (5 * 10**7, 5 * 10**7 + 200, 1024),
    ],
    ids=["small-d", "block-edges", "overflow"],
)
def test_sweep_matches_engine(lo, hi, buf_len):
    ell, a0, center, flags = _kernels.sweep_range(lo, hi, buf_len=buf_len)
    overflowed = 0
    for i, d in enumerate(range(lo, hi)):
        if is_square(d):
            assert flags[i] == _kernels.F_SQUARE
            continue
        want = engine_row(d)
        if want[0] > buf_len:
            overflowed += 1
            want = (0, want[1], -1, _kernels.F_OVERFLOW)
        assert (ell[i], a0[i], center[i], int(flags[i])) == want, f"d={d}"
    assert (overflowed > 0) == (buf_len < _kernels.WORD_BUFFER)


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


def test_overflow_lanes_marked():
    ell, _, _, flags = _kernels.sweep_range(2, 500, buf_len=4)
    for i, d in enumerate(range(2, 500)):
        if is_square(d):
            continue
        true_len = expand_sqrt(d).length
        if true_len > 4:
            assert flags[i] & _kernels.F_OVERFLOW
        else:
            assert ell[i] == true_len


def test_backend_env_override(monkeypatch):
    monkeypatch.setenv("SURDCF_KERNEL", "numpy")
    assert _kernels.backend_name() == "numpy"
    monkeypatch.setenv("SURDCF_KERNEL", "python")
    assert _kernels.backend_name() == "python"
    monkeypatch.delenv("SURDCF_KERNEL")
    assert _kernels.backend_name() == "numpy"
    assert _kernels.backend_name("python") == "python"
    for bad in ("jit", "nump"):
        monkeypatch.setenv("SURDCF_KERNEL", bad)
        with pytest.raises(ValueError, match=r"numpy\|python"):
            _kernels.backend_name()


def test_range_gates():
    with pytest.raises(ValueError):
        _kernels.sweep_range(0, 10)
    with pytest.raises(ValueError):
        _kernels.sweep_range(2, _kernels.KERNEL_D_LIMIT + 2)
