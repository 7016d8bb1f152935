"""Root-finder tests on synthetic functions."""

import math

import pytest
import scipy.optimize

from qgbind import rootscan
from qgbind.rootscan import brentq, increasing_root


# ------------------------------------------------ Brent and the increasing root

_BRENT_CASES = [
    (lambda x: x * x - 2.0, 0.0, 2.0, {}),
    (lambda x: math.exp(x) - 3.0, -5.0, 5.0, {"xtol": 1e-15}),
    (lambda x: x**3, -1.0, 0.5, {}),  # triple root at 0: neither converges
    (lambda x: (x - 0.1) ** 3, -1.0, 0.5, {}),  # off zero: bisection steps
    (lambda x: math.tanh(50.0 * (x - 0.3)), 0.0, 1.0, {"xtol": 1e-14}),
    (lambda x: x - 1e-9 * (1.0 + math.exp(-x)), 1e-12, 1.0, {"xtol": 1e-22}),
    (lambda x: math.cos(x) - x, 2.0, 0.0, {"rtol": 1e-10}),
]


@pytest.mark.parametrize("f,a,b,kwargs", _BRENT_CASES)
def test_brentq_matches_scipy_bit_for_bit(f, a, b, kwargs):
    def run(solver):
        calls = []
        try:
            return solver(lambda x: calls.append(x) or f(x), a, b, **kwargs), calls
        except RuntimeError:
            return "no convergence", calls

    assert run(brentq) == run(scipy.optimize.brentq)


def test_brentq_uses_known_end_values():
    calls = []
    f = lambda x: calls.append(x) or x - 0.25  # noqa: E731
    assert brentq(f, 0.0, 1.0, fa=-0.25, fb=0.75) == brentq(lambda x: x - 0.25, 0.0, 1.0)
    assert 0.0 not in calls and 1.0 not in calls


@pytest.mark.parametrize("f,a,b,error", [
    (lambda x: x + 1.0, 0.0, 1.0, ValueError),  # no sign change
    (lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0, ValueError),
])
def test_brentq_rejects_bad_input(f, a, b, error):
    with pytest.raises(error):
        brentq(f, a, b)


def test_increasing_root_relative_tolerance():
    root, lo, hi = increasing_root(lambda k: k - 3e-9, 1e-9, 2e-9, 1e-12, RuntimeError)
    assert lo == 1e-9 and hi == 4e-9
    assert abs(root - 3e-9) <= 1e-12 * 3e-9


def test_increasing_root_exact_lower_bound():
    calls = []
    f = lambda k: calls.append(k) or k - 2.0  # noqa: E731
    assert increasing_root(f, 2.0, 4.0, 1e-12, RuntimeError) == (2.0, 2.0, 2.0)
    assert calls == [2.0]


def test_increasing_root_halves_a_rounded_lower_bound():
    calls = []
    f = lambda k: calls.append(k) or k - 1.0  # noqa: E731
    root, lo, hi = increasing_root(f, 1.0 + 1e-15, 3.0, 1e-12, RuntimeError)
    assert (lo, hi) == (0.5 * (1.0 + 1e-15), 1.0 + 1e-15)
    assert abs(root - 1.0) <= 1e-12
    assert len(calls) == len(set(calls))  # the positive point is not evaluated again


def test_increasing_root_ceiling_is_hard():
    f = lambda k: k - 5.0  # noqa: E731
    assert increasing_root(f, 1.0, 2.0, 1e-12, RuntimeError, ceiling=5.0)[1:] == (1.0, 5.0)
    with pytest.raises(KeyError, match="ceiling"):
        increasing_root(f, 1.0, 2.0, 1e-12, KeyError, ceiling=4.0)
    with pytest.raises(KeyError, match="ceiling"):
        increasing_root(f, 6.0, 12.0, 1e-12, KeyError, ceiling=4.0)


def test_increasing_root_gives_up_after_60_doublings():
    with pytest.raises(KeyError, match="no sign change"):
        increasing_root(lambda k: -1.0, 1.0, 2.0, 1e-12, KeyError)


# ------------------------------- the scan's bracketing contract, on the one root


def test_brackets_simple_root():
    f = lambda k: k - 2.5  # noqa: E731
    root, lo, hi = increasing_root(f, 0.5, 1.0, 1e-12, RuntimeError)
    assert (lo, hi) == (0.5, 4.0)
    assert f(lo) <= 0.0 <= f(hi)
    assert lo <= root <= hi
    assert abs(root - 2.5) <= 1e-12 * 2.5


def test_exact_grid_zero_collapses_bracket():
    # the lower bound rounds positive; its first halving hits the root exactly
    calls = []
    f = lambda k: calls.append(k) or k - 1.0  # noqa: E731
    assert increasing_root(f, 2.0, 4.0, 1e-12, RuntimeError) == (1.0, 1.0, 1.0)
    assert calls == [2.0, 1.0]


def test_at_top_flag_when_root_above_ceiling():
    # a root above the ceiling is an error, raised once the ceiling itself is tried
    calls = []
    f = lambda k: calls.append(k) or k - 10.0  # noqa: E731
    with pytest.raises(KeyError, match="lies above it"):
        increasing_root(f, 1.0, 2.0, 1e-12, KeyError, ceiling=5.0)
    assert calls == [1.0, 2.0, 4.0, 5.0]


def test_lazy_walk_stops_early():
    # the doubling walk stops at its first non-negative value
    calls = []
    f = lambda k: calls.append(k) or k - 1000.0  # noqa: E731
    root, lo, hi = increasing_root(f, 1e-3, 2e-3, 1e-12, RuntimeError)
    assert calls[:21] == [1e-3] + [2e-3 * 2.0**n for n in range(20)]
    assert max(calls) == hi < 2000.0
    assert abs(root - 1000.0) <= 1e-12 * 1000.0


def test_rejects_bad_step():
    # xtol is the smallest step Brent takes
    for xtol in (0.0, -0.1, math.nan):
        with pytest.raises(ValueError, match="xtol"):
            brentq(lambda x: x - 0.5, 0.0, 1.0, xtol=xtol)
    with pytest.raises(ValueError, match="xtol"):
        increasing_root(lambda k: k - 0.5, 0.25, 1.0, 0.0, KeyError)


def test_non_finite_indicator_raises():
    # NaN is neither <= 0 nor >= 0, so it ends no walk and is never a root
    above = lambda k: math.nan if k > 2.9 else k - 3.0  # noqa: E731
    with pytest.raises(KeyError, match="no sign change"):
        increasing_root(above, 1.0, 2.0, 1e-12, KeyError)
    with pytest.raises(KeyError, match="stays positive"):
        increasing_root(lambda k: math.nan, 1.0, 2.0, 1e-12, KeyError)


def test_removed_scan_names_raise():
    for name in ("scan_down", "probe_geometric", "bisect_sign"):
        with pytest.raises(RuntimeError, match="use increasing_root"):
            getattr(rootscan, name)(lambda k: k, 1.0, 0.5)
