"""Root-finder tests: Newton's method in s = kappa**2 on synthetic increasing
concave functions, and the iterates of both routes on random instances."""

import math
import re

import numpy as np
import pytest

from conftest import random_cyclic_graph
from qgbind import LineConfig, LoopConfig, find_ground_state, ground_state_line
from qgbind import line as line_module
from qgbind import rootscan
from qgbind import secular as secular_module
from qgbind.rootscan import increasing_root, increasing_roots


def _sqrt_minus(root, calls=None):
    """mu0(s) = sqrt(s) - root and its slope 1 / (2 sqrt(s))."""
    def f(kappa):
        if calls is not None:
            calls.append(kappa)
        return kappa - root, 0.5 / kappa
    return f


def _one_minus(root, calls=None):
    """mu0(s) = 1 - root**2 / s: steeply curved, Newton roughly doubles s."""
    def f(kappa):
        if calls is not None:
            calls.append(kappa)
        s = kappa * kappa
        return 1.0 - root * root / s, root * root / (s * s)
    return f


def _linear(root, calls=None):
    """mu0(s) = s - root**2, concave only just."""
    def f(kappa):
        if calls is not None:
            calls.append(kappa)
        return kappa * kappa - root * root, 1.0
    return f


# ------------------------------------------------------ Newton on synthetic mu0


def test_increasing_root_relative_tolerance():
    for make in (_sqrt_minus, _one_minus, _linear):
        for root in (3e-9, 1e3):
            f = make(root)
            kappa0, lo, hi = increasing_root(f, root / 50.0, 1e-12, RuntimeError)
            assert abs(kappa0 - root) <= 2e-12 * root
            assert lo <= kappa0 <= hi <= kappa0 * (1 + 2e-12)
            assert f(lo)[0] <= 0.0 <= f(hi)[0]
    # a tol below eps counts as eps: the certificate point still lies above
    root, lo, hi = increasing_root(_one_minus(math.pi), 1.0, 1e-22, RuntimeError)
    assert abs(root - math.pi) <= 4 * math.ulp(math.pi) and lo <= root <= hi


def test_increasing_root_exact_lower_bound():
    calls = []
    assert increasing_root(_sqrt_minus(2.0, calls), 2.0, 1e-12, RuntimeError) == (2.0, 2.0, 2.0)
    assert calls == [2.0]


def test_increasing_root_converges_from_a_rounded_lower_bound():
    # rounding can put mu0 > 0 at the proven lower bound: no iterate goes below it
    calls = []
    lo = 1.0 + 1e-15
    kappa0, _, hi = increasing_root(_one_minus(1.0, calls), lo, 1e-12, RuntimeError)
    assert abs(kappa0 - 1.0) <= 2e-12
    assert min(calls) == lo and calls[-1] == hi


def test_increasing_root_ceiling_is_hard():
    assert increasing_root(_sqrt_minus(4.9), 1.0, 1e-12, KeyError, ceiling=5.0)[2] <= 5.0
    # the certificate point kappa0 (1 + 2 tol) is capped at the ceiling
    ceiling = math.e * (1 + 1e-6)
    assert increasing_root(_one_minus(math.e), 1.0, 1e-6, KeyError, ceiling=ceiling)[2] == ceiling
    with pytest.raises(KeyError, match="ceiling"):
        increasing_root(_sqrt_minus(4.9), 1.0, 1e-12, KeyError, ceiling=4.0)
    calls = []
    with pytest.raises(KeyError, match="ceiling"):
        increasing_root(_sqrt_minus(8.0, calls), 6.0, 1e-12, KeyError, ceiling=4.0)
    assert calls == []  # a lower bound above the ceiling needs no value


def test_increasing_root_gives_up_after_max_steps():
    calls = []

    def creep(kappa):  # each step adds 1e-6 to s, far above tol
        calls.append(kappa)
        return -1.0, 1e6

    with pytest.raises(KeyError, match="no root after 100 Newton steps"):
        increasing_root(creep, 1.0, 1e-12, KeyError)
    assert len(calls) == rootscan.MAX_STEPS == 100


@pytest.mark.parametrize("lo, shortest, e", [
    (1.0, math.inf, 0), (15.99, math.inf, 0), (16.0, math.inf, 1), (0.5, math.inf, -1),
    (1e-160, math.inf, -133), (5e299, math.inf, 248), (1e308, math.inf, 255),
    (4.785e-309, math.inf, -255), (5e-324, math.inf, -255),
    # raised until shortest * sigma >= 2**-500
    (1e-160, 1.0, -125), (1.0, 2.0 ** -600, 25), (1.0, 2.0 ** -600 * 1.5, 25),
])
def test_the_unit_is_a_power_of_16(lo, shortest, e):
    assert rootscan.unit(lo, shortest) == 16.0 ** e


def test_fits_needs_normal_values_and_a_normal_square():
    tiny = 2.0 ** -1022
    assert rootscan.fits(1.0, [0.0, -tiny, 1e308])
    assert rootscan.fits(2.0 ** -511, [])
    assert not rootscan.fits(2.0 ** -512, [])  # its square is subnormal
    assert not rootscan.fits(0.0, [])
    for bad in (tiny / 2, -5e-324, math.inf, -math.inf):
        assert not rootscan.fits(1.0, [1.0, bad])


def test_newton_runs_in_its_unit():
    # the walk sees kappa / unit and returns root, bracket and messages in the
    # caller's units, bit for bit those of the unscaled walk
    calls = []
    unit = 2.0 ** -400
    got = increasing_root(_one_minus(math.pi, calls), 0.5 * unit, 1e-12, KeyError, unit=unit)
    assert calls[0] == 0.5
    plain = increasing_root(_one_minus(math.pi), 0.5, 1e-12, KeyError)
    assert got == tuple(x * unit for x in plain)
    with pytest.raises(KeyError, match=re.escape(f"kappa_max={3.0 * unit!r}")):
        increasing_root(_one_minus(math.pi), 0.5 * unit, 1e-12, KeyError, unit=unit,
                        ceiling=3.0 * unit)


def test_a_root_whose_square_overflows_raises():
    # the root 1 in the unit 2**700 is 2**700, whose square is past the range
    with pytest.raises(KeyError, match=re.escape(f"overflows: kappa0={2.0 ** 700!r}")):
        increasing_root(_sqrt_minus(1.0), 2.0 ** 699, 1e-12, KeyError, unit=2.0 ** 700)


def test_brackets_simple_root():
    # a loose tol stops before Newton lands on the root exactly
    f = _one_minus(math.pi)
    root, lo, hi = increasing_root(f, 0.5, 1e-6, RuntimeError)
    assert f(lo)[0] < 0.0 < f(hi)[0]
    assert lo < root < hi <= root * (1 + 2e-6)
    assert abs(root - math.pi) <= 2e-6 * math.pi


def test_exact_grid_zero_collapses_bracket():
    # a Newton step on mu0 = s - 4 lands on the root exactly
    calls = []
    assert increasing_root(_linear(2.0, calls), 1.0, 1e-12, RuntimeError) == (2.0, 2.0, 2.0)
    assert calls == [1.0, 2.0]


def test_at_top_flag_when_root_above_ceiling():
    # an iterate past the ceiling is a lower bound of the root: raised before
    # any value is taken there
    calls = []
    with pytest.raises(KeyError, match="lies above it"):
        increasing_root(_linear(10.0, calls), 1.0, 1e-12, KeyError, ceiling=5.0)
    assert calls == [1.0]


def test_lazy_walk_stops_early():
    # quadratic convergence: the walk stops at its first step below tol, and
    # only the certificate point lies above the root
    calls = []
    root, lo, hi = increasing_root(_sqrt_minus(1000.0, calls), 500.0, 1e-12, RuntimeError)
    assert len(calls) <= 6
    assert calls[-1] == hi and max(calls[:-1]) <= root
    assert abs(root - 1000.0) <= 2e-12 * 1000.0


def test_rejects_bad_step():
    # tol is the relative step at which Newton stops
    for tol in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol"):
            increasing_root(_sqrt_minus(0.5), 0.25, tol, KeyError)


def test_non_finite_indicator_raises():
    # a NaN value or slope, or a slope that is not positive, ends the walk
    for value in [(math.nan, 1.0), (-1.0, math.nan), (-1.0, 0.0), (-1.0, -2.0), (-math.inf, 1.0)]:
        with pytest.raises(KeyError, match="not finite and increasing"):
            increasing_root(lambda k, value=value: value, 1.0, 1e-12, KeyError)


def test_lockstep_members_match_their_solo_walks():
    # one member passes the ceiling and raises; every other member's
    # (root, lo, hi) is the one its own increasing_root gives, bit for bit
    makes = [_sqrt_minus(2.0), _one_minus(math.pi), _linear(9.0), _sqrt_minus(50.0)]
    los = [1.0, 0.5, 1.0, 1.0]
    rounds = []

    def f(members, kappas):
        rounds.append(list(members))
        values = [makes[i](k) for i, k in zip(members, kappas)]
        return [mu for mu, _ in values], [slope for _, slope in values]

    got = increasing_roots(f, los, 1e-12, KeyError, units=[1.0] * 4, ceiling=20.0)
    assert isinstance(got[3], KeyError) and "ceiling" in str(got[3])
    for i in range(3):
        assert got[i] == increasing_root(makes[i], los[i], 1e-12, KeyError, ceiling=20.0)
    assert rounds[0] == [0, 1, 2, 3] and 3 not in rounds[-1]


def test_removed_scan_names_raise():
    for name in ("scan_down", "probe_geometric", "bisect_sign", "brentq"):
        with pytest.raises(RuntimeError, match="use increasing_root"):
            getattr(rootscan, name)(lambda k: k, 1.0, 0.5)


# ---------------------------------------------- the iterates of both routes


def _record(monkeypatch, module):
    """Every (kappa, mu0) the route's Newton iteration evaluates, in order,
    kappa in the caller's units (the route evaluates kappa / unit)."""
    calls = []

    def recording(f, *args, **kwargs):
        def g(kappa):
            mu, slope = f(kappa)
            calls.append((kappa * kwargs["unit"], mu))
            return mu, slope
        return increasing_root(g, *args, **kwargs)

    monkeypatch.setattr(module, "increasing_root", recording)
    return calls


def _record_batch(monkeypatch, module):
    """The same for a route that solves a batch (rootscan.increasing_roots)."""
    calls = []

    def recording(f, *args, **kwargs):
        def g(members, kappas):
            mu, slope = f(members, kappas)
            calls.extend((k * kwargs["units"][i], m) for i, k, m in zip(members, kappas, mu))
            return mu, slope
        return increasing_roots(g, *args, **kwargs)

    monkeypatch.setattr(module, "increasing_roots", recording)
    return calls


def _check_iterates(calls, kappa0):
    # below the root but for rounding, and the last value certifies it
    assert all(k <= kappa0 * (1 + 1e-12) for k, _ in calls[:-1])
    assert calls[-1][1] >= 0.0


def test_graph_route_iterates_stay_below_the_root(monkeypatch):
    # cycles, parallel edges and short-edge clusters: mu0 of M, and of its
    # Schur complement, stays concave in s
    calls = _record_batch(monkeypatch, secular_module)
    rng = np.random.default_rng(2024)
    for _ in range(100):
        calls.clear()
        gs = find_ground_state(random_cyclic_graph(rng))
        _check_iterates(calls, gs.kappa0)
        assert calls[-1][0] == gs.diagnostics.bracket[1]


def test_kernel_route_iterates_stay_below_the_root(monkeypatch):
    calls = _record(monkeypatch, line_module)
    rng = np.random.default_rng(2025)
    for i in range(100):
        n = int(rng.integers(1, 7))
        strengths = tuple(-10.0 ** rng.uniform(-3, 1, size=n))
        sites = np.cumsum(np.concatenate(([0.0], 10.0 ** rng.uniform(-2, 1, size=n - 1))))
        if i % 2:
            config = LineConfig(tuple(sites), strengths)
        else:
            circumference = sites[-1] + 10.0 ** rng.uniform(-3, 1.5)
            config = LoopConfig(float(circumference), tuple(sites), strengths)
        calls.clear()
        _check_iterates(calls, ground_state_line(config).kappa0)
