"""Root-finder and bracketing-scan tests on synthetic functions."""

import math
from dataclasses import fields

import numpy as np
import pytest
import scipy.optimize

from qgbind.rootscan import (
    DipReport,
    ScanOutcome,
    _refine_dip,
    bisect_sign,
    brentq,
    increasing_root,
    probe_geometric,
    scan_down,
)


def linear_root_at(r):
    return lambda k: np.asarray(k) - r


def test_brackets_simple_root():
    out = scan_down(linear_root_at(2.0), hi=5.0, step=0.01)
    lo, hi = out.bracket
    assert lo <= 2.0 <= hi
    assert hi - lo <= 0.01 + 1e-12
    assert not out.at_top
    assert out.dips == ()


def test_picks_largest_root_first():
    # roots at 1 and 3; the downward walk must stop at 3
    f = lambda k: (np.asarray(k) - 1.0) * (np.asarray(k) - 3.0)
    out = scan_down(f, hi=5.0, step=0.01)
    lo, hi = out.bracket
    assert lo <= 3.0 <= hi
    assert hi > 2.0


def test_exact_grid_zero_collapses_bracket():
    out = scan_down(linear_root_at(4.0), hi=5.0, step=0.25)
    assert out.bracket == (4.0, 4.0)


def test_at_top_flag_when_root_above_ceiling():
    out = scan_down(linear_root_at(10.0), hi=5.0, step=0.1)
    assert out.bracket is None or out.at_top


def test_at_top_flag_when_root_in_first_cell():
    out = scan_down(linear_root_at(4.995), hi=5.0, step=0.01)
    assert out.at_top
    lo, hi = out.bracket
    assert lo <= 4.995 <= hi


def test_no_root_returns_none():
    f = lambda k: np.asarray(k) ** 2 + 1.0
    out = scan_down(f, hi=3.0, step=0.05)
    assert out.bracket is None
    assert out.dips == ()


def test_lazy_walk_stops_early():
    out = scan_down(linear_root_at(4.9), hi=5.0, step=0.001, block=64)
    assert out.bracket is not None
    assert out.evaluations <= 3 * 64


def test_rejects_bad_step():
    with pytest.raises(ValueError):
        scan_down(linear_root_at(1.0), hi=5.0, step=-0.1)
    with pytest.raises(ValueError):
        scan_down(linear_root_at(1.0), hi=0.5, step=1.0, lo=0.9)


def test_non_finite_indicator_raises():
    f = lambda k: np.where(np.asarray(k) > 2.9, np.nan, 1.0)
    with pytest.raises(RuntimeError):
        scan_down(f, hi=3.0, step=0.01)


def test_dip_refinement_recovers_close_root_pair():
    # (k - 2.003)^2 - 4e-6 has roots 2.001 and 2.005; a 0.01 grid offset so
    # both land inside one cell sees no sign change, only a near-zero dip.
    f = lambda k: (np.asarray(k) - 2.003) ** 2 - 4e-6
    out = scan_down(f, hi=2.9985, step=0.01)
    assert out.bracket is not None
    lo, hi = out.bracket
    assert lo <= 2.005 <= hi
    root = bisect_sign(lambda k: float(f(k)), lo, hi, tol=1e-12)
    assert abs(root - 2.005) < 1e-9


def test_unresolved_dip_is_reported():
    # strictly positive with a sharp dip; no root to find
    f = lambda k: (np.asarray(k) - 2.003) ** 2 + 1e-9
    out = scan_down(f, hi=2.9985, step=0.01)
    assert out.bracket is None
    assert len(out.dips) == 1
    assert abs(out.dips[0].kappa - 2.003) < 0.01


def test_bisect_sign_converges():
    root = bisect_sign(lambda k: k * k - 2.0, 1.0, 2.0, tol=1e-13)
    assert abs(root - np.sqrt(2.0)) < 1e-12


def test_bisect_sign_point_bracket():
    assert bisect_sign(lambda k: k - 1.0, 1.0, 1.0, tol=1e-13) == 1.0


def test_bisect_sign_exact_hit():
    assert bisect_sign(lambda k: k - 1.5, 1.0, 2.0, tol=1e-13) == 1.5


def test_probe_geometric_finds_tiny_root():
    bracket = probe_geometric(linear_root_at(1e-5), hi=1e-2, lo=1e-8)
    assert bracket is not None
    lo, hi = bracket
    assert lo <= 1e-5 <= hi


def test_probe_geometric_none_without_root():
    f = lambda k: np.asarray(k) + 1.0
    assert probe_geometric(f, hi=1e-2, lo=1e-8) is None


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


# ------------------------------------------------ the per-cell walk as reference


def _reference_scan_down(
    f_batch, hi, step, *, lo=None, block=2048, dip_ratio=1e-3, dip_refinements=3
):
    """The per-cell walk that ``scan_down`` replaced, kept as its reference."""
    if step <= 0:
        raise ValueError("step must be positive")
    lo = step if lo is None else lo
    if not hi > lo > 0:
        raise ValueError("need hi > lo > 0")
    npts = int(np.floor((hi - lo) / step)) + 1
    if npts < 2:
        npts = 2
        step = hi - lo
    grid = hi - step * np.arange(npts)

    vals = []
    state = {"evals": 0, "fmax": 0.0}

    def ensure(k):
        while len(vals) <= k and len(vals) < npts:
            s = len(vals)
            chunk = np.asarray(f_batch(grid[s : s + block]), dtype=float)
            if not np.all(np.isfinite(chunk)):
                raise RuntimeError("indicator produced a non-finite value")
            vals.extend(chunk.tolist())
            state["evals"] += len(chunk)
            state["fmax"] = max(state["fmax"], float(np.max(np.abs(chunk))))

    def done(bracket, at_top, dips):
        return ScanOutcome(bracket, at_top, tuple(dips), state["evals"])

    ensure(0)
    dips = []
    if vals[0] == 0.0:
        return done((grid[0], grid[0]), True, dips)
    for i in range(npts - 1):
        ensure(i + 1)
        a, b = vals[i], vals[i + 1]
        if b == 0.0:
            return done((grid[i + 1], grid[i + 1]), False, dips)
        if (a < 0) != (b < 0):
            return done((float(grid[i + 1]), float(grid[i])), i == 0, dips)
        if i + 2 < npts:
            ensure(i + 2)
            c = vals[i + 2]
            is_dip = (
                abs(b) <= dip_ratio * state["fmax"]
                and abs(b) < abs(a)
                and abs(b) <= abs(c)
                and (a < 0) == (c < 0)
            )
            if is_dip:
                refined = _refine_dip(
                    f_batch, float(grid[i + 2]), float(grid[i]), step, dip_refinements, state
                )
                if refined is not None:
                    return done(refined, False, dips)
                dips.append(DipReport(float(grid[i + 1]), float(b), step))
    return done(None, False, dips)


def _typed(x):
    """Value with the type of every leaf, so 1.0 and np.float64(1.0) differ."""
    if isinstance(x, (tuple, list)):
        return (type(x).__name__, tuple(_typed(y) for y in x))
    if isinstance(x, (ScanOutcome, DipReport)):
        return (type(x).__name__, tuple(_typed(getattr(x, f.name)) for f in fields(x)))
    return (type(x).__name__, x)


def _run(scan, f, hi, step, **kw):
    """Outcome (or raised exception type) and the size of every f call."""
    sizes = []

    def f_batch(ks):
        sizes.append(len(ks))
        return f(np.asarray(ks))

    try:
        result = _typed(scan(f_batch, hi, step, **kw))
    except RuntimeError as exc:
        result = type(exc).__name__
    return result, sizes


def _assert_same_walk(f, hi, step, **kw):
    new = _run(scan_down, f, hi, step, **kw)
    ref = _run(_reference_scan_down, f, hi, step, **kw)
    assert new == ref
    return new[0]


BLOCKS = [1, 2, 3, 7, 64, 2048]
HI, STEP = 30.0, 0.01


def _cells(block):
    return sorted({c for c in (0, block - 2, block - 1, block) if c >= 0})


def _grid(k, hi=HI):
    # grid value of cell k, computed as scan_down computes it
    return (hi - STEP * np.arange(k + 1))[k]


@pytest.mark.parametrize("block", BLOCKS)
def test_walk_matches_reference_on_exact_grid_zeros(block):
    for cell in _cells(block):
        z = _grid(cell)
        out = _assert_same_walk(lambda k: k - z, HI, STEP, block=block)
        assert out[1][0] == ("tuple", (("float64", z), ("float64", z)))


@pytest.mark.parametrize("block", BLOCKS)
def test_walk_matches_reference_on_roots_between_cells(block):
    for cell in _cells(block):
        r = _grid(cell) - 0.37 * STEP
        out = _assert_same_walk(lambda k: r - k, HI, STEP, block=block)
        assert out[1][0][1][0][1] <= r <= out[1][0][1][1][1]


@pytest.mark.parametrize("block", BLOCKS)
def test_walk_matches_reference_on_dips_at_block_edges(block):
    # near the top few cells are loaded, so fmax is small: a large dip_ratio
    # lets the dip test pass there too
    for cell in [c for c in _cells(block) + [block + 1] if c >= 1]:
        c = _grid(cell)
        unresolved = _assert_same_walk(
            lambda k: (k - c) ** 2 + 1e-9, HI, STEP, block=block, dip_ratio=0.5)
        assert len(unresolved[1][2][1]) == 1
        # a close root pair inside the cell below ``cell``
        m = c - 0.3 * STEP
        refined = _assert_same_walk(
            lambda k: (k - m) ** 2 - (0.1 * STEP) ** 2, HI, STEP, block=block, dip_ratio=0.5)
        assert refined[1][0][0] == "tuple"


@pytest.mark.parametrize("block", BLOCKS)
def test_walk_matches_reference_when_a_later_block_is_not_finite(block):
    hi = 100.0
    bad = _grid(3 * block + 1, hi)
    f = lambda k: np.where(k < bad, np.nan, k + 1.0)  # noqa: E731
    assert _assert_same_walk(f, hi, STEP, block=block) == "RuntimeError"
    # a root before the bad block stops the walk first
    root = _grid(block, hi)
    g = lambda k: np.where(k < bad, np.nan, k - root)  # noqa: E731
    assert _assert_same_walk(g, hi, STEP, block=block)[0] == "ScanOutcome"


def test_walk_matches_reference_on_short_grids():
    for npts in (2, 3, 5, 100):
        hi = STEP * npts
        for f in (lambda k: k + 1.0, lambda k: k - hi, lambda k: 0.5 * hi - k):
            for block in BLOCKS:
                _assert_same_walk(f, hi, STEP, block=block)


def test_walk_matches_reference_on_random_indicators():
    rng = np.random.default_rng(20261018)
    for _ in range(300):
        block = int(rng.choice(BLOCKS))
        hi = float(rng.uniform(0.5, 5.0))
        step = float(rng.choice([1e-3, 3e-3, 1e-2, 0.05]))
        roots = rng.uniform(0.0, hi, size=int(rng.integers(0, 4)))
        growth = float(rng.uniform(-3.0, 3.0))
        shift = float(rng.choice([0.0, 1e-9, 1e-6, -1e-7]))
        centre = float(rng.uniform(0.0, hi))
        kind = int(rng.integers(0, 4))

        def f(k, roots=roots, growth=growth, shift=shift, centre=centre, kind=kind):
            base = np.exp(growth * k)
            if kind == 0:
                return base * np.prod([k - r for r in roots], axis=0)
            if kind == 1:
                return base * ((k - centre) ** 2 + shift)
            if kind == 2:
                return base * np.sin(40.0 * k) + shift
            return np.round(np.cos(7.0 * k), 2)  # plateaus and exact zeros

        _assert_same_walk(f, hi, step, block=block,
                          dip_ratio=float(rng.choice([1e-3, 1e-1, 1.0])))
