"""Root finding in one variable, shared by the graph route and the kernel route.

Both routes solve mu0(kappa) = 0 for an increasing mu0, the smallest
eigenvalue of a symmetric matrix: :func:`increasing_root` brackets the root
between a proven lower bound and a doubled upper one and refines it with
:func:`brentq`, a pure-Python Brent that needs neither scipy nor a grid.

The descending-grid scan (``scan_down`` with its dip refinement,
``probe_geometric`` and ``bisect_sign``) is no longer called by either
route; it stays importable because perfbench/tracer.py rebinds it until
ROADMAP item 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class DipReport:
    """A local minimum of |f| that never produced a sign change."""

    kappa: float
    value: float
    step: float


@dataclass(frozen=True)
class ScanOutcome:
    bracket: tuple[float, float] | None
    at_top: bool
    dips: tuple[DipReport, ...]
    evaluations: int


def scan_down(
    f_batch: Callable[[np.ndarray], np.ndarray],
    hi: float,
    step: float,
    *,
    lo: float | None = None,
    block: int = 2048,
    dip_ratio: float = 1e-3,
    dip_refinements: int = 3,
) -> ScanOutcome:
    """Bracket the largest root of f below ``hi``.

    ``f_batch`` maps an array of kappa values to indicator values and is
    called lazily in blocks, so the walk stops at the first bracket.  An
    exact zero collapses the bracket to a point.  ``at_top`` flags a root in
    the topmost cell (or at ``hi`` itself), which callers treat as a hint
    that the true search ceiling may lie higher.
    """
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
    state = {"evals": 0, "fmax": 0.0}

    def load(s: int) -> np.ndarray:
        chunk = np.asarray(f_batch(grid[s : s + block]), dtype=float)
        if not np.all(np.isfinite(chunk)):
            raise RuntimeError("indicator produced a non-finite value")
        state["evals"] += len(chunk)
        state["fmax"] = max(state["fmax"], float(np.max(np.abs(chunk))))
        return chunk

    def done(bracket, at_top, dips):
        return ScanOutcome(bracket, at_top, tuple(dips), state["evals"])

    # Step i of the walk compares cells i and i+1 (an exact zero at i+1,
    # then a sign change) and then tests cell i+1 for a dip against its
    # neighbours.  Block k is loaded once the walk needs one of its cells,
    # so a dip test sees fmax over the blocks up to its right neighbour's.
    # ``w`` holds the latest block and the two cells before it, from ``base``.
    w = load(0)
    base, loaded, prev = 0, len(w), 0
    dips: list[DipReport] = []
    if w[0] == 0.0:
        return done((grid[0], grid[0]), True, dips)
    while True:
        # steps due now: comparisons up to loaded-2, dip tests up to loaded-3
        # (a dip test needs a cell of the block that was loaded last)
        first = max(prev - 1, 0)
        neg = w < 0
        zero = w[first + 1 - base : loaded - base] == 0.0
        flip = neg[first - base : loaded - 1 - base] != neg[first + 1 - base : loaded - base]
        hits = np.flatnonzero(zero | flip)
        stop = first + int(hits[0]) if hits.size else npts
        d0 = max(prev - 2, 0)
        if loaded - 3 >= d0:
            mag = np.abs(w)
            left = mag[d0 - base : loaded - 2 - base]
            mid = mag[d0 + 1 - base : loaded - 1 - base]
            right = mag[d0 + 2 - base : loaded - base]
            is_dip = (
                (mid <= dip_ratio * state["fmax"])
                & (mid < left)
                & (mid <= right)
                & (neg[d0 - base : loaded - 2 - base] == neg[d0 + 2 - base : loaded - base])
            )
            for i in (d0 + np.flatnonzero(is_dip)).tolist():
                if i >= stop:
                    break
                refined = _refine_dip(
                    f_batch, float(grid[i + 2]), float(grid[i]), step, dip_refinements, state
                )
                if refined is not None:
                    return done(refined, False, dips)
                dips.append(DipReport(float(grid[i + 1]), float(w[i + 1 - base]), step))
        if hits.size:
            i = stop
            if zero[i - first]:
                return done((grid[i + 1], grid[i + 1]), False, dips)
            return done((float(grid[i + 1]), float(grid[i])), i == 0, dips)
        if loaded == npts:
            return done(None, False, dips)
        chunk = load(loaded)
        tail = w[-2:]
        base, prev = loaded - len(tail), loaded
        loaded += len(chunk)
        w = np.concatenate((tail, chunk))


def _refine_dip(f_batch, lo, hi, step, rounds, state):
    for r in range(1, rounds + 1):
        sub = step / 2.0**r
        n = int(round((hi - lo) / sub)) + 1
        pts = hi - sub * np.arange(n)
        v = np.asarray(f_batch(pts), dtype=float)
        state["evals"] += len(v)
        zeros = np.flatnonzero(v == 0.0)
        if zeros.size:
            k = int(zeros[0])
            return (float(pts[k]), float(pts[k]))
        flips = np.flatnonzero(np.signbit(v[:-1]) != np.signbit(v[1:]))
        if flips.size:
            k = int(flips[0])
            return (float(pts[k + 1]), float(pts[k]))
    return None


def bisect_sign(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    *,
    flo: float | None = None,
    max_iter: int = 200,
) -> float:
    """Bisection on the sign of f over a bracketing interval."""
    if lo == hi:
        return lo
    flo = f(lo) if flo is None else flo
    if flo == 0.0:
        return lo
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def probe_geometric(
    f_batch: Callable[[np.ndarray], np.ndarray],
    hi: float,
    lo: float,
    n: int = 40,
) -> tuple[float, float] | None:
    """Look for a sign change on a geometric grid from hi down to lo.

    Used as a cheap tail probe below the uniform scan grid, where a very
    weakly bound root could otherwise be missed.
    """
    pts = np.geomspace(hi, lo, n)
    v = np.asarray(f_batch(pts), dtype=float)
    zeros = np.flatnonzero(v == 0.0)
    if zeros.size:
        k = int(zeros[0])
        return (float(pts[k]), float(pts[k]))
    flips = np.flatnonzero(np.signbit(v[:-1]) != np.signbit(v[1:]))
    if flips.size:
        k = int(flips[0])
        return (float(pts[k + 1]), float(pts[k]))
    return None


def brentq(
    f: Callable[[float], float],
    a: float,
    b: float,
    xtol: float = 2e-12,
    rtol: float = 4 * math.ulp(1.0),
    maxiter: int = 100,
    *,
    fa: float | None = None,
    fb: float | None = None,
) -> float:
    """Root of f in [a, b] by Brent's method, step for step as
    ``scipy.optimize.brentq`` (its C implementation), so both give the same
    bits.

    f(a) and f(b) must differ in sign; ``fa`` and ``fb`` pass values already
    known.  Stops when the bracket is narrower than about
    ``xtol + rtol * |root|``; raises ValueError on a bad bracket or a NaN
    value and RuntimeError after ``maxiter`` steps.
    """
    if not xtol > 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")

    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = a, b
    fpre = value(xpre) if fa is None else fa
    fcur = value(xcur) if fb is None else fb
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)  # interpolate
            else:
                dpre = (fpre - fcur) / (xpre - xcur)  # extrapolate
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"brentq did not converge in {maxiter} iterations")


def increasing_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    error: type[Exception],
    *,
    ceiling: float = math.inf,
) -> tuple[float, float, float]:
    """The one root of f, as (root, lo, hi) with f(lo) <= 0 <= f(hi).

    f must be negative below its root and positive above, as an increasing
    function is; Brent needs no more.  ``lo`` is a proven lower bound
    (f(lo) <= 0); f(lo) == 0 returns lo itself.  Only rounding can make
    f(lo) positive: then lo is halved, at most 60 times, and the last
    positive point is the upper bound.  Otherwise the upper bound starts at
    ``hi`` and doubles, at most 60 times and never past ``ceiling``, until
    f(hi) >= 0.  Brent then refines with xtol = tol * lo, so ``tol`` bounds
    the error relative to the root.  Failures raise ``error``.
    """
    lo, hi, f_hi = min(lo, ceiling), min(hi, ceiling), None
    for _ in range(60):
        f_lo = f(lo)
        if f_lo <= 0.0:
            break
        hi, f_hi = lo, f_lo
        lo *= 0.5
    else:
        raise error(f"mu0 stays positive down to kappa={lo!r}")
    if f_lo == 0.0:
        return lo, lo, lo
    if f_hi is None:
        for _ in range(60):
            f_hi = f(hi)
            if f_hi >= 0.0:
                break
            if hi >= ceiling:
                raise error(f"mu0 < 0 at the ceiling kappa_max={ceiling!r}: "
                            "the ground state lies above it")
            hi = min(2.0 * hi, ceiling)
        else:
            raise error(f"mu0 has no sign change below kappa={hi!r}")
    return brentq(f, lo, hi, xtol=tol * lo, fa=f_lo, fb=f_hi), lo, hi
