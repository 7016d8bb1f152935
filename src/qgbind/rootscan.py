"""Root finding in one variable, shared by the graph route and the kernel route.

Both routes solve mu0(kappa) = 0 for an increasing mu0, the smallest
eigenvalue of a symmetric matrix: :func:`increasing_root` brackets the root
between a proven lower bound and a doubled upper one and refines it with
:func:`brentq`, a pure-Python Brent that needs neither scipy nor a grid.
"""

from __future__ import annotations

import math
from typing import Callable


# The descending scan is gone; perfbench/tracer.py only looks these names up
# (it wraps them and never calls them), until ROADMAP item 1.
def _removed(*args, **kwargs):
    raise RuntimeError("the descending scan was removed; use increasing_root")


scan_down = probe_geometric = bisect_sign = _removed


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
