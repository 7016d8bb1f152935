"""Root finding in one variable, shared by the graph route and the kernel
route: Newton's method in s = kappa**2 (:func:`increasing_root`)."""

from __future__ import annotations

import math
import sys
from typing import Callable

MAX_STEPS = 100


# The descending scan and Brent are gone; perfbench/tracer.py only looks
# these names up (it wraps them and never calls them), until ROADMAP item 1.
def _removed(*args, **kwargs):
    raise RuntimeError("the descending scan and Brent were removed; use increasing_root")


scan_down = probe_geometric = bisect_sign = brentq = _removed


def increasing_root(
    f: Callable[[float], tuple[float, float]],
    lo: float,
    tol: float,
    error: type[Exception],
    *,
    ceiling: float = math.inf,
) -> tuple[float, float, float]:
    """The one root of mu0, as (root, lo, hi) with mu0(lo) <= 0 <= mu0(hi).

    ``f(kappa)`` returns mu0 and its slope dmu0/ds in s = kappa**2; mu0 must
    be increasing and concave in s.  The tangent of a concave function lies
    above it, so a Newton step in s from a point with mu0 <= 0 lands at or
    below the root: from ``lo``, a proven lower bound, every iterate is a
    lower bound too, and none goes below ``lo`` (rounding can make mu0
    slightly positive there).  mu0 == 0 at an iterate returns it unchanged.
    Convergence is quadratic, so once a step is at most sqrt(tol) * kappa
    the new iterate is within about tol of the root: mu0 >= 0 at hi = kappa
    (1 + 2 tol), never past ``ceiling``, certifies it; otherwise hi is a
    lower bound and the iteration goes on.  The Newton step down from hi is
    a lower bound too; the larger one is returned, within 2 tol of the root.
    A tol below eps counts as eps, so that hi lies above kappa.  An iterate
    above ``ceiling``, a value or step that is not finite, a slope that is
    not positive and MAX_STEPS values without convergence raise ``error``.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol_kappa must be positive and finite, got {tol!r}")
    tol = max(tol, sys.float_info.epsilon)
    floor = kappa = lo
    root = None  # the converged iterate while kappa is its certificate point
    for _ in range(MAX_STEPS):
        if kappa > ceiling:
            raise error(f"mu0 < 0 at the ceiling kappa_max={ceiling!r}: "
                        f"the ground state lies above it, at kappa >= {kappa!r}")
        mu, slope = f(kappa)
        s = kappa * kappa - mu / slope if slope > 0.0 else math.nan
        if not math.isfinite(s):
            raise error(f"mu0 is not finite and increasing at kappa={kappa!r}")
        new = math.sqrt(max(s, floor * floor))
        if root is not None and mu >= 0.0:
            return max(root, new), lo, kappa
        if mu == 0.0:
            return kappa, kappa, kappa
        if mu < 0.0:
            lo = kappa
        if abs(new - kappa) <= math.sqrt(tol) * new and new <= ceiling:
            root, kappa = new, min(new * (1.0 + 2.0 * tol), ceiling)
        else:
            root, kappa = None, new
    raise error(f"mu0 has no root after {MAX_STEPS} Newton steps from kappa={floor!r}")
