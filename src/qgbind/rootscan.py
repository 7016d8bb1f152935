"""Root finding in one variable, shared by the graph route and the kernel
route: Newton's method in s = kappa**2 (:func:`newton_steps`) from a proven
lower bound (:func:`constant_trial_bound`), driven for one root
(:func:`increasing_root`) or for many in lockstep (:func:`increasing_roots`)."""

from __future__ import annotations

import math
import sys
from typing import Callable, Sequence

MAX_STEPS = 100


# The descending scan, Brent and the D x D determinant are gone;
# perfbench/tracer.py only looks these names up (it wraps them and never
# calls them), until ROADMAP item 1.
def _removed(*args, **kwargs):
    raise RuntimeError("the descending scan, Brent and the D x D determinant were "
                       "removed; use increasing_root")


scan_down = probe_geometric = bisect_sign = brentq = _removed


def constant_trial_bound(length: float, leads: int, sum_alpha: float) -> float:
    """The positive root of length * kappa**2 + leads * kappa + sum_alpha: a
    proven lower bound of kappa0 for a graph with finite edges of total
    ``length``, ``leads`` half-lines and vertex strengths summing to
    ``sum_alpha`` < 0.  The constant trial function gives 1^T M 1 <= that
    quadratic (2 tanh(x/2) <= x), so mu0 <= 0 there; a single vertex with no
    finite edge gives exactly -sum_alpha / leads."""
    return -2.0 * sum_alpha / (leads + math.sqrt(leads * leads - 4.0 * length * sum_alpha))


def newton_steps(lo: float, tol: float, error: type[Exception], *, ceiling: float = math.inf):
    """Newton's method in s = kappa**2 for the one root of mu0, one step at a
    time: a generator that yields each kappa, is sent (mu0, dmu0/ds) there
    and returns (root, lo, hi) with mu0(lo) <= 0 <= mu0(hi).

    mu0 must be increasing and concave in s.  The tangent of a concave
    function lies above it, so a Newton step in s from a point with mu0 <= 0
    lands at or below the root: from ``lo``, a proven lower bound, every
    iterate is a lower bound too, and none goes below ``lo`` (rounding can
    make mu0 slightly positive there).  mu0 == 0 at an iterate returns it
    unchanged.  Convergence is quadratic, so once a step is at most
    sqrt(tol) * kappa the new iterate is within about tol of the root: mu0
    >= 0 at hi = kappa (1 + 2 tol), never past ``ceiling``, certifies it;
    otherwise hi is a lower bound and the iteration goes on.  The Newton step
    down from hi is a lower bound too; the larger one is returned, within 2
    tol of the root.  A tol below eps counts as eps, so that hi lies above
    kappa.  An iterate above ``ceiling``, a value or step that is not finite,
    a slope that is not positive, a step that lands on 0 (below about
    kappa = 1.5e-154 both kappa**2 and lo**2 underflow) and MAX_STEPS values
    without convergence raise ``error``, and so does a ``lo`` below which 1 /
    (2 kappa), a lead's or a kernel's scale, overflows, before the first value.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol_kappa must be positive and finite, got {tol!r}")
    if not 2.0 * lo * sys.float_info.max >= 1.0:
        raise error(f"the start bound kappa={lo!r} is too small: 1/(2 kappa) overflows, "
                    "so the couplings are too weak for double precision")
    tol = max(tol, sys.float_info.epsilon)
    floor = kappa = lo
    root = None  # the converged iterate while kappa is its certificate point
    for _ in range(MAX_STEPS):
        if kappa > ceiling:
            raise error(f"mu0 < 0 at the ceiling kappa_max={ceiling!r}: "
                        f"the ground state lies above it, at kappa >= {kappa!r}")
        mu, slope = yield kappa
        s = kappa * kappa - mu / slope if slope > 0.0 else math.nan
        if not math.isfinite(s):
            raise error(f"mu0 is not finite and increasing at kappa={kappa!r}")
        new = math.sqrt(max(s, floor * floor))
        if root is not None and mu >= 0.0:
            return max(root, new), lo, kappa
        if mu == 0.0:
            return kappa, kappa, kappa
        if not new > 0.0:  # kappa**2 and floor**2 left the double range
            raise error(f"the Newton step from kappa={kappa!r} underflows to 0: "
                        "the root lies below what kappa**2 resolves")
        if mu < 0.0:
            lo = kappa
        if abs(new - kappa) <= math.sqrt(tol) * new and new <= ceiling:
            root, kappa = new, min(new * (1.0 + 2.0 * tol), ceiling)
        else:
            root, kappa = None, new
    raise error(f"mu0 has no root after {MAX_STEPS} Newton steps from kappa={floor!r}")


def increasing_root(
    f: Callable[[float], tuple[float, float]],
    lo: float,
    tol: float,
    error: type[Exception],
    *,
    ceiling: float = math.inf,
) -> tuple[float, float, float]:
    """The one root of mu0 by :func:`newton_steps`, as (root, lo, hi);
    ``f(kappa)`` returns mu0 and its slope dmu0/ds in s = kappa**2."""
    steps = newton_steps(lo, tol, error, ceiling=ceiling)
    try:
        kappa = next(steps)
        while True:
            kappa = steps.send(f(kappa))
    except StopIteration as done:
        return done.value


def increasing_roots(
    f: Callable[[list[int], list[float]], tuple[Sequence[float], Sequence[float]]],
    los: Sequence[float],
    tol: float,
    error: type[Exception],
    *,
    ceiling: float = math.inf,
) -> list:
    """The roots of many mu0 in lockstep, one :func:`newton_steps` per lower
    bound in ``los``: ``f(members, kappas)`` returns the values and slopes of
    the listed members at their kappas, all pending members at once.

    Each outcome is (root, lo, hi), or the ``error`` that member raised while
    the others go on.  A member's steps see only its own values, so its
    outcome is the one :func:`increasing_root` gives it alone.
    """
    walks = [newton_steps(lo, tol, error, ceiling=ceiling) for lo in los]
    out: list = [None] * len(walks)
    members, kappas = list(range(len(walks))), [None] * len(walks)
    while members:
        pending, values = [], []
        for i, value in zip(members, kappas):
            try:
                values.append(walks[i].send(value))
                pending.append(i)
            except StopIteration as done:
                out[i] = done.value
            except error as exc:
                out[i] = exc
        if not pending:
            break
        mu, slope = f(pending, values)
        members, kappas = pending, list(zip(mu, slope))
    return out
