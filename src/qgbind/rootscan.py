"""Root finding in one variable, shared by the graph route and the kernel
route: Newton's method in s = kappa**2 (:func:`newton_steps`) from a proven
lower bound (:func:`constant_trial_bound`), driven for one root
(:func:`increasing_root`) or for many in lockstep (:func:`increasing_roots`),
each in its own :func:`unit`."""

from __future__ import annotations

import math
import sys
from typing import Callable, Iterable, Sequence

MAX_STEPS = 100
OUT_OF_RANGE = "lengths and couplings do not fit doubles in one unit (start bound kappa={!r})"


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


def unit(lo: float, shortest: float = math.inf) -> float:
    """The unit sigma = 16**e of a solve from the start bound ``lo``: the
    largest with lo / sigma >= 1, e raised until shortest * sigma >= 2**-500
    (secular._reduced squares weights ~ 1/l), then clamped to |e| <= 255.
    Lengths l sigma and couplings alpha / sigma give kappa0 / sigma, exactly
    while the values stay normal (see :func:`fits`), and sqrt(sigma) is exact."""
    e = (math.frexp(lo)[1] - 1) // 4
    if shortest < math.inf:
        e = max(e, -((math.frexp(shortest)[1] + 499) // 4))
    return math.ldexp(1.0, 4 * min(max(e, -255), 255))


def fits(lo_scaled: float, scaled: Iterable[float]) -> bool:
    """Whether a solve fits its unit: lo / sigma has a normal square, and the
    ``scaled`` lengths, distances and couplings in the unit are finite and
    zero or normal, so that every scaling is exact."""
    tiny, huge = sys.float_info.min, sys.float_info.max
    return lo_scaled * lo_scaled >= tiny and all(x == 0.0 or tiny <= abs(x) <= huge
                                                 for x in scaled)


def newton_steps(lo: float, tol: float, error: type[Exception], *, unit: float = 1.0,
                 ceiling: float = math.inf):
    """Newton's method in s = kappa**2 for the one root of mu0, one step at a
    time: a generator that yields each kappa / ``unit``, is sent (mu0,
    dmu0/ds) there and returns (root, lo, hi), mu0(lo) <= 0 <= mu0(hi), in
    the caller's units, as are ``lo``, ``ceiling`` and the messages.

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
    a slope that is not positive, MAX_STEPS values without convergence and a
    root whose square overflows raise ``error``; :func:`fits` must hold.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol_kappa must be positive and finite, got {tol!r}")
    tol = max(tol, sys.float_info.epsilon)
    floor = below = kappa = lo / unit
    top = ceiling / unit
    root = None  # the converged iterate while kappa is its certificate point
    for _ in range(MAX_STEPS):
        if kappa > top:
            raise error(f"mu0 < 0 at the ceiling kappa_max={ceiling!r}: "
                        f"the ground state lies above it, at kappa >= {kappa * unit!r}")
        mu, slope = yield kappa
        s = kappa * kappa - mu / slope if slope > 0.0 else math.nan
        if not math.isfinite(s):
            raise error(f"mu0 is not finite and increasing at kappa={kappa * unit!r}")
        new = math.sqrt(max(s, floor * floor))
        if root is not None and mu >= 0.0:
            break
        if mu == 0.0:
            root = below = kappa  # and new == kappa
            break
        if mu < 0.0:
            below = kappa
        if abs(new - kappa) <= math.sqrt(tol) * new and new <= top:
            root, kappa = new, min(new * (1.0 + 2.0 * tol), top)
        else:
            root, kappa = None, new
    else:
        raise error(f"mu0 has no root after {MAX_STEPS} Newton steps from kappa={lo!r}")
    root = max(root, new) * unit
    if not math.isfinite(root * root):
        raise error(f"lambda0 = -kappa0**2 overflows: kappa0={root!r} is too large for doubles")
    return root, below * unit, kappa * unit


def increasing_root(
    f: Callable[[float], tuple[float, float]],
    lo: float,
    tol: float,
    error: type[Exception],
    *,
    unit: float = 1.0,
    ceiling: float = math.inf,
) -> tuple[float, float, float]:
    """The one root of mu0 by :func:`newton_steps`, as (root, lo, hi); ``f(kappa)``
    returns mu0 and its slope dmu0/ds in s = kappa**2, in the ``unit``."""
    steps = newton_steps(lo, tol, error, unit=unit, ceiling=ceiling)
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
    units: Sequence[float],
    ceiling: float = math.inf,
) -> list:
    """The roots of many mu0 in lockstep, one :func:`newton_steps` per lower
    bound in ``los`` and unit in ``units``: ``f(members, kappas)`` returns the
    values and slopes of the listed members, all pending members at once.

    Each outcome is (root, lo, hi), or the ``error`` that member raised while
    the others go on.  A member's steps see only its own values, so its
    outcome is the one :func:`increasing_root` gives it alone.
    """
    walks = [newton_steps(lo, tol, error, unit=u, ceiling=ceiling) for lo, u in zip(los, units)]
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
