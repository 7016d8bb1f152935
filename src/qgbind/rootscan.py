"""Root finding in one variable, shared by the graph route and the kernel
route: Newton's method in s = kappa**2 from a proven lower bound
(:func:`constant_trial_bound`) in the solve's :func:`unit`, a loop for one
root (:func:`increasing_root`) and array steps for a batch
(:func:`increasing_roots`), which share :func:`_end`, the end of a walk.
The bound, the unit and :func:`fits` take a number or an array with one
entry (or row) per member."""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

MAX_STEPS = 100
OUT_OF_RANGE = "lengths and couplings do not fit doubles in one unit (start bound kappa={!r})"


# The descending scan, Brent and the D x D determinant are gone;
# perfbench/tracer.py only looks these names up (it wraps them and never
# calls them), until ROADMAP item 1.
def _removed(*args, **kwargs):
    raise RuntimeError("the descending scan, Brent and the D x D determinant were "
                       "removed; use increasing_root")


scan_down = probe_geometric = bisect_sign = brentq = _removed


def constant_trial_bound(length, leads: int, sum_alpha):
    """The positive root of length * kappa**2 + leads * kappa + sum_alpha: a
    proven lower bound of kappa0 for a graph with finite edges of total
    ``length``, ``leads`` half-lines and vertex strengths summing to
    ``sum_alpha`` < 0.  The constant trial function gives 1^T M 1 <= that
    quadratic (2 tanh(x/2) <= x), so mu0 <= 0 there; a single vertex with no
    finite edge gives exactly -sum_alpha / leads.  With no leads, length and
    sum_alpha are scaled into [0.5, 2) by powers of 4 and the root back, so
    that 4 length sum_alpha cannot underflow; the bits stay those of the
    unscaled formula wherever its values are normal."""
    if leads:
        return -2.0 * sum_alpha / (leads + np.sqrt(leads * leads - 4.0 * length * sum_alpha))
    (l, i), (a, k) = np.frexp(length), np.frexp(sum_alpha)
    l, a = np.ldexp(l, i % 2), np.ldexp(a, k % 2)
    return np.ldexp(-2.0 * a / np.sqrt(-4.0 * l * a), k // 2 - i // 2)


def unit(lo, shortest=math.inf):
    """The unit sigma = 16**e of a solve from the start bound ``lo``: the
    largest with lo / sigma >= 1, e raised until shortest * sigma >= 2**-500
    (secular._reduced squares weights ~ 1/l), then clamped to |e| <= 255.
    Lengths l sigma and couplings alpha / sigma give kappa0 / sigma, exactly
    while the values stay normal (see :func:`fits`), and sqrt(sigma) is exact.

    In exponents of 2, with lo in [2**(x-1), 2**x) and shortest in [2**(y-1),
    2**y): 4 e is the larger of x - 1 and -496 - y, rounded down to a
    multiple of 4; the second gives the least multiple of 4 at or above -499
    - y.  A shortest of 2**523 or more asks for 4 e >= -1020 only, which is
    the clamp, and a finite lo has x <= 1024, so e <= 255.
    """
    x = np.frexp(lo)[1]
    y = np.frexp(np.minimum(shortest, 2.0 ** 523))[1]
    return np.ldexp(1.0, np.maximum(x - 1, -496 - y) & -4)


def fits(lo_scaled, scaled):
    """Whether a solve fits its unit: lo / sigma has a normal square, and the
    ``scaled`` lengths, distances and couplings in the unit (the last axis)
    are finite and zero or normal, so that every scaling is exact."""
    tiny, huge = sys.float_info.min, sys.float_info.max
    square, size = lo_scaled * lo_scaled, np.abs(scaled)
    return (square >= tiny) & (square <= huge) & np.logical_and.reduce(
        (size <= huge) & ((size >= tiny) | (size == 0.0)), -1)


_CEILING = "mu0 < 0 at the ceiling kappa_max={!r}: the ground state lies above it, at kappa >= {!r}"
_NOT_FINITE = "mu0 is not finite and increasing at kappa={!r}"
_NO_ROOT = f"mu0 has no root after {MAX_STEPS} Newton steps from kappa={{!r}}"
_OVERFLOW = "lambda0 = -kappa0**2 overflows: kappa0={!r} is too large for doubles"


def _tolerance(tol: float) -> float:
    """tol_kappa as the walks use it: at least eps, so that the certificate
    point lies above kappa."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol_kappa must be positive and finite, got {tol!r}")
    return max(tol, sys.float_info.epsilon)


def _end(error, unit, kappa, mu, ok, new, below, certifying, root) -> tuple[float, float, float]:
    """The outcome of the round at ``kappa`` that ends a walk, in the caller's
    units: ``error`` when the value or the step is not ``ok``; else (max(root,
    new), below, kappa) when kappa certifies ``root`` (mu0 >= 0 there), or
    (max(kappa, new), kappa, kappa) at mu0 == 0; ``error`` if its square overflows."""
    if not ok:
        raise error(_NOT_FINITE.format(kappa * unit))
    if certifying and mu >= 0.0:
        root, hi = max(root, new), kappa
    else:  # mu0 == 0: kappa is the root, and so is new but for rounding
        root, below, hi = max(kappa, new), kappa, kappa
    root *= unit
    if not math.isfinite(root * root):
        raise error(_OVERFLOW.format(root))
    return root, below * unit, hi * unit


def increasing_root(
    f: Callable[[float], tuple[float, float]],
    lo: float,
    tol: float,
    error: type[Exception],
    *,
    unit: float = 1.0,
    ceiling: float = math.inf,
) -> tuple[float, float, float]:
    """The one root of mu0 by Newton's method in s = kappa**2, as (root, lo,
    hi), mu0(lo) <= 0 <= mu0(hi): ``f(kappa)`` returns a value and its slope
    d/ds at kappa / ``unit``; ``lo``, ``ceiling``, the outcome and the
    messages are in the caller's units.

    mu0 must be increasing and concave in s.  The value is that of an upper
    bound r >= mu0, concave and increasing in s (mu0 itself, or a Rayleigh
    quotient of a fixed vector), and value and slope may both carry one
    positive factor: the walk reads only the value's sign, which must be
    that of mu0 (mu0 < 0, mu0 == 0, and mu0 >= 0 at the certificate point),
    and value / slope.  The tangent of a concave function lies above it, so
    a Newton step in s lands at or below the root of r, which lies at or
    below the root of mu0: from ``lo``, a proven lower bound, every iterate
    is a lower bound too, and none goes below ``lo`` (rounding can make mu0
    slightly positive there).  Convergence is quadratic, so once a
    step is at most sqrt(tol) * kappa the new iterate is within about tol of
    the root: mu0 >= 0 at hi = kappa (1 + 2 tol), never past ``ceiling``,
    certifies it; otherwise hi is a lower bound and the walk goes on.  The
    step down from hi is a lower bound too; the larger one is returned,
    within 2 tol (at least eps) of the root.  An iterate above ``ceiling``
    and MAX_STEPS values without a root raise ``error``, as :func:`_end` can.
    """
    tol = _tolerance(tol)
    floor = below = root = kappa = lo / unit
    top, grow, close = ceiling / unit, 1.0 + 2.0 * tol, math.sqrt(tol)
    certifying = False  # whether kappa is the certificate point of root
    for _ in range(MAX_STEPS):
        if kappa > top:
            raise error(_CEILING.format(ceiling, kappa * unit))
        mu, slope = f(kappa)
        s = kappa * kappa - mu / slope if slope > 0.0 else math.nan
        ok, new = math.isfinite(s), math.sqrt(max(s, floor * floor))
        if mu < 0.0:
            below = kappa
        if not ok or mu == 0.0 or (certifying and mu >= 0.0):
            return _end(error, unit, kappa, mu, ok, new, below, certifying, root)
        certifying = abs(new - kappa) <= close * new and new <= top
        root, kappa = new, min(new * grow, top) if certifying else new
    raise error(_NO_ROOT.format(lo))


def increasing_roots(
    f: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    los: np.ndarray,
    tol: float,
    error: type[Exception],
    *,
    units: np.ndarray,
    ceiling: float = math.inf,
) -> list:
    """The roots of a batch of mu0, one per lower bound in ``los`` and unit in
    ``units``: ``f(members, kappas)`` takes the positions of the pending
    members and their kappas / unit, as arrays, and returns arrays of their
    values and slopes, each member's as :func:`increasing_root` asks.  Each outcome is (root, lo, hi), or the ``error`` that
    member raised while the others go on: the one :func:`increasing_root`
    gives that member alone, bit for bit.

    A batch of one walks :func:`increasing_root`, as the kernel route does; a
    larger batch takes its arithmetic and checks, in its order, as one array
    step per round over the pending members, and ends a member by
    :func:`_end`.  Both run under ``np.errstate(all="ignore")``, ``f`` too:
    a value that overflows or is NaN ends its member's walk.
    """
    with np.errstate(all="ignore"):
        if len(los) != 1:
            return _lockstep(f, los, _tolerance(tol), error, units, ceiling)
        first = np.zeros(1, dtype=np.intp)

        def one(kappa):
            mu, slope = f(first, np.array([kappa]))
            return float(mu[0]), float(slope[0])
        try:
            return [increasing_root(one, float(los[0]), tol, error, unit=float(units[0]),
                                    ceiling=ceiling)]
        except error as exc:
            return [exc]


def _lockstep(f, los, tol, error, units, ceiling) -> list:
    """The array steps of :func:`increasing_roots`, tol at least eps: the
    pending members' state in arrays, which the members whose walk ended in
    a round (``done``, ``ended`` of them) leave at the top of the next."""
    out, grow, close = [None] * len(los), 1.0 + 2.0 * tol, math.sqrt(tol)
    members, kappa = np.arange(len(los)), los / units
    floor2, top, root, below = kappa * kappa, ceiling / units, kappa, kappa.copy()
    done = certifying = np.zeros(len(members), dtype=bool)
    ended = 0
    for _ in range(MAX_STEPS):
        if ceiling < math.inf and np.count_nonzero(over := kappa > top):
            over &= ~done
            for m, k, u in zip(members[over].tolist(), kappa[over].tolist(), units[over].tolist()):
                out[m] = error(_CEILING.format(ceiling, k * u))
            done, ended = done | over, 1
        if ended:
            keep = ~done
            members, kappa, root, below, floor2, top, units, certifying = (
                x[keep] for x in (members, kappa, root, below, floor2, top, units, certifying))
        if not len(members):
            return out
        mu, slope = f(members, kappa)
        s = kappa * kappa - mu / slope
        ok, new = (slope > 0.0) & np.isfinite(s), np.sqrt(np.maximum(s, floor2))
        np.copyto(below, kappa, where=mu < 0.0)
        done = ~ok | (mu == 0.0) | (certifying & (mu >= 0.0))
        if ended := np.count_nonzero(done):
            for m, *state in zip(*(x[done].tolist() for x in (
                    members, units, kappa, mu, ok, new, below, certifying, root))):
                try:
                    out[m] = _end(error, *state)
                except error as exc:
                    out[m] = exc
        certifying = np.abs(new - kappa) <= close * new
        if ceiling < math.inf:
            certifying &= new <= top
            kappa = np.where(certifying, np.minimum(new * grow, top), new)
        else:
            kappa = np.where(certifying, new * grow, new)
        root = new
    for m in members[~done].tolist():
        out[m] = error(_NO_ROOT.format(float(los[m])))
    return out
