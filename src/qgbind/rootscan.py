"""Root finding in one variable, shared by the graph route and the kernel
route: Newton's method in s = kappa**2 (:func:`newton_steps`) from a proven
lower bound (:func:`constant_trial_bound`), driven for one root
(:func:`increasing_root`) or for a batch as array steps
(:func:`increasing_roots`), each member in its own :func:`unit`.  The bound,
the unit and :func:`fits` take a number or an array with one entry (or row)
per member."""

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
    finite edge gives exactly -sum_alpha / leads."""
    return -2.0 * sum_alpha / (leads + np.sqrt(leads * leads - 4.0 * length * sum_alpha))


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
    size = np.abs(scaled)
    return (lo_scaled * lo_scaled >= tiny) & np.logical_and.reduce(
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


def _certified(root: float, below: float, hi: float, unit: float, error: type[Exception]):
    """(root, below, hi) in the caller's units, or ``error`` when the square
    of the root overflows."""
    root *= unit
    if not math.isfinite(root * root):
        raise error(_OVERFLOW.format(root))
    return root, below * unit, hi * unit


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
    tol = _tolerance(tol)
    floor = below = kappa = lo / unit
    top = ceiling / unit
    root = None  # the converged iterate while kappa is its certificate point
    for _ in range(MAX_STEPS):
        if kappa > top:
            raise error(_CEILING.format(ceiling, kappa * unit))
        mu, slope = yield kappa
        s = kappa * kappa - mu / slope if slope > 0.0 else math.nan
        if not math.isfinite(s):
            raise error(_NOT_FINITE.format(kappa * unit))
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
        raise error(_NO_ROOT.format(lo))
    return _certified(max(root, new), below, kappa, unit, error)


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
    values and slopes.  Each outcome is (root, lo, hi), or the ``error`` that
    member raised while the others go on: the one :func:`increasing_root`
    gives that member alone, bit for bit.

    A batch of one walks :func:`newton_steps`, as the kernel route does.  A
    larger batch takes one array step per round over its pending members,
    with the arithmetic, the order of the checks and the messages of
    :func:`newton_steps`: the ends of a walk (a value or step that is not
    finite, a slope that is not positive, mu0 == 0, a certificate, the
    ceiling) are found with one test a round, and a member whose walk ends
    leaves the arrays.  Both run under ``np.errstate(all="ignore")``, ``f``
    too: a value that overflows or is NaN ends its member's walk.
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
    state of the pending members in arrays, and the members whose walk ends
    in a round taken one by one, in the order of :func:`newton_steps`."""
    grow, close_step = 1.0 + 2.0 * tol, math.sqrt(tol)
    out: list = [None] * len(los)
    members, units = np.arange(len(los)), np.asarray(units, dtype=float)
    kappa = np.asarray(los, dtype=float) / units
    floor2, top = kappa * kappa, ceiling / units
    if ceiling < math.inf and np.count_nonzero(kappa > top):  # before the first value
        for m in np.flatnonzero(kappa > top).tolist():
            out[m] = error(_CEILING.format(ceiling, float(kappa[m] * units[m])))
        members, floor2, top, units, kappa = (
            x[kappa <= top] for x in (members, floor2, top, units, kappa))
    root, below, certifying = kappa, kappa.copy(), np.zeros(len(members), dtype=bool)
    zero = np.zeros(len(members))  # compared with arrays, not with a Python float
    for step in range(MAX_STEPS):
        if not len(members):
            break
        mu, slope = f(members, kappa)
        s = kappa * kappa - mu / slope
        new = np.sqrt(np.maximum(s, floor2))
        np.copyto(below, kappa, where=mu < zero)
        close = np.abs(new - kappa) <= close_step * new
        ok = (slope > zero) & np.isfinite(s)
        stop = ~ok | (mu == zero) | (certifying & (mu >= zero))
        if ceiling < math.inf and step < MAX_STEPS - 1:  # the next iterate passes it
            stop |= new > top
        if np.count_nonzero(stop):
            rows = np.array((kappa, below, root, new, units, mu, ok, certifying,
                             close, floor2, top))
            ends = np.flatnonzero(stop)
            for m, (k, b, r, n, u, mu_j, ok_j, certifying_j) in zip(
                    members[ends].tolist(), rows[:8, ends].T.tolist()):
                try:
                    if not ok_j:
                        raise error(_NOT_FINITE.format(k * u))
                    if certifying_j and mu_j >= 0.0:
                        out[m] = _certified(max(r, n), b, k, u, error)
                    elif mu_j == 0.0:
                        out[m] = _certified(max(k, n), k, k, u, error)
                    else:
                        raise error(_CEILING.format(ceiling, n * u))
                except error as exc:
                    out[m] = exc
            keep = ~stop
            members, zero = members[keep], zero[keep]
            kappa, below, _, new, units, _, _, _, close, floor2, top = rows[:, keep]
            close = close != zero
        kappa = np.where(close, new * grow, new)
        if ceiling < math.inf:  # new <= top for every member that goes on
            kappa = np.minimum(kappa, top)
        root, certifying = new, close
    else:
        for m in members.tolist():
            out[m] = error(_NO_ROOT.format(float(los[m])))
    return out
