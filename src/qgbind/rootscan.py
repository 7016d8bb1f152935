"""Descending-grid bracketing for scalar indicator functions of kappa.

Shared by the secular solver and the line solver.  The indicator is assumed
continuous with a definite sign between roots; the scan walks a uniform grid
downward from the largest kappa and reports the first cell containing a sign
change.  Near-zero dips of |f| without a sign change are re-scanned at halved
steps a few times and otherwise reported, so nearly double roots surface in
diagnostics instead of being silently skipped.

The kernel route and the critical-coupling search refine with ``brentq``
from here, which loads scipy on its first call.
"""

from __future__ import annotations

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


def in_chunks(
    f: Callable[[np.ndarray], np.ndarray], kappas: np.ndarray, n: int
) -> np.ndarray:
    """f over kappas in slices of about 1 MiB of n x n float matrices.

    f must treat each kappa on its own, so the slicing changes no value; it
    bounds the memory of the matrix stacks f builds.
    """
    size = max(1, 2**17 // n**2)
    kappas = np.asarray(kappas, dtype=float)
    return np.concatenate([f(kappas[s : s + size]) for s in range(0, len(kappas), size)])


def brentq(f: Callable[[float], float], a: float, b: float, **kwargs) -> float:
    """scipy.optimize.brentq, imported on first call.

    Keeps scipy out of the import of the package: the graph route never
    calls it, only the kernel route and the critical-coupling search do.
    """
    from scipy.optimize import brentq as _brentq

    return _brentq(f, a, b, **kwargs)
