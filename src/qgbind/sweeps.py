"""Parameter sweeps over edge lengths and coupling strengths.

A sweep is a 1-D or 2-D grid over (edge length | vertex alpha) targets; each
grid point is an independent ground-state solve, so points can run in a
process pool.  Failed points carry a status string instead of aborting the
sweep.  The critical-coupling search for a star graph solves for the center
alpha at which the energy stops depending on the axial edge length.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .graph import InvalidGraphError, MetricGraph, degree
from .rootscan import brentq
from .secular import (
    DegenerateRoot,
    NoBoundState,
    PositivityViolation,
    SolverOptions,
    find_ground_state,
)

_POINT_ERRORS = (InvalidGraphError, NoBoundState, DegenerateRoot, PositivityViolation)


class CritError(RuntimeError):
    """Critical-coupling search could not bracket a root."""


@dataclass(frozen=True)
class SweepTarget:
    """What a sweep varies: 'edge' length or 'vertex' alpha."""

    kind: str
    ref: str

    def __post_init__(self):
        if self.kind not in ("edge", "vertex"):
            raise ValueError(f"unknown target kind: {self.kind!r}")

    @classmethod
    def parse(cls, text: str) -> "SweepTarget":
        """Parse 'edge:ID' or 'vertex:ID'."""
        kind, sep, ref = text.partition(":")
        if not sep or not ref:
            raise ValueError(f"target must look like edge:ID or vertex:ID, got {text!r}")
        return cls(kind, ref)

    def label(self) -> str:
        return f"{self.kind}:{self.ref}"


@dataclass(frozen=True)
class SweepSpec:
    target: SweepTarget
    lo: float
    hi: float
    steps: int

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ValueError("sweep range must be finite with lo < hi")
        if self.steps < 2:
            raise ValueError("sweep needs at least 2 steps")

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.steps)


@dataclass(frozen=True)
class SweepPoint:
    values: tuple[float, ...]
    status: str
    kappa0: float | None
    lambda0: float | None
    indices: tuple[int, ...]
    class_change: bool

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def log10_abs_lambda0(self) -> float | None:
        if self.lambda0 is None or self.lambda0 == 0:
            return None
        return math.log10(abs(self.lambda0))


def apply_target(graph: MetricGraph, target: SweepTarget, value: float) -> MetricGraph:
    """Copy of the graph with one edge length or vertex alpha replaced."""
    if target.kind == "edge":
        if target.ref not in {e.id for e in graph.finite_edges}:
            raise ValueError(f"no finite edge with id {target.ref!r}")
        edges = tuple(
            replace(e, length=float(value)) if e.id == target.ref else e
            for e in graph.finite_edges
        )
        return replace(graph, finite_edges=edges)
    if target.ref not in {v.id for v in graph.vertices}:
        raise ValueError(f"no vertex with id {target.ref!r}")
    vertices = tuple(
        replace(v, alpha=float(value)) if v.id == target.ref else v
        for v in graph.vertices
    )
    return replace(graph, vertices=vertices)


def _solve_point(args) -> tuple[str, float | None, float | None, tuple[int, ...]]:
    graph, assignments, options = args
    try:
        for target, value in assignments:
            graph = apply_target(graph, target, value)
        gs = find_ground_state(graph, options)
        return ("ok", gs.kappa0, gs.lambda0, gs.indices)
    except _POINT_ERRORS as exc:
        return (f"error:{type(exc).__name__}", None, None, ())


def run_sweep(
    graph: MetricGraph,
    specs: list[SweepSpec],
    options: SolverOptions | None = None,
    jobs: int = 1,
) -> list[SweepPoint]:
    """Evaluate the grid in row-major order (first spec outermost).

    Class-change flags compare each point's index vector with the previous
    emitted point's; they are False on the first point and around failed
    points.  ``jobs`` (at least 1) caps the worker processes, which are
    also capped by the point count and the CPU count.
    """
    if not 1 <= len(specs) <= 2:
        raise ValueError("a sweep takes one or two targets")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    for spec in specs:
        apply_target(graph, spec.target, 0.5 * (spec.lo + spec.hi))
    grids = [spec.values() for spec in specs]
    if len(grids) == 1:
        points = [(float(v),) for v in grids[0]]
    else:
        points = [(float(u), float(v)) for u in grids[0] for v in grids[1]]
    tasks = [
        (graph, tuple(zip((s.target for s in specs), vals)), options) for vals in points
    ]

    # a fork pool starts every worker on the first submit, so never ask for
    # more workers than there are points or cores
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, len(tasks) // (8 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_solve_point, tasks, chunksize=chunk))
    else:
        raw = [_solve_point(t) for t in tasks]

    out: list[SweepPoint] = []
    prev_indices: tuple[int, ...] | None = None
    for vals, (status, kappa0, lambda0, indices) in zip(points, raw):
        change = (
            status == "ok" and prev_indices is not None and indices != prev_indices
        )
        out.append(SweepPoint(vals, status, kappa0, lambda0, indices, change))
        if status == "ok":
            prev_indices = indices
    return out


@dataclass(frozen=True)
class CritResult:
    alpha_crit: float
    evidence: float
    axial_index: int
    variation: float
    kappa0: float
    window: tuple[float, float]


def _axial_center(graph: MetricGraph, axial_edge_id: str) -> str:
    edge = next((e for e in graph.finite_edges if e.id == axial_edge_id), None)
    if edge is None:
        raise ValueError(f"no finite edge with id {axial_edge_id!r}")
    deg_start = degree(graph, edge.start)
    deg_end = degree(graph, edge.end)
    if deg_start == 1 and deg_end > 1:
        return edge.end
    if deg_end == 1 and deg_start > 1:
        return edge.start
    raise ValueError(
        "axial edge must join a degree-1 outer vertex to a higher-degree center"
    )


def find_critical_coupling(
    graph: MetricGraph,
    axial_edge_id: str,
    window: tuple[float, float] = (0.5, 3.0),
    alpha_bracket: tuple[float, float] = (-3.0, -0.1),
    options: SolverOptions | None = None,
    flat_points: int = 13,
    xtol: float = 1e-12,
) -> CritResult:
    """Center alpha at which the energy is flat in the axial edge length.

    Solves lambda0(window hi) = lambda0(window lo) for the alpha of the
    vertex where the axial edge meets the rest of the graph, then measures
    residual variation on a grid across the window.
    """
    lo, hi = window
    if not 0 < lo < hi:
        raise ValueError("window must satisfy 0 < lo < hi")
    center = _axial_center(graph, axial_edge_id)
    target_alpha = SweepTarget("vertex", center)
    target_len = SweepTarget("edge", axial_edge_id)

    def solve(alpha: float, length: float):
        g = apply_target(graph, target_alpha, alpha)
        g = apply_target(g, target_len, length)
        return find_ground_state(g, options)

    def gap(alpha: float) -> float:
        return solve(alpha, hi).lambda0 - solve(alpha, lo).lambda0

    a, b = alpha_bracket
    ga, gb = gap(a), gap(b)
    if ga == 0.0:
        alpha_crit = a
    elif gb == 0.0:
        alpha_crit = b
    elif (ga < 0) == (gb < 0):
        raise CritError(
            f"no sign change of the length-dependence gap on alpha in [{a}, {b}]"
        )
    else:
        alpha_crit = float(brentq(gap, a, b, xtol=xtol))

    lengths = np.linspace(lo, hi, flat_points)
    lambdas = np.array([solve(alpha_crit, float(L)).lambda0 for L in lengths])
    variation = float(np.max(np.abs(lambdas - lambdas[0])))
    evidence = float(np.max(np.abs(np.diff(lambdas) / np.diff(lengths))))
    mid = solve(alpha_crit, float(lengths[flat_points // 2]))
    return CritResult(
        alpha_crit=alpha_crit,
        evidence=evidence,
        axial_index=mid.index(axial_edge_id),
        variation=variation,
        kappa0=mid.kappa0,
        window=(lo, hi),
    )
