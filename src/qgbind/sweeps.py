"""Parameter sweeps over edge lengths and coupling strengths.

A sweep is a 1-D or 2-D grid over (edge length | vertex alpha) targets.  The
grid shares one topology, so it is solved as one batch
(:func:`secular._ground_states`): each point gets exactly the ground state,
checks and outcome of its own :func:`find_ground_state`.  Failed points carry
a status string instead of aborting the sweep.  The critical coupling of a
star graph is the center alpha at which the energy stops depending on the
axial edge length; it is computed in closed form from the vertex-reduced
matrix and then checked on a batch of axial lengths.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .graph import MetricGraph, degree, parameters, require_valid
# unused here; perfbench/tracer.py wraps it until ROADMAP item 1
from .rootscan import brentq  # noqa: F401
from .secular import (
    _MEMORY_BUDGET,
    NumericalFailure,
    SolverOptions,
    _ground_states,
    _reduced,
    _Topology,
)

_FLAT_POINTS = 13  # axial lengths that find_critical_coupling solves at alpha_c
# a sweep peaks at about 2 KB a point, plus 16-18 bytes a pair of vertices
# and 230 an edge (tracemalloc; the stacked matrices grow as n**2), so a grid
# sized at these rates within _MEMORY_BUDGET fits in it
_BYTES_PER_POINT, _BYTES_PER_VERTEX_PAIR, _BYTES_PER_EDGE = 2400.0, 20.0, 256.0


class CritError(NumericalFailure):
    """No center alpha in the bracket makes the energy flat in the axial
    length."""


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
        if self.lambda0 is None:
            return None
        if abs(self.lambda0) < sys.float_info.min:  # -kappa0**2 subnormal or 0
            return 2.0 * math.log10(self.kappa0)
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


def _family(graph: MetricGraph, targets, columns: np.ndarray):
    """The graph's alphas and finite-edge lengths, one row per row of
    ``columns``, with column j written to ``targets[j]``."""
    alphas, lengths = parameters(graph)
    alphas, lengths = alphas.repeat(len(columns), axis=0), lengths.repeat(len(columns), axis=0)
    for target, column in zip(targets, columns.T):
        if target.kind == "edge":
            lengths[:, [e.id == target.ref for e in graph.finite_edges]] = column[:, None]
        else:
            alphas[:, [v.id == target.ref for v in graph.vertices]] = column[:, None]
    return alphas, lengths


def run_sweep(
    graph: MetricGraph,
    specs: list[SweepSpec],
    options: SolverOptions | None = None,
) -> list[SweepPoint]:
    """Evaluate the grid in row-major order (first spec outermost).

    Class-change flags compare each point's index vector with the previous
    emitted point's; they are False on the first point and around failed
    points.  A grid too large for the 2 GB memory budget raises ValueError
    before any point is built.
    """
    if not 1 <= len(specs) <= 2:
        raise ValueError("a sweep takes one or two targets")
    for spec in specs:
        apply_target(graph, spec.target, 0.5 * (spec.lo + spec.hi))
    n, m = len(graph.vertices), len(graph.finite_edges)
    size = math.prod(spec.steps for spec in specs)
    need = size * (_BYTES_PER_POINT + _BYTES_PER_VERTEX_PAIR * n * n + _BYTES_PER_EDGE * m)
    if not need <= _MEMORY_BUDGET:
        raise ValueError(f"a sweep of {size} points needs about {need / 1e9:.3g} GB, more "
                         f"than the {_MEMORY_BUDGET / 1e9:g} GB budget")
    grids = [spec.values() for spec in specs]
    if len(grids) == 1:
        points = [(float(v),) for v in grids[0]]
    else:
        points = [(float(u), float(v)) for u in grids[0] for v in grids[1]]
    states = _ground_states(graph, *_family(graph, [s.target for s in specs], np.array(points)),
                            options)

    out: list[SweepPoint] = []
    prev_indices: tuple[int, ...] | None = None
    for vals, state in zip(points, states):
        if isinstance(state, Exception):
            out.append(SweepPoint(vals, f"error:{type(state).__name__}", None, None, (), False))
            continue
        indices = state.indices
        change = prev_indices is not None and indices != prev_indices
        out.append(SweepPoint(vals, "ok", state.kappa0, -state.kappa0 * state.kappa0, indices,
                              change))
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


def _axial_ends(graph: MetricGraph, axial_edge_id: str) -> tuple[str, str]:
    """(center, outer vertex) of the axial edge."""
    edge = next((e for e in graph.finite_edges if e.id == axial_edge_id), None)
    if edge is None:
        raise ValueError(f"no finite edge with id {axial_edge_id!r}")
    deg_start = degree(graph, edge.start)
    deg_end = degree(graph, edge.end)
    if deg_start == 1 and deg_end > 1:
        return edge.end, edge.start
    if deg_end == 1 and deg_start > 1:
        return edge.start, edge.end
    raise ValueError(
        "axial edge must join a degree-1 outer vertex to a higher-degree center"
    )


def _closed_form_alpha(
    graph: MetricGraph, axial_edge_id: str, center: str, outer: str
) -> float:
    """The center alpha at which kappa* = |alpha_outer| is the ground state
    for every axial length.

    Eliminating the outer vertex q from M(kappa*) leaves, on the center's
    diagonal, kappa coth(kappa l) - M_cq**2 / M_qq = -kappa* for every axial
    length l, with M_qq = kappa e^{-kappa l} / sinh(kappa l) > 0.  So with M'
    the matrix of the rest of the graph (axial edge and q removed) plus
    -kappa* at the center: if eliminating the other vertices meets only
    positive pivots (:func:`secular._reduced`), alpha_c = -S, S the Schur
    complement left at the center, makes M' positive semidefinite and
    singular (Haynsworth inertia), so mu0(M(kappa*)) = 0 is simple and, mu0
    increasing with kappa, kappa* is the ground state at alpha_c.
    """
    kappa = -graph.alpha(outer)
    if not kappa > 0:
        raise CritError(
            f"outer vertex {outer!r} has alpha {-kappa!r} >= 0: "
            "the energy depends on the axial length at every center alpha"
        )
    vertices = tuple(
        replace(v, alpha=0.0) if v.id == center else v
        for v in graph.vertices if v.id != outer
    )
    rest = replace(
        graph,
        vertices=vertices,
        finite_edges=tuple(e for e in graph.finite_edges if e.id != axial_edge_id),
    )
    a, W, _, _ = _Topology(rest).parts(np.array([kappa]), *parameters(rest))
    c = next(i for i, v in enumerate(vertices) if v.id == center)
    a[0, c] -= kappa
    S, _, _, alive = _reduced(a, W, [i for i in range(len(vertices)) if i != c])
    if alive is not None:  # a pivot <= 0 dropped the one member
        raise CritError(
            f"with {center!r} held at zero the rest of the graph binds below "
            f"lambda = {-kappa * kappa!r}: no center alpha makes the energy flat"
        )
    return float(-S[0, 0, 0])


def _finite_pair(value, name: str) -> tuple[float, float]:
    lo, hi = (float(x) for x in value)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} must be finite, got ({lo!r}, {hi!r})")
    return lo, hi


def find_critical_coupling(
    graph: MetricGraph,
    axial_edge_id: str,
    window: tuple[float, float] = (0.5, 3.0),
    alpha_bracket: tuple[float, float] = (-3.0, -0.1),
    options: SolverOptions | None = None,
) -> CritResult:
    """Center alpha at which the energy is flat in the axial edge length.

    alpha_c comes in closed form from the vertex-reduced matrix (see
    :func:`_closed_form_alpha`); at alpha_c the ground state is
    kappa0 = |alpha of the outer vertex| for every axial length.  alpha_c
    must lie in ``alpha_bracket`` (either order).  The graph route then
    solves ``_FLAT_POINTS`` axial lengths across ``window`` as independent
    evidence: their largest energy change and slope, and the axial edge's
    index at the middle length.
    """
    lo, hi = _finite_pair(window, "window")
    if not 0 < lo < hi:
        raise ValueError("window must satisfy 0 < lo < hi")
    a, b = _finite_pair(alpha_bracket, "alpha bracket")
    require_valid(graph)
    center, outer = _axial_ends(graph, axial_edge_id)
    alpha_crit = _closed_form_alpha(graph, axial_edge_id, center, outer)
    if not min(a, b) <= alpha_crit <= max(a, b):
        raise CritError(
            f"alpha_crit = {alpha_crit!r} lies outside [{a}, {b}]: no sign change "
            "of the length-dependence gap there"
        )

    lengths = np.linspace(lo, hi, _FLAT_POINTS)
    columns = np.column_stack((np.full(_FLAT_POINTS, alpha_crit), lengths))
    targets = (SweepTarget("vertex", center), SweepTarget("edge", axial_edge_id))
    states = _ground_states(graph, *_family(graph, targets, columns), options)
    for state in states:
        if isinstance(state, Exception):
            raise state
    lambdas = np.array([-s.kappa0 * s.kappa0 for s in states])
    variation = float(np.max(np.abs(lambdas - lambdas[0])))
    evidence = float(np.max(np.abs(np.diff(lambdas) / np.diff(lengths))))
    mid = states[_FLAT_POINTS // 2]
    axial = next(i for i, e in enumerate(graph.finite_edges) if e.id == axial_edge_id)
    return CritResult(
        alpha_crit=alpha_crit,
        evidence=evidence,
        axial_index=mid.indices[axial],
        variation=variation,
        kappa0=mid.kappa0,
        window=(lo, hi),
    )
