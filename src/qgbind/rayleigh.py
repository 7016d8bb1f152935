"""Quadratic-form evaluation for trial states and the edge-scaling quotient.

The form of the operator is q[psi] = sum_edges int |psi'|^2 + sum_v alpha_v
psi(v)^2, defined on functions continuous at the vertices; the ground-state
energy is its minimum over unit-norm states.  ``scaled_trial_quotient``
evaluates the one-parameter family obtained by scaling an interior segment
of a single finite edge of the exact ground state by xi, which is the
variational mechanism behind the edge-length monotonicity of the energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graph import MetricGraph, require_valid
from .secular import GroundState, _vertex_values


@dataclass(frozen=True)
class GraphTrial:
    """A trial state given per edge by value and derivative callables."""

    values: dict[str, Callable]
    derivatives: dict[str, Callable]

    @classmethod
    def constant(cls, graph: MetricGraph, c: float) -> "GraphTrial":
        """Constant trial on a compact graph (not integrable on leads)."""
        if graph.infinite_edges:
            raise ValueError("constant trial is not square-integrable on leads")
        return cls.constant_with_tails(graph, c, 1.0)  # no leads: kappa unused

    @classmethod
    def constant_with_tails(cls, graph: MetricGraph, c: float, kappa: float) -> "GraphTrial":
        """Constant c on finite edges, c*exp(-kappa x) on each lead."""
        if kappa <= 0:
            raise ValueError("kappa must be positive")
        vals: dict[str, Callable] = {}
        ders: dict[str, Callable] = {}
        for e in graph.finite_edges:
            vals[e.id] = lambda x, c=c: c + 0.0 * np.asarray(x)
            ders[e.id] = lambda x: 0.0 * np.asarray(x)
        for e in graph.infinite_edges:
            vals[e.id] = lambda x, c=c, k=kappa: c * np.exp(-k * np.asarray(x))
            ders[e.id] = lambda x, c=c, k=kappa: -k * c * np.exp(-k * np.asarray(x))
        return cls(vals, ders)

    @classmethod
    def from_ground_state(cls, ground: GroundState) -> "GraphTrial":
        vals = {s.edge_id: s.value for s in ground.solutions}
        ders = {s.edge_id: s.derivative for s in ground.solutions}
        return cls(vals, ders)


def _add_vertex_terms(energy, graph, vertex_vals):
    """energy + sum_v alpha_v * psi(v)**2, psi(v) the mean incident value."""
    for v in graph.vertices:
        vals = vertex_vals[v.id][0]
        energy += v.alpha * (sum(vals) / len(vals)) ** 2
    return energy


def _edge_coordinates(graph):
    """(edge_id, upper limit or None) for every edge."""
    spans = [(e.id, e.length) for e in graph.finite_edges]
    spans += [(e.id, None) for e in graph.infinite_edges]
    return spans


def rayleigh_quotient(
    graph: MetricGraph,
    trial: GraphTrial,
    *,
    continuity_tol: float = 1e-8,
) -> float:
    """q[trial] / ||trial||^2 by adaptive quadrature.

    The trial must cover every edge and be continuous at the vertices; a
    visible mismatch or a zero-norm trial raises ValueError.
    """
    from scipy.integrate import quad

    require_valid(graph)
    missing = [eid for eid, _ in _edge_coordinates(graph) if eid not in trial.values]
    if missing or any(eid not in trial.derivatives for eid, _ in _edge_coordinates(graph)):
        raise ValueError(f"trial does not cover edges: {missing}")

    vertex_vals = _vertex_values(graph, trial.values)
    scale = max(abs(v) for vals, _ in vertex_vals.values() for v in vals)
    for vid, (vals, _) in vertex_vals.items():
        if max(vals) - min(vals) > continuity_tol * max(scale, 1e-300):
            raise ValueError(f"trial is discontinuous at vertex {vid!r}")

    energy = 0.0
    norm2 = 0.0
    for eid, hi in _edge_coordinates(graph):
        f = trial.values[eid]
        g = trial.derivatives[eid]
        upper = np.inf if hi is None else hi
        e_val, _ = quad(lambda x: float(g(x)) ** 2, 0.0, upper, epsabs=1e-12, epsrel=1e-12, limit=200)
        n_val, _ = quad(lambda x: float(f(x)) ** 2, 0.0, upper, epsabs=1e-12, epsrel=1e-12, limit=200)
        energy += e_val
        norm2 += n_val
    energy = _add_vertex_terms(energy, graph, vertex_vals)
    if norm2 <= 1e-300:
        raise ValueError("zero-norm trial")
    return energy / norm2


def scaled_trial_quotient(
    graph: MetricGraph,
    ground: GroundState,
    edge_id: str,
    xi: float,
    interior_fraction: float = 0.8,
) -> float:
    """Energy quotient after scaling an interior segment of one edge by xi.

    The segment J is the centered ``interior_fraction`` of the finite edge.
    With A, C the energy and mass outside J and B, D inside, the quotient is
    (A + B/xi) / (C + D*xi): stretching the segment scales its mass by xi
    and its bending energy by 1/xi while everything else (including the
    vertex terms, since J is interior) is carried along unchanged.  At
    xi = 1 this is the Rayleigh identity, so the value is lambda0.
    """
    require_valid(graph)
    if not (isinstance(xi, (int, float)) and math.isfinite(xi) and xi > 0):
        raise ValueError(f"xi must be positive, got {xi!r}")
    if not 0 < interior_fraction < 1:
        raise ValueError("interior_fraction must be in (0, 1)")
    sol = ground.solution(edge_id)
    if sol.kind != "finite":
        raise ValueError(f"edge {edge_id!r} is not a finite edge")

    x0 = 0.5 * (1.0 - interior_fraction) * sol.length
    x1 = sol.length - x0
    b_seg = sol.dirichlet_energy(x0, x1)
    d_seg = sol.l2_mass(x0, x1)

    energy = sum(s.dirichlet_energy() for s in ground.solutions)
    norm2 = sum(s.l2_mass() for s in ground.solutions)
    vertex_vals = _vertex_values(graph, GraphTrial.from_ground_state(ground).values)
    energy = _add_vertex_terms(energy, graph, vertex_vals)

    a_rest = energy - b_seg
    c_rest = norm2 - d_seg
    return (a_rest + b_seg / xi) / (c_rest + d_seg * xi)
