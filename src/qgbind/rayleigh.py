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
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graph import MetricGraph, require_valid, vertex_incidences
from .secular import GroundState

_CONTINUITY_TOL = 1e-8  # relative spread of the values met at one vertex
_INTERIOR_FRACTION = 0.8  # centered share of the edge that xi scales


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


def _vertex_values(graph, values) -> dict[str, list[float]]:
    """Per vertex id: the values at the incident edge ends; ``values`` maps
    edge ids to callables of the edge coordinate.  Values that disagree at a
    vertex by more than relative _CONTINUITY_TOL raise ValueError."""
    out: dict[str, list[float]] = {}
    for vid, incs in vertex_incidences(graph).items():
        out[vid] = []
        for kind, i in incs:
            e = graph.infinite_edges[i] if kind == "lead" else graph.finite_edges[i]
            out[vid].append(float(values[e.id](e.length if kind == "end" else 0.0)))
    scale = max(abs(v) for vals in out.values() for v in vals)
    for vid, vals in out.items():
        if max(vals) - min(vals) > _CONTINUITY_TOL * max(scale, 1e-300):
            raise ValueError(f"trial is discontinuous at vertex {vid!r}")
    return out


def _add_vertex_terms(energy, graph, vertex_vals):
    """energy + sum_v alpha_v * psi(v)**2, psi(v) the mean incident value."""
    for v in graph.vertices:
        vals = vertex_vals[v.id]
        energy += v.alpha * (sum(vals) / len(vals)) ** 2
    return energy


def _edge_coordinates(graph):
    """(edge_id, upper limit or None) for every edge."""
    spans = [(e.id, e.length) for e in graph.finite_edges]
    spans += [(e.id, None) for e in graph.infinite_edges]
    return spans


def _interval_integrals(kappa, p, q, l, x0, x1):
    """(mass, energy): the integrals of psi**2 and psi'**2 over [x0, x1] of
    psi = p exp(-kappa x) + q exp(-kappa (l - x)), entrywise.

    psi = u + w splits into its two exponentials (u' = -kappa u, w' = kappa
    w, u w = p q exp(-kappa l) constant).  With S = 2 kappa int(u**2 + w**2)
    and C = int 2 u w, the mass is S / (2 kappa) + C and the energy is
    S kappa / 2 - C kappa**2.
    """
    sq = (p**2 * (np.exp(-2 * kappa * x0) - np.exp(-2 * kappa * x1))
          + q**2 * (np.exp(-2 * kappa * (l - x1)) - np.exp(-2 * kappa * (l - x0))))
    cross = 2 * p * q * np.exp(-kappa * l) * (x1 - x0)
    return sq / (2 * kappa) + cross, sq * kappa / 2 - cross * kappa**2


def rayleigh_quotient(graph: MetricGraph, trial: GraphTrial) -> float:
    """q[trial] / ||trial||^2 by adaptive quadrature.

    The trial must cover every edge and be continuous at the vertices (to
    relative _CONTINUITY_TOL); a mismatch or a zero-norm trial raises
    ValueError.
    """
    from scipy.integrate import quad

    require_valid(graph)
    missing = [eid for eid, _ in _edge_coordinates(graph) if eid not in trial.values]
    if missing or any(eid not in trial.derivatives for eid, _ in _edge_coordinates(graph)):
        raise ValueError(f"trial does not cover edges: {missing}")

    vertex_vals = _vertex_values(graph, trial.values)
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
) -> float:
    """Energy quotient after scaling an interior segment of one edge by xi.

    The segment J is the centered _INTERIOR_FRACTION of the finite edge.
    With A, C the energy and mass outside J and B, D inside, the quotient is
    (A + B/xi) / (C + D*xi): stretching the segment scales its mass by xi
    and its bending energy by 1/xi while everything else (including the
    vertex terms, since J is interior) is carried along unchanged.  At
    xi = 1 this is the Rayleigh identity, so the value is lambda0.

    ``ground`` must be the ground state of ``graph``: a graph whose edge ids
    or finite-edge lengths differ from ``ground.solutions``, or on which the
    state is discontinuous at a vertex (an edge turned round, a lead moved),
    raises ValueError.  Different alphas are not detected (GroundState does
    not store them).
    """
    require_valid(graph)
    if not (isinstance(xi, numbers.Real) and math.isfinite(xi) and xi > 0):
        raise ValueError(f"xi must be positive, got {xi!r}")
    xi = float(xi)
    if _edge_coordinates(graph) != [(s.edge_id, s.length) for s in ground.solutions]:
        raise ValueError("ground state was not solved on this graph: edge ids or lengths differ")
    sol = ground.solution(edge_id)
    if sol.kind != "finite":
        raise ValueError(f"edge {edge_id!r} is not a finite edge")

    kappa, m = ground.kappa0, len(graph.finite_edges)
    x0 = 0.5 * (1.0 - _INTERIOR_FRACTION) * sol.length
    d_seg, b_seg = _interval_integrals(kappa, sol.p, sol.q, sol.length, x0, sol.length - x0)
    # finite edges (in graph order, by the check above), then leads c exp(-kappa x)
    p, q, lengths = (np.array([getattr(s, f) for s in ground.solutions[:m]], dtype=float)
                     for f in ("p", "q", "length"))
    c2 = np.array([s.c for s in ground.solutions[m:]], dtype=float) ** 2
    mass, energy = _interval_integrals(kappa, p, q, lengths, 0.0, lengths)
    norm2 = sum(np.concatenate((mass, c2 / (2 * kappa))).tolist())
    energy = sum(np.concatenate((energy, c2 * kappa / 2)).tolist())
    vertex_vals = _vertex_values(graph, GraphTrial.from_ground_state(ground).values)
    energy = _add_vertex_terms(energy, graph, vertex_vals)

    a_rest = energy - b_seg
    c_rest = norm2 - d_seg
    return float((a_rest + b_seg / xi) / (c_rest + d_seg * xi))
