"""Quadratic-form quotient tests.

References are assembled by hand first: for a constant trial on a compact
graph the quotient is sum(alpha) / total length; for constant-plus-tails the
lead integrals are geometric and evaluate in closed form.
"""

import math

import numpy as np
import pytest

from conftest import robin_interval, single_vertex_graph, star_graph
from qgbind import (
    FiniteEdge,
    GraphTrial,
    InfiniteEdge,
    MetricGraph,
    VertexSpec,
    find_ground_state,
    rayleigh_quotient,
    scaled_trial_quotient,
)


def test_constant_trial_on_star():
    # zero bending energy: quotient = sum(alpha) c^2 / (c^2 total length)
    g = star_graph(-1.0)
    got = rayleigh_quotient(g, GraphTrial.constant(g, 2.0))
    assert abs(got - (-6.0 / 3.0)) < 1e-10


def test_constant_trial_scale_invariant():
    g = star_graph(-1.3, L2=2.0)
    a = rayleigh_quotient(g, GraphTrial.constant(g, 1.0))
    b = rayleigh_quotient(g, GraphTrial.constant(g, -7.5))
    assert abs(a - b) < 1e-12


def test_constant_trial_rejected_on_leads():
    g = single_vertex_graph(-2.0, 1)
    with pytest.raises(ValueError):
        GraphTrial.constant(g, 1.0)


def test_tails_trial_closed_form():
    # one vertex, N leads, trial c*e^{-kx}: energy = N c^2 k/2 + alpha c^2,
    # norm^2 = N c^2 / (2k): quotient = k^2 + 2 k alpha / N
    alpha, n, k, c = -2.0, 2, 0.7, 1.3
    g = single_vertex_graph(alpha, n)
    expected = k * k + 2.0 * k * alpha / n
    got = rayleigh_quotient(g, GraphTrial.constant_with_tails(g, c, k))
    assert abs(got - expected) < 1e-9


def test_tails_trial_bounds_ground_energy():
    # variational: any admissible trial sits at or above lambda0
    g = single_vertex_graph(-2.0, 2)
    gs = find_ground_state(g)
    for k in (0.3, 0.7, 1.0, 1.6):
        val = rayleigh_quotient(g, GraphTrial.constant_with_tails(g, 1.0, k))
        assert val >= gs.lambda0 - 1e-10
    # at k = kappa0 the trial is exact on this graph
    exact = rayleigh_quotient(g, GraphTrial.constant_with_tails(g, 1.0, gs.kappa0))
    assert abs(exact - gs.lambda0) < 1e-10


def test_ground_state_trial_reproduces_lambda0():
    g = star_graph(-1.5, L2=1.0)
    gs = find_ground_state(g)
    got = rayleigh_quotient(g, GraphTrial.from_ground_state(gs))
    assert abs(got - gs.lambda0) < 1e-10


def test_ground_state_trial_with_leads():
    from qgbind import LineConfig, as_chain_graph

    g = as_chain_graph(LineConfig((0.0, 1.0), (-2.0, -2.0)))
    gs = find_ground_state(g)
    got = rayleigh_quotient(g, GraphTrial.from_ground_state(gs))
    assert abs(got - gs.lambda0) < 1e-10


def test_discontinuous_trial_rejected():
    # two edges meeting at b with mismatched trial values there
    from qgbind import FiniteEdge, MetricGraph, VertexSpec

    g2 = MetricGraph(
        (VertexSpec("a", -1.0), VertexSpec("b", -1.0), VertexSpec("c", -1.0)),
        (FiniteEdge("e1", "a", "b", 1.0), FiniteEdge("e2", "b", "c", 1.0)),
    )
    bad = GraphTrial(
        values={"e1": lambda x: 1.0 + 0.0 * x, "e2": lambda x: 2.0 + 0.0 * x},
        derivatives={"e1": lambda x: 0.0 * x, "e2": lambda x: 0.0 * x},
    )
    with pytest.raises(ValueError, match="discontinuous"):
        rayleigh_quotient(g2, bad)


def test_missing_edge_coverage_rejected():
    g = star_graph(-1.0)
    partial = GraphTrial(values={"arm1": lambda x: 1.0}, derivatives={"arm1": lambda x: 0.0})
    with pytest.raises(ValueError, match="cover"):
        rayleigh_quotient(g, partial)


def test_zero_norm_trial_rejected():
    g = robin_interval(-1.0, -1.0, 1.0)
    zero = GraphTrial(values={"e1": lambda x: 0.0 * x}, derivatives={"e1": lambda x: 0.0 * x})
    with pytest.raises(ValueError, match="zero-norm"):
        rayleigh_quotient(g, zero)


# --------------------------------------------------- scaled-trial quotient

def test_scaled_quotient_identity_at_one():
    g = star_graph(-2.5, L2=1.0)
    gs = find_ground_state(g)
    for eid in ("arm1", "axial"):
        assert abs(scaled_trial_quotient(g, gs, eid, 1.0) - gs.lambda0) < 1e-12


def test_scaled_quotient_sign_tracks_cosh_edge():
    # strong center: axial edge is cosh-like, stretching raises the quotient
    g = star_graph(-2.5, L2=1.0)
    gs = find_ground_state(g)
    assert gs.index("axial") == 1
    lam = gs.lambda0
    eps = 1e-4
    assert scaled_trial_quotient(g, gs, "axial", 1.0 + eps) > lam
    assert scaled_trial_quotient(g, gs, "axial", 1.0 - eps) < lam


def test_scaled_quotient_sign_tracks_sinh_edge():
    # weak center: kappa0 < 2 makes the axial edge sinh-like; signs flip
    g = star_graph(-1.0, L2=1.0)
    gs = find_ground_state(g)
    assert gs.index("axial") == -1
    lam = gs.lambda0
    eps = 1e-4
    assert scaled_trial_quotient(g, gs, "axial", 1.0 + eps) < lam
    assert scaled_trial_quotient(g, gs, "axial", 1.0 - eps) > lam


def test_scaled_quotient_validates_arguments():
    g = star_graph(-1.0)
    gs = find_ground_state(g)
    with pytest.raises(ValueError):
        scaled_trial_quotient(g, gs, "axial", 0.0)
    with pytest.raises(ValueError):
        scaled_trial_quotient(g, gs, "axial", float("nan"))
    with pytest.raises(KeyError):
        scaled_trial_quotient(g, gs, "nope", 1.0)
    # any real scalar, NumPy's included, is a valid xi
    assert scaled_trial_quotient(g, gs, "axial", np.float32(1.0)) == (
        scaled_trial_quotient(g, gs, "axial", 1.0))


def test_scaled_quotient_rejects_another_graphs_ground_state():
    def graph(length, edge_id="e", ends=("c", "p"), anchor="c"):
        return MetricGraph(
            (VertexSpec("c", -1.0), VertexSpec("p", -1.5)),
            (FiniteEdge(edge_id, *ends, length),),
            (InfiniteEdge("lead", anchor),),
        )

    gs = find_ground_state(graph(1.0))
    # a longer edge under the same ids gave -88.37 for lambda0 = -2.44
    with pytest.raises(ValueError, match="not solved on this graph"):
        scaled_trial_quotient(graph(2.0), gs, "e", 1.0)
    with pytest.raises(ValueError, match="not solved on this graph"):
        scaled_trial_quotient(graph(1.0, "f"), gs, "f", 1.0)
    # the edge turned round gave 0.379, the lead moved to p gave -0.076
    with pytest.raises(ValueError, match="discontinuous at vertex 'c'"):
        scaled_trial_quotient(graph(1.0, ends=("p", "c")), gs, "e", 1.0)
    with pytest.raises(ValueError, match="discontinuous at vertex 'p'"):
        scaled_trial_quotient(graph(1.0, anchor="p"), gs, "e", 1.0)


def test_scaled_quotient_rejects_leads():
    from qgbind import LineConfig, as_chain_graph

    g = as_chain_graph(LineConfig((0.0,), (-2.0,)))
    gs = find_ground_state(g)
    with pytest.raises(ValueError):
        scaled_trial_quotient(g, gs, "lead_left", 1.1)


def test_scaled_quotient_is_variational_bound():
    # the scaled trial is admissible for the stretched graph, so for a
    # cosh edge the true stretched energy lies at or below f(xi), xi > 1
    g = star_graph(-2.5, L2=1.0)
    gs = find_ground_state(g)
    xi = 1.05
    f_xi = scaled_trial_quotient(g, gs, "axial", xi)
    stretched = star_graph(-2.5, L2=1.0 + 0.8 * 0.05)
    gs2 = find_ground_state(stretched)
    assert gs2.lambda0 <= f_xi + 1e-12
    assert gs.lambda0 < gs2.lambda0
