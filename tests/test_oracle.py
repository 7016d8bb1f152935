"""Finite-element oracle tests.

The oracle is the independent check on the secular solver, so its own tests
lean on textbook identities (Dirichlet interval eigenvalue, P1 row sums,
order-2 convergence) and on scalar fixed points solved in-test, never on the
solver under test.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import robin_interval, single_vertex_graph, star_graph
from qgbind import (
    FiniteEdge,
    InfiniteEdge,
    MetricGraph,
    OracleError,
    VertexSpec,
    compare,
    comparison_constant,
    discretize,
    find_ground_state,
    smallest_eigenvalue,
)
from qgbind.oracle import _interval_dirichlet

TWO_DELTA_LAMBDA = -1.6344715870972812


# ----------------------------------------------------------- assembly

def test_node_and_element_count_on_unit_interval():
    disc = discretize(robin_interval(-1.0, -1.0, 1.0), h=0.5)
    assert disc.node_count == 3
    assert disc.stiffness.shape == (3, 3)
    # tridiagonal pattern: 3 + 2*2 nonzeros
    assert disc.stiffness.nnz == 7


def test_edge_lengths_are_preserved_by_rounding():
    # length 1.04 at h = 0.5 rounds to 2 elements of 0.52 each
    disc = discretize(robin_interval(-1.0, -1.0, 1.04), h=0.5)
    assert disc.node_count == 3
    mid = disc.node_table[("e1", 1)]
    row = disc.stiffness.getrow(mid).toarray().ravel()
    assert abs(row[mid] - (2.0 / 0.52)) < 1e-12


def test_stiffness_row_sums_equal_vertex_alphas():
    # P1 stiffness of -d^2/dx^2 annihilates constants; only the delta terms
    # survive in the row sums, and they sit exactly on the vertex nodes
    g = star_graph(-1.25)
    disc = discretize(g, h=0.1)
    sums = np.asarray(disc.stiffness.sum(axis=1)).ravel()
    expected = np.zeros(disc.node_count)
    for v in g.vertices:
        expected[disc.vertex_nodes[v.id]] = v.alpha
    assert np.allclose(sums, expected, rtol=0, atol=1e-12)


def test_mass_matrix_is_positive_definite():
    disc = discretize(star_graph(-1.0), h=0.25)
    w = np.linalg.eigvalsh(disc.mass.toarray())
    assert w[0] > 0.0


def test_lead_truncation_drops_far_node():
    g = single_vertex_graph(-2.0, 1)
    disc = discretize(g, h=0.5, R=2.0)
    # 4 elements on the lead; the Dirichlet end node is eliminated
    assert disc.node_count == 4
    assert disc.R == 2.0


def test_vertex_nodes_are_shared():
    g = star_graph(-1.0)
    disc = discretize(g, h=0.5)
    center = disc.vertex_nodes["c"]
    assert disc.node_table[("arm1", 0)] == center
    assert disc.node_table[("arm2", 0)] == center
    assert disc.node_table[("axial", 0)] == center


def test_discretize_rejects_bad_input():
    with pytest.raises(OracleError):
        discretize(robin_interval(-1.0, -1.0, 1.0), h=0.0)
    with pytest.raises(OracleError):
        discretize(single_vertex_graph(-2.0, 1), h=0.1)  # lead without R


# -------------------------------------------------------- eigenvalues

def test_dirichlet_interval_classic():
    # no coupling: smallest eigenvalue of the length-pi string is exactly 1,
    # approached from above at O(h^2)
    lam = _interval_dirichlet(math.pi, 0.01)
    assert 0.0 < lam - 1.0 < 2e-5
    assert abs(lam - 1.00000834181246) < 1e-9


def test_single_delta_lead_case():
    g = single_vertex_graph(-2.0, 2)
    disc = discretize(g, h=0.01, R=15.0)
    res = smallest_eigenvalue(disc, shift=-1.5, kappa_ref=1.0)
    assert abs(res.lambda_min + 1.0) < 1e-3


def test_default_shift_path():
    g = single_vertex_graph(-2.0, 2)
    disc = discretize(g, h=0.02, R=12.0)
    res = smallest_eigenvalue(disc)
    assert abs(res.lambda_min + 1.0) < 2e-3


def test_dense_path_small_mesh():
    disc = discretize(robin_interval(-2.0, -2.0, 2.0), h=0.25)
    assert disc.node_count <= 32
    kappa = brentq(lambda k: k * math.tanh(k) - 2.0, 0.5, 5.0, xtol=1e-14)
    res = smallest_eigenvalue(disc)
    # discretization error ~ lambda^2 h^2 / 12 ~ 0.095 at this h
    assert abs(res.lambda_min + kappa * kappa) < 0.15
    assert res.lambda_min >= -kappa * kappa


def test_two_delta_line_value():
    from qgbind import LineConfig, as_chain_graph

    g = as_chain_graph(LineConfig((0.0, 1.0), (-2.0, -2.0)))
    disc = discretize(g, h=5e-3, R=15.0)
    res = smallest_eigenvalue(disc, shift=-2.0, kappa_ref=1.28)
    assert abs(res.lambda_min - TWO_DELTA_LAMBDA) < 2e-3


def test_variational_upper_bound():
    # conforming elements on a truncated domain can only raise the minimum
    for g in (single_vertex_graph(-2.0, 2), robin_interval(-2.0, -2.0, 2.0),
              star_graph(-1.5)):
        gs = find_ground_state(g)
        R = 12.0 if g.infinite_edges else None
        disc = discretize(g, h=0.02, R=R)
        res = smallest_eigenvalue(disc, shift=gs.lambda0 - 1.0, kappa_ref=gs.kappa0)
        assert res.lambda_min >= gs.lambda0 - 1e-10


def test_order_two_convergence():
    g = single_vertex_graph(-2.0, 2)
    errors = []
    for h in (0.04, 0.02, 0.01):
        disc = discretize(g, h=h, R=15.0)
        res = smallest_eigenvalue(disc, shift=-1.5, kappa_ref=1.0)
        errors.append(abs(res.lambda_min + 1.0))
    assert 3.5 < errors[0] / errors[1] < 4.5
    assert 3.5 < errors[1] / errors[2] < 4.5


def test_truncation_monotone_in_R():
    g = single_vertex_graph(-2.0, 2)
    lams = []
    for R in (5.0, 8.0, 12.0):
        disc = discretize(g, h=0.02, R=R)
        lams.append(smallest_eigenvalue(disc, shift=-1.5, kappa_ref=1.0).lambda_min)
    assert lams[0] > lams[1] > lams[2] >= -1.0


# -------------------------------------------------------- comparison

def test_comparison_constant_is_cached_and_sane():
    c1 = comparison_constant()
    c2 = comparison_constant()
    assert c1 == c2
    # error ~ lambda^2 h^2 / 12 with lambda = -1, headroom factor 100
    assert 1.0 < c1 < 100.0


def test_compare_single_delta_passes():
    g = single_vertex_graph(-2.0, 2)
    rep = compare(g, find_ground_state(g), h=0.01)
    assert rep.ok
    assert rep.difference < 1e-3
    assert rep.tolerance <= 1.1e-3


def test_compare_star_passes():
    g = star_graph(-1.5, L2=1.0)
    rep = compare(g, find_ground_state(g), h=0.01)
    assert rep.ok


def test_compare_compact_graph_has_no_truncation_term():
    g = robin_interval(-2.0, -2.0, 2.0)
    rep = compare(g, find_ground_state(g), h=0.01)
    assert rep.ok
    assert rep.R is None
    assert abs(rep.tolerance - comparison_constant() * 1e-4) < 1e-15


def test_compare_fails_under_harsh_truncation():
    # at R=1 the truncated two-lead problem sits at its binding threshold
    # (kappa coth(kappa R) = 1 has no positive root), so lambda_fe ~ 0 and
    # the verdict must fail with a clear tolerance report
    g = single_vertex_graph(-2.0, 2)
    rep = compare(g, find_ground_state(g), h=0.01, R=1.0)
    assert not rep.ok
    assert rep.difference > rep.tolerance
    assert abs(rep.lambda_oracle) < 0.05
    assert abs(rep.difference - 1.0) < 0.05


def _pendant_graph(alpha: float, length: float) -> MetricGraph:
    """Vertex with two leads and a pendant edge to a weak vertex."""
    return MetricGraph(
        (VertexSpec("v", alpha), VertexSpec("w", -0.05)),
        (FiniteEdge("p", "v", "w", length),),
        (InfiniteEdge("t1", "v"), InfiniteEdge("t2", "v")),
    )


@pytest.mark.parametrize("length", [5.0, 30.0])
def test_compare_rejects_wrong_ground_state_on_long_graph(length):
    # the ground state of the alpha = -3 graph is 0.55 off the alpha = -2
    # graph's; the default R must reach past the finite extent so the
    # truncation term stays small whatever the pendant length
    g = _pendant_graph(-2.0, length)
    rep = compare(g, find_ground_state(_pendant_graph(-3.0, length)))
    assert not rep.ok
    assert rep.difference > 0.5
    assert rep.tolerance < 1e-2
    assert rep.R > length
    assert compare(g, find_ground_state(g)).ok
