"""Finite-element oracle tests.

The oracle is the independent check on the secular solver, so its own tests
lean on textbook identities (Dirichlet interval eigenvalue, P1 row sums,
order-2 convergence) and on scalar fixed points solved in-test, never on the
solver under test.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import ALPHA_CRIT, robin_interval, single_vertex_graph, star_graph
from qgbind import (
    FiniteEdge,
    InfiniteEdge,
    LineConfig,
    MetricGraph,
    OracleError,
    VertexSpec,
    as_chain_graph,
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


def test_discretize_refuses_a_mesh_too_large_to_allocate():
    tracemalloc.start()
    try:
        with pytest.raises(OracleError, match="1e\\+12 nodes"):
            discretize(robin_interval(-1.0, -1.0, 1.0), h=1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    # at a subnormal h the element count overflows a float
    with pytest.raises(OracleError, match="inf nodes"):
        discretize(robin_interval(-1.0, -1.0, 1e10), h=1e-310)


def _reference_discretize(graph, h, R):
    """The per-element assembly loop, kept as the reference for the arrays."""
    import scipy.sparse as sp

    vertex_nodes = {v.id: i for i, v in enumerate(graph.vertices)}
    node_table = {}
    next_node = len(graph.vertices)
    elements = []
    for edge in graph.finite_edges:
        n = max(1, round(edge.length / h))
        he = edge.length / n
        chain = [vertex_nodes[edge.start]]
        for _ in range(n - 1):
            chain.append(next_node)
            next_node += 1
        chain.append(vertex_nodes[edge.end])
        for k, g in enumerate(chain):
            node_table[(edge.id, k)] = g
        elements.extend((chain[k], chain[k + 1], he) for k in range(n))
    for lead in graph.infinite_edges:
        n = max(1, round(R / h))
        he = R / n
        chain = [vertex_nodes[lead.anchor]]
        for _ in range(n - 1):
            chain.append(next_node)
            next_node += 1
        chain.append(-1)
        for k, g in enumerate(chain[:-1]):
            node_table[(lead.id, k)] = g
        elements.extend((chain[k], chain[k + 1], he) for k in range(n))
    rows, cols, kdat, mdat = [], [], [], []
    for g0, g1, he in elements:
        pairs = (((g0, g0), 1.0, 2.0), ((g1, g1), 1.0, 2.0),
                 ((g0, g1), -1.0, 1.0), ((g1, g0), -1.0, 1.0))
        for (r, c), kw, mw in pairs:
            if r < 0 or c < 0:
                continue
            rows.append(r)
            cols.append(c)
            kdat.append(kw / he)
            mdat.append(mw * he / 6.0)
    for v in graph.vertices:
        rows.append(vertex_nodes[v.id])
        cols.append(vertex_nodes[v.id])
        kdat.append(v.alpha)
        mdat.append(0.0)
    shape = (next_node, next_node)
    stiffness = sp.coo_matrix((kdat, (rows, cols)), shape=shape).tocsr()
    mass = sp.coo_matrix((mdat, (rows, cols)), shape=shape).tocsr()
    return next_node, node_table, stiffness, mass


def _parallel_cycle():
    """Three vertices on a cycle, a doubled edge, a reversed edge, a lead."""
    return MetricGraph(
        (VertexSpec("a", -1.0), VertexSpec("b", -2.0), VertexSpec("c", -0.5)),
        (FiniteEdge("e1", "a", "b", 1.0), FiniteEdge("e2", "a", "b", 0.7),
         FiniteEdge("e3", "b", "c", 0.4), FiniteEdge("e4", "a", "c", 1.3)),
        (InfiniteEdge("t", "b"),),
    )


_CRITERION_07 = [
    (single_vertex_graph(-2.0, 2), 15.0),
    (as_chain_graph(LineConfig((0.0, 1.0), (-2.0, -2.0))), 15.0),
    (star_graph(-2.5, L2=1.0), None),
    (star_graph(-1.0, L2=0.5), None),
    (star_graph(-0.6, L2=2.0), None),
]


@pytest.mark.parametrize("graph, h, R", [
    (star_graph(ALPHA_CRIT), 0.05, None),
    (_parallel_cycle(), 0.03, 4.0),
    (single_vertex_graph(-2.0, 3), 0.5, 0.2),  # R < h: no interior lead node
    (_parallel_cycle(), 1.0, 3.0),  # e3 = 0.4 < h/2: one element
] + [(g, 0.01, R) for g, R in _CRITERION_07])
def test_array_assembly_matches_the_element_loop(graph, h, R):
    disc = discretize(graph, h, R)
    node_count, node_table, stiffness, mass = _reference_discretize(graph, h, R)
    assert disc.node_count == node_count
    assert disc.node_table == node_table
    for got, want in ((disc.stiffness, stiffness), (disc.mass, mass)):
        for part in ("indptr", "indices", "data"):
            a, b = getattr(got, part), getattr(want, part)
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


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


def _excited_chain():
    """Sites 0 and 10 with alpha -4 and -1: lambda0 = -4, and the weak
    site carries a level near -0.25."""
    return as_chain_graph(LineConfig((0.0, 10.0), (-4.0, -1.0)))


def test_shift_above_the_ground_level_is_refuted():
    disc = discretize(_excited_chain(), h=0.01, R=25.0)
    with pytest.raises(OracleError, match="not positive definite"):
        smallest_eigenvalue(disc, shift=-0.75)
    assert abs(smallest_eigenvalue(disc, shift=-5.0).lambda_min + 4.0) < 1e-3


def test_compare_fails_on_an_excited_level():
    # the shift below a fabricated lambda0 = -0.25 would land next to the
    # weak site's level; the certificate refutes it and the report carries
    # the true ground level
    g = _excited_chain()
    gs = find_ground_state(g)
    rep = compare(g, dataclasses.replace(gs, kappa0=0.5, lambda0=-0.25))
    assert not rep.ok
    assert abs(rep.lambda_oracle + 4.0) < 1e-3
    assert abs(rep.difference - 3.75) < 1e-3
    assert compare(g, gs).ok
