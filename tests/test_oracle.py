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
import scipy.linalg
from scipy.optimize import brentq

from conftest import (
    ALPHA_CRIT,
    chain_graph,
    random_cyclic_graph,
    random_mixed_graph,
    random_tree_graph,
    robin_interval,
    single_vertex_graph,
    star_graph,
)
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
from qgbind import oracle

TWO_DELTA_LAMBDA = -1.6344715870972812


# ----------------------------------------------------------- assembly

def _dense(disc):
    """K and M as dense matrices, put together from their blocks."""
    nv, n = len(disc.alphas), disc.node_count
    out = []
    for blocks in (disc.stiffness, disc.mass):
        # the last row and column take the Dirichlet node -1
        a = np.zeros((n + 1, n + 1))
        a[:nv, :nv] = blocks.vertex
        i = np.arange(nv, n)
        a[i, i] = blocks.diagonal
        a[i, i + 1] = a[i + 1, i] = blocks.off
        for ends, nodes, c in zip(disc.chain_ends, disc.chain_nodes, blocks.coupling):
            a[ends, nodes] = a[nodes, ends] = c
        out.append(a[:n, :n])
    return out


def test_node_and_element_count_on_unit_interval():
    disc = discretize(robin_interval(-1.0, -1.0, 1.0), h=0.5)
    assert disc.node_count == 3
    # the two vertices, then the one interior node: the 3 diagonal and 2
    # coupling cells of the upper triangle filled, the cell between the two
    # ends 0
    assert disc.stiffness.vertex.shape == disc.mass.vertex.shape == (2, 2)
    assert disc.chain_nodes.tolist() == [[2, 2]]
    stiffness = _dense(disc)[0]
    assert np.count_nonzero(np.triu(stiffness)) == 5
    assert stiffness[0, 1] == 0.0


def test_edge_lengths_are_preserved_by_rounding():
    # length 1.04 at h = 0.5 rounds to 2 elements of 0.52 each
    disc = discretize(robin_interval(-1.0, -1.0, 1.04), h=0.5)
    assert disc.node_count == 3
    mid = disc.elements[0, 1]
    assert abs(_dense(disc)[0][mid, mid] - (2.0 / 0.52)) < 1e-12


def test_stiffness_row_sums_equal_vertex_alphas():
    # P1 stiffness of -d^2/dx^2 annihilates constants; only the delta terms
    # survive in the row sums, and they sit exactly on the vertex nodes
    g = star_graph(-1.25)
    disc = discretize(g, h=0.1)
    sums = _dense(disc)[0].sum(axis=1)
    expected = np.zeros(disc.node_count)
    for v in g.vertices:
        expected[disc.vertex_nodes[v.id]] = v.alpha
    assert np.allclose(sums, expected, rtol=0, atol=1e-12)


def test_mass_matrix_is_positive_definite():
    disc = discretize(star_graph(-1.0), h=0.25)
    w = np.linalg.eigvalsh(_dense(disc)[1])
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
    # one element of each of arm1, arm2 and axial ends at the centre
    assert np.count_nonzero(disc.elements == center) == 3


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


def test_compare_refuses_a_weakly_bound_mesh_past_the_memory_budget():
    # alpha = -2e-4 on two leads: kappa0 = 1e-4, so the default R of
    # 25 / kappa0 puts 5e7 nodes on the mesh at h = 0.01; that is refused
    # before any array is allocated
    g = single_vertex_graph(-2e-4, 2)
    gs = find_ground_state(g)
    tracemalloc.start()
    try:
        with pytest.raises(OracleError, match="5e\\+07 nodes, more than the limit of 1.111e\\+07"):
            compare(g, gs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def _reference_discretize(graph, h, R):
    """The per-element assembly loop, kept as the reference for the arrays."""
    import scipy.sparse as sp

    vertex_nodes = {v.id: i for i, v in enumerate(graph.vertices)}
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
        elements.extend((chain[k], chain[k + 1], he) for k in range(n))
    for lead in graph.infinite_edges:
        n = max(1, round(R / h))
        he = R / n
        chain = [vertex_nodes[lead.anchor]]
        for _ in range(n - 1):
            chain.append(next_node)
            next_node += 1
        chain.append(-1)
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
    return next_node, elements, stiffness, mass


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
    # the nodes are numbered as the loop numbers them, so the elements,
    # and K and M cell by cell, are bit for bit the loop's
    disc = discretize(graph, h, R)
    node_count, elements, stiffness, mass = _reference_discretize(graph, h, R)
    assert disc.node_count == node_count
    assert np.array_equal(disc.elements, [[g0, g1] for g0, g1, _ in elements])
    assert disc.vertex_nodes == {v.id: i for i, v in enumerate(graph.vertices)}
    assert disc.element_lengths.tolist() == [he for *_, he in elements]
    for got, want in zip(_dense(disc), (stiffness, mass)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want.toarray())


@pytest.mark.parametrize("graph, h, R", [
    (single_vertex_graph(-2.0, 2), 1.0, 0.5),  # 1 node: no chain interior
    (_parallel_cycle(), 1.0, 3.0),  # e1 and e2: parallel one-element edges
    (single_vertex_graph(-2.0, 3), 0.5, 0.2),  # leads shorter than h
    (robin_interval(-1.0, -1.0, 1.0), 0.5, None),  # one interior node
    (_parallel_cycle(), 0.03, 4.0),
    (star_graph(-1.0), 0.1, None),
])
def test_condensed_solve_matches_a_dense_solve(graph, h, R):
    disc = discretize(graph, h, R)
    stiffness, mass = _dense(disc)
    lowest = scipy.linalg.eigh(stiffness, mass, eigvals_only=True, subset_by_index=[0, 0])[0]
    b = np.random.default_rng(3).standard_normal(disc.node_count)
    # the solver and the product carry the Dirichlet node as a last slot of 0
    padded = np.append(b, 0.0)
    for shift in (lowest - 0.5, lowest - 50.0):
        want = np.linalg.solve(stiffness - shift * mass, b)
        got = oracle._factor(disc, shift)(padded)
        assert got[-1] == 0.0
        assert np.linalg.norm(got[:-1] - want) <= 1e-12 * np.linalg.norm(want)
    product = oracle._product(disc, disc.mass, padded)
    assert product[-1] == 0.0
    assert np.allclose(product[:-1], mass @ b, rtol=0, atol=1e-15)
    assert oracle._factor(disc, lowest + 1e-9 * abs(lowest)) is None


def _spy_on_dpotrf(monkeypatch):
    """The info of every dpotrf call the factor makes."""
    import scipy.linalg.lapack as lapack

    infos, dpotrf = [], lapack.dpotrf

    def spy(*args, **kwargs):
        u, info = dpotrf(*args, **kwargs)
        infos.append(info)
        return u, info

    monkeypatch.setattr(lapack, "dpotrf", spy)
    return infos


def test_a_shift_is_refused_by_the_chain_interiors_or_by_the_vertices(monkeypatch):
    # 7 interior nodes of h = 0.25 on an edge of 2: the lowest level of the
    # interior with Dirichlet ends is (6 / h^2)(1 - cos t)/(2 + cos t),
    # t = pi / 8, about 2.499.  Just above it the tridiagonal block refuses,
    # and the vertices are never reached; just below it, and at 0 (still
    # above the level -4.17), the Schur complement on the vertices refuses.
    disc = discretize(robin_interval(-2.0, -2.0, 2.0), h=0.25)
    t = math.pi / 8.0
    dirichlet = 96.0 * (1.0 - math.cos(t)) / (2.0 + math.cos(t))
    infos = _spy_on_dpotrf(monkeypatch)
    assert oracle._factor(disc, dirichlet * (1.0 + 1e-9)) is None
    assert infos == []
    for shift in (dirichlet * (1.0 - 1e-9), 0.0):
        assert oracle._factor(disc, shift) is None
        assert infos.pop() > 0
    assert oracle._factor(disc, -4.2) is not None
    assert infos == [0]
    with pytest.raises(OracleError, match="not positive definite"):
        smallest_eigenvalue(disc, shift=dirichlet * (1.0 + 1e-9))


# -------------------------------------------------------- eigenvalues

def _interval_dirichlet(length: float, h: float) -> float:
    """Smallest Dirichlet eigenvalue of -d2/dx2 on [0, length], P1 mesh.

    Assembly sanity case only: no graph, no coupling; exact value is
    (pi/length)^2.
    """
    import scipy.sparse as sp

    n = max(2, round(length / h))
    he = length / n
    m = n - 1
    k_main = np.full(m, 2.0 / he)
    k_off = np.full(m - 1, -1.0 / he)
    m_main = np.full(m, 4.0 * he / 6.0)
    m_off = np.full(m - 1, he / 6.0)
    K = sp.diags([k_off, k_main, k_off], [-1, 0, 1]).toarray()
    M = sp.diags([m_off, m_main, m_off], [-1, 0, 1]).toarray()
    w = scipy.linalg.eigh(K, M, eigvals_only=True)
    return float(w[0])


def test_dirichlet_interval_classic():
    # no coupling: smallest eigenvalue of the length-pi string is exactly 1,
    # approached from above at O(h^2)
    lam = _interval_dirichlet(math.pi, 0.01)
    assert 0.0 < lam - 1.0 < 2e-5
    assert abs(lam - 1.00000834181246) < 1e-9


def test_single_delta_lead_case():
    g = single_vertex_graph(-2.0, 2)
    disc = discretize(g, h=0.01, R=15.0)
    res = smallest_eigenvalue(disc, shift=-1.5)
    assert abs(res.lambda_min + 1.0) < 1e-3


def test_default_shift_path():
    g = single_vertex_graph(-2.0, 2)
    disc = discretize(g, h=0.02, R=12.0)
    # alpha = -2 shared by two leads: a = 1 per lead, so the bound
    # lambda0 >= -kappa*^2 is exact
    assert disc.kappa_bound == 1.0
    res = smallest_eigenvalue(disc)
    assert abs(res.lambda_min + 1.0) < 2e-3


def test_small_mesh_by_inverse_iteration():
    disc = discretize(robin_interval(-2.0, -2.0, 2.0), h=0.25)
    assert disc.node_count == 9
    kappa = brentq(lambda k: k * math.tanh(k) - 2.0, 0.5, 5.0, xtol=1e-14)
    res = smallest_eigenvalue(disc)
    # discretization error ~ lambda^2 h^2 / 12 ~ 0.095 at this h
    assert abs(res.lambda_min + kappa * kappa) < 0.15
    assert res.lambda_min >= -kappa * kappa


def test_a_shift_above_the_lowest_level_is_refused_on_a_small_mesh():
    # the lowest level of this 9-node mesh is about -4.17, below shift 0
    disc = discretize(robin_interval(-2.0, -2.0, 2.0), h=0.25)
    with pytest.raises(OracleError, match="not positive definite"):
        smallest_eigenvalue(disc, shift=0.0)


@pytest.mark.parametrize("graph, h, R", [
    (star_graph(-2.5, L2=1.0), 0.01, None),
    (star_graph(-1.0, L2=0.5), 0.01, None),
    (star_graph(-0.6, L2=2.0), 0.01, None),
    (single_vertex_graph(-2.0, 2), 0.05, 15.0),
    # weakly bound: the default shift sits about 1 below a level of -0.006
    # whose gap to the next is 0.02
    (robin_interval(-0.05, -0.05, 20.0), 0.05, None),
    (robin_interval(-2.0, -2.0, 2.0), 0.25, None),  # 9 nodes
    (single_vertex_graph(-2.0, 2), 1.0, 0.5),  # 1 node: each lead one element
])
def test_inverse_iteration_matches_dense_eigh(graph, h, R):
    disc = discretize(graph, h=h, R=R)
    dense = scipy.linalg.eigh(*_dense(disc), eigvals_only=True, subset_by_index=[0, 0])[0]
    for shift in (None, dense - 0.5):
        assert abs(smallest_eigenvalue(disc, shift=shift).lambda_min - dense) < 1e-10


def test_inverse_iteration_step_count_does_not_grow_as_the_gap_closes(monkeypatch):
    # kappa0 = 0.05: from the default shift -1.0025 plain inverse iteration
    # shrinks the error by only 1 - 1e-2 a step; the certified bisection of
    # the shift settles in a few dozen steps
    monkeypatch.setattr(oracle, "_MAX_ITERATIONS", 60)
    disc = discretize(single_vertex_graph(-0.1, 2), h=0.1, R=200.0)
    lams = [smallest_eigenvalue(disc, shift=s).lambda_min
            for s in (None, -0.5, 1.5 * -0.0025)]
    # rounding in K (entries up to 2/h) limits agreement to about 1e-13
    assert max(lams) - min(lams) < 1e-13
    assert 0.0 < lams[0] + 0.0025 < 1e-8


def test_inverse_iteration_raises_when_its_budget_runs_out(monkeypatch):
    disc = discretize(star_graph(-2.5, L2=1.0), h=0.01)
    monkeypatch.setattr(oracle, "_MAX_ITERATIONS", 2)
    with pytest.raises(OracleError, match="did not settle in 2 steps"):
        smallest_eigenvalue(disc)


@pytest.mark.parametrize("shift", [math.nan, -math.inf, math.inf])
def test_a_non_finite_shift_is_refused(shift):
    # nan and -inf once passed a NaN factor off as a certificate and ran the
    # whole step budget; +inf warned on inf * 0 in the shifted matrix
    disc = discretize(star_graph(-2.5, L2=1.0), h=0.05)
    with pytest.raises(OracleError, match=f"shift {shift!r} is not finite"):
        smallest_eigenvalue(disc, shift=shift)


def test_a_shift_so_far_below_that_the_vector_underflows_is_refused():
    # K + 1e300 M is positive definite, but y ~ 1e-304 and y'My underflows
    # to 0; that was a ZeroDivisionError
    disc = discretize(star_graph(-2.5, L2=1.0), h=0.05)
    with pytest.raises(OracleError, match="gave y'My = 0.0") as failure:
        smallest_eigenvalue(disc, shift=-1e300)
    assert (failure.value.solves, failure.value.factors) == (1, 1)


def test_default_shift_is_below_a_short_robin_edge():
    # two alpha = -1 ends 0.4 apart bind at lambda0 = -5.35, below the old
    # default -(sum |alpha|)^2 - 1 = -5; the half-edge bound gives
    # kappa* = 0.5 + sqrt(0.25 + 5)
    g = robin_interval(-1.0, -1.0, 0.4)
    kappa = brentq(lambda k: k * math.tanh(0.2 * k) - 1.0, 1.0, 5.0, xtol=1e-14)
    disc = discretize(g, h=0.01)
    assert disc.kappa_bound == pytest.approx(0.5 + math.sqrt(5.25), rel=1e-15)
    res = smallest_eigenvalue(disc)
    assert 0.0 <= res.lambda_min + kappa * kappa < 1e-3
    gs = find_ground_state(g)
    rep = compare(g, dataclasses.replace(gs, kappa0=0.5, lambda0=-0.25))
    assert not rep.ok
    assert abs(rep.lambda_oracle + kappa * kappa) < 1e-3


def test_a_far_default_shift_does_not_stop_at_the_start_vector():
    # an edge of 1e-8 puts the proven default shift near -1e8, where a step
    # moves the quotient by less than its rounding; the quotient of the
    # start vector there is -0.900, the level -0.94356.  The stiffness entry
    # 1e8 of that edge limits any level to about eps * 1e8.
    disc = discretize(chain_graph([-2.0, -1.0, -0.5], [1.0, 1e-8]), h=1.0, R=1.0)
    assert disc.node_count == 3
    assert disc.kappa_bound > 1e4
    near = smallest_eigenvalue(disc, shift=-1.5).lambda_min
    assert abs(near + 0.9435595762) < 1e-8
    assert abs(smallest_eigenvalue(disc).lambda_min - near) < 1e-7 * abs(near)


def test_default_shift_bound_lies_below_the_ground_state():
    rng = np.random.default_rng(21)
    for k in range(40):
        g = (random_mixed_graph, random_cyclic_graph, random_tree_graph)[k % 3](rng)
        if k % 2:
            g = dataclasses.replace(g, finite_edges=tuple(
                dataclasses.replace(e, length=e.length * 10 ** rng.uniform(-3, 0))
                for e in g.finite_edges))
        kappa_bound = discretize(g, h=10.0, R=1.0).kappa_bound
        assert find_ground_state(g).kappa0 <= kappa_bound


def test_two_delta_line_value():
    from qgbind import LineConfig, as_chain_graph

    g = as_chain_graph(LineConfig((0.0, 1.0), (-2.0, -2.0)))
    disc = discretize(g, h=5e-3, R=15.0)
    res = smallest_eigenvalue(disc, shift=-2.0)
    assert abs(res.lambda_min - TWO_DELTA_LAMBDA) < 2e-3


def test_variational_upper_bound():
    # conforming elements on a truncated domain can only raise the minimum
    for g in (single_vertex_graph(-2.0, 2), robin_interval(-2.0, -2.0, 2.0),
              star_graph(-1.5)):
        gs = find_ground_state(g)
        R = 12.0 if g.infinite_edges else None
        disc = discretize(g, h=0.02, R=R)
        res = smallest_eigenvalue(disc, shift=gs.lambda0 - 1.0)
        assert res.lambda_min >= gs.lambda0 - 1e-10


def test_order_two_convergence():
    g = single_vertex_graph(-2.0, 2)
    errors = []
    for h in (0.04, 0.02, 0.01):
        disc = discretize(g, h=h, R=15.0)
        res = smallest_eigenvalue(disc, shift=-1.5)
        errors.append(abs(res.lambda_min + 1.0))
    assert 3.5 < errors[0] / errors[1] < 4.5
    assert 3.5 < errors[1] / errors[2] < 4.5


def test_truncation_monotone_in_R():
    g = single_vertex_graph(-2.0, 2)
    lams = []
    for R in (5.0, 8.0, 12.0):
        disc = discretize(g, h=0.02, R=R)
        lams.append(smallest_eigenvalue(disc, shift=-1.5).lambda_min)
    assert lams[0] > lams[1] > lams[2] >= -1.0


# -------------------------------------------------------- comparison

def test_comparison_constant_is_the_headroom_times_the_p1_term():
    # the leading P1 error lambda^2 h^2 / 12 at lambda = -1, headroom 100
    assert comparison_constant() == 100.0 / 12.0
    # and that term is the error of the one-vertex two-lead graph
    h = 0.02
    disc = discretize(single_vertex_graph(-2.0, 2), h, 15.0)
    err = smallest_eigenvalue(disc, shift=-1.5).lambda_min + 1.0
    assert err == pytest.approx(h * h / 12.0, rel=1e-2)


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


def test_compare_passes_on_random_cyclic_graphs():
    # cycles, parallel edges and clusters of short edges (1e-8 to 1e-3)
    rng = np.random.default_rng(5)
    for _ in range(12):
        g = random_cyclic_graph(rng)
        rep = compare(g, find_ground_state(g))
        assert rep.ok, (g, rep)


def test_the_level_does_not_depend_on_the_shift():
    # shift + y'Mx / y'My carried eps * max K_ii / M_ii: the levels from
    # 1.5 lambda0 and 1.01 lambda0 differed by 3.3e-9 on the draw with an
    # edge of 1.1e-8; the element-wise quotient of the vector does not
    rng = np.random.default_rng(5)
    for _ in range(12):
        g = random_cyclic_graph(rng)
        gs = find_ground_state(g)
        disc = discretize(g, 0.01, compare(g, gs).R)
        far, near = (smallest_eigenvalue(disc, shift=f * gs.lambda0).lambda_min
                     for f in (1.5, 1.01))
        assert abs(far - near) <= 1e-13 * abs(near), (g, far, near)


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


CRITERION_07_GRAPHS = [
    single_vertex_graph(-2.0, 2),
    as_chain_graph(LineConfig((0.0, 1.0), (-2.0, -2.0))),
    star_graph(-2.5, L2=1.0),
    star_graph(-1.0, L2=0.5),
    star_graph(-0.6, L2=2.0),
]


@pytest.mark.parametrize("graph", [
    *CRITERION_07_GRAPHS,
    single_vertex_graph(-0.1, 2),  # kappa0 = 0.05
    single_vertex_graph(-10.0, 2),  # kappa0 = 5
    single_vertex_graph(-40.0, 3),  # kappa0 = 13.3
])
def test_compare_settles_in_a_few_solves_on_one_factor(graph):
    # the shift 1.01 lambda0 is certified by its first factor and leaves
    # r = (lambda_h - shift) / (lambda_1 - shift) near 0.01, so the error of
    # the quotient shrinks by about 1e-4 a solve; the stop test sits at the
    # rounding level, so the exact count (5 or 6 here) may move by one with
    # the BLAS, and only the bound is pinned
    rep = compare(graph, find_ground_state(graph))
    assert rep.ok
    assert rep.solves <= 6 and rep.factors == 1


@pytest.mark.parametrize("high", [0.005, 0.05])
def test_the_shift_margin_cannot_hide_a_wrong_ground_state(high):
    # a lambda0 0.5% too high leaves the shift 1.01 lambda0 below the true
    # level, where the iteration finds it; at 5% the shift lies above the
    # level, its factor is refused, and the default shift finds it.  Both
    # FAIL with the true level, and the refused factor is counted.
    g = single_vertex_graph(-2.0, 2)
    gs = find_ground_state(g)
    true = compare(g, gs)
    wrong = dataclasses.replace(gs, kappa0=gs.kappa0 * math.sqrt(1.0 - high),
                                lambda0=gs.lambda0 * (1.0 - high))
    rep = compare(g, wrong, R=true.R)
    assert not rep.ok
    assert rep.difference > 4.0 * rep.tolerance
    # the same level to its rounding, about eps * max(K_ii / M_ii) = 7e-12
    assert abs(rep.lambda_oracle - true.lambda_oracle) < 1e-10
    if high < 0.01:
        assert rep.factors == 1
    else:
        default = smallest_eigenvalue(discretize(g, 0.01, true.R))
        assert (rep.solves, rep.factors) == (default.solves, default.factors + 1)


def _pendant_graph(alpha: float, length: float) -> MetricGraph:
    """Vertex with two leads and a pendant edge to a weak vertex."""
    return MetricGraph(
        (VertexSpec("v", alpha), VertexSpec("w", -0.05)),
        (FiniteEdge("p", "v", "w", length),),
        (InfiniteEdge("t1", "v"), InfiniteEdge("t2", "v")),
    )


@pytest.mark.parametrize("alpha, leads", [(-10.0, 2), (-20.0, 2), (-40.0, 3)])
def test_compare_passes_exact_ground_states_at_strong_coupling(alpha, leads):
    # kappa0 = |alpha| / leads = 5, 10, 13.3: the raw P1 error
    # kappa0^4 h^2 / 12 is far above the tolerance, the corrected one is not
    g = single_vertex_graph(alpha, leads)
    gs = find_ground_state(g)
    assert gs.kappa0 == pytest.approx(-alpha / leads, rel=1e-12)
    rep = compare(g, gs)
    assert rep.ok
    assert rep.correction > 5.0 * rep.tolerance
    # a uniform mesh: the element-weighted term is lambda_h^2 h^2 / 12
    assert rep.correction == pytest.approx(rep.lambda_oracle**2 * 1e-4 / 12.0, rel=1e-12)
    assert rep.difference == abs(rep.lambda_oracle - rep.correction - gs.lambda0)
    assert rep.difference < 1e-9


@pytest.mark.parametrize("alpha", [-10.0, -20.0])
def test_compare_weights_the_correction_by_element_length(alpha):
    # a pendant edge of 1.4 h is one element of 1.4 h next to the strong
    # vertex; at kappa0 = 9.4 the uniform term lambda_h^2 h^2 / 12 leaves
    # 7e-3, the element-weighted one 8e-6
    g = _pendant_graph(alpha, 0.014)
    gs = find_ground_state(g)
    rep = compare(g, gs)
    assert rep.ok
    assert rep.difference < 1e-4
    uniform = abs(rep.lambda_oracle - rep.lambda_oracle**2 * 1e-4 / 12.0 - gs.lambda0)
    if alpha == -20.0:
        assert uniform > 5.0 * rep.tolerance


@pytest.mark.parametrize("graph", [
    single_vertex_graph(-0.1, 2),  # kappa0 = 0.05, leads truncated at 500
    single_vertex_graph(-0.16, 2),
    star_graph(ALPHA_CRIT - 0.01),
    robin_interval(-0.05, -0.05, 20.0),
])
def test_compare_passes_weakly_bound_ground_states(graph):
    rep = compare(graph, find_ground_state(graph))
    assert rep.ok
    assert rep.difference < 1e-9


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
