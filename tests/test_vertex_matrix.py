"""Vertex-reduced matrix M(kappa) and the closed-form critical coupling."""

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import (
    ALPHA_CRIT,
    random_chain_graph,
    random_cyclic_graph,
    random_mixed_graph,
    random_tree_graph,
    single_vertex_graph,
    star_graph,
)
from qgbind import (
    CritError,
    FiniteEdge,
    InfiniteEdge,
    MetricGraph,
    SweepTarget,
    VertexSpec,
    apply_target,
    degree,
    find_critical_coupling,
    find_ground_state,
)
from qgbind.graph import parameters
from qgbind.secular import _assemble, _reduced, _Topology, vertex_matrix


def _parallel_graph():
    """Two vertices joined by two edges of different lengths, one lead each."""
    return MetricGraph(
        (VertexSpec("u", -1.0), VertexSpec("v", -0.5)),
        (FiniteEdge("e1", "u", "v", 0.7), FiniteEdge("e2", "v", "u", 1.3)),
        (InfiniteEdge("t1", "u"), InfiniteEdge("t2", "v")),
    )


def _graphs():
    rng = np.random.default_rng(20)
    return (
        [random_chain_graph(rng) for _ in range(4)]
        + [random_tree_graph(rng) for _ in range(4)]
        + [random_mixed_graph(rng) for _ in range(4)]
        + [_parallel_graph(), single_vertex_graph(-2.0, 3), star_graph(-1.0)]
    )


def _vertex_values(graph, gs):
    """The state's value at each vertex, in vertex order."""
    at = {}
    for e in graph.finite_edges:
        s = gs.solution(e.id)
        at[e.start] = float(s.value(0.0))
        at[e.end] = float(s.value(e.length))
    for e in graph.infinite_edges:
        at[e.anchor] = gs.solution(e.id).c
    return np.array([at[v.id] for v in graph.vertices])


def test_two_edge_entries_by_hand():
    # coth and 1/sinh of kappa l, summed over the parallel pair; leads add kappa
    k = 1.7
    m = vertex_matrix(_parallel_graph(), k)
    coth = sum(1.0 / np.tanh(k * l) for l in (0.7, 1.3))
    csch = sum(1.0 / np.sinh(k * l) for l in (0.7, 1.3))
    expected = np.array([[-1.0 + k + k * coth, -k * csch],
                         [-k * csch, -0.5 + k + k * coth]])
    np.testing.assert_allclose(m, expected, rtol=1e-14)


def test_elimination_gives_the_schur_complement():
    rng = np.random.default_rng(3)
    W = rng.uniform(0.0, 1.0, (5, 5))
    W = W + W.T
    np.fill_diagonal(W, 0.0)
    a = rng.uniform(-0.5, 0.5, 5)
    m = np.diag(a + W.sum(axis=1)) - W
    np.testing.assert_allclose(_assemble(a, W.copy()), m, rtol=1e-15)
    reduced, kept, steps, alive = _reduced(a[None].copy(), W[None].copy(), [1, 3])
    k, e = [0, 2, 4], [1, 3]
    schur = m[np.ix_(k, k)] - m[np.ix_(k, e)] @ np.linalg.solve(m[np.ix_(e, e)], m[np.ix_(e, k)])
    np.testing.assert_allclose(reduced[0], schur, rtol=1e-13, atol=1e-14)
    assert list(kept) == k and [v for v, *_ in steps] == e and alive is None
    # a pivot <= 0: M is not positive definite, so mu0(M) < 0; that member
    # is left out, the others are reduced as on their own
    a2, W2 = np.array([[1.0, 1.0], [-5.0, 1.0]]), np.array([[[0.0, 1.0], [1.0, 0.0]]] * 2)
    reduced, _, _, alive = _reduced(a2, W2, [0])
    assert list(alive) == [0] and reduced.shape == (1, 1, 1)
    assert reduced[0, 0, 0] == 1.0 + 1.0 - 1.0 / 2.0


def test_newton_slope_is_the_derivative_of_mu0_in_kappa_squared():
    # Hellmann-Feynman: dmu0/ds = ||psi||**2 / ||f||**2 for the Perron vector
    # f of the (Schur-reduced) matrix, against central differences in s; the
    # draws have cycles, parallel edges and short-edge clusters
    rng = np.random.default_rng(8)
    for _ in range(40):
        graph = random_cyclic_graph(rng)
        topo, (alphas, lengths) = _Topology(graph), parameters(graph)
        kappa = float(rng.uniform(0.3, 3.0))
        roots, order = topo.clusters(kappa * lengths[0])

        def mu0(s):
            a, W, _, _ = topo.parts(np.array([np.sqrt(s)]), alphas, lengths)
            return np.linalg.eigvalsh(_reduced(a, W, order)[0][0])[0]

        a, W, E, den = topo.parts(np.array([kappa]), alphas, lengths)
        reduced, kept, steps, _ = _reduced(a, W, order)
        mu, vecs = np.linalg.eigh(reduced[0])
        slope = topo.profiles(np.array([kappa]), lengths, E, den, vecs[None, :, 0], kept, steps,
                              roots)[3][0]
        s, h = kappa * kappa, 1e-5 * kappa * kappa
        assert abs(slope - (mu0(s + h) - mu0(s - h)) / (2 * h)) <= 1e-6 * slope


@pytest.mark.parametrize("graph", _graphs())
def test_singular_at_the_graph_route_root_with_the_state_as_null_vector(graph):
    gs = find_ground_state(graph)
    m = vertex_matrix(graph, gs.kappa0)
    mu, vecs = np.linalg.eigh(m)
    # the terms that cancel at the root are of size |M| + max|alpha|
    alpha = max(abs(v.alpha) for v in graph.vertices)
    assert abs(mu[0]) <= 1e-10 * (np.linalg.norm(m, 2) + alpha)
    values = _vertex_values(graph, gs)
    perron = vecs[:, 0] * np.sign(vecs[:, 0].sum())
    assert np.all(perron > 0)
    np.testing.assert_allclose(perron, values / np.linalg.norm(values), rtol=1e-8, atol=1e-12)


@pytest.mark.parametrize("graph", _graphs())
def test_smallest_eigenvalue_increases(graph):
    kappas = np.geomspace(1e-3, 50.0, 200)
    mu0 = [np.linalg.eigvalsh(vertex_matrix(graph, k))[0] for k in kappas]
    assert np.all(np.diff(mu0) > 0)


# ------------------------------------------------------- critical coupling

def _reference_alpha_crit(graph, axial, window=(0.5, 3.0), bracket=(-3.0, -0.1)):
    """Brent on lambda0(alpha, hi) - lambda0(alpha, lo): the root search the
    closed form replaced, kept as its reference."""
    edge = next(e for e in graph.finite_edges if e.id == axial)
    center = edge.end if degree(graph, edge.start) == 1 else edge.start

    def lam(alpha, length):
        g = apply_target(graph, SweepTarget("vertex", center), alpha)
        return find_ground_state(apply_target(g, SweepTarget("edge", axial), length)).lambda0

    def gap(alpha):
        return lam(alpha, window[1]) - lam(alpha, window[0])

    ga, gb = gap(bracket[0]), gap(bracket[1])
    if (ga < 0) == (gb < 0):
        raise CritError("no sign change")
    return brentq(gap, *bracket, xtol=1e-13)


def _random_star(rng):
    """Center joined to an outer vertex by the axial edge and to 2-4 arms."""
    vertices = [VertexSpec("c", -1.0), VertexSpec("q", float(rng.uniform(-3.0, -0.5)))]
    edges = [FiniteEdge("axial", "c", "q", 1.0)]
    for i in range(int(rng.integers(2, 5))):
        vertices.append(VertexSpec(f"p{i}", float(rng.uniform(-1.5, -0.1))))
        edges.append(FiniteEdge(f"arm{i}", "c", f"p{i}", float(rng.uniform(0.3, 1.5))))
    return MetricGraph(tuple(vertices), tuple(edges)), "axial"


def _random_pendant_tree(rng):
    """A random tree (possibly with leads) and one of its pendant edges,
    whose outer vertex gets an alpha in [-3, -1]."""
    while True:
        graph = random_tree_graph(rng)
        for e in graph.finite_edges:
            if degree(graph, e.end) == 1 and degree(graph, e.start) > 1:
                return apply_target(graph, SweepTarget("vertex", e.end),
                                    float(rng.uniform(-3.0, -1.0))), e.id


def _draws():
    rng = np.random.default_rng(3)
    return [_random_star(rng) if i % 2 == 0 else _random_pendant_tree(rng)
            for i in range(24)]


def test_closed_form_matches_the_root_search_and_fails_on_the_same_draws():
    outcomes, cholesky_failures = [], 0
    for graph, axial in _draws():
        try:
            ref = _reference_alpha_crit(graph, axial)
        except CritError:
            ref = None
        try:
            got = find_critical_coupling(graph, axial).alpha_crit
        except CritError as exc:
            got = None
            cholesky_failures += "binds below" in str(exc)
        assert (ref is None) == (got is None), (graph, ref, got)
        if ref is not None:
            assert abs(got - ref) <= 1e-9
        outcomes.append(ref is not None)
    # both outcomes occur among the draws, on stars and on trees, and some
    # draw fails through the Cholesky step rather than the bracket
    assert any(outcomes[0::2]) and not all(outcomes[0::2])
    assert any(outcomes[1::2]) and not all(outcomes[1::2])
    assert cholesky_failures


def test_reference_star_alpha_crit_and_flat_ground_state():
    res = find_critical_coupling(star_graph(-1.0), "axial")
    assert abs(res.alpha_crit - ALPHA_CRIT) <= 1e-14
    # the ground state at alpha_c is kappa0 = |alpha_q| = 2 at every length
    assert abs(res.kappa0 - 2.0) <= 1e-12
    assert res.axial_index == 0 and res.variation < 1e-8


def test_pendant_edge_on_a_lead_vertex_is_exact():
    # psi = e^{kappa x} on the edge and e^{-kappa x} on both leads solves
    # every vertex condition at alpha_c = alpha_q = -kappa, for any length
    graph = MetricGraph(
        (VertexSpec("c", -1.0), VertexSpec("q", -2.0)),
        (FiniteEdge("axial", "c", "q", 1.0),),
        (InfiniteEdge("t1", "c"), InfiniteEdge("t2", "c")),
    )
    res = find_critical_coupling(graph, "axial")
    assert res.alpha_crit == -2.0
    assert abs(res.kappa0 - 2.0) <= 1e-12
