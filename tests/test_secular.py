"""Graph-route solver tests.

Expected values are computed first from independent closed-form relations
(fixed points of scalar equations solved with brentq) and only then compared
with the solver output, so a shared bug cannot cancel.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from conftest import (
    chain_graph,
    random_chain_graph,
    random_cyclic_graph,
    random_mixed_graph,
    random_tree_graph,
    robin_interval,
    scaled_graph,
    single_vertex_graph,
    star_graph,
)
from qgbind import (
    DegenerateRoot,
    EdgeSolution,
    FiniteEdge,
    InfiniteEdge,
    LineConfig,
    MetricGraph,
    NoBoundState,
    PositivityViolation,
    SolverOptions,
    VertexSpec,
    as_chain_graph,
    classify_edge_index,
    find_ground_state,
    ground_state_line,
    vertex_condition_residuals,
)
from qgbind import secular as secular_module
from qgbind.graph import parameters
from qgbind.rayleigh import _interval_integrals
from qgbind.secular import _Topology, _edge_minima, _positive_tail, vertex_matrix

# fixed point of kappa = 1 + exp(-kappa): two sites at distance 1, alpha -2
TWO_DELTA_KAPPA = 1.2784645427610737
TWO_DELTA_LAMBDA = -1.6344715870972812


# ---------------------------------------------------------------- anchors

@pytest.mark.parametrize("alpha,n_leads", [(-2.0, 1), (-2.0, 2), (-3.0, 3)])
def test_single_vertex_anchor(alpha, n_leads):
    expected = abs(alpha) / n_leads
    gs = find_ground_state(single_vertex_graph(alpha, n_leads))
    assert abs(gs.kappa0 - expected) < 1e-12
    assert abs(gs.lambda0 + expected * expected) < 1e-12


def test_single_lead_coefficient_is_sqrt_2kappa():
    # L2 normalization on one lead: c^2 / (2 kappa) = 1
    gs = find_ground_state(single_vertex_graph(-2.0, 1))
    (sol,) = gs.solutions
    assert sol.kind == "infinite"
    assert abs(sol.c - math.sqrt(2.0 * gs.kappa0)) < 1e-12


def test_two_lead_coefficients_split_mass():
    gs = find_ground_state(single_vertex_graph(-2.0, 2))
    for sol in gs.solutions:
        assert abs(sol.c - math.sqrt(gs.kappa0)) < 1e-12
    assert gs.indices == (0, 0)


# ------------------------------------------------- vertex conditions

def test_secular_indicator_changes_sign_at_the_solved_root():
    # the state built from M(kappa0) meets every vertex condition on the edge
    # functions themselves (psi and psi' at the edge ends, not M), and is
    # positive
    rng = np.random.default_rng(20240611)
    graphs = [single_vertex_graph(-2.0, 3), robin_interval(-1.0, -0.5, 2.0),
              star_graph(-1.0), star_graph(-2.5, L2=0.4),
              chain_graph([-1.0, -0.6, -1.4], [0.8, 1.7])]
    graphs += [random_chain_graph(rng) for _ in range(10)]
    graphs += [random_tree_graph(rng) for _ in range(10)]
    graphs += [random_mixed_graph(rng) for _ in range(20)]
    for g in graphs:
        d = find_ground_state(g).diagnostics
        assert max(d.continuity_residual, d.coupling_residual) < 1e-12, g
        assert d.min_sampled > 0.0, g


# ------------------------------------------------------ interval problems

def test_symmetric_interval_against_scalar_equation():
    # even ground state on [0, l]: kappa * tanh(kappa l / 2) = |alpha|
    alpha, l = -2.0, 2.0
    expected = brentq(lambda k: k * math.tanh(k * l / 2.0) - abs(alpha), 1e-6, 10.0,
                      xtol=1e-14)
    gs = find_ground_state(robin_interval(alpha, alpha, l))
    assert abs(gs.kappa0 - expected) < 1e-11
    sol = gs.solution("e1")
    # psi = cosh(kappa (x - l/2)) up to scale, so b/a = -tanh(kappa l / 2)
    assert abs(sol.b / sol.a + math.tanh(gs.kappa0 * l / 2.0)) < 1e-10
    assert gs.index("e1") == 1
    assert gs.kappa0 > abs(alpha)


def test_two_delta_line_fixed_point():
    # kappa = |alpha|/2 (1 + exp(-kappa d)) for d=1, alpha=(-2,-2)
    expected = brentq(lambda k: k - 1.0 - math.exp(-k), 0.5, 3.0, xtol=1e-14)
    assert abs(expected - TWO_DELTA_KAPPA) < 1e-13
    g = as_chain_graph(LineConfig((0.0, 1.0), (-2.0, -2.0)))
    gs = find_ground_state(g)
    assert abs(gs.kappa0 - TWO_DELTA_KAPPA) < 1e-11
    assert abs(gs.lambda0 - TWO_DELTA_LAMBDA) < 1e-10
    assert gs.index("e1") == 1


def test_short_interval_root_far_above_sum_alpha():
    # merged-vertex limit: kappa0 lies far above sum|alpha| = 4, and Newton
    # climbs there from the lower bound
    alpha, l = -2.0, 0.02
    expected = brentq(lambda k: k * math.tanh(k * l / 2.0) - abs(alpha), 1.0, 1000.0,
                      xtol=1e-12)
    assert expected > 4.0
    gs = find_ground_state(robin_interval(alpha, alpha, l))
    assert abs(gs.kappa0 - expected) < 1e-9
    assert gs.diagnostics.bracket[1] >= expected


def test_small_kappa_max_option_still_converges():
    # kappa_max is a hard ceiling: just above kappa0 = 2 the solve converges,
    # and the certificate point kappa0 (1 + 2 tol_kappa) is capped there (a
    # ceiling below kappa0 is test_no_bound_state_when_ceiling_capped)
    g = star_graph(-1.0)
    kappa0 = find_ground_state(g).kappa0
    gs = find_ground_state(g, SolverOptions(kappa_max=kappa0 * (1 + 1e-9)))
    assert abs(gs.kappa0 - kappa0) <= 1e-12 * kappa0
    assert gs.diagnostics.bracket[1] <= kappa0 * (1 + 1e-9)
    gs = find_ground_state(g, SolverOptions(kappa_max=kappa0 * (1 + 1e-12)))
    assert abs(gs.kappa0 - kappa0) <= 1e-12 * kappa0
    assert gs.diagnostics.bracket[1] == kappa0 * (1 + 1e-12)


# ----------------------------------------------------------- error paths

def _state_at(graph, kappa):
    """The state :func:`secular._states` builds at one kappa, as if Newton
    had certified it a root; raises the refusal it returns instead."""
    topo = secular_module._Topology(graph)
    alphas, lengths = parameters(graph)
    state = secular_module._states(topo, np.array([kappa]), alphas, lengths,
                                   *topo.clusters(kappa * lengths[0]), np.ones(1))[0]
    if isinstance(state, Exception):
        raise state
    return state


def test_excited_root_rejected_as_nonpositive():
    # interval l=4, alpha=-1: odd root kappa*coth(2 kappa)=1 sits below the
    # even root kappa*tanh(2 kappa)=1; the state at the odd root changes
    # sign, which must be refused
    kg = brentq(lambda k: k * math.tanh(2.0 * k) - 1.0, 0.5, 3.0, xtol=1e-14)
    kx = brentq(lambda k: k / math.tanh(2.0 * k) - 1.0, 0.5, 3.0, xtol=1e-14)
    assert kx < 1.0 < kg
    g = robin_interval(-1.0, -1.0, 4.0)
    assert np.linalg.eigvalsh(vertex_matrix(g, kx))[0] < 0
    # the vector of mu0 < 0 = mu1 is refused by the gap before positivity
    with pytest.raises(DegenerateRoot, match="nullspace not simple"):
        _state_at(g, kx)


def test_underflowing_state_is_reported_as_underflow():
    # the ground state kappa0 = 1 of the stronger well decays across the
    # edge: exp(-750) is below the smallest double, exp(-740) is not
    with pytest.raises(PositivityViolation, match="underflows.*kappa0 l = 750"):
        find_ground_state(chain_graph([-2.0, -1.0], [750.0]))
    gs = find_ground_state(chain_graph([-2.0, -1.0], [740.0]))
    assert gs.kappa0 == 1.0
    assert 0.0 < gs.diagnostics.min_sampled < 1e-320


def test_reconstruct_at_nonroot_is_degenerate():
    g = robin_interval(-1.0, -1.0, 4.0)
    with pytest.raises(DegenerateRoot):
        _state_at(g, 1.7)


def test_no_bound_state_when_ceiling_capped():
    g = single_vertex_graph(-2.0, 1)
    with pytest.raises(NoBoundState):
        find_ground_state(g, SolverOptions(kappa_max=0.5))


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_tol_kappa_must_be_positive_and_finite(tol):
    with pytest.raises(ValueError, match="tol_kappa"):
        find_ground_state(single_vertex_graph(-2.0, 1), SolverOptions(tol_kappa=tol))


@pytest.mark.parametrize("kappa_max", [-1.0, 0.0, math.nan, math.inf])
def test_kappa_max_must_be_positive_and_finite(kappa_max):
    with pytest.raises(ValueError, match="kappa_max"):
        find_ground_state(single_vertex_graph(-2.0, 1), SolverOptions(kappa_max=kappa_max))


# ------------------------------------------------------ memory

def _uniform_chain(n):
    return as_chain_graph(LineConfig(tuple(float(i) for i in range(n)), (-1.0,) * n))


def _peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_chain_solve_peak_memory_is_small():
    # no kappa grid is built: solving this chain (D = 40) stays within a few MiB
    graph = _uniform_chain(20)
    assert _peak_mib(lambda: find_ground_state(graph)) < 8.0


# ------------------------------------------- far wells, extreme couplings

@pytest.mark.parametrize("alpha,distance", [
    (-1.0, 40.0),
    pytest.param(-2.0, 400.0, marks=pytest.mark.xfail(
        strict=True, raises=DegenerateRoot,
        reason="mu1 - mu0 = 8e-174 at the root: no simplicity certificate; "
        "the near-degenerate policy is ROADMAP item 4")),
])
def test_distant_equal_wells_match_kernel_route(alpha, distance):
    config = LineConfig((0.0, distance), (alpha, alpha))
    expected = ground_state_line(config).kappa0
    gs = find_ground_state(as_chain_graph(config))
    assert abs(gs.kappa0 - expected) <= 1e-10 * expected


def test_distant_equal_wells_on_the_kernel_route():
    # the value the graph route reproduces
    kappa0 = ground_state_line(LineConfig((0.0, 40.0), (-1.0, -1.0))).kappa0
    assert abs(kappa0 - 0.5000000010305767) < 1e-15


@pytest.mark.parametrize("distance", [40.0, 100.0, 300.0])
def test_distant_unequal_wells_match_kernel_route(distance):
    config = LineConfig((0.0, distance), (-1.0, -2.0))
    expected = ground_state_line(config).kappa0
    gs = find_ground_state(as_chain_graph(config))
    assert abs(gs.kappa0 - expected) <= 1e-10 * expected
    assert abs(gs.kappa0 - 1.0) <= 1e-12
    # the weak well's vertex value is f_strong / cosh(kappa0 l): 8.5e-18 of
    # it at l = 40 and 5e-131 at l = 300, below eigh's absolute resolution
    weak, strong = gs.solution("lead_left").c, gs.solution("lead_right").c
    assert gs.diagnostics.min_sampled > 0.0
    assert abs(weak * math.cosh(gs.kappa0 * distance) / strong - 1.0) <= 1e-12


@pytest.mark.parametrize("distance", [40.0, 100.0, 300.0])
def test_distant_unequal_wells_on_the_kernel_route(distance):
    # the strong well alone binds at |alpha|/2 = 1; the weak one shifts it
    # by about exp(-2 distance), below rounding
    kappa0 = ground_state_line(LineConfig((0.0, distance), (-1.0, -2.0))).kappa0
    assert abs(kappa0 - 1.0) <= 1e-15


def test_deflated_perron_component_is_recovered():
    # eigh can return an exactly zero component for the weak well; its row
    # of M f = mu0 f gives it back as f_strong / cosh(kappa l)
    m = vertex_matrix(as_chain_graph(LineConfig((0.0, 100.0), (-1.0, -2.0))), 1.0)
    mu0 = float(np.linalg.eigvalsh(m)[0])
    f = _positive_tail(m, mu0, np.array([0.0, 1.0]))
    assert f[1] == 1.0
    assert abs(f[0] * math.cosh(100.0) - 1.0) <= 1e-12


def test_exponential_tail_is_solved_as_one_block():
    # the path v2-v1-v0-v3 with a lead at v0: v0, v1, v2 lie 12, 35 and 51
    # orders of magnitude below v3, all under eigh's resolution; recomputed
    # one at a time, each from neighbours still holding junk, v2 came out
    # -6.5e-32 and the state was refused as underflow (kappa0 l = 52.55).
    # Reference: the vertex values from a 120-digit eigenvector.
    g = MetricGraph(
        (VertexSpec("v0", -24.450961214610192), VertexSpec("v1", -16.751373498718134),
         VertexSpec("v2", -9.653975379312165), VertexSpec("v3", -17.635366325145302)),
        (FiniteEdge("e0", "v0", "v1", 2.980071768054838),
         FiniteEdge("e1", "v1", "v2", 2.174038230118531),
         FiniteEdge("e2", "v0", "v3", 1.5398373240022791)),
        (InfiniteEdge("t1", "v0"),),
    )
    gs = find_ground_state(g)
    assert gs.kappa0 == pytest.approx(17.635366325145306, rel=1e-14)
    assert gs.indices == (0, 0, 1, 0)
    e0, e1, e2 = (gs.solution(e) for e in ("e0", "e1", "e2"))
    v3 = float(e2.value(e2.length))
    got = [float(e0.value(0.0)), float(e1.value(0.0)), float(e1.value(e1.length))]
    for value, reference in zip(got, (1.9940158e-12, 5.6927153e-35, 5.6211094e-51)):
        assert value / v3 == pytest.approx(reference, rel=1e-6)


@pytest.mark.parametrize("alpha", [-1e-6, -1e-9])
def test_weak_coupling_is_exact(alpha):
    gs = find_ground_state(single_vertex_graph(alpha, 2))
    assert abs(gs.kappa0 - abs(alpha) / 2) <= 1e-12 * abs(alpha) / 2


@pytest.mark.parametrize("n", [80, 120])
def test_long_uniform_chain_matches_kernel_route(n):
    config = LineConfig(tuple(float(i) for i in range(n)), (-1.0,) * n)
    expected = ground_state_line(config).kappa0
    gs = find_ground_state(as_chain_graph(config))
    assert abs(gs.kappa0 - expected) <= 1e-12 * expected
    assert gs.diagnostics.min_sampled > 0.0


@pytest.mark.parametrize("length", [1e-3, 1e-6, 1e-9])
def test_short_edge_matches_kernel_route(length):
    # an edge's weight ~ 1/l in M(kappa) must not swamp the O(1) terms
    config = LineConfig((0.0, length, length + 1.0), (-1.0, -0.5, -0.3))
    expected = ground_state_line(config).kappa0
    gs = find_ground_state(as_chain_graph(config))
    assert abs(gs.kappa0 - expected) <= 1e-12 * expected
    d = gs.diagnostics
    assert max(d.continuity_residual, d.coupling_residual) < 1e-12
    assert d.min_sampled > 0.0


def test_cluster_of_short_edges_with_cycles():
    # u, v, x joined by four short edges (two of them parallel), x to w by a
    # unit edge; the vertex residuals, in the exponential edge basis, check
    # the state
    g = MetricGraph(
        (VertexSpec("u", -1.0), VertexSpec("v", -0.5), VertexSpec("x", -0.2),
         VertexSpec("w", -0.3)),
        (FiniteEdge("e1", "u", "v", 1e-7), FiniteEdge("e2", "v", "u", 2e-7),
         FiniteEdge("e3", "v", "x", 3e-7), FiniteEdge("e4", "x", "u", 1e-7),
         FiniteEdge("e5", "x", "w", 1.0)),
        (InfiniteEdge("t1", "u"), InfiniteEdge("t2", "w")),
    )
    d = find_ground_state(g).diagnostics
    assert max(d.continuity_residual, d.coupling_residual) < 1e-12
    assert d.min_sampled > 0.0


def _deep_well_on_a_short_edge():
    return MetricGraph(
        (VertexSpec("v", -0.1), VertexSpec("u", -400.0), VertexSpec("x", -0.1)),
        (FiniteEdge("s", "v", "u", 3e-3),)
        + tuple(FiniteEdge(f"p{i}", "v", "x", 1.0) for i in range(4000)),
    )


def test_negative_pivot_steps_on_the_unreduced_matrix(monkeypatch):
    # at the lower bound lo = 0.32 the edge u-v (l = 3e-3) is short, but its
    # weight 1/l = 333 cannot outweigh alpha_u = -400: the pivot of u is
    # negative until kappa nears kappa0 = 263.6, and those Newton steps are
    # taken on M itself
    g = _deep_well_on_a_short_edge()
    results = []
    real = secular_module._reduced
    monkeypatch.setattr(secular_module, "_reduced",
                        lambda *args: results.append(real(*args)) or results[-1])
    gs = find_ground_state(g)
    assert any(r[3] is not None for r in results)  # the member was dropped
    below, above = (np.linalg.eigvalsh(vertex_matrix(g, gs.kappa0 * (1 + d)))[0]
                    for d in (-1e-10, 1e-10))
    assert below < 0.0 < above
    assert gs.diagnostics.min_sampled > 0.0


def test_a_state_whose_every_member_has_a_negative_pivot_is_refused():
    # the one member is dropped before the eigensolve; its refusal comes
    # back, and the audit of no rows does not fail
    with pytest.raises(PositivityViolation, match="not positive semidefinite"):
        _state_at(_deep_well_on_a_short_edge(), 0.32)


@pytest.mark.parametrize("graph,evaluations", [
    (single_vertex_graph(-2.0, 2), 2),
    (star_graph(-1.0), 6),
    (as_chain_graph(LineConfig(tuple(float(i) for i in range(8)), (-1.0,) * 8)), 5),
    (as_chain_graph(LineConfig(tuple(float(i) for i in range(40)), (-1.0,) * 40)), 5),
    (single_vertex_graph(-1e4, 3), 2),
], ids=["delta", "star", "chain-8", "chain-40", "alpha-1e4"])
def test_graph_route_builds_few_matrices(graph, evaluations):
    # Newton steps, the certificate and the state
    assert find_ground_state(graph).diagnostics.indicator_evaluations == evaluations


def test_huge_coupling_solves_without_allocating():
    # kappa0 = 5e11; the scan this solver replaced needed a 1e14-point grid
    graph = single_vertex_graph(-1e12, 2)
    seen = []
    assert _peak_mib(lambda: seen.append(find_ground_state(graph).kappa0)) < 8.0
    assert seen == [5e11]


def test_huge_coupling_matches_kernel_route():
    expected = ground_state_line(LineConfig((0.0,), (-1e12,))).kappa0
    assert expected == 5e11
    assert find_ground_state(single_vertex_graph(-1e12, 2)).kappa0 == expected


# ------------------------------------------------------ edge solutions

def test_edge_solution_matches_exponential_form():
    kappa, length, p, q = 1.3, 2.0, 0.7, 0.2
    sol = EdgeSolution.finite("e", kappa, length, p, q)
    xs = np.linspace(0.0, length, 7)
    direct = p * np.exp(-kappa * xs) + q * np.exp(-kappa * (length - xs))
    assert np.allclose(sol.value(xs), direct, rtol=1e-14, atol=0)
    coshform = sol.a * np.cosh(kappa * xs) + sol.b * np.sinh(kappa * xs)
    assert np.allclose(sol.value(xs), coshform, rtol=1e-12, atol=1e-15)


def test_edge_solution_derivative_matches_difference_quotient():
    sol = EdgeSolution.finite("e", 0.9, 1.5, 0.4, 0.8)
    h = 1e-6
    for x in (0.2, 0.75, 1.3):
        fd = (sol.value(x + h) - sol.value(x - h)) / (2.0 * h)
        assert abs(sol.derivative(x) - fd) < 1e-7


def test_closed_form_mass_and_energy_match_quadrature():
    sol = EdgeSolution.finite("e", 1.1, 1.8, 0.5, 0.3)
    mass, _ = quad(lambda x: sol.value(x) ** 2, 0.0, 1.8, epsabs=1e-13, epsrel=1e-13)
    energy, _ = quad(lambda x: sol.derivative(x) ** 2, 0.0, 1.8, epsabs=1e-13,
                     epsrel=1e-13)
    closed_mass, closed_energy = _interval_integrals(1.1, 0.5, 0.3, 1.8, 0.0, 1.8)
    assert abs(closed_mass - mass) < 1e-12
    assert abs(closed_energy - energy) < 1e-11


def test_partial_interval_mass_adds_up():
    x0, x1 = np.array([0.0, 0.6, 0.0]), np.array([0.6, 1.8, 1.8])
    left, right, whole = _interval_integrals(1.1, 0.5, 0.3, 1.8, x0, x1)[0]
    assert abs(left + right - whole) < 1e-13


def test_lead_solution_mass():
    sol = EdgeSolution.infinite("t", 2.0, 2.0)
    # integral of (2 e^{-2x})^2 = 4 / (2*2) = 1, of its derivative squared 4:
    # q = 0 on an edge along which e^{-2 kappa x} underflows gives them exactly
    assert _interval_integrals(2.0, 2.0, 0.0, 400.0, 0.0, 400.0) == (1.0, 4.0)
    assert abs(sol.value(0.0) - 2.0) < 1e-15
    assert abs(sol.derivative(0.0) + 4.0) < 1e-15


def _edge_minimum(kappa, length, p, q):
    """secular._edge_minima on one edge."""
    p, q, kl = (np.array([x]) for x in (p, q, kappa * length))
    E = np.exp(-kl)
    qE, pE = q * E, p * E
    return float(_edge_minima(p, q, qE, pE, np.minimum(p + qE, pE + q), kl)[0])


@pytest.mark.parametrize("kappa,length,p,q", [
    (1.3, 2.0, 0.7, 0.2),     # interior minimum, nearer the small coefficient's end
    (0.9, 1.5, 0.4, 0.4),     # symmetric: minimum at the midpoint
    (2.0, 3.0, 1e-3, 2.0),    # p, q > 0 but |ln(p/q)| > kappa*l: monotone
    (1.1, 1.8, 0.5, -0.3),    # opposite signs: monotone
    (1.1, 1.8, -0.5, 0.3),
    (0.7, 2.5, -0.2, -0.6),   # negative throughout
])
def test_exact_edge_minimum_is_below_a_dense_sample(kappa, length, p, q):
    sol = EdgeSolution.finite("e", kappa, length, p, q)
    sample = sol.value(np.linspace(0.0, length, 200001))
    exact = _edge_minimum(kappa, length, p, q)
    assert exact <= sample.min()
    assert sample.min() - exact <= 1e-9 * abs(exact)


def test_exact_edge_minimum_interior_closed_form():
    sol = EdgeSolution.finite("e", 1.3, 2.0, 0.7, 0.2)
    x_star = (2.0 + math.log(0.7 / 0.2) / 1.3) / 2.0
    assert 0.0 < x_star < 2.0
    assert abs(_edge_minimum(1.3, 2.0, 0.7, 0.2) - float(sol.value(x_star))) < 1e-15


def test_exact_lead_minimum_is_its_amplitude():
    # the audit's minimum over a lead alone is its vertex value c
    topo = _Topology(single_vertex_graph(-2.0, 1))
    none = np.zeros((1, 0))
    for c in (0.3, -0.3):
        minimum = topo.audit(np.array([2.0]), np.array([[-2.0]]), none, none, none,
                             np.array([[c]]), none)[1]
        assert minimum.tolist() == [c]


def test_exact_edge_minimum_survives_long_edges():
    # kappa*l = 1200: exp(-kappa l) underflows to 0, exp(-kappa l / 2) does not
    assert math.exp(-1200.0) == 0.0
    m = _edge_minimum(1.0, 1200.0, 1.0, 1.0)
    assert m > 0.0
    assert abs(m - 2.0 * math.exp(-600.0)) <= 1e-15 * m


# -------------------------------------------------------- classification

def test_classify_edge_index_from_cosh_sinh_coefficients():
    # a cosh + b sinh on an edge is p = (a - b) / 2, q E = (a + b) / 2
    kappa, length = 1.2, 1.5
    E = math.exp(-kappa * length)
    for a, b, index in [(1.0, 0.0, 1), (0.0, 1.0, -1), (1.0, -1.0, 0), (1.0, 1.0 - 1e-12, 0),
                        (1.0, 0.5, 1), (-0.5, 1.0, -1)]:
        sol = EdgeSolution.finite("e", kappa, length, (a - b) / 2, (a + b) / 2 / E)
        assert classify_edge_index(sol) == index, (a, b)


def test_classify_edge_index_rejects_a_zero_component():
    with pytest.raises(ValueError, match="zero solution"):
        classify_edge_index(EdgeSolution.finite("e", 1.2, 1.5, 0.0, 0.0))
    with pytest.raises(ValueError, match="zero solution"):
        classify_edge_index(EdgeSolution.infinite("t", 1.2, 0.0))


def test_classify_edge_index_near_the_exponential_threshold():
    # kappa*l = 20: |a|-|b| = 2qE ~ 3.7e-9 sits just above the relative
    # epsilon 1e-9, so the sign of q decides; at kappa*l = 60 the profile
    # is a pure exponential to machine depth and must classify 0
    assert classify_edge_index(EdgeSolution.finite("e", 10.0, 2.0, 1.0, 0.9)) == 1
    assert classify_edge_index(EdgeSolution.finite("e", 10.0, 2.0, 1.0, -0.9)) == -1
    assert classify_edge_index(EdgeSolution.finite("e", 30.0, 2.0, 1.0, 0.9)) == 0
    assert classify_edge_index(EdgeSolution.finite("e", 30.0, 2.0, 1.0, -0.9)) == 0


def test_lead_index_is_zero():
    sol = EdgeSolution.infinite("t", 2.0, 1.0)
    assert classify_edge_index(sol) == 0


# ------------------------------------------------- solved-state structure

def test_star_residuals_and_structure():
    gs = find_ground_state(star_graph(-1.0))
    cont, coup = vertex_condition_residuals(star_graph(-1.0), gs.solutions)
    assert cont < 1e-12
    assert coup < 1e-10
    assert gs.diagnostics.nullspace_gap >= 1e6
    assert gs.diagnostics.min_sampled > 0.0
    assert gs.lambda0 < 0.0


def test_state_is_l2_normalized():
    # by quadrature of value**2, independent of the closed-form masses
    for graph in (star_graph(-1.0), chain_graph([-1.0, -2.0, -1.5], [0.7, 1.2])):
        gs = find_ground_state(graph)
        total = 0.0
        for sol in gs.solutions:
            upper = math.inf if sol.kind == "infinite" else sol.length
            total += quad(lambda x: float(sol.value(x)) ** 2, 0.0, upper,
                          epsabs=1e-13, epsrel=1e-13)[0]
        assert abs(total - 1.0) < 1e-10


def test_axial_index_flips_with_center_strength():
    # kappa0 below/above the far-end strength 2 decides the axial shape
    weak = find_ground_state(star_graph(-1.0))
    strong = find_ground_state(star_graph(-2.5))
    assert weak.kappa0 < 2.0 < strong.kappa0
    assert weak.index("axial") == -1
    assert strong.index("axial") == 1


def test_indices_align_with_solutions():
    gs = find_ground_state(star_graph(-2.5))
    assert len(gs.indices) == len(gs.solutions)
    for sol, idx in zip(gs.solutions, gs.indices):
        assert gs.index(sol.edge_id) == idx
        assert classify_edge_index(sol) == idx


def test_unknown_edge_id_raises():
    gs = find_ground_state(star_graph(-1.0))
    with pytest.raises(KeyError):
        gs.solution("nope")
    with pytest.raises(KeyError):
        gs.index("nope")


def test_scaling_covariance_single_case():
    g = chain_graph([-1.0, -0.6], [0.8])
    base = find_ground_state(g)
    shrunk = find_ground_state(scaled_graph(g, 2.0))
    assert abs(shrunk.kappa0 - base.kappa0 / 2.0) / (base.kappa0 / 2.0) < 1e-10
    assert shrunk.indices == base.indices


def test_deterministic_resolve():
    g = star_graph(-1.3, L2=1.7)
    a = find_ground_state(g)
    b = find_ground_state(g)
    assert a.kappa0 == b.kappa0
    assert a.lambda0 == b.lambda0
    assert a.solutions == b.solutions


def test_agrees_with_kernel_path_on_chain():
    config = LineConfig((0.0, 0.9, 2.1), (-1.5, -0.4, -0.9))
    line = ground_state_line(config)
    gs = find_ground_state(as_chain_graph(config))
    assert abs(gs.lambda0 - line.lambda0) < 1e-11


@pytest.mark.parametrize("power", [515, 530])
def test_weak_scaling_partners_raise_or_agree(power):
    # criterion 10's scaling partners far down the weak end: each solve
    # raises a typed error or gives kappa0 / 2**power to 1e-12
    rng = np.random.default_rng(5)
    s = 2.0 ** power
    wrong = []
    for i in range(60):
        g = (random_cyclic_graph if i % 2 == 0 else random_tree_graph)(rng)
        kappa0 = find_ground_state(g).kappa0
        try:
            kappa_s = find_ground_state(scaled_graph(g, s)).kappa0
        except (NoBoundState, DegenerateRoot, PositivityViolation):
            continue
        if abs(kappa_s * s - kappa0) > 1e-12 * kappa0:
            wrong.append(kappa_s * s / kappa0 - 1.0)
    assert not wrong


@pytest.mark.parametrize("power", [530, 600, 1000, -600, -900])
def test_far_scaling_partners_are_exact(power):
    # each solve runs in its unit 16**e (rootscan.unit), where a partner at a
    # power of 2 is the graph itself: kappa0 / 2**power bit for bit, until
    # lambda0 = -kappa0**2 overflows, which raises with that exact kappa0
    rng = np.random.default_rng(5)
    s = 2.0 ** power
    for i in range(60):
        g = (random_cyclic_graph if i % 2 == 0 else random_tree_graph)(rng)
        gs = find_ground_state(g)
        if power > 0:
            partner = find_ground_state(scaled_graph(g, s))
            assert partner.kappa0 * s == gs.kappa0
            assert partner.indices == gs.indices
        else:
            with pytest.raises(NoBoundState, match=re.escape(
                    f"overflows: kappa0={gs.kappa0 / s!r} is too large")):
                find_ground_state(scaled_graph(g, s))


def test_invalid_graph_refused():
    from qgbind import InvalidGraphError, MetricGraph, VertexSpec

    with pytest.raises(InvalidGraphError):
        find_ground_state(MetricGraph((VertexSpec("v", 1.0),), (), ()))
