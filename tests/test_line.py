"""Kernel-matrix (line and loop) solver tests.

Scalar references are derived first: the one-site line root is |alpha|/2
exactly, the one-site loop root solves 2 kappa = |alpha| coth(kappa L), and
the two-site line root solves kappa = |alpha|/2 (1 + exp(-kappa d)).
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

import qgbind.line as line_module
from qgbind import (
    LineConfig,
    LoopConfig,
    NoBoundState,
    NoRoot,
    as_chain_graph,
    as_cycle_graph,
    find_ground_state,
    gamma_line,
    gamma_loop,
    ground_state_line,
    ground_state_loop,
    stretch_gap,
)
from qgbind.cli import main

TWO_DELTA_KAPPA = 1.2784645427610737


def mu0(gamma):
    """Smallest eigenvalue of a kernel matrix."""
    return float(np.linalg.eigvalsh(gamma.entries)[0])


# ------------------------------------------------------- kernel entries

def test_single_site_entry_closed_form():
    config = LineConfig((0.0,), (-2.0,))
    g = gamma_line(config, 1.0)
    # -1/alpha - 1/(2 kappa) = 0.5 - 0.5
    assert g.entries.shape == (1, 1)
    assert g.entries[0, 0] == 0.0
    assert mu0(g) == 0.0


def test_two_site_entries_closed_form():
    config = LineConfig((0.0, 1.5), (-2.0, -0.5))
    kappa = 0.8
    g = gamma_line(config, kappa)
    assert abs(g.entries[0, 0] - (0.5 - 1.0 / (2 * kappa))) < 1e-15
    assert abs(g.entries[1, 1] - (2.0 - 1.0 / (2 * kappa))) < 1e-15
    off = -math.exp(-kappa * 1.5) / (2 * kappa)
    assert abs(g.entries[0, 1] - off) < 1e-15
    assert g.entries[0, 1] == g.entries[1, 0]
    assert g.entries[0, 1] < 0


def test_loop_entry_closed_form():
    L, kappa = 10.0, 0.3
    config = LoopConfig(L, (0.0,), (-0.2,))
    g = gamma_loop(config, kappa)
    expected = 5.0 - 1.0 / (2 * kappa * math.tanh(kappa * L / 2.0))
    assert abs(g.entries[0, 0] - expected) < 1e-12


def test_loop_entry_matches_periodic_image_sum():
    # independent route: sum the line kernel over periodic images
    L, kappa, d = 7.0, 0.45, 2.2
    images = sum(
        math.exp(-kappa * abs(d + n * L)) / (2 * kappa) for n in range(-40, 41)
    )
    g = gamma_loop(LoopConfig(L, (0.0, d), (-0.2, -0.3)), kappa)
    assert abs(-g.entries[0, 1] - images) < 1e-14


def test_loop_kernel_approaches_line_kernel():
    sites, strengths = (0.0, 0.7, 1.6), (-0.4, -0.3, -0.5)
    kappa = 0.6
    line = gamma_line(LineConfig(sites, strengths), kappa)
    loop = gamma_loop(LoopConfig(200.0, sites, strengths), kappa)
    assert np.max(np.abs(line.entries - loop.entries)) < 1e-40


def test_loop_distances_wrap_around():
    # sites at arc distance min(d, L-d): 0 and 7 on a loop of 10 equal 0 and 3
    near = gamma_loop(LoopConfig(10.0, (0.0, 3.0), (-0.2, -0.3)), 0.4)
    far = gamma_loop(LoopConfig(10.0, (0.0, 7.0), (-0.2, -0.3)), 0.4)
    assert np.allclose(near.entries, far.entries, rtol=0, atol=1e-15)


def test_gamma_rejects_nonpositive_kappa():
    config = LineConfig((0.0,), (-1.0,))
    with pytest.raises(ValueError):
        gamma_line(config, 0.0)
    with pytest.raises(ValueError):
        gamma_loop(LoopConfig(5.0, (0.0,), (-1.0,)), -1.0)
    with pytest.raises(ValueError):
        gamma_line(LineConfig((0.0, 1.0), (-1.0, -1.0)), math.inf)


def test_mu0_positive_above_all_roots():
    config = LineConfig((0.0, 1.0), (-2.0, -2.0))
    assert mu0(gamma_line(config, 20.0)) > 0.0


def test_mu0_grows_when_sites_separate():
    # at fixed kappa the off-diagonal decays with distance, raising mu0
    strengths = (-1.0, -1.0)
    tight = mu0(gamma_line(LineConfig((0.0, 0.5), strengths), 1.0))
    wide = mu0(gamma_line(LineConfig((0.0, 2.5), strengths), 1.0))
    assert wide > tight


# ------------------------------------------------------------ line solve

@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_tol_kappa_must_be_positive_and_finite(tol):
    with pytest.raises(ValueError, match="tol_kappa"):
        ground_state_line(LineConfig((0.0,), (-2.0,)), tol_kappa=tol)
    with pytest.raises(ValueError, match="tol_kappa"):
        ground_state_loop(LoopConfig(5.0, (0.0,), (-2.0,)), tol_kappa=tol)


def test_kernel_chain_solve_peak_memory_is_small():
    # one 40 x 40 kernel matrix per Newton step: a solve stays within a few MiB
    config = LineConfig(tuple(float(i) for i in range(40)), (-1.0,) * 40)
    ground_state_line(LineConfig((0.0,), (-2.0,)))  # warm-up, so only the solve is traced
    tracemalloc.start()
    try:
        ground_state_line(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < 8.0


def test_single_site_line_is_half_alpha():
    gs = ground_state_line(LineConfig((0.0,), (-2.0,)))
    assert abs(gs.kappa0 - 1.0) < 1e-11
    assert abs(gs.lambda0 + 1.0) < 1e-11


def test_two_site_line_fixed_point():
    expected = brentq(lambda k: k - 1.0 - math.exp(-k), 0.5, 3.0, xtol=1e-14)
    assert abs(expected - TWO_DELTA_KAPPA) < 1e-13
    gs = ground_state_line(LineConfig((0.0, 1.0), (-2.0, -2.0)))
    assert abs(gs.kappa0 - TWO_DELTA_KAPPA) < 1e-11
    assert np.all(np.asarray(gs.weights) > 0.0)


def test_distant_sites_decouple():
    # kappa exceeds the single-well value by exp(-kappa d)
    gs = ground_state_line(LineConfig((0.0, 30.0), (-2.0, -2.0)))
    assert abs(gs.kappa0 - (1.0 + math.exp(-30.0))) < 2e-12


def test_translation_leaves_energy_unchanged():
    base = LineConfig((0.0, 0.7, 1.9), (-1.2, -0.4, -0.8))
    shifted = base.translated(11.25)
    a = ground_state_line(base)
    b = ground_state_line(shifted)
    assert abs(a.lambda0 - b.lambda0) < 1e-12


def test_weights_positive_on_uneven_config():
    gs = ground_state_line(LineConfig((0.0, 0.4, 2.6), (-2.5, -0.2, -1.1)))
    assert np.all(np.asarray(gs.weights) > 0.0)


def _uniform_line(n):
    return LineConfig(tuple(float(i) for i in range(n)), (-1.0,) * n)


def _count_kernels(monkeypatch):
    """The number of kappas of every kernel call, in order."""
    built = []
    for name in ("_line_kernel", "_loop_kernel"):
        kernel = getattr(line_module, name)
        monkeypatch.setattr(line_module, name,
                            lambda *a, kernel=kernel: built.append(np.size(a[-1])) or kernel(*a))
    return built


@pytest.mark.parametrize("config", [
    _uniform_line(3),
    _uniform_line(6),
    _uniform_line(40),
    _uniform_line(80),
    LoopConfig(10.0, (0.0, 1.0, 3.0, 6.0), (-0.3, -0.2, -0.4, -0.1)),
    LoopConfig(1e-3, (0.0,), (-1.0,)),
])
def test_kernel_solve_builds_few_matrices(config, monkeypatch):
    # Newton steps from the proven lower bound, the certificate and the
    # weights; every Gamma is built by one of the two kernels
    built = _count_kernels(monkeypatch)
    ground_state_line(config)
    assert 0 < sum(built) <= 6


@pytest.mark.parametrize("config", [
    _uniform_line(3),
    _uniform_line(6),
    LoopConfig(4.0, (0.0, 1.0, 2.0, 3.0), (-1.0,) * 4),
])
def test_benchmark_route_configurations_build_pinned_counts(config, monkeypatch):
    # the kernel route's configurations in perfbench: five Newton values
    # from the constant-trial bound, then the weights
    built = _count_kernels(monkeypatch)
    ground_state_line(config)
    assert built == [1] * 6


@pytest.mark.parametrize("config", [
    LineConfig((0.0, 0.7, 3.0), (-1.0, -2.0, -0.5)),
    _uniform_line(40),
    LoopConfig(5.0, (0.0, 1.0, 3.5), (-1.0, -0.3, -2.0)),
    LoopConfig(1e-3, (0.0,), (-1.0,)),
])
def test_newton_rounds_build_the_public_gamma_bit_for_bit(config):
    # gamma_line returns the Newton rounds' Gamma; here it meets the closed
    # forms, np.exp on the line and np.expm1 on the loop (np.expm1 and
    # math.expm1 differ in the last bit on about 1% of inputs)
    y = np.asarray(config.sites)
    d = np.abs(y[:, None] - y[None, :])
    if isinstance(config, LoopConfig):
        L = config.circumference
        d = np.minimum(d, L - d)
    for kappa in np.geomspace(1e-6, 1e4, 300).tolist():
        if isinstance(config, LoopConfig):
            g = -np.expm1(-kappa * L)
            expected = -(np.exp(-kappa * d) + np.exp(-kappa * (L - d))) / (2.0 * kappa * g)
        else:
            expected = -np.exp(-kappa * d) / (2.0 * kappa)
        expected[np.diag_indices(config.n)] -= 1.0 / np.asarray(config.strengths)
        assert gamma_line(config, kappa).entries.tobytes() == expected.tobytes()


@pytest.mark.parametrize("alpha", [-2.0, -1e-6, -1e-9, -1e12])
def test_single_site_line_is_exact(alpha):
    # the lower bound |alpha|/2 zeroes the 1 x 1 kernel matrix exactly
    gs = ground_state_line(LineConfig((0.0,), (alpha,)))
    assert gs.kappa0 == abs(alpha) / 2.0
    assert gs.weights == (1.0,)


def test_weak_pair_is_accurate_to_a_relative_tolerance():
    # even state k = (|alpha|/2)(1 + e^{-k d}); an absolute tolerance of
    # 1e-12 would stop 5e-8 relative away from it at kappa0 ~ 1e-6
    gs = ground_state_line(LineConfig((0.0, 1.0), (-1e-6, -1e-6)))
    exact = 9.999995000005e-07
    assert abs(gs.kappa0 - exact) <= 1e-12 * exact


def test_short_loop_raises_the_upper_bound():
    # kappa0 = 31.6 lies far above the line's single-site value |alpha|/2
    L, alpha = 1e-3, -1.0
    gs = ground_state_loop(LoopConfig(L, (0.0,), (alpha,)))
    assert gs.kappa0 > 30.0
    assert abs(2.0 * gs.kappa0 * math.tanh(gs.kappa0 * L / 2.0) - abs(alpha)) < 1e-14


@pytest.mark.parametrize("n,kappa0", [(40, 1.0409704855581763), (80, 1.0429292104394867)])
def test_uniform_lines_match_recorded_values(n, kappa0):
    # values the descending scan gave when the benchmark was defined
    assert abs(ground_state_line(_uniform_line(n)).kappa0 - kappa0) <= 1e-12 * kappa0


def test_uniform_chains_approach_the_kronig_penney_band_bottom():
    # the infinite chain (alpha = -1, spacing 1) has its band bottom at the
    # root of cosh k - sinh k / (2 k) = 1, the ground state of its quotient:
    # one site on a loop of circumference 1
    band = brentq(lambda k: math.cosh(k) - math.sinh(k) / (2.0 * k) - 1.0, 0.5, 2.0,
                  xtol=1e-15)
    cell = LoopConfig(1.0, (0.0,), (-1.0,))
    assert abs(ground_state_loop(cell).kappa0 - band) <= 1e-14 * band
    assert abs(find_ground_state(as_cycle_graph(cell)).kappa0 - band) <= 1e-14 * band
    kappas = []
    for n in (40, 80, 160):
        gs = find_ground_state(as_chain_graph(_uniform_line(n)))
        assert set(gs.indices[:n - 1]) == {1}
        kappas.append(gs.kappa0)
    assert kappas[0] < kappas[1] < kappas[2] < band
    gaps = [band - k for k in kappas]
    assert 3.5 <= gaps[0] / gaps[1] <= 4.1 and 3.5 <= gaps[1] / gaps[2] <= 4.1


@pytest.mark.parametrize("config", [
    LineConfig((0.0, 0.7, 3.0), (-1.0, -2.0, -0.5)),
    LoopConfig(5.0, (0.0, 1.0, 3.5), (-1.0, -0.3, -2.0)),
    LoopConfig(50.0, (0.0, 25.0), (-1.0, -1.0)),
    LoopConfig(0.5, (0.0,), (-1.0,)),
    LoopConfig(1e-3, (0.0,), (-1.0,)),
])
def test_kernel_slope_matches_central_differences(config):
    # dmu0/ds in closed form against differences of mu0(s) from the public
    # Gamma (gamma_line)
    mu0_slope = line_module._mu0_slope(config)
    for kappa in (0.05, 0.4, 1.5, 6.0):
        s, h = kappa * kappa, 1e-5 * kappa * kappa
        diff = (mu0(gamma_line(config, math.sqrt(s + h)))
                - mu0(gamma_line(config, math.sqrt(s - h)))) / (2 * h)
        value, slope = mu0_slope(kappa)
        assert abs(value - mu0(gamma_line(config, kappa))) <= 1e-14 * max(1.0, abs(value))
        assert abs(slope - diff) <= 1e-8 * slope


def test_non_finite_kernel_raises_no_root(monkeypatch, capsys):
    monkeypatch.setattr(line_module, "_line_kernel", lambda d, k: np.full(d.shape, np.nan))
    with pytest.raises(NoRoot, match="not finite"):
        ground_state_line(LineConfig((0.0, 1.0), (-1.0, -1.0)))
    assert main(["line", "--sites", "0", "1", "--alphas", "-1", "-1"]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: ")


def test_the_weak_end_solves_where_kappa_squared_is_subnormal_or_zero(capsys):
    # the constant-trial bound (|alpha|/2)(1 + 1) is within rounding of the
    # root of kappa = (|alpha|/2)(1 + e^{-kappa}), so Newton holds there even
    # where kappa**2 is subnormal or 0 and the slope overflows to inf
    for alpha in (-1e-170, -1e-155, -1e-160):
        gs = ground_state_line(LineConfig((0.0, 1.0), (alpha, alpha)))
        assert abs(gs.kappa0 - abs(alpha)) <= 1e-12 * abs(alpha)
    assert main(["line", "--sites", "0", "1", "--alphas", "-1e-170", "-1e-170"]) == 0
    assert "kappa0  = 9.9999999999999998e-171" in capsys.readouterr().out
    one = LineConfig((0.0,), (-1e-170,))
    assert ground_state_line(one).kappa0 == 5e-171
    assert main(["line", "--sites", "0", "--alphas", "-1e-170"]) == 0
    assert capsys.readouterr().err == ""
    # the graph route, each solve in its unit (rootscan.unit), down to a
    # subnormal kappa0 = |alpha| / 2 in the unit 2**-1020
    assert find_ground_state(as_chain_graph(LineConfig((0.0,), (-9.57e-309,)))).kappa0 == (
        9.57e-309 / 2)
    weak = LineConfig((0.0, 1.0), (-1e-170, -1e-170))
    assert find_ground_state(as_chain_graph(one)).kappa0 == 5e-171
    assert find_ground_state(as_chain_graph(weak)).kappa0 == 1e-170
    for alpha in (-1e-155, -1e-160):
        pair = as_chain_graph(LineConfig((0.0, 1.0), (alpha, alpha)))
        assert find_ground_state(pair).kappa0 == abs(alpha)


@pytest.mark.parametrize("argv, weakest", [
    (["--sites", "0", "--alphas", "-5e-324"], "-5e-324"),
    (["--sites", "0", "1", "--alphas", "-1", "-1e-320"], "-1e-320"),
    (["--loop", "10", "--sites", "0", "1", "--alphas", "-5.5e-309", "-1"], "-5.5e-309"),
])
def test_a_strength_whose_reciprocal_overflows_is_refused(argv, weakest, capsys):
    # 1/alpha on the diagonal of Gamma would be inf in every unit: NoRoot
    # before any Newton round, one line on stderr and no warning; the start
    # bound is max|alpha|/2 (0.0 for the one site, which rounds to 0)
    lo = "0.0" if weakest == "-5e-324" else "0.5"
    assert main(["line", *argv]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: lengths and couplings do not fit doubles in one unit "
        f"(start bound kappa={lo})\n")


def test_a_root_whose_square_overflows_is_refused(capsys):
    # kappa0 = 5e299 solves in the unit 16**248, but lambda0 = -kappa0**2 is
    # past the double range: NoRoot with that kappa0, exit 3, one stderr line
    message = "lambda0 = -kappa0**2 overflows: kappa0=5e+299 is too large for doubles"
    with pytest.raises(NoRoot, match=re.escape(message)):
        ground_state_line(LineConfig((0.0,), (-1e300,)))
    assert main(["line", "--sites", "0", "--alphas", "-1e300"]) == 3
    assert capsys.readouterr().err == f"numerical failure: {message}\n"
    with pytest.raises(NoBoundState, match=re.escape(message)):
        find_ground_state(as_chain_graph(LineConfig((0.0,), (-1e300,))))


def test_the_weakest_single_site_keeps_its_output(capsys):
    # |alpha| = 4e-308 has a finite reciprocal, and so has 2 kappa0
    assert main(["line", "--sites", "0", "--alphas", "-4e-308"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "lambda0 = -0", "kappa0  = 1.9999999999999998e-308", "weights = 1"]


# ------------------------------------------------------------ loop solve

def test_a_long_weak_loop_solves_where_the_slope_overflows(capsys):
    # kappa**2 L = |alpha| to rounding: the loop slope's quadratic form over
    # 2 kappa g overflows to inf, silently, with warnings as errors
    gs = ground_state_loop(LoopConfig(1e10, (0.0,), (-1e-300,)))
    assert abs(gs.kappa0 - 1e-155) <= 1e-12 * 1e-155
    assert main(["line", "--sites", "0", "--alphas", "-1e-300", "--loop", "1e10"]) == 0
    out = capsys.readouterr()
    assert "kappa0  = 1e-155" in out.out.splitlines() and out.err == ""


def test_a_long_loop_with_a_weak_site_is_accurate():
    # kappa**2 L = |alpha| to 1e-155 relative: in the unit 16**-69 the slope
    # and the kernel are O(1), and kappa0 = sqrt(|alpha| / L) to rounding
    gs = ground_state_loop(LoopConfig(1e10, (0.0,), (-1e-155,)))
    expected = math.sqrt(1e-165)
    assert abs(gs.kappa0 - expected) <= 1e-15 * expected


def test_single_site_loop_scalar_equation():
    # psi = cosh(kappa (x - L/2)) with the derivative jump at the site:
    # 2 kappa tanh(kappa L / 2) = |alpha|
    L, alpha = 10.0, -0.2
    expected = brentq(
        lambda k: 2.0 * k * math.tanh(k * L / 2.0) - abs(alpha), 1e-4, 2.0, xtol=1e-14
    )
    gs = ground_state_loop(LoopConfig(L, (0.0,), (alpha,)))
    assert abs(gs.kappa0 - expected) < 1e-11


def test_loop_binds_more_strongly_than_line():
    sites, strengths = (0.0, 0.6), (-0.12, -0.08)
    line = ground_state_line(LineConfig(sites, strengths))
    loop = ground_state_loop(LoopConfig(10.0, sites, strengths))
    assert loop.kappa0 > line.kappa0
    assert loop.lambda0 < line.lambda0


def test_loop_energy_rises_toward_line_value():
    sites, strengths = (0.0, 0.6), (-0.12, -0.08)
    line = ground_state_line(LineConfig(sites, strengths))
    lams = [
        ground_state_loop(LoopConfig(L, sites, strengths)).lambda0
        for L in (10.0, 20.0, 40.0)
    ]
    assert lams[0] < lams[1] < lams[2] < line.lambda0
    gaps = [line.lambda0 - lam for lam in lams]
    assert gaps[0] > gaps[1] > gaps[2] > 0.0


# -------------------------------------------------- stretching machinery

def test_stretch_gap_moves_tail_only():
    config = LineConfig((0.0, 1.0, 2.5), (-1.0, -0.5, -0.8))
    stretched = stretch_gap(config, 0, 0.25)
    assert stretched.sites == (0.0, 1.25, 2.75)
    assert stretched.strengths == config.strengths


def test_stretch_gap_validates_arguments():
    config = LineConfig((0.0, 1.0), (-1.0, -1.0))
    with pytest.raises(ValueError):
        stretch_gap(config, 1, 0.1)
    with pytest.raises(ValueError):
        stretch_gap(config, 0, 0.0)


def test_stretching_raises_energy():
    config = LineConfig((0.0, 1.0, 2.5), (-1.0, -0.5, -0.8))
    before = ground_state_line(config).lambda0
    after = ground_state_line(stretch_gap(config, 1, 0.4)).lambda0
    assert before < after < 0.0


def test_tiny_stretch_still_resolves_positive_margin():
    # a 1e-13 gap change sits far above the kappa tolerance; the margin
    # must already be strictly positive, not lost to rounding
    a = LineConfig((0.0, 1.0, 1.2), (-1.0, -0.5, -0.5))
    before = ground_state_line(a).lambda0
    after = ground_state_line(stretch_gap(a, 0, 1e-13)).lambda0
    assert after - before > 0.0


# ------------------------------------------------------- config checks

def test_line_config_validation():
    with pytest.raises(ValueError):
        LineConfig((0.0, 0.0), (-1.0, -1.0))
    with pytest.raises(ValueError):
        LineConfig((1.0, 0.0), (-1.0, -1.0))
    with pytest.raises(ValueError):
        LineConfig((0.0, 1.0), (-1.0,))
    with pytest.raises(ValueError):
        LineConfig((0.0,), (0.5,))
    with pytest.raises(ValueError):
        LineConfig((0.0,), (float("nan"),))


def test_loop_config_validation():
    with pytest.raises(ValueError):
        LoopConfig(0.0, (0.0,), (-1.0,))
    with pytest.raises(ValueError):
        LoopConfig(5.0, (0.0, 5.0), (-1.0, -1.0))
    with pytest.raises(ValueError):
        LoopConfig(5.0, (-0.1,), (-1.0,))


def test_line_config_helpers():
    config = LineConfig((0.0, 0.5, 2.0), (-1.0, -2.0, -3.0))
    assert config.n == 3
    assert config.gaps() == (0.5, 1.5)
    assert config.translated(1.0).sites == (1.0, 1.5, 3.0)


# ------------------------------------------------------ graph embeddings

def test_single_site_chain_graph_runs_both_paths():
    config = LineConfig((0.0,), (-2.0,))
    graph = as_chain_graph(config)
    assert len(graph.infinite_edges) == 2
    gs = find_ground_state(graph)
    assert abs(gs.kappa0 - 1.0) < 1e-11


def test_chain_graph_matches_kernel_path():
    config = LineConfig((0.0, 0.9, 2.1), (-1.5, -0.4, -0.9))
    line = ground_state_line(config)
    gs = find_ground_state(as_chain_graph(config))
    assert abs(gs.lambda0 - line.lambda0) < 1e-11


def test_single_site_cycle_graph_subdivides_loop():
    config = LoopConfig(10.0, (0.0,), (-0.2,))
    graph = as_cycle_graph(config)
    assert len(graph.vertices) == 2
    assert {e.length for e in graph.finite_edges} == {5.0}
    loop = ground_state_loop(config)
    gs = find_ground_state(graph)
    assert abs(gs.lambda0 - loop.lambda0) < 1e-10


def test_two_site_cycle_graph_has_parallel_arcs():
    config = LoopConfig(8.0, (0.0, 3.0), (-0.15, -0.1))
    graph = as_cycle_graph(config)
    assert len(graph.finite_edges) == 2
    assert {e.length for e in graph.finite_edges} == {3.0, 5.0}
    loop = ground_state_loop(config)
    gs = find_ground_state(graph)
    assert abs(gs.lambda0 - loop.lambda0) < 1e-10


def test_three_site_cycle_graph_closes_the_ring():
    config = LoopConfig(9.0, (0.0, 1.0, 2.5), (-0.1, -0.12, -0.09))
    graph = as_cycle_graph(config)
    assert len(graph.finite_edges) == 3
    closing = next(e for e in graph.finite_edges if e.id == "arc3")
    assert abs(closing.length - 6.5) < 1e-15
    loop = ground_state_loop(config)
    gs = find_ground_state(graph)
    assert abs(gs.lambda0 - loop.lambda0) < 1e-10
