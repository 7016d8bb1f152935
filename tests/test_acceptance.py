"""End-to-end acceptance suite.

Each criterion is one test.  A test computes its verdict, prints a single
"[criterion NN] PASS/FAIL <detail>" line straight to the terminal (bypassing
capture so the line survives -q runs), then asserts.

Criterion 9 audits every instance solved by the earlier suites; solves are
collected in a module-level registry as the file runs top to bottom.  When
criterion 9 is run in isolation the registry is reseeded with a small
representative set so the audit still exercises both solution paths.
"""

import time

import numpy as np

from conftest import (
    ALPHA_CRIT,
    random_chain_graph,
    random_line_config,
    random_mixed_graph,
    random_tree_graph,
    scaled_graph,
    screened_line_config,
    single_vertex_graph,
    star_graph,
)
from qgbind import (
    LineConfig,
    LoopConfig,
    SweepSpec,
    SweepTarget,
    apply_target,
    as_chain_graph,
    compare,
    discretize,
    find_ground_state,
    gamma_line,
    gamma_loop,
    ground_state_line,
    ground_state_loop,
    run_sweep,
    save_graph,
    scaled_trial_quotient,
    smallest_eigenvalue,
    stretch_gap,
)
from qgbind.cli import main as cli_main

# five-digit anchor of the reference star's critical coupling
ALPHA_CRIT_ANCHOR = -1.09088
# two wells at distance 1 with alpha -2 each: kappa solves k = 1 + exp(-k)
TWO_DELTA_LAMBDA = -1.6344715870972812

# (suite, ground_state) for graph solves; (suite, config, state) for kernel
REGISTRY = {"secular": [], "kernel": []}


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)


def _reg_secular(suite, gs):
    REGISTRY["secular"].append((suite, gs))


def _reg_kernel(suite, config, state):
    REGISTRY["kernel"].append((suite, config, state))


def test_criterion_01_single_delta_anchors(capsys):
    worst = 0.0
    slowest = 0.0
    for alpha, n in ((-2.0, 1), (-2.0, 2), (-3.0, 3)):
        t0 = time.perf_counter()
        gs = find_ground_state(single_vertex_graph(alpha, n))
        slowest = max(slowest, time.perf_counter() - t0)
        worst = max(worst, abs(gs.kappa0 - abs(alpha) / n))
        _reg_secular("1", gs)
    ok = worst <= 1e-10 and slowest < 0.1
    _report(capsys, 1, ok,
            f"max |kappa0 - |a|/N| = {worst:.2e} (tol 1e-10); "
            f"slowest solve {slowest:.3f} s (budget 0.1)")
    assert ok


def test_criterion_02_star_critical_coupling(capsys, tmp_path):
    import json

    path = tmp_path / "star.json"
    save_graph(star_graph(-1.0), path)
    t0 = time.perf_counter()
    rc = cli_main(["crit", str(path), "--axial-edge", "axial", "--json"])
    elapsed = time.perf_counter() - t0
    payload = json.loads(capsys.readouterr().out)
    err = abs(payload["alpha_crit"] - ALPHA_CRIT_ANCHOR)
    ok = (rc == 0 and err <= 2e-4
          and payload["max_abs_variation"] < 1e-8
          and payload["axial_index"] == 0
          and elapsed < 10.0)
    # audit instance at the located critical point, mid-window length
    g = apply_target(star_graph(-1.0), SweepTarget("vertex", "c"),
                     payload["alpha_crit"])
    g = apply_target(g, SweepTarget("edge", "axial"), 1.75)
    _reg_secular("2", find_ground_state(g))
    _report(capsys, 2, ok,
            f"alpha_crit = {payload['alpha_crit']:.10f} "
            f"(|err| = {err:.1e}, tol 2e-4); "
            f"variation over L2 in [0.5,3] = {payload['max_abs_variation']:.1e}; "
            f"axial index {payload['axial_index']}; {elapsed:.1f} s (budget 10)")
    assert ok


def test_criterion_03_two_regime_surface(capsys):
    t0 = time.perf_counter()
    g = star_graph(-1.0)
    specs = [
        SweepSpec(SweepTarget("vertex", "c"), -2.0, -0.2, 50),
        SweepSpec(SweepTarget("edge", "axial"), 0.25, 3.0, 50),
    ]
    rows = run_sweep(g, specs)
    elapsed = time.perf_counter() - t0
    all_ok = all(r.ok for r in rows)
    bad_rows = 0
    for i, alpha in enumerate(specs[0].values()):
        lams = np.array([rows[i * 50 + j].lambda0 for j in range(50)])
        diffs = np.diff(lams)
        monotone = np.all(diffs < 0) if alpha > ALPHA_CRIT else np.all(diffs > 0)
        bad_rows += not monotone
    ok = all_ok and bad_rows == 0 and elapsed < 120.0
    # criterion 9 audits every solved instance; the sweep keeps only scalar
    # results, so re-solve the grid (deterministic, bit-identical) with full
    # diagnostics for the registry
    for a in specs[0].values():
        gi = apply_target(g, SweepTarget("vertex", "c"), float(a))
        for L2 in specs[1].values():
            _reg_secular("3", find_ground_state(
                apply_target(gi, SweepTarget("edge", "axial"), float(L2))))
    _report(capsys, 3, ok,
            f"50x50 grid: {bad_rows} rows break the two-regime split at "
            f"alpha_crit (solved {sum(r.ok for r in rows)}/2500); "
            f"{elapsed:.1f} s (budget 120)")
    assert ok


def test_criterion_04_line_stretch_and_translation(capsys):
    rng = np.random.default_rng(204)
    t0 = time.perf_counter()
    worst_margin = np.inf
    worst_shift = 0.0
    for _ in range(200):
        cfg = random_line_config(rng)
        base = ground_state_line(cfg)
        _reg_kernel("4", cfg, base)
        gap_index = int(rng.integers(0, cfg.n - 1))
        eta = float(rng.uniform(0.05, 1.0))
        stretched_cfg = stretch_gap(cfg, gap_index, eta)
        stretched = ground_state_line(stretched_cfg)
        _reg_kernel("4", stretched_cfg, stretched)
        worst_margin = min(worst_margin, stretched.lambda0 - base.lambda0)
        shift_cfg = cfg.translated(float(rng.uniform(-5.0, 5.0)))
        moved = ground_state_line(shift_cfg)
        _reg_kernel("4", shift_cfg, moved)
        worst_shift = max(worst_shift, abs(moved.lambda0 - base.lambda0))
    elapsed = time.perf_counter() - t0
    ok = worst_margin > 1e-10 and worst_shift <= 1e-12 and elapsed < 30.0
    _report(capsys, 4, ok,
            f"200 configs: min stretch margin {worst_margin:.2e} (floor 1e-10); "
            f"max translation drift {worst_shift:.2e} (tol 1e-12); "
            f"{elapsed:.1f} s (budget 30)")
    assert ok


def test_criterion_05_loop_growth_and_convergence(capsys):
    rng = np.random.default_rng(205)
    t0 = time.perf_counter()
    grow_fail = shrink_fail = below_fail = 0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        gaps = rng.uniform(0.2, 1.0, size=n - 1)
        sites = tuple(np.concatenate(([0.0], np.cumsum(gaps))))
        strengths = tuple(rng.uniform(-0.15, -0.05, size=n))
        line_cfg = LineConfig(sites, strengths)
        line = ground_state_line(line_cfg)
        _reg_kernel("5", line_cfg, line)
        lams = []
        for circ in (10.0, 20.0, 40.0):
            loop_cfg = LoopConfig(circ, sites, strengths)
            st = ground_state_loop(loop_cfg)
            _reg_kernel("5", loop_cfg, st)
            lams.append(st.lambda0)
        grow_fail += not (lams[0] < lams[1] < lams[2])
        below_fail += not all(l < line.lambda0 for l in lams)
        d = [abs(l - line.lambda0) for l in lams]
        shrink_fail += not (d[0] > d[1] > d[2])
    elapsed = time.perf_counter() - t0
    ok = grow_fail == below_fail == shrink_fail == 0 and elapsed < 30.0
    _report(capsys, 5, ok,
            f"50 loops: growth violations {grow_fail}, line-gap shrink "
            f"violations {shrink_fail}, loop-above-line cases {below_fail}; "
            f"{elapsed:.1f} s (budget 30)")
    assert ok


def test_criterion_06_kernel_vs_secular_paths(capsys):
    rng = np.random.default_rng(206)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        cfg = screened_line_config(rng, n_max=8)
        kern = ground_state_line(cfg)
        _reg_kernel("6", cfg, kern)
        sec = find_ground_state(as_chain_graph(cfg))
        _reg_secular("6", sec)
        worst = max(worst, abs(kern.lambda0 - sec.lambda0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    _report(capsys, 6, ok,
            f"100 configs (n <= 8): max |lambda0 gap| between paths = "
            f"{worst:.2e} (tol 1e-9); {elapsed:.1f} s (budget 60)")
    assert ok


def test_criterion_07_finite_element_oracle(capsys):
    t0 = time.perf_counter()
    two_delta = as_chain_graph(LineConfig((0.0, 1.0), (-2.0, -2.0)))
    cases = [
        ("single-delta", single_vertex_graph(-2.0, 2)),
        ("two-delta", two_delta),
        ("star(-2.5, L2=1)", star_graph(-2.5, L2=1.0)),
        ("star(-1.0, L2=0.5)", star_graph(-1.0, L2=0.5)),
        ("star(-0.6, L2=2)", star_graph(-0.6, L2=2.0)),
    ]
    failures = []
    for name, g in cases:
        gs = find_ground_state(g)
        _reg_secular("7", gs)
        rep = compare(g, gs)
        if not rep.ok:
            failures.append(f"{name}: diff {rep.difference:.2e} > tol {rep.tolerance:.2e}")
    # h-halving on the two-well chain; truncation error ~ exp(-38) is
    # negligible so the secular value serves as the limit
    errs = []
    for h in (0.04, 0.02, 0.01):
        disc = discretize(two_delta, h, R=15.0)
        res = smallest_eigenvalue(disc, shift=TWO_DELTA_LAMBDA - 0.5)
        errs.append(res.lambda_min - TWO_DELTA_LAMBDA)
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    ratios_ok = 3.5 <= r1 <= 4.5 and 3.5 <= r2 <= 4.5
    elapsed = time.perf_counter() - t0
    ok = not failures and ratios_ok and elapsed < 120.0
    _report(capsys, 7, ok,
            f"{len(cases) - len(failures)}/{len(cases)} cases within tol_cmp"
            + (f" ({'; '.join(failures)})" if failures else "")
            + f"; h-halving ratios {r1:.2f}, {r2:.2f} (window [3.5, 4.5]); "
            f"{elapsed:.1f} s (budget 120)")
    assert ok


def test_criterion_08_edge_elongation_suite(capsys):
    rng = np.random.default_rng(208)
    t0 = time.perf_counter()
    chain_sigma_fail = 0
    chain_min_margin = np.inf
    for _ in range(50):
        g = random_chain_graph(rng)
        gs = find_ground_state(g)
        _reg_secular("8", gs)
        chain_sigma_fail += any(gs.index(e.id) != 1 for e in g.finite_edges)
        eta = float(rng.uniform(0.1, 0.5))
        for e in g.finite_edges:
            g2 = apply_target(g, SweepTarget("edge", e.id), e.length * (1.0 + eta))
            gs2 = find_ground_state(g2)
            _reg_secular("8", gs2)
            chain_min_margin = min(chain_min_margin, gs2.lambda0 - gs.lambda0)

    skips = 0
    sign_fail = 0
    branch_min_abs = np.inf
    checked = 0
    for _ in range(50):
        g = random_tree_graph(rng)
        gs = find_ground_state(g)
        _reg_secular("8", gs)
        edges = g.finite_edges
        e = edges[int(rng.integers(0, len(edges)))]
        eta = float(rng.uniform(0.1, 0.5))
        g2 = apply_target(g, SweepTarget("edge", e.id), e.length * (1.0 + eta))
        gs2 = find_ground_state(g2)
        _reg_secular("8", gs2)
        sigma = gs.index(e.id)
        if gs2.indices != gs.indices or sigma == 0:
            skips += 1
            continue
        checked += 1
        delta = gs2.lambda0 - gs.lambda0
        branch_min_abs = min(branch_min_abs, abs(delta))
        if (delta > 0) != (sigma == 1):
            sign_fail += 1
    elapsed = time.perf_counter() - t0
    ok = (chain_sigma_fail == 0 and chain_min_margin > 0
          and sign_fail == 0 and checked > 0 and elapsed < 120.0)
    _report(capsys, 8, ok,
            f"chains: sigma=+1 violations {chain_sigma_fail}, min elongation "
            f"margin {chain_min_margin:.2e}; branched: {checked} checked, "
            f"{skips} class-change skips (flagged), sign mismatches "
            f"{sign_fail}, min |dlambda0| {branch_min_abs:.2e}; "
            f"{elapsed:.1f} s (budget 120)")
    assert ok


def _seed_registry_if_empty():
    if REGISTRY["secular"] or REGISTRY["kernel"]:
        return
    for alpha, n in ((-2.0, 1), (-2.0, 2), (-3.0, 3)):
        _reg_secular("seed", find_ground_state(single_vertex_graph(alpha, n)))
    _reg_secular("seed", find_ground_state(star_graph(-2.5)))
    cfg = LineConfig((0.0, 1.0), (-2.0, -2.0))
    _reg_kernel("seed", cfg, ground_state_line(cfg))
    loop = LoopConfig(10.0, (0.0,), (-2.0,))
    _reg_kernel("seed", loop, ground_state_loop(loop))


def test_criterion_09_ground_state_structure(capsys):
    _seed_registry_if_empty()
    bad = 0
    min_sampled = np.inf
    max_resid = 0.0
    min_gap = np.inf
    max_lambda = -np.inf
    for _, gs in REGISTRY["secular"]:
        d = gs.diagnostics
        resid = max(d.continuity_residual, d.coupling_residual)
        min_sampled = min(min_sampled, d.min_sampled)
        max_resid = max(max_resid, resid)
        min_gap = min(min_gap, d.nullspace_gap)
        max_lambda = max(max_lambda, gs.lambda0)
        bad += not (d.min_sampled > 0 and resid < 1e-8
                    and d.nullspace_gap >= 1e6 and gs.lambda0 < 0)
    for _, cfg, st in REGISTRY["kernel"]:
        gamma = (gamma_loop(cfg, st.kappa0) if isinstance(cfg, LoopConfig)
                 else gamma_line(cfg, st.kappa0))
        w = np.linalg.eigvalsh(gamma.entries)
        resid = abs(float(w[0]))
        gap = float(w[1]) / max(resid, 1e-300) if len(w) > 1 else np.inf
        min_sampled = min(min_sampled, min(st.weights))
        max_resid = max(max_resid, resid)
        min_gap = min(min_gap, gap)
        max_lambda = max(max_lambda, st.lambda0)
        bad += not (min(st.weights) > 0 and resid < 1e-8
                    and gap >= 1e6 and st.lambda0 < 0)
    total = len(REGISTRY["secular"]) + len(REGISTRY["kernel"])
    ok = bad == 0 and total > 0
    _report(capsys, 9, ok,
            f"{total} solved instances audited ({len(REGISTRY['secular'])} "
            f"graph, {len(REGISTRY['kernel'])} kernel): {bad} violations; "
            f"min positivity {min_sampled:.2e}, max residual {max_resid:.2e}, "
            f"min simplicity gap {min_gap:.1e}, max lambda0 {max_lambda:.2e}")
    assert ok


def test_criterion_10_scaling_covariance(capsys):
    rng = np.random.default_rng(210)
    t0 = time.perf_counter()
    worst_rel = 0.0
    index_fail = 0
    for _ in range(50):
        g = random_mixed_graph(rng)
        gs = find_ground_state(g)
        for s in (0.5, 2.0):
            gs_s = find_ground_state(scaled_graph(g, s))
            worst_rel = max(worst_rel, abs(gs_s.kappa0 * s - gs.kappa0) / gs.kappa0)
            index_fail += gs_s.indices != gs.indices
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-9 and index_fail == 0
    _report(capsys, 10, ok,
            f"50 graphs, s in {{0.5, 2}}: max relative kappa0 error "
            f"{worst_rel:.2e} (tol 1e-9); index-vector mismatches "
            f"{index_fail}; {elapsed:.1f} s")
    assert ok


def test_criterion_11_scaled_trial_signs(capsys):
    rng = np.random.default_rng(211)
    t0 = time.perf_counter()
    worst_identity = 0.0
    sign_fail = 0
    checked = 0
    for _ in range(20):
        g = random_mixed_graph(rng)
        gs = find_ground_state(g)
        for e in g.finite_edges:
            f1 = scaled_trial_quotient(g, gs, e.id, 1.0)
            worst_identity = max(worst_identity, abs(f1 - gs.lambda0))
            sigma = gs.index(e.id)
            if abs(sigma) != 1:
                continue
            checked += 1
            up = scaled_trial_quotient(g, gs, e.id, 1.0 + 1e-4) - gs.lambda0
            down = scaled_trial_quotient(g, gs, e.id, 1.0 - 1e-4) - gs.lambda0
            if ((up > 0) != (sigma == 1)) or ((down > 0) != (sigma == -1)):
                sign_fail += 1
    elapsed = time.perf_counter() - t0
    ok = worst_identity <= 1e-10 and sign_fail == 0 and checked > 0
    _report(capsys, 11, ok,
            f"20 graphs: max |f(1) - lambda0| = {worst_identity:.2e} "
            f"(tol 1e-10); sign mismatches {sign_fail}/{checked} edges "
            f"with |sigma| = 1; {elapsed:.1f} s")
    assert ok
