"""Sweep grid and critical-coupling tests."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import ALPHA_CRIT, single_vertex_graph, star_graph
from qgbind import secular
from qgbind import (
    CritError,
    SolverOptions,
    SweepPoint,
    SweepSpec,
    SweepTarget,
    apply_target,
    find_critical_coupling,
    find_ground_state,
    run_sweep,
)


def test_target_parse_and_label():
    t = SweepTarget.parse("edge:axial")
    assert (t.kind, t.ref) == ("edge", "axial")
    assert t.label() == "edge:axial"
    v = SweepTarget.parse("vertex:c")
    assert (v.kind, v.ref) == ("vertex", "c")


def test_target_parse_rejects_malformed():
    for bad in ("axial", "edge:", ":x", ""):
        with pytest.raises(ValueError):
            SweepTarget.parse(bad)
    with pytest.raises(ValueError, match="unknown target kind"):
        SweepTarget("lead", "t1")


def test_spec_validation():
    t = SweepTarget("edge", "axial")
    with pytest.raises(ValueError):
        SweepSpec(t, 2.0, 1.0, 5)
    with pytest.raises(ValueError):
        SweepSpec(t, 1.0, 1.0, 5)
    with pytest.raises(ValueError):
        SweepSpec(t, 1.0, 2.0, 1)
    vals = SweepSpec(t, 1.0, 2.0, 5).values()
    assert np.allclose(vals, [1.0, 1.25, 1.5, 1.75, 2.0])


def test_apply_target_edge_and_vertex():
    g = star_graph(-1.0)
    g2 = apply_target(g, SweepTarget("edge", "axial"), 2.5)
    assert next(e.length for e in g2.finite_edges if e.id == "axial") == 2.5
    g3 = apply_target(g, SweepTarget("vertex", "c"), -0.7)
    assert g3.vertex("c").alpha == -0.7
    # original untouched
    assert g.vertex("c").alpha == -1.0


def test_apply_target_unknown_ids():
    g = star_graph(-1.0)
    with pytest.raises(ValueError, match="no finite edge"):
        apply_target(g, SweepTarget("edge", "nope"), 1.0)
    with pytest.raises(ValueError, match="no vertex"):
        apply_target(g, SweepTarget("vertex", "nope"), -1.0)


def test_sweep_rejects_bad_spec_count():
    g = star_graph(-1.0)
    t = SweepTarget("edge", "axial")
    with pytest.raises(ValueError):
        run_sweep(g, [])
    with pytest.raises(ValueError):
        run_sweep(g, [SweepSpec(t, 1.0, 2.0, 2)] * 3)


def test_one_dimensional_sweep_matches_direct_solves():
    g = star_graph(-2.5)
    spec = SweepSpec(SweepTarget("edge", "axial"), 0.5, 2.5, 5)
    rows = run_sweep(g, [spec])
    assert len(rows) == 5
    for row, L in zip(rows, spec.values()):
        assert row.ok and row.values == (float(L),)
        direct = find_ground_state(apply_target(g, spec.target, float(L)))
        assert row.lambda0 == direct.lambda0
        assert row.kappa0 == direct.kappa0
        assert row.indices == direct.indices
    assert not rows[0].class_change


def _direct(graph, targets, values, options):
    try:
        for target, value in zip(targets, values):
            graph = apply_target(graph, target, value)
        return find_ground_state(graph, options)
    except Exception as exc:
        return exc


@pytest.mark.parametrize("specs,options", [
    ([("vertex:c", -2.6, -2.0, 3), ("edge:axial", 0.5, 2.5, 4)], None),
    # arm1 shorter than 1e-3 / kappa at some points: members in different
    # elimination groups, and one without any
    ([("edge:arm1", 1e-6, 0.5, 6)], None),
    # the stronger centers bind above kappa_max
    ([("vertex:c", -4.0, -0.5, 8)], SolverOptions(kappa_max=2.03)),
    # the short axial edges solve in the unit 1 and the long ones in 1/16
    # (rootscan.unit); the ceiling cuts the strongest q in both
    ([("vertex:q", -8.0, -1.0, 4), ("edge:axial", 0.2, 60.0, 3)], SolverOptions(kappa_max=4.0)),
], ids=["grid", "short-edge", "kappa-max", "units"])
def test_batched_sweep_matches_direct_solves(specs, options):
    # a sweep solves its grid as one batch; each point is its direct solve,
    # bit for bit, or fails as it does
    g = star_graph(-2.5)
    specs = [SweepSpec(SweepTarget.parse(t), lo, hi, n) for t, lo, hi, n in specs]
    rows = run_sweep(g, specs, options)
    statuses = set()
    for row in rows:
        direct = _direct(g, [s.target for s in specs], row.values, options)
        if isinstance(direct, Exception):
            assert row.status == f"error:{type(direct).__name__}"
            assert (row.kappa0, row.lambda0, row.indices) == (None, None, ())
        else:
            assert row.status == "ok"
            assert (row.kappa0, row.lambda0, row.indices) == (
                direct.kappa0, direct.lambda0, direct.indices)
        statuses.add(row.status)
    assert "ok" in statuses
    assert len(statuses) == (2 if options else 1)


def test_a_point_the_eigensolver_fails_on_fails_alone(monkeypatch):
    # LAPACK cannot diagonalize a NaN matrix: that point's values come back
    # NaN, with no warning (warnings are errors here), its Newton step
    # refuses them, and the other points of the batch are their direct solves
    g = star_graph(-2.5)
    spec = SweepSpec(SweepTarget("vertex", "c"), -2.6, -2.0, 4)
    bad, parts = spec.values()[1], secular._Topology.parts

    def poisoned(self, kappa, alphas, lengths):
        a, W, E, den = parts(self, kappa, alphas, lengths)
        W[alphas[:, 0] == bad] = np.nan
        return a, W, E, den

    monkeypatch.setattr(secular._Topology, "parts", poisoned)
    rows = run_sweep(g, [spec])
    monkeypatch.undo()
    assert [row.status for row in rows] == ["ok", "error:NoBoundState", "ok", "ok"]
    for row in rows[::2] + rows[3:]:
        direct = find_ground_state(apply_target(g, spec.target, row.values[0]))
        assert (row.kappa0, row.indices) == (direct.kappa0, direct.indices)


def test_class_change_fires_once_crossing_critical_alpha():
    # the axial profile is pure exponential exactly at the critical alpha,
    # so its shape index flips once as alpha sweeps across it
    g = star_graph(-1.0)
    spec = SweepSpec(SweepTarget("vertex", "c"), -1.2, -1.0, 9)
    rows = run_sweep(g, [spec])
    assert all(r.ok for r in rows)
    flips = [r.class_change for r in rows]
    assert sum(flips) == 1
    where = flips.index(True)
    lo, hi = rows[where - 1].values[0], rows[where].values[0]
    assert lo < ALPHA_CRIT < hi


def test_error_rows_do_not_abort_sweep():
    # alpha crossing zero makes the graph inadmissible at positive values
    g = star_graph(-1.0)
    spec = SweepSpec(SweepTarget("vertex", "c"), -0.4, 0.4, 5)
    rows = run_sweep(g, [spec])
    statuses = [r.status for r in rows]
    assert statuses[:3] == ["ok", "ok", "ok"]
    assert statuses[3:] == ["error:InvalidGraphError"] * 2
    for r in rows[3:]:
        assert r.kappa0 is None and r.lambda0 is None and r.indices == ()
        assert not r.class_change
    # a length crossing zero: the nonpositive lengths fail the same way
    spec = SweepSpec(SweepTarget("edge", "axial"), -0.4, 0.4, 5)
    rows = run_sweep(g, [spec])
    assert [r.status for r in rows] == ["error:InvalidGraphError"] * 3 + ["ok", "ok"]
    assert not rows[3].class_change


def test_two_dimensional_sweep_row_major():
    g = star_graph(-2.5)
    outer = SweepSpec(SweepTarget("edge", "axial"), 1.0, 2.0, 2)
    inner = SweepSpec(SweepTarget("vertex", "c"), -2.6, -2.4, 3)
    rows = run_sweep(g, [outer, inner])
    assert len(rows) == 6
    got = [r.values for r in rows]
    assert got == [
        (1.0, -2.6), (1.0, -2.5), (1.0, -2.4),
        (2.0, -2.6), (2.0, -2.5), (2.0, -2.4),
    ]
    assert all(r.ok for r in rows)
    # inner alpha sweep repeats identically at both lengths except lambda
    assert rows[0].lambda0 != rows[3].lambda0


def test_log10_helper():
    g = star_graph(-2.5)
    rows = run_sweep(g, [SweepSpec(SweepTarget("edge", "axial"), 1.0, 2.0, 2)])
    r = rows[0]
    assert r.log10_abs_lambda0 == pytest.approx(np.log10(abs(r.lambda0)))
    # -kappa0**2 underflows to -0.0 below kappa0 ~ 1.5e-162; the exact value
    # of log10 |lambda0| is still 2 log10 kappa0
    assert SweepPoint((0.0,), "ok", 1e-170, -0.0, (), False).log10_abs_lambda0 == -340.0
    # a subnormal lambda0 has lost digits: 2 log10 kappa0 again
    kappa0 = 1.2e-161
    point = SweepPoint((0.0,), "ok", kappa0, -kappa0 * kappa0, (), False)
    assert point.log10_abs_lambda0 == 2.0 * math.log10(kappa0) == -321.84163750790475
    failed = SweepPoint((0.0,), "error:NoBoundState", None, None, (), False)
    assert failed.log10_abs_lambda0 is None


def test_sweep_where_lambda0_underflows():
    spec = SweepSpec(SweepTarget("vertex", "v"), -1e-170, -1e-171, 3)
    rows = run_sweep(single_vertex_graph(-2.0, 2), [spec])
    assert [r.kappa0 for r in rows] == [-0.5 * r.values[0] for r in rows]
    for r in rows:
        assert r.ok and r.lambda0 == 0.0
        assert r.log10_abs_lambda0 == 2.0 * math.log10(r.kappa0)


def test_a_grid_too_large_for_memory_is_refused_before_it_is_built():
    # 1e10 points would take about 23 TB; nothing of the grid is built
    specs = [SweepSpec(SweepTarget("edge", "axial"), 0.5, 3.0, 100_000),
             SweepSpec(SweepTarget("vertex", "c"), -2.0, -1.0, 100_000)]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="10000000000 points.* GB budget"):
            run_sweep(star_graph(-1.0), specs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ------------------------------------------------------- critical coupling

def test_critical_coupling_window_invariant():
    g = star_graph(-1.0)
    r1 = find_critical_coupling(g, "axial", window=(0.5, 3.0))
    r2 = find_critical_coupling(g, "axial", window=(1.0, 2.5))
    assert abs(r1.alpha_crit - ALPHA_CRIT) < 1e-9
    assert abs(r2.alpha_crit - ALPHA_CRIT) < 1e-9
    assert abs(r1.alpha_crit - r2.alpha_crit) < 1e-9
    for r in (r1, r2):
        assert r.axial_index == 0
        assert r.variation < 1e-8
        assert r.evidence < 1e-7
        assert r.kappa0 > 0
    assert r1.window == (0.5, 3.0)


def test_critical_coupling_needs_bracketing():
    g = star_graph(-1.0)
    for bracket in ((-0.3, -0.1), (-3.0, -3.0)):
        with pytest.raises(CritError, match="no sign change"):
            find_critical_coupling(g, "axial", alpha_bracket=bracket)
    # a bracket holding alpha_c may come in either order
    reverse = find_critical_coupling(g, "axial", alpha_bracket=(-0.1, -3.0))
    assert reverse == find_critical_coupling(g, "axial")


def test_critical_coupling_validates_geometry():
    g = star_graph(-1.0)
    with pytest.raises(ValueError, match="no finite edge"):
        find_critical_coupling(g, "missing")
    with pytest.raises(ValueError, match="window"):
        find_critical_coupling(g, "axial", window=(2.0, 1.0))
    from conftest import robin_interval

    flat = robin_interval(-1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="axial edge"):
        find_critical_coupling(flat, "e1")
