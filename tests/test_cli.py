"""Command-line interface tests.

Most tests call main(argv) in-process; subprocess tests cover
``python -m qgbind.cli``, the ``qgbind`` console script declared in
pyproject.toml and the modules a cold ``groundstate`` loads, all running this
checkout's ``src``.  Graph files are written with save_graph so the on-disk
format stays in sync with the loader.
"""

import json
import math
import os
import re
import subprocess
import sys
from importlib.metadata import EntryPoint
from itertools import takewhile
from pathlib import Path

import pytest

import qgbind
from conftest import chain_graph, robin_interval, single_vertex_graph, star_graph
from qgbind import (
    FiniteEdge,
    InfiniteEdge,
    MetricGraph,
    VertexSpec,
    find_ground_state,
    save_graph,
)
from qgbind.cli import build_parser, main
from qgbind.sweeps import _axial_ends

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


@pytest.fixture
def delta_file(tmp_path):
    """Single attractive vertex with two leads: kappa0 = 1 exactly."""
    path = tmp_path / "delta.json"
    save_graph(single_vertex_graph(-2.0, 2), path)
    return str(path)


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star.json"
    save_graph(star_graph(-1.0), path)
    return str(path)


def test_groundstate_human_output(delta_file, capsys):
    assert main(["groundstate", delta_file]) == 0
    out = capsys.readouterr().out
    assert "lambda0 = -1\n" in out
    assert "kappa0  = 1\n" in out
    # two leads at kappa 1: normalization puts c = sqrt(kappa) = 1 on each
    for line in out.splitlines():
        if line.startswith("lead "):
            c = float(line.split("c=")[1].split()[0])
            assert abs(c - 1.0) < 1e-12
            assert line.endswith("index=+0")
    assert out.count("lead t") == 2
    assert "residuals: continuity=" in out and "nullspace_gap=" in out


def test_groundstate_json_output(delta_file, capsys):
    assert main(["groundstate", delta_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kappa0"] == 1.0
    assert payload["lambda0"] == -1.0
    kinds = {e["id"]: e["kind"] for e in payload["edges"]}
    assert kinds == {"t1": "infinite", "t2": "infinite"}
    assert all("c" in e and "index" in e for e in payload["edges"])
    diag = payload["diagnostics"]
    assert set(diag) == {
        "continuity_residual", "coupling_residual", "nullspace_gap", "min_sampled",
    }
    assert diag["min_sampled"] > 0


def test_groundstate_json_finite_edges_match_the_solution_and_the_text(star_file, capsys):
    assert main(["groundstate", star_file, "--json"]) == 0
    edges = json.loads(capsys.readouterr().out)["edges"]
    assert main(["groundstate", star_file]) == 0
    text = [line for line in capsys.readouterr().out.splitlines() if line.startswith("edge ")]
    gs = find_ground_state(star_graph(-1.0))
    assert [e["kind"] for e in edges] == ["finite"] * 3 and len(text) == 3
    for entry, sol, index, line in zip(edges, gs.solutions, gs.indices, text):
        assert (entry["id"], entry["a"], entry["b"], entry["index"]) == (
            sol.edge_id, sol.a, sol.b, index)
        words = dict(word.split("=") for word in line.split()[2:])
        assert line.startswith(f"edge {entry['id']}: ")
        assert (float(words["a"]), float(words["b"]), int(words["index"])) == (
            entry["a"], entry["b"], entry["index"])


def test_groundstate_missing_file(tmp_path, capsys):
    rc = main(["groundstate", str(tmp_path / "absent.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_groundstate_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json", encoding="utf-8")
    assert main(["groundstate", str(path)]) == 2
    assert "error: " in capsys.readouterr().err


def test_groundstate_edge_list_not_a_list(tmp_path, capsys):
    path = tmp_path / "leads_int.json"
    path.write_text(json.dumps({"vertices": [{"id": "v", "alpha": -2.0}],
                                "infinite_edges": 5}), encoding="utf-8")
    assert main(["groundstate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "infinite_edges" in err


@pytest.mark.parametrize("tol", ["-1", "nan", "0"])
def test_bad_tol_kappa_is_input_error(delta_file, tol, capsys):
    assert main(["groundstate", delta_file, "--tol-kappa", tol]) == 2
    assert main(["line", "--sites", "0", "--alphas", "-2", "--tol-kappa", tol]) == 2
    assert capsys.readouterr().err.count("error: tol_kappa") == 2


@pytest.mark.parametrize("kappa_max", ["inf", "nan"])
def test_non_finite_kappa_max_is_input_error(delta_file, kappa_max, capsys):
    assert main(["groundstate", delta_file, "--kappa-max", kappa_max]) == 2
    assert main(["line", "--sites", "0", "--alphas", "-2", "--cross-check",
                 "--kappa-max", kappa_max]) == 2
    assert capsys.readouterr().err.count("error: kappa_max") == 2
    # without --cross-check the kernel route alone runs and ignores the flag
    assert main(["line", "--sites", "0", "--alphas", "-2", "--kappa-max", kappa_max]) == 0


def test_line_passes_tol_kappa_to_kernel_solver(monkeypatch, capsys):
    import qgbind.cli as cli

    seen = []

    def fake(config, *, tol_kappa):
        seen.append((type(config).__name__, tol_kappa))
        return qgbind.LineGroundState(1.0, -1.0, (1.0,))

    monkeypatch.setattr(cli, "ground_state_line", fake)
    assert main(["line", "--sites", "0", "--alphas", "-2", "--tol-kappa", "1e-6"]) == 0
    assert main(["line", "--loop", "5", "--sites", "0", "--alphas", "-2",
                 "--tol-kappa", "1e-7"]) == 0
    assert seen == [("LineConfig", 1e-6), ("LoopConfig", 1e-7)]


def test_groundstate_excited_root_is_numeric_failure(tmp_path, capsys):
    # the ceiling lies between the odd excited root and the ground root,
    # and kappa_max is a hard ceiling
    path = tmp_path / "interval.json"
    save_graph(robin_interval(-1.0, -1.0, 4.0), path)
    rc = main(["groundstate", str(path), "--kappa-max", "1.0"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("numerical failure: ")


def test_groundstate_huge_kappa_max_solves(delta_file, capsys):
    # a ceiling far above kappa0 = 1 costs nothing: no grid is built below it
    assert main(["groundstate", delta_file, "--kappa-max", "1e12", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["kappa0"] == 1.0


def test_groundstate_kappa_max_below_the_root_is_numeric_failure(delta_file, capsys):
    assert main(["groundstate", delta_file, "--kappa-max", "0.5"]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: mu0 < 0 at the ceiling")


def test_sweep_csv_schema(star_file, capsys):
    rc = main([
        "sweep", star_file,
        "--target", "edge:axial", "--range", "1", "2", "--steps", "3",
    ])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# qgbind sweep schema v1"
    assert lines[1] == (
        "param1,value1,param2,value2,kappa0,lambda0,log10_abs_lambda0,"
        "indices,class_change,status"
    )
    assert len(lines) == 5
    first = lines[2].split(",")
    assert first[0] == "edge:axial"
    assert first[1] == "1"
    assert first[2] == "" and first[3] == ""
    assert first[8] == "false" and first[9] == "ok"
    # full-precision round trip against a direct solve
    from qgbind import SweepTarget, apply_target, load_graph

    g = apply_target(load_graph(star_file), SweepTarget("edge", "axial"), 1.0)
    gs = find_ground_state(g)
    assert float(first[4]) == gs.kappa0
    assert float(first[5]) == gs.lambda0
    assert first[7] == ";".join(f"{i:+d}" for i in gs.indices)


def test_sweep_csv_file_matches_stdout(star_file, tmp_path, capsys):
    args = ["sweep", star_file, "--target", "edge:axial",
            "--range", "1", "2", "--steps", "4"]
    assert main(args) == 0
    stdout_text = capsys.readouterr().out

    out = tmp_path / "a.csv"
    assert main(args + ["--csv", str(out)]) == 0
    assert out.read_bytes() == stdout_text.encode()


def test_sweep_error_rows_have_empty_cells(star_file, capsys):
    rc = main([
        "sweep", star_file,
        "--target", "vertex:c", "--range", "-0.2", "0.2", "--steps", "2",
    ])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    ok_row = lines[2].split(",")
    bad_row = lines[3].split(",")
    assert ok_row[9] == "ok"
    assert bad_row[9] == "error:InvalidGraphError"
    assert bad_row[4:8] == ["", "", "", ""]


def test_sweep_reports_log10_where_lambda0_underflows(delta_file, capsys):
    # kappa0 ~ 5e-171: lambda0 = -kappa0**2 rounds to -0, and the log10
    # column holds 2 log10 kappa0, its exact value
    assert main(["sweep", delta_file, "--target", "vertex:v",
                 "--range", "-1e-170", "-1e-171", "--steps", "3"]) == 0
    rows = [r.split(",") for r in capsys.readouterr().out.splitlines()[2:]]
    assert len(rows) == 3
    for row in rows:
        kappa0, lambda0, log10 = (float(x) for x in row[4:7])
        assert row[9] == "ok" and lambda0 == 0.0
        assert log10 == 2.0 * math.log10(kappa0)


def test_sweep_refuses_a_grid_too_large_for_memory(star_file, capsys):
    assert main(["sweep", star_file,
                 "--target", "edge:axial", "--range", "0.5", "3", "--steps", "100000",
                 "--target", "vertex:c", "--range", "-2", "-1", "--steps", "100000"]) == 2
    assert "GB budget" in capsys.readouterr().err


def test_sweep_rejects_zero_width_range(star_file, capsys):
    rc = main(["sweep", star_file, "--target", "edge:axial",
               "--range", "1", "1", "--steps", "3"])
    assert rc == 2
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("lo,hi", [("-inf", "2"), ("-1", "-nan"), ("-1E400", "2")])
def test_sweep_non_finite_range_is_input_error(star_file, lo, hi, capsys):
    # argparse would read "-inf" as a flag; such values reach the range check
    assert main(["sweep", star_file, "--target", "vertex:c", "--range", lo, hi,
                 "--steps", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: sweep range must be finite")


def test_sweep_accepts_exponent_notation_range(star_file, capsys):
    assert main(["sweep", star_file, "--target", "vertex:c", "--range", "-2e0", "-5e-1",
                 "--steps", "3"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [r.split(",")[1] for r in rows] == ["-2", "-1.25", "-0.5"]


def test_sweep_rejects_mismatched_flag_counts(star_file, capsys):
    rc = main(["sweep", star_file,
               "--target", "edge:axial", "--target", "vertex:c",
               "--range", "1", "2", "--steps", "3"])
    assert rc == 2
    assert "together" in capsys.readouterr().err


def test_line_cross_check_agrees(capsys):
    rc = main(["line", "--sites", "0", "--alphas", "-2", "--cross-check"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "lambda0 = -1\n" in out
    assert "kappa0  = 1\n" in out
    assert "graph-path lambda0 = " in out
    diff = float(out.split("difference = ")[1].split()[0])
    assert diff < 1e-9


def test_line_json_two_sites(capsys):
    rc = main(["line", "--sites", "0", "1", "--alphas", "-2", "-2",
               "--json", "--cross-check"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["kappa0"] - 1.2784645427610737) < 1e-11
    assert len(payload["weights"]) == 2
    assert payload["cross_check"]["difference"] < 1e-9


def test_line_loop_mode(capsys):
    rc = main(["line", "--loop", "10", "--sites", "0", "--alphas", "-2", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["kappa0"] - 1.0000907216367818) < 1e-12
    assert payload["cross_check"] is None


@pytest.mark.parametrize("loop", [[], ["--loop", "10"]])
def test_line_ignores_kappa_max_without_cross_check(loop, capsys):
    args = ["line", *loop, "--sites", "0", "1", "--alphas", "-2", "-1", "--json"]
    assert main(args) == 0
    plain = capsys.readouterr().out
    assert main(args + ["--kappa-max", "50"]) == 0
    assert capsys.readouterr().out == plain


def test_line_rejects_mismatched_lengths(capsys):
    rc = main(["line", "--sites", "0", "1", "--alphas", "-2"])
    assert rc == 2
    assert "same length" in capsys.readouterr().err


def test_crit_json(star_file, capsys):
    rc = main(["crit", star_file, "--axial-edge", "axial", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["alpha_crit"] - (-1.0908817883350728)) < 1e-9
    assert payload["axial_index"] == 0
    assert payload["max_abs_variation"] < 1e-8
    assert payload["window"] == [0.5, 3.0]
    assert payload["kappa0"] > 0


def test_crit_unbracketed_is_numeric_failure(star_file, capsys):
    rc = main(["crit", star_file, "--axial-edge", "axial",
               "--alpha-bracket", "-0.3", "-0.1"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("numerical failure: ")


@pytest.mark.parametrize("extra,rc,message", [
    (["--window", "0.5", "inf"], 2, "error: window must be finite"),
    (["--window", "nan", "1"], 2, "error: window must be finite"),
    (["--alpha-bracket", "-3", "inf"], 2, "error: alpha bracket must be finite"),
    (["--alpha-bracket", "nan", "-0.1"], 2, "error: alpha bracket must be finite"),
    (["--alpha-bracket", "-0.1", "-3"], 0, ""),
    (["--alpha-bracket", "-3", "-3"], 3, "numerical failure: "),
    (["--window", "0.5", "1e6"], 3, "numerical failure: "),
    # argparse alone would read "-inf" and "-1e1" as flags
    (["--alpha-bracket", "-inf", "-0.1"], 2, "error: alpha bracket must be finite"),
    (["--alpha-bracket", "-3", "-Infinity"], 2, "error: alpha bracket must be finite"),
    (["--alpha-bracket", "-1e1", "-1e-1"], 0, ""),
    (["--window", "-inf", "1"], 2, "error: window must be finite"),
    (["--window", "-0.5", "1"], 2, "error: window must satisfy"),
])
def test_crit_argument_exit_codes(star_file, extra, rc, message, capsys):
    assert main(["crit", star_file, "--axial-edge", "axial"] + extra) == rc
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize("graph,message", [
    (star_graph(-1.0, axial_alpha=0.0), "outer vertex 'q'"),
    (star_graph(-1.0, arm_alpha=-6.0), "binds below"),
])
def test_crit_without_a_flat_coupling_is_numeric_failure(tmp_path, graph, message, capsys):
    path = tmp_path / "star.json"
    save_graph(graph, path)
    assert main(["crit", str(path), "--axial-edge", "axial"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and message in err


def test_crit_from_the_outer_end_of_the_axial_edge(star_file, tmp_path, capsys):
    # the axial edge written from q to c: the center is read off its other
    # end, and alpha_c, kappa0 and the axial index come out bit for bit
    g = star_graph(-1.0)
    flipped = MetricGraph(g.vertices, tuple(
        FiniteEdge(e.id, e.end, e.start, e.length) if e.id == "axial" else e
        for e in g.finite_edges))
    assert _axial_ends(flipped, "axial") == _axial_ends(g, "axial") == ("c", "q")
    path = tmp_path / "flipped.json"
    save_graph(flipped, path)
    runs = []
    for graph_file in (star_file, str(path)):
        assert main(["crit", graph_file, "--axial-edge", "axial", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        runs.append((payload["alpha_crit"].hex(), float(payload["kappa0"]).hex(),
                     payload["axial_index"]))
    assert runs[0] == runs[1]


# main() reuses one parser for the life of the process; a call must see none
# of an earlier call's arguments, whether that call succeeded or not

def _alone(argv, capsys):
    """main(argv) with a parser built for this call alone, and its stdout."""
    build_parser.cache_clear()
    rc = main(argv)
    return rc, capsys.readouterr().out


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_sweep_after_a_sweep_writes_what_it_writes_alone(star_file, tmp_path, capsys):
    grid = ["sweep", star_file, "--target", "edge:axial", "--range", "1", "2", "--steps", "3",
            "--target", "vertex:c", "--range", "-2", "-1", "--steps", "2"]
    line = ["sweep", star_file, "--target", "edge:arm1", "--range", "0.5", "1", "--steps", "4"]
    alone = []
    for argv in (grid, line):
        assert _alone(argv + ["--csv", str(tmp_path / "alone.csv")], capsys)[0] == 0
        alone.append((tmp_path / "alone.csv").read_bytes())
    for k, argv in enumerate((grid, line)):
        assert main(argv + ["--csv", str(tmp_path / f"{k}.csv")]) == 0
    assert [(tmp_path / f"{k}.csv").read_bytes() for k in range(2)] == alone
    assert alone[0].count(b"\n") == 2 + 6 and alone[1].count(b"\n") == 2 + 4


def test_crit_after_a_crit_with_a_window_uses_the_default_window(star_file, capsys):
    crit = ["crit", star_file, "--axial-edge", "axial", "--json"]
    assert main(crit + ["--window", "1", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["window"] == [1.0, 2.0]
    assert main(crit) == 0
    assert json.loads(capsys.readouterr().out)["window"] == [0.5, 3.0]


def test_groundstate_after_a_usage_error_matches_a_fresh_call(delta_file, capsys):
    argv = ["groundstate", delta_file, "--json"]
    fresh = _alone(argv, capsys)
    with pytest.raises(SystemExit) as exc:
        main(["groundstate", delta_file, "--tol-kappa"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
    assert (main(argv), capsys.readouterr().out) == fresh


def _readme_examples() -> list:
    """Each README command-line example that shows its output, as (argv after
    the program name, the output lines), and the sweep example with the CSV
    sample's header and row, which follow the schema line."""
    lines = (PYPROJECT.parent / "README.md").read_text(encoding="utf-8").splitlines()
    examples = []
    for i, line in enumerate(lines):
        if line.startswith("qgbind "):
            output = [out[4:] for out in takewhile(lambda x: x.startswith("    "), lines[i + 1:])]
            if line.startswith("qgbind sweep "):
                header = next(j for j, row in enumerate(lines) if row.startswith("param1,"))
                output = list(takewhile(lambda x: not x.startswith("```"), lines[header:]))
            if output:
                examples.append(pytest.param(line.split()[1:], output, id=line.split()[1]))
    return examples


_FIGURE = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:e[-+]\d+)?")


def _same_line(got: str, expected: str) -> bool:
    """Words equal; a %.3e figure as printed, or both below 1e-12 (noise);
    any other number within 1e-12 relative, which is exact for integers."""
    if _FIGURE.split(got) != _FIGURE.split(expected):
        return False
    for mine, theirs in zip(_FIGURE.findall(got), _FIGURE.findall(expected)):
        a, b = float(mine), float(theirs)
        if re.fullmatch(r"-?\d\.\d{3}e[-+]\d+", theirs):
            if mine != theirs and max(abs(a), abs(b)) >= 1e-12:
                return False
        elif abs(a - b) > 1e-12 * abs(b):
            return False
    return True


@pytest.mark.parametrize("argv, expected", _readme_examples())
def test_readme_example_matches_the_cli(argv, expected, star_file, delta_file, tmp_path, capsys):
    # README's star.json is the reference star and delta.json the single
    # vertex of the delta_file fixture; a "..." line ends the comparison
    csv = tmp_path / "out.csv"
    files = {"star.json": star_file, "delta.json": delta_file, "out.csv": str(csv)}
    assert main([files.get(arg, arg) for arg in argv]) == 0
    got = capsys.readouterr().out.splitlines()
    if argv[0] == "sweep":  # the header and the first row
        got = csv.read_text(encoding="utf-8").splitlines()[1:1 + len(expected)]
    if "..." in expected:
        expected = expected[:expected.index("...")]
        got = got[:len(expected)]
    assert len(got) == len(expected)
    for mine, theirs in zip(got, expected):
        assert _same_line(mine, theirs), (mine, theirs)


def test_compare_pass(delta_file, capsys):
    rc = main(["compare", delta_file, "--h", "0.02", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["difference"] <= payload["tolerance"]
    assert abs(payload["lambda0_secular"] - (-1.0)) < 1e-12
    # the eigensolve's work: solves (5 measured) and factorizations
    assert payload["solves"] <= 6 and payload["factors"] == 1


def test_compare_text_output_carries_no_counts(delta_file, capsys):
    rc = main(["compare", delta_file, "--h", "0.02"])
    assert rc == 0
    labels = [line.split("=")[0].strip() for line in capsys.readouterr().out.splitlines()]
    assert labels == ["lambda0 (secular)", "lambda0 (fe)", "P1 correction",
                      "difference", "verdict: PASS"]


@pytest.mark.parametrize("alpha, leads", [(-10.0, 2), (-20.0, 2), (-40.0, 3)])
def test_compare_passes_at_strong_coupling(tmp_path, alpha, leads, capsys):
    path = tmp_path / "vertex.json"
    save_graph(single_vertex_graph(alpha, leads), path)
    rc = main(["compare", str(path), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["correction"] > payload["tolerance"] > payload["difference"]
    rc = main(["compare", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "P1 correction" in out and "verdict: PASS" in out


def test_compare_fail_under_harsh_truncation(delta_file, capsys):
    # R = 1 puts the truncated problem at its binding threshold, so the
    # finite-element value collapses toward zero and the verdict fails
    rc = main(["compare", delta_file, "--h", "0.02", "--R", "1"])
    assert rc == 3
    out = capsys.readouterr().out
    assert "verdict: FAIL" in out


def test_compare_refuses_a_mesh_too_large(delta_file, capsys):
    rc = main(["compare", delta_file, "--h", "1e-12"])
    assert rc == 3
    assert "nodes, more than the limit" in capsys.readouterr().err


def test_compare_refuses_a_weakly_bound_mesh_too_large(tmp_path, capsys):
    # kappa0 = 1e-4: the default R needs 5e7 nodes at h = 0.01, a typed
    # refusal (exit 3) instead of running out of memory
    path = tmp_path / "weak.json"
    save_graph(single_vertex_graph(-2e-4, 2), path)
    rc = main(["compare", str(path)])
    assert rc == 3
    assert "5e+07 nodes, more than the limit" in capsys.readouterr().err


@pytest.mark.parametrize("h", ["0", "-1", "nan", "inf"])
def test_compare_rejects_a_mesh_size_that_is_not_finite_and_positive(delta_file, h, capsys):
    # an input error (exit 2) like any other bad numeric flag, not a
    # numerical failure (exit 3)
    rc = main(["compare", delta_file, "--h", h])
    assert rc == 2
    assert f"error: mesh size h={float(h)!r} must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("R", ["2", "1.5"])
def test_compare_rejects_truncation_inside_extent(tmp_path, R, capsys):
    path = tmp_path / "chain.json"
    save_graph(chain_graph([-1.0, -1.0], [2.0]), path)
    rc = main(["compare", str(path), "--R", R])
    assert rc == 2
    assert "must exceed the finite extent" in capsys.readouterr().err


def _checkout_env() -> dict[str, str]:
    """The calling environment with the imported package's ``src`` first on
    PYTHONPATH, so a child process runs the same code as these tests."""
    env = dict(os.environ)
    src = str(Path(qgbind.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def test_console_script(delta_file, tmp_path):
    # Write the launcher an installer makes for the declared entry point, so
    # the script is checked from a source checkout without an install.
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        value = tomllib.load(fh)["project"]["scripts"]["qgbind"]
    ep = EntryPoint(name="qgbind", value=value, group="console_scripts")
    assert callable(ep.load())
    bindir = tmp_path / "bin"
    bindir.mkdir()
    launcher = bindir / "qgbind"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {ep.module} import {ep.attr.split('.')[0]}\n"
        f"sys.exit({ep.attr}())\n",
        encoding="utf-8",
    )
    launcher.chmod(0o755)
    env = _checkout_env()
    env["PATH"] = os.pathsep.join(filter(None, (str(bindir), env.get("PATH"))))
    proc = subprocess.run(
        ["qgbind", "groundstate", delta_file, "--json"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kappa0"] == 1.0


def test_module_invocation(delta_file):
    proc = subprocess.run(
        [sys.executable, "-m", "qgbind.cli", "groundstate", delta_file],
        capture_output=True, text=True, timeout=60, env=_checkout_env(),
    )
    assert proc.returncode == 0
    assert "lambda0 = -1" in proc.stdout


@pytest.mark.parametrize("graph, lo", [
    (single_vertex_graph(-5e-324, 2), "0.0"),
    (MetricGraph((VertexSpec("a", -1e-320), VertexSpec("b", -1e-320)),
                 (FiniteEdge("e", "a", "b", 1.0),),
                 (InfiniteEdge("t1", "a"), InfiniteEdge("t2", "b"))), "1e-320"),
])
def test_groundstate_refuses_a_subnormal_start_bound(tmp_path, graph, lo, capsys):
    # kappa0 ~ |sum alpha| / N is 0 or so far below the edge's 1 / l that no
    # unit holds both (rootscan.fits): NoBoundState before any M(kappa), with
    # no warning
    path = tmp_path / "weak.json"
    save_graph(graph, path)
    assert main(["groundstate", str(path)]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: lengths and couplings do not fit doubles in one unit "
        f"(start bound kappa={lo})\n")


def test_the_weak_and_strong_ends_through_the_cli(tmp_path, capsys):
    # kappa0 ~ 4.8e-309 solves, with nothing on stderr; kappa0 = 5e299 would
    # print lambda0 = -inf, which is not JSON: exit 3 with one stderr line,
    # and a sweep marks such a point as a NoBoundState
    weak, strong = tmp_path / "weak.json", tmp_path / "strong.json"
    save_graph(single_vertex_graph(-9.57e-309, 2), weak)
    save_graph(single_vertex_graph(-1e300, 2), strong)
    assert main(["groundstate", str(weak), "--json"]) == 0
    out = capsys.readouterr()
    assert json.loads(out.out)["kappa0"] == 9.57e-309 / 2 and out.err == ""
    assert main(["groundstate", str(strong), "--json"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err == (
        "numerical failure: lambda0 = -kappa0**2 overflows: kappa0=5e+299 is too large "
        "for doubles\n")
    csv_path = tmp_path / "strong.csv"
    assert main(["sweep", str(strong), "--target", "vertex:v", "--range", "-1e300", "-1e150",
                 "--steps", "2", "--csv", str(csv_path)]) == 0
    capsys.readouterr()
    statuses = [line.split(",")[-1] for line in csv_path.read_text().splitlines()[2:]]
    assert statuses == ["error:NoBoundState", "ok"]




_COLD_START_PROBE = """
import contextlib, io, sys

def heavy():
    roots = {m.split(".")[0] for m in sys.modules}
    return sorted(roots & {"scipy", "multiprocessing", "concurrent"})

import qgbind
from qgbind.cli import build_parser, main
print("import", heavy())
with contextlib.redirect_stdout(io.StringIO()) as out:
    rc = main(["groundstate", sys.argv[1], "--json"])
print("groundstate", rc, '"kappa0"' in out.getvalue(), heavy())
"""


@pytest.mark.parametrize("fixture", ["delta_file", "star_file"])
def test_cold_groundstate_loads_no_scipy_or_process_pool(fixture, request):
    # scipy loads on first use (kernel route, compare, rayleigh_quotient) and
    # no command starts a process pool; the graph route needs numpy only
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START_PROBE, request.getfixturevalue(fixture)],
        capture_output=True, text=True, timeout=60, env=_checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["import []", "groundstate 0 True []"]


_COLD_CRIT_PROBE = """
import contextlib, io, sys
from qgbind.cli import build_parser, main
with contextlib.redirect_stdout(io.StringIO()) as out:
    rc = main(["crit", sys.argv[1], "--axial-edge", "axial", "--json"])
roots = {m.split(".")[0] for m in sys.modules}
print("crit", rc, '"alpha_crit"' in out.getvalue(), sorted(roots & {"scipy"}))
"""


def test_cold_crit_loads_no_scipy(star_file):
    # the closed-form critical coupling and the window solves need numpy only
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_CRIT_PROBE, star_file],
        capture_output=True, text=True, timeout=60, env=_checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["crit 0 True []"]


_COLD_COMPARE_PROBE = """
import contextlib, io, sys
from qgbind.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    rc = main(["compare", sys.argv[1], "--h", "0.02", "--json"])
sparse = sorted(m for m in sys.modules if m.startswith("scipy.sparse"))
print("compare", rc, '"lambda0_fe"' in out.getvalue(), sparse)
"""


def test_cold_compare_loads_no_scipy_sparse(delta_file):
    # the oracle keeps K and M split at the vertices and calls LAPACK
    # through scipy.linalg; no sparse matrix is built
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_COMPARE_PROBE, delta_file],
        capture_output=True, text=True, timeout=60, env=_checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["compare 0 True []"]
