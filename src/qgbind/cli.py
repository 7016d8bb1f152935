"""Command-line front end.

Exit codes: 0 success, 2 input or configuration error, 3 numerical failure
(including a failed cross-check verdict).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

# most commands run these; each handler imports the rest of what it runs, so
# a cold start loads only its own command's modules
from .graph import load_graph
from .secular import NumericalFailure, SolverOptions, find_ground_state

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICS = 3


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _solver_options(args) -> SolverOptions:
    return SolverOptions(tol_kappa=args.tol_kappa, kappa_max=args.kappa_max)


# every negative value float() reads, "-inf" and "-1e5" included; argparse's
# own pattern (-1, -.5) would take the others for flags and say "expected 2
# arguments" instead of naming the bad value
_NEGATIVE_NUMBER = re.compile(
    r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf(?:inity)?|nan)$", re.IGNORECASE)


def _add_solver_flags(
    p: argparse.ArgumentParser,
    kappa_max_help: str = "hard kappa ceiling: a ground state above it is a "
    "numerical failure (exit 3)",
) -> None:
    p.add_argument("--tol-kappa", type=float, default=SolverOptions.tol_kappa,
                   help="certified tolerance of kappa0, relative")
    p.add_argument("--kappa-max", type=float, default=None, help=kappa_max_help)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qgbind parser, built once and shared by every :func:`main` call;
    its defaults are immutable, so no call can change another's."""
    p = argparse.ArgumentParser(
        prog="qgbind",
        description="Ground states of metric-graph Laplacians with attractive "
        "delta coupling: solve, classify edge shapes, sweep, cross-check.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("groundstate", help="solve one graph file")
    g.add_argument("graph", help="graph JSON file")
    g.add_argument("--json", action="store_true", help="machine-readable output")
    _add_solver_flags(g)

    s = sub.add_parser("sweep", help="grid sweep over edge lengths / vertex alphas")
    s.add_argument("graph", help="graph JSON file")
    s.add_argument(
        "--target",
        action="append",
        required=True,
        metavar="KIND:ID",
        help="edge:ID (length) or vertex:ID (alpha); give twice for a 2-D grid",
    )
    s.add_argument("--range", action="append", nargs=2, type=float, required=True,
                   metavar=("LO", "HI"))
    s.add_argument("--steps", action="append", type=int, required=True)
    s.add_argument("--csv", default=None, metavar="PATH", help="write CSV here instead of stdout")
    _add_solver_flags(s)

    c = sub.add_parser("crit", help="critical center coupling of a star graph")
    c.add_argument("graph", help="graph JSON file")
    c.add_argument("--axial-edge", required=True, metavar="ID")
    c.add_argument("--window", nargs=2, type=float, default=(0.5, 3.0), metavar=("LO", "HI"),
                   help="axial length window that must become energy-flat")
    c.add_argument("--alpha-bracket", nargs=2, type=float, default=(-3.0, -0.1),
                   metavar=("LO", "HI"),
                   help="range (either order) the critical center alpha must lie in")
    c.add_argument("--json", action="store_true")
    _add_solver_flags(c)

    l = sub.add_parser("line", help="point interactions on a line or loop")
    l.add_argument("--sites", nargs="+", type=float, required=True)
    l.add_argument("--alphas", nargs="+", type=float, required=True)
    l.add_argument("--loop", type=float, default=None, metavar="L",
                   help="treat sites as lying on a loop of circumference L")
    l.add_argument("--cross-check", action="store_true",
                   help="also solve the equivalent metric graph and report the difference")
    l.add_argument("--json", action="store_true")
    _add_solver_flags(l, "hard kappa ceiling of the --cross-check graph solve; "
                      "the kernel route ignores it")

    o = sub.add_parser("compare", help="secular vs finite-element eigenvalue")
    o.add_argument("graph", help="graph JSON file")
    o.add_argument("--h", type=float, default=0.01, help="target mesh size")
    o.add_argument("--R", type=float, default=None,
                   help="lead truncation length; must exceed the total finite edge "
                   "length (default: that length + max(15, 25/kappa0))")
    o.add_argument("--json", action="store_true")
    _add_solver_flags(o)

    for command in sub.choices.values():
        command._negative_number_matcher = _NEGATIVE_NUMBER
    return p


def _edge_payload(gs) -> list[dict]:
    out = []
    for sol, idx in zip(gs.solutions, gs.indices):
        if sol.kind == "finite":
            out.append({"id": sol.edge_id, "kind": "finite", "a": sol.a, "b": sol.b,
                        "index": idx})
        else:
            out.append({"id": sol.edge_id, "kind": "infinite", "c": sol.c, "index": idx})
    return out


def cmd_groundstate(args) -> int:
    graph = load_graph(args.graph)
    gs = find_ground_state(graph, _solver_options(args))
    d = gs.diagnostics
    if args.json:
        print(json.dumps({
            "kappa0": gs.kappa0,
            "lambda0": gs.lambda0,
            "edges": _edge_payload(gs),
            "diagnostics": {
                "continuity_residual": d.continuity_residual,
                "coupling_residual": d.coupling_residual,
                "nullspace_gap": d.nullspace_gap,
                "min_sampled": d.min_sampled,
            },
        }, indent=2))
        return EXIT_OK
    print(f"lambda0 = {_fmt(gs.lambda0)}")
    print(f"kappa0  = {_fmt(gs.kappa0)}")
    for sol, idx in zip(gs.solutions, gs.indices):
        if sol.kind == "finite":
            print(f"edge {sol.edge_id}: a={_fmt(sol.a)} b={_fmt(sol.b)} index={idx:+d}")
        else:
            print(f"lead {sol.edge_id}: c={_fmt(sol.c)} index={idx:+d}")
    print(
        "residuals: continuity={} coupling={} nullspace_gap={:.3e} sampled_min={}".format(
            _fmt(d.continuity_residual), _fmt(d.coupling_residual),
            d.nullspace_gap, _fmt(d.min_sampled),
        )
    )
    return EXIT_OK


def _sweep_csv(specs, points) -> str:
    lines = ["# qgbind sweep schema v1"]
    lines.append(
        "param1,value1,param2,value2,kappa0,lambda0,log10_abs_lambda0,"
        "indices,class_change,status"
    )
    label2 = specs[1].target.label() if len(specs) == 2 else ""
    for pt in points:
        v1 = _fmt(pt.values[0])
        v2 = _fmt(pt.values[1]) if len(pt.values) == 2 else ""
        if pt.ok:
            k = _fmt(pt.kappa0)
            lam = _fmt(pt.lambda0)
            lg = _fmt(pt.log10_abs_lambda0)
            idx = ";".join(f"{i:+d}" for i in pt.indices)
        else:
            k = lam = lg = idx = ""
        lines.append(",".join([
            specs[0].target.label(), v1, label2, v2, k, lam, lg, idx,
            "true" if pt.class_change else "false", pt.status,
        ]))
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> int:
    from .sweeps import SweepSpec, SweepTarget, run_sweep

    graph = load_graph(args.graph)
    targets = [SweepTarget.parse(t) for t in args.target]
    if not (len(targets) == len(args.range) == len(args.steps)):
        raise ValueError("--target, --range and --steps must be given together")
    specs = [
        SweepSpec(t, lo, hi, n)
        for t, (lo, hi), n in zip(targets, args.range, args.steps)
    ]
    points = run_sweep(graph, specs, _solver_options(args))
    text = _sweep_csv(specs, points)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_crit(args) -> int:
    from .sweeps import find_critical_coupling

    graph = load_graph(args.graph)
    res = find_critical_coupling(
        graph,
        args.axial_edge,
        window=(args.window[0], args.window[1]),
        alpha_bracket=(args.alpha_bracket[0], args.alpha_bracket[1]),
        options=_solver_options(args),
    )
    if args.json:
        print(json.dumps({
            "alpha_crit": res.alpha_crit,
            "kappa0": res.kappa0,
            "axial_index": res.axial_index,
            "max_abs_dlambda_dL": res.evidence,
            "max_abs_variation": res.variation,
            "window": list(res.window),
        }, indent=2))
        return EXIT_OK
    print(f"alpha_crit = {_fmt(res.alpha_crit)}")
    print(f"kappa0 at criticality = {_fmt(res.kappa0)}")
    print(f"axial edge index = {res.axial_index:+d}")
    print(f"max |dlambda0/dL| over window = {res.evidence:.3e}")
    print(f"max |lambda0(L) - lambda0(lo)| = {res.variation:.3e}")
    return EXIT_OK


def cmd_line(args) -> int:
    from .line import LineConfig, LoopConfig, as_chain_graph, as_cycle_graph, ground_state_line

    if len(args.sites) != len(args.alphas):
        raise ValueError("--sites and --alphas must have the same length")
    if args.loop is not None:
        config = LoopConfig(args.loop, tuple(args.sites), tuple(args.alphas))
        graph = as_cycle_graph(config)
    else:
        config = LineConfig(tuple(args.sites), tuple(args.alphas))
        graph = as_chain_graph(config)
    gs = ground_state_line(config, tol_kappa=args.tol_kappa)
    cross = None
    if args.cross_check:
        sec = find_ground_state(graph, _solver_options(args))
        cross = {"lambda0": sec.lambda0, "difference": abs(sec.lambda0 - gs.lambda0)}
    if args.json:
        print(json.dumps({
            "kappa0": gs.kappa0,
            "lambda0": gs.lambda0,
            "weights": list(gs.weights),
            "cross_check": cross,
        }, indent=2))
        return EXIT_OK
    print(f"lambda0 = {_fmt(gs.lambda0)}")
    print(f"kappa0  = {_fmt(gs.kappa0)}")
    print("weights = " + " ".join(_fmt(w) for w in gs.weights))
    if cross is not None:
        print(f"graph-path lambda0 = {_fmt(cross['lambda0'])}")
        print(f"difference = {cross['difference']:.3e}")
    return EXIT_OK


def cmd_compare(args) -> int:
    from .oracle import compare

    graph = load_graph(args.graph)
    gs = find_ground_state(graph, _solver_options(args))
    rep = compare(graph, gs, h=args.h, R=args.R)
    if args.json:
        print(json.dumps({
            "lambda0_secular": rep.lambda_secular,
            "lambda0_fe": rep.lambda_oracle,
            "correction": rep.correction,
            "difference": rep.difference,
            "tolerance": rep.tolerance,
            "ok": rep.ok,
            "h": rep.h,
            "R": rep.R,
            "solves": rep.solves,
            "factors": rep.factors,
        }, indent=2))
    else:
        print(f"lambda0 (secular) = {_fmt(rep.lambda_secular)}")
        print(f"lambda0 (fe)      = {_fmt(rep.lambda_oracle)}")
        print(f"P1 correction     = {rep.correction:.3e}")
        print(f"difference = {rep.difference:.3e}  tolerance = {rep.tolerance:.3e}")
        print("verdict: " + ("PASS" if rep.ok else "FAIL"))
    return EXIT_OK if rep.ok else EXIT_NUMERICS


_HANDLERS = {
    "groundstate": cmd_groundstate,
    "sweep": cmd_sweep,
    "crit": cmd_crit,
    "line": cmd_line,
    "compare": cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        return handler(args)
    except ValueError as exc:  # GraphFormatError and InvalidGraphError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
