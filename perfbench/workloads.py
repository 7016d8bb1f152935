"""Seeded inputs, timed operations and output checks for each workload.

Every workload reports every end-to-end metric, so each one carries every
kind of operation; what differs is which kind dominates its time:

* ``solve-mix``: about 200 fresh graphs with 1-10 vertices plus the uniform
  40- and 80-site chains, direct solves and cold CLI processes.
* ``star-study``: the criterion-03 sweep grid, the critical-coupling search
  and direct solves of the reference star family.

The other kinds appear as small fixed slices so that every metric is
measured on every workload.  Inputs depend only on the seed and on the
number of passes; reference values, graph files and ground states for the
oracle are prepared here, before any timed operation.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy.optimize import brentq

import qgbind as qg
import qgbind.cli as qg_cli

# critical center coupling of the reference star; criterion 02 checks the CLI
# result against the five-digit anchor with tolerance 2e-4
ALPHA_CRIT = -1.0908817883350728
ALPHA_CRIT_ANCHOR = -1.09088

# kernel-route kappa0 of the uniform chains (alpha = -1, unit spacing),
# recorded at the commit that added this benchmark: one kernel solve of 40
# sites or more takes over a second, too long to repeat in every set-up
RECORDED_KERNEL_KAPPA = {40: 1.0409704855581763, 80: 1.0429292104394867}

# failures present at the commit that added this benchmark (ROADMAP item 4);
# they stay in the workloads and count as failed operations
KNOWN_DEFECTS = {
    "weak-1e-6": "check:anchor",
    "weak-1e-9": "DegenerateRoot",
    "wells-400": "DegenerateRoot",
    "uniform-chain-80": "PositivityViolation",
}

# tolerances of the acceptance suite
ANCHOR_REL = 1e-10  # exact anchors, relative kappa0 (criterion 01, made relative)
ROUTE_ABS = 1e-9  # graph vs kernel route, |d lambda0| (criterion 06)
RESIDUAL_MAX = 1e-8  # criterion 09
GAP_MIN = 1e6  # criterion 09
TRIAL_IDENTITY = 1e-10  # criterion 11

# nominal seconds of one pass; a run makes max(1, round(seconds / nominal))
NOMINAL_PASS_S = 20.0

SOLVE_MIX_COUNTS = {
    "delta": 30, "robin": 20, "star": 25, "tree": 43, "parallel": 20,
    "wells": 15, "chain": 20, "cycle": 20,
}
STAR_GRID = 10  # star-study sweeps are STAR_GRID x STAR_GRID points
STAR_SOLVES = 200
# samples per pass of the metrics that are medians: rounds of the small route
# and oracle sets; sweeps and crit searches; cold processes.  A workload's own
# metrics get FOCUS_* samples, the slices of the others fewer, to bound the
# run time
ROUNDS = 8
FOCUS_REPEATS = 7
REPEATS = 5
FOCUS_COLD = 10
COLD = 5


@dataclass
class Op:
    """One timed call into the package and the check of its output.

    ``check`` returns None when the output is right, otherwise a failure
    kind such as ``check:anchor``; an exception raised by ``run`` is a
    failure of the kind named by its class.  Case names start with the
    pass, as in ``p0-tree-3``; ``round`` numbers repeats of one case within
    a pass.
    """

    case: str
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    in_process: bool = True
    round: int = 0
    evals: Callable[[Any], int | None] = lambda result: None
    points: int = 0


# ---------------------------------------------------------------- graphs


def single_delta(alpha: float, n_leads: int) -> qg.MetricGraph:
    leads = tuple(qg.InfiniteEdge(f"t{i + 1}", "v") for i in range(n_leads))
    return qg.MetricGraph((qg.VertexSpec("v", alpha),), (), leads)


def star(alpha_c=-1.0, L2=1.0, L1=1.0, arm_alpha=-1.5, axial_alpha=-2.0) -> qg.MetricGraph:
    """Compact 4-vertex star: two arms of length L1 and an axial edge L2."""
    return qg.MetricGraph(
        (qg.VertexSpec("c", alpha_c), qg.VertexSpec("p1", arm_alpha),
         qg.VertexSpec("p2", arm_alpha), qg.VertexSpec("q", axial_alpha)),
        (qg.FiniteEdge("arm1", "c", "p1", L1), qg.FiniteEdge("arm2", "c", "p2", L1),
         qg.FiniteEdge("axial", "c", "q", L2)),
    )


def robin(a1: float, a2: float, length: float) -> qg.MetricGraph:
    return qg.MetricGraph(
        (qg.VertexSpec("v1", a1), qg.VertexSpec("v2", a2)),
        (qg.FiniteEdge("e1", "v1", "v2", length),),
    )


def two_wells(alpha: float, distance: float) -> qg.MetricGraph:
    return qg.as_chain_graph(qg.LineConfig((0.0, distance), (alpha, alpha)))


def uniform_line(n: int) -> qg.LineConfig:
    return qg.LineConfig(tuple(float(i) for i in range(n)), (-1.0,) * n)


def uniform_loop(n: int) -> qg.LoopConfig:
    return qg.LoopConfig(float(n), tuple(float(i) for i in range(n)), (-1.0,) * n)


def _screened(rng, draw):
    """Redraw until binding rate times total length is at most 8, so tails
    and energy differences stay above double precision (as in the tests)."""
    for _ in range(500):
        alphas, lengths, build = draw(rng)
        if 0.5 * float(np.abs(alphas).sum()) * float(np.sum(lengths)) <= 8.0:
            return build()
    raise RuntimeError("screening rejected every draw")


def random_tree(rng, n: int, leads: int) -> qg.MetricGraph:
    def draw(rng):
        parent = [int(rng.integers(0, i)) for i in range(1, n)]
        alphas = rng.uniform(-min(1.5, 4.0 / n), -0.1, size=n)
        lengths = rng.uniform(0.3, max(0.45, min(1.2, 4.0 / (n - 1))), size=n - 1)
        anchors = rng.integers(0, n, size=leads)

        def build():
            return qg.MetricGraph(
                tuple(qg.VertexSpec(f"v{i + 1}", float(a)) for i, a in enumerate(alphas)),
                tuple(qg.FiniteEdge(f"e{i + 1}", f"v{parent[i] + 1}", f"v{i + 2}",
                                    float(lengths[i])) for i in range(n - 1)),
                tuple(qg.InfiniteEdge(f"t{j + 1}", f"v{int(a) + 1}")
                      for j, a in enumerate(anchors)),
            )
        return alphas, lengths, build
    return _screened(rng, draw)


def random_parallel(rng, n: int, mult: tuple[int, ...], leads: int) -> qg.MetricGraph:
    """Path of n vertices; pair k is joined by mult[k] parallel edges."""
    def draw(rng):
        alphas = rng.uniform(-min(1.5, 4.0 / n), -0.1, size=n)
        lengths = rng.uniform(0.3, 1.2, size=sum(mult))
        anchors = rng.integers(0, n, size=leads)

        def build():
            edges, k = [], 0
            for i, m in enumerate(mult):
                for _ in range(int(m)):
                    edges.append(qg.FiniteEdge(f"e{k + 1}", f"v{i + 1}", f"v{i + 2}",
                                               float(lengths[k])))
                    k += 1
            return qg.MetricGraph(
                tuple(qg.VertexSpec(f"v{i + 1}", float(a)) for i, a in enumerate(alphas)),
                tuple(edges),
                tuple(qg.InfiniteEdge(f"t{j + 1}", f"v{int(a) + 1}")
                      for j, a in enumerate(anchors)),
            )
        return alphas, lengths, build
    return _screened(rng, draw)


def random_line(rng, n: int) -> qg.LineConfig:
    """Line draw screened like the criterion-06 generator (n >= 2)."""
    strengths = rng.uniform(-min(2.5, 5.5 / n), -0.2, size=n)
    gaps = rng.uniform(0.2, min(2.0, 7.0 / (n - 1)), size=n - 1)
    return qg.LineConfig(tuple(np.concatenate(([0.0], np.cumsum(gaps)))), tuple(strengths))


def random_loop(rng, n: int) -> qg.LoopConfig:
    strengths = rng.uniform(-min(2.5, 5.5 / n), -0.2, size=n)
    gaps = rng.uniform(0.2, min(2.0, 7.0 / n), size=n)
    sites = np.concatenate(([0.0], np.cumsum(gaps[:-1])))
    return qg.LoopConfig(float(gaps.sum()), tuple(sites), tuple(strengths))


def two_well_kappa(alpha: float, distance: float) -> float:
    """Exact kappa0 of two equal wells: kappa = (|alpha|/2) (1 + exp(-kappa d))."""
    half = abs(alpha) / 2.0
    return brentq(lambda k: k - half * (1.0 + math.exp(-k * distance)), half, 2 * half,
                  xtol=1e-15, rtol=4 * np.finfo(float).eps)


# ---------------------------------------------------------------- checks


def certificate(gs) -> str | None:
    """Criterion 09 on a graph-route state."""
    d = gs.diagnostics
    resid = max(d.continuity_residual, d.coupling_residual)
    if d.min_sampled > 0 and resid < RESIDUAL_MAX and d.nullspace_gap >= GAP_MIN and gs.lambda0 < 0:
        return None
    return "check:certificate"


def kernel_certificate(config, state) -> str | None:
    """Criterion 09 on a kernel-route state."""
    gamma = (qg.gamma_loop(config, state.kappa0) if isinstance(config, qg.LoopConfig)
             else qg.gamma_line(config, state.kappa0))
    w = np.linalg.eigvalsh(gamma.entries)
    resid = abs(float(w[0]))
    gap = float(w[1]) / max(resid, 1e-300) if len(w) > 1 else math.inf
    if min(state.weights) > 0 and resid < RESIDUAL_MAX and gap >= GAP_MIN and state.lambda0 < 0:
        return None
    return "check:certificate"


def anchored(kappa_exact: float):
    def check(gs):
        if abs(gs.kappa0 - kappa_exact) > ANCHOR_REL * kappa_exact:
            return "check:anchor"
        return certificate(gs)
    return check


def against_kernel(kappa_ref: float):
    lam_ref = -kappa_ref * kappa_ref

    def check(gs):
        if abs(gs.lambda0 - lam_ref) > ROUTE_ABS:
            return "check:route"
        return certificate(gs)
    return check


def kernel_matches(config, kappa_ref: float):
    def check(state):
        if abs(state.kappa0 - kappa_ref) > 1e-12 * kappa_ref:
            return "check:kernel-ref"
        return kernel_certificate(config, state)
    return check


def _evals(gs) -> int:
    return gs.diagnostics.indicator_evaluations


# ---------------------------------------------------------------- op builders


class OpSet:
    """Collects the operations of one run and the files they need."""

    def __init__(self, workdir: Path, env: dict[str, str]):
        self.workdir = workdir
        self.env = env
        self.ops: list[Op] = []
        self._files = 0

    def write_graph(self, graph) -> str:
        self._files += 1
        path = self.workdir / f"g{self._files}.json"
        qg.save_graph(graph, path)
        return str(path)

    def solve(self, case, graph, check):
        self.ops.append(Op(case, "solve", lambda: qg.find_ground_state(graph), check,
                           evals=_evals))

    def route(self, case, config, kappa_ref):
        """The same configuration on the graph route and the kernel route."""
        loop = isinstance(config, qg.LoopConfig)
        graph = qg.as_cycle_graph(config) if loop else qg.as_chain_graph(config)
        name = "ground_state_loop" if loop else "ground_state_line"
        for r in range(ROUNDS):
            tag = f"{case}-r{r}"
            self.ops.append(Op(tag, "route-graph", lambda: qg.find_ground_state(graph),
                               against_kernel(kappa_ref), round=r, evals=_evals))
            self.ops.append(Op(tag + "-kernel", "route-kernel",
                               lambda: getattr(qg, name)(config),
                               kernel_matches(config, kappa_ref), round=r))

    def cold(self, case, graph):
        """Fresh `python -m qgbind.cli groundstate FILE --json` process."""
        path = self.write_graph(graph)
        kappa_ref = qg.find_ground_state(graph).kappa0
        argv = [sys.executable, "-m", "qgbind.cli", "groundstate", path, "--json"]

        def run():
            return subprocess.run(argv, env=self.env, capture_output=True, text=True,
                                  timeout=60, check=False)

        def check(proc):
            if proc.returncode != 0:
                return f"exit:{proc.returncode}"
            payload = json.loads(proc.stdout)
            if abs(payload["kappa0"] - kappa_ref) > 1e-12 * kappa_ref:
                return "check:cold-cli"
            return None
        self.ops.append(Op(case, "cold", run, check, in_process=False))

    def sweep(self, case, graph, axes, row_rule):
        """`cli.main(["sweep", ...])` into a CSV file; ``row_rule(first,
        lambdas)`` checks each row of the last axis."""
        path = self.write_graph(graph)
        out = self.workdir / f"{case}.csv"
        argv = ["sweep", path]
        for target, lo, hi, steps in axes:
            argv += ["--target", target, "--range", repr(lo), repr(hi), "--steps", str(steps)]
        argv += ["--csv", str(out)]
        npts = math.prod(a[3] for a in axes)

        def check(rc):
            if rc != 0:
                return f"exit:{rc}"
            lines = out.read_text().splitlines()
            if lines[0] != "# qgbind sweep schema v1":
                return "check:csv-schema"
            rows = list(csv.DictReader(lines[1:]))
            if len(rows) != npts or any(r["status"] != "ok" for r in rows):
                return "check:sweep-points"
            per_row = axes[-1][3]
            for i in range(0, npts, per_row):
                chunk = rows[i:i + per_row]
                lams = np.array([float(r["lambda0"]) for r in chunk])
                if not row_rule(float(chunk[0]["value1"]), lams):
                    return "check:sweep-monotone"
            return None
        self.ops.append(Op(case, "sweep", lambda: qg_cli.main(argv), check, points=npts))

    def crit(self, case):
        """`cli.main(["crit", ...])` on the reference star (criterion 02)."""
        path = self.write_graph(star())
        argv = ["crit", path, "--axial-edge", "axial", "--json"]

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = qg_cli.main(argv)
            return rc, buf.getvalue()

        def check(result):
            rc, text = result
            if rc != 0:
                return f"exit:{rc}"
            p = json.loads(text)
            ok = (abs(p["alpha_crit"] - ALPHA_CRIT_ANCHOR) <= 2e-4
                  and p["max_abs_variation"] < 1e-8 and p["axial_index"] == 0)
            return None if ok else "check:crit"
        self.ops.append(Op(case, "crit", run, check))

    def compare(self, case, graph):
        """FE oracle on a graph whose ground state is solved here, in set-up."""
        gs = qg.find_ground_state(graph)
        for r in range(ROUNDS):
            self.ops.append(Op(f"{case}-r{r}", "compare", lambda: qg.compare(graph, gs),
                               lambda rep: None if rep.ok else "check:compare", round=r))

    def trial(self, case, graph):
        """Scaled-trial sign checks on every finite edge (criterion 11)."""
        gs = qg.find_ground_state(graph)
        edges = [e.id for e in graph.finite_edges]

        def run():
            out = []
            for eid in edges:
                out.append((gs.index(eid),
                            qg.scaled_trial_quotient(graph, gs, eid, 1.0),
                            qg.scaled_trial_quotient(graph, gs, eid, 1.0 + 1e-4),
                            qg.scaled_trial_quotient(graph, gs, eid, 1.0 - 1e-4)))
            return out

        def check(rows):
            for sigma, f1, up, down in rows:
                if abs(f1 - gs.lambda0) > TRIAL_IDENTITY:
                    return "check:trial-identity"
                if abs(sigma) == 1 and (((up - gs.lambda0 > 0) != (sigma == 1))
                                        or ((down - gs.lambda0 > 0) != (sigma == -1))):
                    return "check:trial-sign"
            return None
        self.ops.append(Op(case, "trial", run, check))


def _increasing(first, lams):
    return bool(np.all(np.diff(lams) > 0))


def _two_regime(alpha, lams):
    """Criterion 03: energy falls with the axial length above alpha_crit and
    rises below it."""
    d = np.diff(lams)
    return bool(np.all(d < 0) if alpha > ALPHA_CRIT else np.all(d > 0))


def _kernel_kappa(config) -> float:
    fn = qg.ground_state_loop if isinstance(config, qg.LoopConfig) else qg.ground_state_line
    return fn(config).kappa0


# ---------------------------------------------------------------- workloads
#
# Each function adds one pass of operations; ``build`` shuffles them.


def _solve_mix(b: OpSet, rng, p: int):
    """About 200 fresh graphs with 1-10 vertices, and cold CLI processes.

    Sizes, lead counts and edge multiplicities cycle with the case number
    and only the parameters are drawn, so the mix of matrix sizes is the same
    for every seed.
    Chains and cycles are checked against the kernel route, run here in
    set-up.
    """
    cases = [
        ("anchor-delta", single_delta(-2.0, 2), anchored(1.0)),
        ("anchor-star", star(), certificate),
        ("anchor-chain-8", qg.as_chain_graph(uniform_line(8)),
         against_kernel(_kernel_kappa(uniform_line(8)))),
        ("anchor-alpha-1e4", single_delta(-1e4, 3), anchored(1e4 / 3)),
        ("weak-1e-6", single_delta(-1e-6, 2), anchored(5e-7)),
        ("weak-1e-9", single_delta(-1e-9, 2), anchored(5e-10)),
        ("wells-400", two_wells(-2.0, 400.0), anchored(two_well_kappa(-2.0, 400.0))),
        ("uniform-chain-40", qg.as_chain_graph(uniform_line(40)),
         against_kernel(RECORDED_KERNEL_KAPPA[40])),
        ("uniform-chain-80", qg.as_chain_graph(uniform_line(80)),
         against_kernel(RECORDED_KERNEL_KAPPA[80])),
    ]
    n_fixed = len(cases)
    trees = []
    for kind, count in SOLVE_MIX_COUNTS.items():
        for i in range(count):
            name = f"{kind}-{i}"
            if kind == "delta":
                a, n = float(rng.uniform(-3.0, -0.2)), 1 + i % 3
                cases.append((name, single_delta(a, n), anchored(abs(a) / n)))
            elif kind == "robin":
                g = robin(*rng.uniform(-3.0, -0.2, size=2), float(rng.uniform(0.3, 3.0)))
                cases.append((name, g, certificate))
            elif kind == "star":
                g = star(float(rng.uniform(-2.5, -0.2)), float(rng.uniform(0.25, 3.0)),
                         float(rng.uniform(0.5, 1.5)), float(rng.uniform(-2.0, -0.5)),
                         float(rng.uniform(-2.5, -0.5)))
                cases.append((name, g, certificate))
            elif kind == "tree":
                trees.append(random_tree(rng, 3 + i % 8, i % 3))
                cases.append((name, trees[-1], certificate))
            elif kind == "parallel":
                n = 2 + i % 3
                mult = tuple(2 + (i + k) % 2 for k in range(n - 1))
                cases.append((name, random_parallel(rng, n, mult, i % 3), certificate))
            elif kind == "wells":
                a, d = float(rng.uniform(-3.0, -0.5)), float(rng.uniform(0.3, 3.0))
                cases.append((name, two_wells(a, d), anchored(two_well_kappa(a, d))))
            else:
                cfg = random_line(rng, 2 + i % 9) if kind == "chain" else random_loop(rng, 1 + i % 10)
                graph = qg.as_chain_graph(cfg) if kind == "chain" else qg.as_cycle_graph(cfg)
                cases.append((name, graph, against_kernel(_kernel_kappa(cfg))))
    for name, graph, check in cases:
        b.solve(f"p{p}-{name}", graph, check)
    # cold processes solve ordinary graphs, not the anchors and extremes
    for i, j in enumerate(rng.choice(len(cases) - n_fixed, size=FOCUS_COLD, replace=False)):
        b.cold(f"p{p}-cold-{i}", cases[n_fixed + j][1])
    for i in range(REPEATS):
        b.sweep(f"p{p}-sweep-{i}", star(), [("vertex:c", -2.0, -0.2, 16)], _increasing)
        b.crit(f"p{p}-crit-{i}")
    for i in range(3):
        b.trial(f"p{p}-trial-{i}", trees[i])
    _route_slice(b, p)
    _oracle_slice(b, p)


def _star_study(b: OpSet, rng, p: int):
    """Criterion-03 sweep grids, the crit search, direct star solves."""
    for i in range(FOCUS_REPEATS):
        b.sweep(f"p{p}-sweep-grid-{i}", star(),
                [("vertex:c", -2.0, -0.2, STAR_GRID), ("edge:axial", 0.25, 3.0, STAR_GRID)],
                _two_regime)
        b.crit(f"p{p}-crit-{i}")
    points = np.column_stack((rng.uniform(-2.0, -0.2, STAR_SOLVES),
                              rng.uniform(0.25, 3.0, STAR_SOLVES)))
    graphs = [star(float(a), float(L2)) for a, L2 in points]
    for i, g in enumerate(graphs):
        b.solve(f"p{p}-star-{i}", g, certificate)
    # the sign check reads the slope of f(xi) from xi = 1 +- 1e-4, which is
    # lost in the curvature on a long axial edge near criticality
    for i in range(5):
        b.trial(f"p{p}-trial-{i}", star(float(rng.uniform(-2.0, -0.2)),
                                        float(rng.uniform(0.25, 1.5))))
    for i in range(COLD):
        b.cold(f"p{p}-cold-{i}", graphs[i])
    _route_slice(b, p)
    _oracle_slice(b, p)


def _route_slice(b: OpSet, p: int):
    """Three small uniform configurations on both routes, in rounds."""
    for cfg in (uniform_line(3), uniform_line(6), uniform_loop(4)):
        shape = "loop" if isinstance(cfg, qg.LoopConfig) else "chain"
        b.route(f"p{p}-route-{shape}-{cfg.n}", cfg, _kernel_kappa(cfg))


def _oracle_slice(b: OpSet, p: int):
    """The criterion-07 graphs, in rounds."""
    for name, g in (("single-delta", single_delta(-2.0, 2)), ("two-delta", two_wells(-2.0, 1.0)),
                    ("star-2.5", star(-2.5, L2=1.0)), ("star-1.0", star(-1.0, L2=0.5)),
                    ("star-0.6", star(-0.6, L2=2.0))):
        b.compare(f"p{p}-cmp-{name}", g)


WORKLOADS = {"solve-mix": _solve_mix, "star-study": _star_study}


def build(workload: str, seed: int, passes: int, workdir: Path) -> list[Op]:
    """Set-up: inputs, reference values and files for ``passes`` passes."""
    env = dict(os.environ)
    src = str(Path(qg.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    b = OpSet(workdir, env)
    rng = np.random.default_rng(seed)
    ops = []
    for p in range(passes):
        b.ops = []
        WORKLOADS[workload](b, rng, p)
        # seeded order; repeats spread over the pass, so a slow spell of the
        # machine hits some samples of a metric rather than all of them
        ops += [b.ops[j] for j in rng.permutation(len(b.ops))]
    return ops


def warm_up(workdir: Path) -> None:
    """First-call costs (lazy imports, LAPACK dispatch, argparse, the FE
    calibration cache) land in set-up instead of the first timed op."""
    g = single_delta(-2.0, 2)
    qg.compare(g, qg.find_ground_state(g))
    qg.ground_state_line(qg.LineConfig((0.0,), (-1.0,)))
    interval = robin(-1.0, -1.0, 1.0)
    qg.scaled_trial_quotient(interval, qg.find_ground_state(interval), "e1", 1.0)
    path = workdir / "warm.json"
    qg.save_graph(interval, path)
    qg_cli.main(["sweep", str(path), "--target", "edge:e1", "--range", "0.5", "1.0",
                 "--steps", "2", "--csv", str(workdir / "warm.csv")])
