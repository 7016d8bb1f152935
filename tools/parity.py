"""Check that two checkouts give the same numbers on a fixed corpus of solves.

Run from the repository root:

    python3 tools/parity.py --run parent ../parent --run change .
    python3 tools/parity.py --compare parent change

``--run LABEL DIR`` solves the corpus with the ``qgbind`` of DIR's ``src/``,
in a process of its own under ``python -W error`` (a warning is an outcome),
and writes ``.parity-<LABEL>.json`` at the repository root.  The corpus and
its generators (``tests/conftest.py``) are this checkout's, so both sides
solve the same inputs:

- graph route: 150 graphs (seed 5, cyclic and tree alternating) and their
  scaling partners at 2**±1, 2**±3 and 2**±100; 190 more (seed 17: cyclic,
  tree, mixed and chain, a third with a short-edge cluster), each plain and
  with ``kappa_max = 3``; chains of 40, 80 and 160 sites (seed 23);
- kernel route: 300 line and loop configurations (seed 11);
- the weak and strong ends: the first 60 graphs of seed 5 at 2**520,
  2**530, 2**600, 2**1000, 2**-600 and 2**-900, and single cases near the
  ends of the double range on both routes;
- the CLI: the criterion-03 50 x 50 sweep CSV, README's examples, ``crit
  --json``, ``compare --json`` and the extreme cases, as exit code, sha256
  of stdout and, for a nonzero exit, stderr (a sweep's stderr holds
  timings); and the sha256 of the files ``save_graph`` writes.

A solve is kept as the ``float.hex`` of kappa0, lambda0, every p, q and c
(graph) or weight (kernel) and every ``Diagnostics`` field, with the index
vector, or as the type and message of the exception it raised.

``--compare A B`` labels each case: ``identical`` (bit for bit), ``within
1e-12`` (every number within 1e-12 relative), ``moved`` (a number further
off, or a count that differs), ``index differs`` or ``outcome differs`` (one
side raised, or they raised differently, or a CLI output differs).  It
prints the count per label and every case that is not identical, and exits 1
when any case is moved or differs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOLERANCE = 1e-12
FAILING = ("moved", "index differs", "outcome differs")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--run", nargs=2, action="append", metavar=("LABEL", "DIR"),
                      help="a checkout whose qgbind solves the corpus")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"),
                      help="two parity files or labels; B is judged against A")
    mode.add_argument("--solve", action="store_true", help=argparse.SUPPRESS)
    return p


# ------------------------------------------------------------ the solving side

def _hex(value):
    """float.hex of a float, recursively through tuples and arrays; ints as is."""
    if isinstance(value, (tuple, list)):
        return [_hex(v) for v in value]
    if isinstance(value, int):
        return value
    return float(value).hex()


def _outcome(solve):
    try:
        return solve()
    except Exception as exc:  # every failure is an outcome to compare
        return {"error": type(exc).__name__, "message": str(exc)}


def _graph_case(qg, graph, options=None):
    def solve():
        gs = qg.find_ground_state(graph, options)
        finite = [s for s in gs.solutions if s.kind == "finite"]
        return {
            "kappa0": _hex(gs.kappa0), "lambda0": _hex(gs.lambda0),
            "p": _hex([s.p for s in finite]), "q": _hex([s.q for s in finite]),
            "c": _hex([s.c for s in gs.solutions if s.kind == "infinite"]),
            "indices": list(gs.indices),
            **{f.name: _hex(getattr(gs.diagnostics, f.name))
               for f in dataclasses.fields(gs.diagnostics)},
        }
    return _outcome(solve)


def _kernel_case(qg, config):
    def solve():
        gs = qg.ground_state_line(config)
        return {"kappa0": _hex(gs.kappa0), "lambda0": _hex(gs.lambda0),
                "weights": _hex(gs.weights)}
    return _outcome(solve)


def _cli_case(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _outcome(lambda: cli.main(argv))
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": "" if code == 0 else err.getvalue()}


def _with_short_edge(qg, graph, rng):
    """The graph with one finite edge shortened to 1e-9 .. 1e-4."""
    edges = list(graph.finite_edges)
    i = int(rng.integers(len(edges)))
    edges[i] = dataclasses.replace(edges[i], length=float(10.0 ** rng.uniform(-9, -4)))
    return qg.MetricGraph(graph.vertices, tuple(edges), graph.infinite_edges)


def _kernel_config(qg, rng, i):
    n = int(rng.integers(1, 7))
    strengths = tuple(float(a) for a in -10.0 ** rng.uniform(-3, 1, size=n))
    gaps = 10.0 ** rng.uniform(-2, 1, size=n - 1)
    sites = tuple(float(y) for y in [0.0, *gaps.cumsum()])
    if i % 2:
        return qg.LineConfig(sites, strengths)
    return qg.LoopConfig(sites[-1] + float(10.0 ** rng.uniform(-3, 1.5)), sites, strengths)


def corpus() -> dict:
    """Every case of the corpus, solved by the importable qgbind."""
    import numpy as np

    import conftest as gen
    import qgbind as qg
    import qgbind.cli as cli

    cases = {}
    rng = np.random.default_rng(5)
    seed5 = [(gen.random_cyclic_graph if i % 2 == 0 else gen.random_tree_graph)(rng)
             for i in range(150)]
    for i, g in enumerate(seed5):
        for power in (0, 1, -1, 3, -3, 100, -100):
            cases[f"graph/s5-{i:03d}@2^{power}"] = _graph_case(
                qg, gen.scaled_graph(g, 2.0 ** power))
    rng = np.random.default_rng(17)
    kinds = (gen.random_cyclic_graph, gen.random_tree_graph, gen.random_mixed_graph,
             gen.random_chain_graph)
    for i in range(190):
        g = kinds[i % 4](rng)
        if i % 3 == 0:
            g = _with_short_edge(qg, g, rng)
        cases[f"graph/s17-{i:03d}"] = _graph_case(qg, g)
        cases[f"graph/s17-{i:03d}+kmax3"] = _graph_case(qg, g, qg.SolverOptions(kappa_max=3.0))
    rng = np.random.default_rng(23)
    for n in (40, 80, 160):
        for i in range(3):
            chain = gen.chain_graph(rng.uniform(-1.2, -0.3, n), rng.uniform(0.3, 1.2, n - 1))
            cases[f"graph/chain{n}-{i}"] = _graph_case(qg, chain)
    rng = np.random.default_rng(11)
    for i in range(300):
        cases[f"kernel/s11-{i:03d}"] = _kernel_case(qg, _kernel_config(qg, rng, i))

    for i, g in enumerate(seed5[:60]):
        for power in (520, 530, 600, 1000, -600, -900):
            cases[f"extreme/s5-{i:03d}@2^{power}"] = _graph_case(
                qg, gen.scaled_graph(g, 2.0 ** power))
    for alpha in (-9.57e-309, -5e-324, -4e-308, -1e300, -1e308):
        cases[f"extreme/vertex{alpha!r}"] = _graph_case(qg, gen.single_vertex_graph(alpha, 2))
        cases[f"extreme/site{alpha!r}"] = _kernel_case(qg, qg.LineConfig((0.0,), (alpha,)))
    for alpha in (-1e-155, -1e-160, -1e-170, -4e-308, -1e-320):
        cases[f"extreme/pair{alpha!r}"] = _graph_case(qg, gen.chain_graph([alpha, alpha], [1.0]))
        cases[f"extreme/sites{alpha!r}"] = _kernel_case(
            qg, qg.LineConfig((0.0, 1.0), (alpha, alpha)))
    for alpha in (-1e-155, -1e-300):
        cases[f"extreme/loop1e10{alpha!r}"] = _kernel_case(
            qg, qg.LoopConfig(1e10, (0.0,), (alpha,)))

    with tempfile.TemporaryDirectory() as tmp:
        star, delta, weak, strong = (os.path.join(tmp, f"{n}.json")
                                     for n in ("star", "delta", "weak", "strong"))
        qg.save_graph(gen.star_graph(-1.0), star)
        qg.save_graph(gen.single_vertex_graph(-2.0, 2), delta)
        qg.save_graph(gen.single_vertex_graph(-9.57e-309, 2), weak)
        qg.save_graph(gen.single_vertex_graph(-1e300, 2), strong)
        for i in range(3):
            path = os.path.join(tmp, f"saved-{i}.json")
            qg.save_graph(seed5[i], path)
            digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
            cases[f"cli/save-graph-s5-{i:03d}"] = {"exit": 0, "stdout_sha256": digest, "stderr": ""}
        for name, argv in {
            "criterion-03": ["sweep", star, "--target", "vertex:c", "--range", "-2", "-0.2",
                             "--steps", "50", "--target", "edge:axial", "--range", "0.25", "3",
                             "--steps", "50"],
            "sweep": ["sweep", star, "--target", "edge:axial", "--range", "0.5", "3",
                      "--steps", "50"],
            "groundstate": ["groundstate", star],
            "groundstate-json": ["groundstate", star, "--json"],
            "line-cross-check": ["line", "--sites", "0", "1", "--alphas", "-2", "-2",
                                 "--cross-check"],
            "line-loop": ["line", "--loop", "10", "--sites", "0", "--alphas", "-2"],
            "crit": ["crit", star, "--axial-edge", "axial"],
            "crit-json": ["crit", star, "--axial-edge", "axial", "--json"],
            "compare": ["compare", delta, "--h", "0.02"],
            "compare-json": ["compare", star, "--json"],
            "weak-groundstate": ["groundstate", weak],
            "strong-groundstate-json": ["groundstate", strong, "--json"],
            "strong-line": ["line", "--sites", "0", "--alphas", "-1e300"],
            "strong-sweep": ["sweep", delta, "--target", "vertex:v", "--range", "-1e300",
                             "-1e299", "--steps", "3"],
        }.items():
            cases[f"cli/{name}"] = _cli_case(cli, argv)
    return cases


def run(label: str, checkout: Path) -> int:
    """Solve the corpus with the checkout's qgbind and write the parity file."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(checkout / "src"), str(ROOT / "tests")]))
    done = subprocess.run([sys.executable, "-W", "error", str(Path(__file__).resolve()),
                           "--solve"], cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        print(done.stderr[-2000:], file=sys.stderr)
        return done.returncode
    commit = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                            capture_output=True, text=True).stdout.strip() or None
    doc = {"label": label, "commit": commit, "cases": json.loads(done.stdout)}
    path = ROOT / f".parity-{label}.json"
    path.write_text(json.dumps(doc, indent=0) + "\n")
    print(f"wrote {path}: {len(doc['cases'])} cases", file=sys.stderr)
    return 0


# ------------------------------------------------------------ the comparing side

def _moved(a, b) -> bool:
    """Whether float.hex strings (or ints, or lists of either) a and b differ
    by more than TOLERANCE relative, or differ at all as ints or in shape."""
    if isinstance(a, list) or isinstance(b, list):
        return not (isinstance(a, list) and isinstance(b, list) and len(a) == len(b)) or any(
            _moved(x, y) for x, y in zip(a, b))
    if isinstance(a, int) or isinstance(b, int):
        return a != b
    x, y = float.fromhex(a), float.fromhex(b)
    return not (x == y or abs(x - y) <= TOLERANCE * max(abs(x), abs(y)))


def label(a: dict, b: dict) -> tuple[str, str]:
    """The label of one case and the first field that earned it."""
    if a == b:
        return "identical", ""
    if a.keys() != b.keys() or "error" in a or "exit" in a:
        return "outcome differs", ""
    if a.get("indices") != b.get("indices"):
        return "index differs", "indices"
    moved = [k for k in a if _moved(a[k], b[k])]
    if moved:
        return "moved", moved[0]
    return f"within {TOLERANCE:g}", next(k for k in a if a[k] != b[k])


def load(name: str) -> dict:
    path = Path(name)
    if not path.is_file():
        path = ROOT / f".parity-{name}.json"
    return json.loads(path.read_text())


def compare(a: dict, b: dict) -> int:
    """Print B against A per case; 1 if a case moved or differs."""
    counts: dict[str, int] = {}
    lines = []
    for case in sorted(a["cases"].keys() | b["cases"].keys()):
        if case not in a["cases"] or case not in b["cases"]:
            kind, field = "outcome differs", "missing on one side"
        else:
            kind, field = label(a["cases"][case], b["cases"][case])
        counts[kind] = counts.get(kind, 0) + 1
        if kind != "identical":
            lines.append(f"{case}: {kind}" + (f" ({field})" if field else ""))
    print(f"B = {b['label']} against A = {a['label']}: "
          + ", ".join(f"{n} {kind}" for kind, n in sorted(counts.items())))
    print("\n".join(lines))
    return 1 if any(counts.get(kind) for kind in FAILING) else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.solve:
        json.dump(corpus(), sys.stdout)
        return 0
    if args.compare:
        return compare(*map(load, args.compare))
    status = 0
    for name, checkout in args.run:
        status = status or run(name, Path(checkout).resolve())
    return status


if __name__ == "__main__":
    sys.exit(main())
