"""qgbind benchmark: seeded workloads, end-to-end metrics, per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload solve-mix --seed 1 --seconds 20 --trace 0

Workloads are ``solve-mix`` and ``star-study`` (see ``workloads.py``).  Every operation is timed as one closed-loop client in
this process (cold CLI operations start one child process each) and its
output is checked.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` the package's module bindings are
wrapped (``tracer.py``) and the last line carries the per-layer metrics.
The line before it holds the details: environment, every operation's time,
status and evaluation count, and failures by kind.

The package is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# one closed-loop client on a 2-core machine: BLAS runs serially, so the
# figures measure the solver and not the thread scheduler
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

# setup_s is the import time plus the median of this many set-ups (inputs,
# reference values, warm-up); the first set-up's operations are the ones run
SETUP_REPEATS = 3
OVERHEAD_OP_CAP_S = 2.0  # traced ops shorter than this re-run untraced

# On a shared 2-vCPU host the speed swings by up to 1.7x within minutes, far
# more than the bounds a change is judged by.  A probe that does not touch
# the package (batched small determinants and a Python loop, the two kinds of
# work the solvers do) runs before every operation.  Each time is scaled by
# PROBE_NOMINAL_S / (median of the four probes around it), and setup_s by the
# run's median probe, so end-to-end figures read as on an uncontended host
# where the probe takes PROBE_NOMINAL_S.  The details keep the raw figures
# and the median probe.
PROBE_NOMINAL_S = 1.2e-3
_PROBE_STACK = np.random.default_rng(0).standard_normal((512, 10, 10))

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "solve_p50_ms": "ms", "solve_p95_ms": "ms",
    "cli_cold_p50_ms": "ms", "sweep_points_per_s": "1/s", "crit_s": "s",
    "graph_route_s": "s", "kernel_route_s": "s", "fe_compare_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("solve-mix", "star-study"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def probe() -> float:
    t0 = time.perf_counter()
    np.linalg.det(_PROBE_STACK)
    acc = []
    for k in range(6000):
        acc.append(0.5 * k)
        if acc[-1] < 0.0:
            break
    return time.perf_counter() - t0


def speed_scales(probes) -> list[float]:
    """Per op i: nominal over the median of probes i-1 .. i+2, where probe i
    ran just before op i and probe i+1 just after it."""
    return [PROBE_NOMINAL_S / statistics.median(probes[max(0, i - 1):i + 3])
            for i in range(len(probes) - 1)]


def run_op(op, tracer=None) -> dict:
    first = len(tracer.spans) if tracer else 0
    t0 = time.perf_counter()
    try:
        result, status = op.run(), None
    except Exception as exc:  # an operation's failure is recorded, the run goes on
        result, status = None, type(exc).__name__
    seconds = time.perf_counter() - t0
    if status is None:
        try:
            status = op.check(result) or "ok"
        except Exception as exc:  # malformed output fails the check
            status = f"check:{type(exc).__name__}"
    rec = {"case": op.case, "kind": op.kind, "round": op.round,
           "seconds": seconds, "status": status}
    if status == "ok" or status.startswith("check:"):
        evals = op.evals(result)
        if evals is not None:
            rec["evals"] = evals
    if op.points:
        rec["points"] = op.points
    if tracer:
        rec["root_span_s"] = sum(s.seconds for s in tracer.spans[first:] if s.parent == -1)
    return rec


def _group_total(records, kind, key) -> float:
    """Median over (pass, round) of the summed time of one kind of op."""
    totals = defaultdict(float)
    for r in records:
        if r["kind"] == kind:
            totals[(r["case"].split("-", 1)[0], r["round"])] += r[key]
    return statistics.median(totals.values())


def end_to_end(records, setup_s: float, key: str = "scaled_s") -> dict[str, float]:
    def times(*kinds):
        return [r[key] for r in records if r["kind"] in kinds]

    solves = times("solve", "route-graph")
    sweeps = [r for r in records if r["kind"] == "sweep"]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solve_p50_ms": 1e3 * statistics.median(solves),
        "solve_p95_ms": 1e3 * statistics.quantiles(solves, n=20, method="inclusive")[18],
        "cli_cold_p50_ms": 1e3 * statistics.median(times("cold")),
        "sweep_points_per_s": statistics.median(r["points"] / r[key] for r in sweeps),
        "crit_s": statistics.median(times("crit")),
        "graph_route_s": _group_total(records, "route-graph", key),
        "kernel_route_s": _group_total(records, "route-kernel", key),
        "fe_compare_s": _group_total(records, "compare", key),
    }


def environment(args, passes) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "passes": passes, "trace": args.trace,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "qgbind" / "__init__.py").is_file():
        print(f"error: package source not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import tracer as tracing
    import workloads
    import_s = time.perf_counter() - T0

    passes = max(1, round(args.seconds / workloads.NOMINAL_PASS_S))
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        setup_samples = []
        for i in range(1 if args.trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            workdir = Path(tmp) / f"setup{i}"
            workdir.mkdir()
            built = workloads.build(args.workload, args.seed, passes, workdir)
            workloads.warm_up(workdir)
            setup_samples.append(import_s + time.perf_counter() - t0)
            if i == 0:
                ops = built
        first_span = len(tracer.spans) if tracer else 0
        records, paired, probes, raw_metrics = [], [], [], {}
        for op in ops:
            if not tracer:
                probes.append(probe())
            records.append(run_op(op, tracer))
            if tracer and op.in_process and records[-1]["seconds"] < OVERHEAD_OP_CAP_S:
                # the same op again, untraced, right away: the pair sees the
                # same machine state, so the ratio isolates the tracing cost
                tracer.uninstall()
                paired.append((records[-1]["seconds"], run_op(op)["seconds"]))
                tracer.install()
        if tracer:
            tracer.uninstall()
            metrics = tracing.layer_metrics(tracer.spans, first_span)
            metrics["trace_overhead_frac"] = (sum(t for t, _ in paired)
                                              / sum(u for _, u in paired) - 1.0)
            metrics["unattributed_s"] = sum(
                r["seconds"] - r["root_span_s"]
                for op, r in zip(ops, records) if op.in_process)
            units = tracing.LAYER_UNITS
        else:
            probes.append(probe())
            for r, scale in zip(records, speed_scales(probes)):
                r["scaled_s"] = r["seconds"] * scale
            setup_s = statistics.median(setup_samples)
            raw_metrics = end_to_end(records, setup_s, key="seconds")
            metrics = end_to_end(
                records, PROBE_NOMINAL_S / statistics.median(probes) * setup_s)
            units = END_TO_END_UNITS

    failed = [r for r in records if r["status"] != "ok"]
    unexpected = [r["case"] for r in failed
                  if workloads.KNOWN_DEFECTS.get(r["case"].split("-", 1)[1]) != r["status"]]
    detail = {
        "environment": environment(args, passes),
        "failures_by_kind": dict(Counter(r["status"] for r in failed)),
        "unexpected_failures": unexpected,
        "samples": dict(Counter(r["kind"] for r in records)),
        "setup_samples_s": setup_samples,
        "probe_median_s": statistics.median(probes) if probes else None,
        "raw_metrics": raw_metrics,
        "ops": records,
    }
    print(json.dumps({"detail": detail}))
    for name, value in metrics.items():
        print(f"{name:>28} {value:14.6g} {units[name]}", file=sys.stderr)
    print(f"{len(failed)}/{len(records)} ops failed: {detail['failures_by_kind']}; "
          f"unexpected: {unexpected}", file=sys.stderr)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
