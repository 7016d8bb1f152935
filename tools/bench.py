"""Run the benchmark on one or two checkouts and keep the results as BENCH files.

Run from the repository root:

    python3 tools/bench.py --run parent ../parent --run change . --seeds 101 102 103
    python3 tools/bench.py --compare parent change

``--run LABEL DIR`` names a checkout (one or two).  For every seed and every
workload in ``BENCHMARK.json``, each checkout runs
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`` from
its own directory, one process at a time, with ``T`` the definition's
``run_seconds``; with two checkouts, which one runs first alternates from
seed to seed within each workload.  Each label gets ``BENCH_<LABEL>.json`` at
the repository root: per workload and end-to-end metric the median, the
quartiles, their distance (IQR) and the per-seed values, plus the median
speed probe, ``correct``, ``failed`` and the environment.

``--compare A B`` reads two BENCH files (paths, or labels of files at the
root) and prints, per workload and metric, B's median over A's, the pairs
(runs on one seed) each side won, and each side's IQR over its median.  A
metric whose median is worse on B than on A by more than its bound in
``BENCHMARK.json`` is flagged; the exit status is then 1.  A metric that B
wins on at least 9 pairs in 10, over 10 pairs or more, with medians further
apart than A's IQR, is marked as a gain.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())
GAIN_SHARE = 0.9  # share of pairs the better side must win for a gain
GAIN_PAIRS = 10  # fewest pairs a gain may rest on


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--run", nargs=2, action="append", metavar=("LABEL", "DIR"),
                      help="a checkout to benchmark (at most two)")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"),
                      help="two BENCH files or labels; B is judged against A")
    p.add_argument("--seeds", nargs="+", type=int, default=[1],
                   help="workload seeds, one run per seed and workload")
    return p


def parse_args(argv):
    p = build_parser()
    args = p.parse_args(argv)
    if args.run and len(args.run) > 2:
        p.error("--run takes one or two checkouts")
    return args


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; its result line and a few details."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited with "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    *_, detail_line, result_line = done.stdout.splitlines()
    detail = json.loads(detail_line)["detail"]
    result = json.loads(result_line)
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "units": {k: v["unit"] for k, v in result["metrics"].items()},
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "probe_median_s": detail["probe_median_s"],
        "environment": detail["environment"],
    }


def spread(values: list[float]) -> dict:
    """Median, quartiles and their distance (inclusive method)."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(label: str, checkout_id: dict, seeds: list[int], seconds: float,
              runs: dict[str, list[dict]], first: dict[str, list[bool]]) -> dict:
    """The BENCH document of one side from its runs, per workload in seed order."""
    workloads = {}
    environment = None
    for name, rows in runs.items():
        environment = environment or {
            k: v for k, v in rows[0]["environment"].items()
            if k not in ("workload", "seed", "seconds", "passes", "trace")}
        metrics = {}
        for metric, unit in rows[0]["units"].items():
            values = [r["metrics"][metric] for r in rows]
            metrics[metric] = {"unit": unit, **spread(values), "values": values}
        workloads[name] = {
            "correct": all(r["correct"] for r in rows),
            "failed": [r["failed"] for r in rows],
            "attempted": [r["attempted"] for r in rows],
            "probe_median_s": statistics.median(r["probe_median_s"] for r in rows),
            "ran_first": first[name],
            "metrics": metrics,
        }
    return {
        "label": label,
        **checkout_id,
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds!r} --trace 0",
        "seconds": seconds,
        "seeds": seeds,
        "environment": environment,
        "workloads": workloads,
    }


def checkout_id(checkout: Path) -> dict:
    """The commit a checkout is at and whether tracked files differ from it."""
    def git(*cmd):
        done = subprocess.run(["git", "-C", str(checkout), *cmd],
                              capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": commit, "dirty": None if commit is None else bool(dirty)}


def bench(args) -> int:
    seconds = DEFINITION["run_seconds"]
    workloads = [w["name"] for w in DEFINITION["workloads"]]
    sides = [(label, Path(d).resolve()) for label, d in args.run]
    runs = {label: {w: [] for w in workloads} for label, _ in sides}
    first = {label: {w: [] for w in workloads} for label, _ in sides}
    for i, seed in enumerate(args.seeds):
        # the seed's index picks the order, so each workload alternates
        order = sides if i % 2 == 0 else sides[::-1]
        for workload in workloads:
            for k, (label, checkout) in enumerate(order):
                print(f"{workload} seed {seed}: {label}", file=sys.stderr, flush=True)
                runs[label][workload].append(run_once(checkout, workload, seed, seconds))
                first[label][workload].append(k == 0)
    for label, checkout in sides:
        doc = summarize(label, checkout_id(checkout), args.seeds, seconds,
                        runs[label], first[label])
        path = ROOT / f"BENCH_{label}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0


def load(name: str) -> dict:
    path = Path(name)
    if not path.is_file():
        path = ROOT / f"BENCH_{name}.json"
    return json.loads(path.read_text())


def compare(a: dict, b: dict) -> int:
    """Print B against A per workload and metric; 1 if a metric is flagged."""
    bounds = {m["name"]: m for m in DEFINITION["end_to_end"]}
    flagged = 0
    print(f"B = {b['label']} against A = {a['label']}")
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            continue
        seeds = [s for s in a["seeds"] if s in b["seeds"]]
        ia = [a["seeds"].index(s) for s in seeds]
        ib = [b["seeds"].index(s) for s in seeds]
        print(f"\n{workload}: {len(seeds)} pairs; correct {wa['correct']} / "
              f"{wb['correct']}; failed {max(wa['failed'])} / {max(wb['failed'])}")
        print(f"{'metric':<20} {'A median':>11} {'A IQR':>7} {'B median':>11} "
              f"{'B IQR':>7} {'B/A':>6} {'A wins':>7} {'B wins':>7}")
        for metric, spec in bounds.items():
            if metric not in wa["metrics"] or metric not in wb["metrics"]:
                continue
            ma, mb = wa["metrics"][metric], wb["metrics"][metric]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            pairs = [(ma["values"][i], mb["values"][j]) for i, j in zip(ia, ib)]
            b_wins = sum(sign * (x - y) > 0 for x, y in pairs)
            a_wins = sum(sign * (y - x) > 0 for x, y in pairs)
            ratio = mb["median"] / ma["median"] if ma["median"] else float("nan")
            worse = sign * (ratio - 1.0)
            note = ""
            if worse > spec["bound"]:
                note = f"  WORSE by {worse:.0%}, past the bound {spec['bound']:.0%}"
                flagged += 1
            elif (len(pairs) >= GAIN_PAIRS and b_wins >= GAIN_SHARE * len(pairs)
                  and sign * (ma["median"] - mb["median"]) > ma["iqr"]):
                note = "  gain"
            print(f"{metric:<20} {ma['median']:11.5g} {_rel(ma):>7} {mb['median']:11.5g} "
                  f"{_rel(mb):>7} {ratio:6.3f} {a_wins:>3}/{len(pairs):<3} "
                  f"{b_wins:>3}/{len(pairs):<3}{note}")
    return 1 if flagged else 0


def _rel(m: dict) -> str:
    """IQR over the median, as a percentage."""
    return f"{m['iqr'] / abs(m['median']):.1%}" if m["median"] else "-"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare(*map(load, args.compare))
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
