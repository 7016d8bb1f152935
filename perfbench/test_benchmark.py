"""Regression guard for the benchmark itself: exact evaluation counts.

Counts are the same on every machine, so they show algorithmic changes
that timing noise hides.  Run from the repository root (takes a few
minutes):

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
from workloads import KNOWN_DEFECTS  # noqa: E402

# find_ground_state indicator evaluations in the ROADMAP baseline table
BASELINE_EVALS = {
    ("solve-mix", "p0-anchor-delta"): 6144,
    ("solve-mix", "p0-anchor-star"): 8192,
    ("solve-mix", "p0-anchor-chain-8"): 10000,
    ("solve-mix", "p0-uniform-chain-40"): 10000,
    ("solve-mix", "p0-anchor-alpha-1e4"): 667648,
}


def _run(workload, seed=7, trace=0):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def _evals(detail):
    return {r["case"]: r.get("evals") for r in detail["ops"]}


@pytest.fixture(scope="module")
def first_runs():
    return {w: _run(w) for w in ("solve-mix", "star-study")}


@pytest.mark.parametrize("workload", ["solve-mix", "star-study"])
def test_same_seed_gives_identical_counts(first_runs, workload):
    result, detail = first_runs[workload]
    again_result, again = _run(workload)
    assert result["correct"] and again_result["correct"]
    assert _evals(again) == _evals(detail)
    assert again_result["attempted"] == result["attempted"]
    assert again_result["failed"] == result["failed"]


def test_first_run_reproduces_baseline_counts(first_runs):
    for (workload, case), evals in BASELINE_EVALS.items():
        assert _evals(first_runs[workload][1])[case] == evals, case


def test_known_defects_stay_ops(first_runs):
    """A known defect is a timed, checked op: it fails as recorded or, once
    fixed, passes; any other failure makes the run incorrect."""
    status = {r["case"]: r["status"] for _, detail in first_runs.values() for r in detail["ops"]}
    for case, kind in KNOWN_DEFECTS.items():
        assert status[f"p0-{case}"] in ("ok", kind), case
    assert all(result["correct"] for result, _ in first_runs.values())


def test_traced_run_reports_every_layer_metric():
    names = [m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]]
    result, _ = _run("star-study", trace=1)
    assert result["correct"]
    assert list(result["metrics"]) == names
