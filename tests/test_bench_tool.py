"""tools/bench.py --compare on synthetic BENCH files; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(bench, seeds, scale):
    """One synthetic run per seed: every end-to-end metric, scaled per name."""
    metrics = [m["name"] for m in bench.DEFINITION["end_to_end"]]
    rows = []
    for seed in seeds:
        wobble = 1.0 + 0.01 * (seed % 5)
        rows.append({
            "metrics": {m: scale.get(m, 1.0) * wobble for m in metrics},
            "units": {m: "s" for m in metrics},
            "correct": True, "failed": 0, "attempted": 300,
            "probe_median_s": 1.2e-3,
            "environment": {"python": "3.x", "seed": seed, "workload": "star-study"},
        })
    return rows


def _write(bench, tmp_path, label, seeds, scale):
    runs = {"star-study": _runs(bench, seeds, scale)}
    doc = bench.summarize(label, {"commit": None, "dirty": None}, seeds, 20,
                          runs, {"star-study": [True] * len(seeds)})
    path = tmp_path / f"BENCH_{label}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_spread_is_the_median_and_inclusive_quartiles(bench):
    assert bench.spread([4.0, 1.0, 3.0, 2.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0}
    assert bench.spread([7.0])["iqr"] == 0.0


def test_summarize_keeps_per_seed_values_and_drops_run_settings(bench, tmp_path):
    doc = json.loads(Path(_write(bench, tmp_path, "a", [3, 1, 2], {})).read_text())
    fe = doc["workloads"]["star-study"]["metrics"]["fe_compare_s"]
    assert fe["values"] == [1.03, 1.01, 1.02]
    assert fe["median"] == 1.02
    assert doc["environment"] == {"python": "3.x"}
    assert doc["workloads"]["star-study"]["failed"] == [0, 0, 0]


def test_compare_reports_wins_gains_and_flags_a_metric_past_its_bound(bench, tmp_path, capsys):
    seeds = list(range(101, 111))
    a = _write(bench, tmp_path, "parent", seeds, {})
    # B in another seed order: pairs are matched by seed
    b = _write(bench, tmp_path, "change", seeds[::-1],
               {"fe_compare_s": 0.65, "crit_s": 1.3, "sweep_points_per_s": 1.1})
    assert bench.main(["--compare", a, b]) == 1
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()
             if line.strip()}
    assert "0.650" in lines["fe_compare_s"] and lines["fe_compare_s"].endswith("gain")
    assert "WORSE by 30%, past the bound 20%" in lines["crit_s"]
    assert lines["sweep_points_per_s"].endswith("gain")
    # equal values on each seed: every pair a tie
    assert lines["solve_p50_ms"].split()[-3:] == ["1.000", "0/10", "0/10"]


def test_compare_passes_when_every_metric_stays_within_its_bound(bench, tmp_path, capsys):
    seeds = [1, 2, 3]
    a = _write(bench, tmp_path, "a", seeds, {})
    b = _write(bench, tmp_path, "b", seeds, {"crit_s": 1.15, "fe_compare_s": 0.5})
    assert bench.main(["--compare", a, b]) == 0
    out = capsys.readouterr().out
    # three pairs are too few for a gain
    assert not any(line.endswith("gain") for line in out.splitlines())
    assert "WORSE" not in out


def test_run_alternates_which_side_goes_first_within_each_workload(bench, tmp_path, monkeypatch):
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed, seconds))
        row = _runs(bench, [seed], {})[0]
        row["environment"]["workload"] = workload
        return row

    monkeypatch.setattr(bench, "run_once", fake_run)
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    (tmp_path / "p").mkdir()
    (tmp_path / "c").mkdir()
    seeds = [7, 8, 9, 10]
    argv = ["--run", "parent", str(tmp_path / "p"), "--run", "change", str(tmp_path / "c"),
            "--seeds", *map(str, seeds)]
    assert bench.main(argv) == 0
    workloads = [w["name"] for w in bench.DEFINITION["workloads"]]
    assert len(workloads) > 1
    # every run at the definition's own length, one per side, seed and workload
    assert {c[3] for c in calls} == {bench.DEFINITION["run_seconds"]}
    assert len(calls) == 2 * len(seeds) * len(workloads)
    for label, other in (("parent", "change"), ("change", "parent")):
        doc = json.loads((tmp_path / f"BENCH_{label}.json").read_text())
        assert doc["seeds"] == seeds
        for name in workloads:
            first = doc["workloads"][name]["ran_first"]
            assert first == [label == "parent", label == "change"] * 2
    # and the calls agree: within a workload, the side that ran first flips per seed
    for name in workloads:
        leaders = [c[0] for c in calls if c[1] == name][::2]
        assert leaders == ["p", "c", "p", "c"]
