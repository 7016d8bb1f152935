"""tools/parity.py --compare on synthetic parity files; no corpus runs."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "parity.py"


@pytest.fixture(scope="module")
def parity():
    spec = importlib.util.spec_from_file_location("parity_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _solve(kappa0=1.25, p=(0.5, 0.25), indices=(1, -1, 0), evaluations=4):
    return {"kappa0": kappa0.hex(), "lambda0": (-kappa0 * kappa0).hex(),
            "p": [x.hex() for x in p], "indices": list(indices),
            "bracket": [1.0.hex(), kappa0.hex()], "indicator_evaluations": evaluations}


def _write(tmp_path, label, cases):
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps({"label": label, "commit": None, "cases": cases}))
    return str(path)


def _compare(parity, tmp_path, a, b, capsys):
    code = parity.main(["--compare", _write(tmp_path, "a", a), _write(tmp_path, "b", b)])
    return code, capsys.readouterr().out.splitlines()


def test_identical_and_rounding_moves_pass(parity, tmp_path, capsys):
    a = {"graph/one": _solve(), "graph/two": _solve(p=(0.5, 0.125)),
         "cli/x": {"exit": 0, "stdout_sha256": "ab", "stderr": ""},
         "kernel/err": {"error": "NoRoot", "message": "m"}}
    b = dict(a, **{"graph/two": _solve(p=(0.5, 0.125 * (1 + 1e-13)))})
    code, out = _compare(parity, tmp_path, a, b, capsys)
    assert code == 0
    assert out == ["B = b against A = a: 3 identical, 1 within 1e-12",
                   "graph/two: within 1e-12 (p)"]


@pytest.mark.parametrize("b_case, label", [
    (_solve(kappa0=1.25 * (1 + 2e-12)), "moved (kappa0)"),
    (_solve(evaluations=5), "moved (indicator_evaluations)"),
    (_solve(indices=(1, 1, 0)), "index differs (indices)"),
    ({"error": "NoBoundState", "message": "m"}, "outcome differs"),
])
def test_a_difference_fails(parity, tmp_path, capsys, b_case, label):
    code, out = _compare(parity, tmp_path, {"graph/one": _solve()}, {"graph/one": b_case},
                         capsys)
    assert code == 1
    assert out[1] == f"graph/one: {label}"


def test_errors_cli_outputs_and_missing_cases_compare_whole(parity, tmp_path, capsys):
    a = {"kernel/err": {"error": "NoRoot", "message": "at kappa=1.0"},
         "cli/x": {"exit": 0, "stdout_sha256": "ab", "stderr": ""},
         "graph/gone": _solve()}
    b = {"kernel/err": {"error": "NoRoot", "message": "at kappa=2.0"},
         "cli/x": {"exit": 0, "stdout_sha256": "cd", "stderr": ""},
         "graph/new": _solve()}
    code, out = _compare(parity, tmp_path, a, b, capsys)
    assert code == 1
    assert out == ["B = b against A = a: 4 outcome differs",
                   "cli/x: outcome differs",
                   "graph/gone: outcome differs (missing on one side)",
                   "graph/new: outcome differs (missing on one side)",
                   "kernel/err: outcome differs"]


def test_labels_name_the_parity_files_at_the_root(parity):
    assert parity.ROOT == TOOL.parent.parent
    with pytest.raises(FileNotFoundError):
        parity.load("no-such-label")
