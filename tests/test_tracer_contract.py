"""perfbench/tracer.py looks up solver names to wrap them; installing and
uninstalling it must leave every module binding as it was."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_install_uninstall_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    before = [(mod, dict(vars(mod))) for mod in tracer.MODULES]
    t = tracer.Tracer()
    t.install()
    try:
        rebound = {(mod.__name__, attr) for mod, names in before
                   for attr, value in names.items() if getattr(mod, attr) is not value}
        for name in ("scan_down", "probe_geometric", "bisect_sign", "_equilibrated_det"):
            assert ("qgbind.secular", name) in rebound
        assert ("qgbind.line", "scan_down") in rebound
    finally:
        t.uninstall()
    for mod, names in before:
        for attr, value in names.items():
            assert getattr(mod, attr) is value, f"{mod.__name__}.{attr} not restored"
