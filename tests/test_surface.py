"""The public surface: the names ``qgbind`` exports and the command-line
flags its README documents."""

import argparse
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import qgbind
import qgbind.secular
from qgbind.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# flags of pip and pytest that the README's install and test commands use
FOREIGN_FLAGS = {"--no-build-isolation", "--continue-on-collection-errors"}


def test_exports_are_unique_and_resolve():
    names = qgbind.__all__
    assert len(names) == len(set(names)) == 55
    assert set(names) <= set(dir(qgbind))
    assert names[-1] == "__version__"
    # every other name is its defining module's, looked up there on each access
    for name in names[:-1]:
        value = getattr(qgbind, name)
        assert value is getattr(sys.modules[value.__module__], name), name
    removed = {"SecularMatrix", "build_secular_matrix", "singularity_indicator",
               "mu0", "min_eigenpair", "derivative_signs", "NULLSPACE_GAP_MIN",
               "reconstruct_eigenfunction", "check_monotonicity_line",
               "MonotonicityReport", "MonotonicityViolation", "grow_loop",
               "classify_coefficients"}
    assert removed.isdisjoint(names)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from qgbind import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(qgbind.__all__)


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        qgbind.no_such_name


def test_a_rebinding_in_the_defining_module_is_seen_through_the_package(monkeypatch):
    # no copy is kept in the package: a name rebound where it is defined (as
    # a tracer or a test does) reads rebound here, and restored once undone
    solve = qgbind.secular.find_ground_state

    def fake(graph, options=None):
        return solve(graph, options)

    monkeypatch.setattr(qgbind.secular, "find_ground_state", fake)
    assert qgbind.find_ground_state is fake
    monkeypatch.undo()
    assert qgbind.find_ground_state is solve


def test_every_numerical_failure_shares_one_base():
    # the command line maps this one class to exit code 3
    base = qgbind.secular.NumericalFailure
    assert issubclass(base, RuntimeError)
    for name in ("NoBoundState", "DegenerateRoot", "PositivityViolation", "NoRoot",
                 "CritError", "OracleError"):
        assert issubclass(getattr(qgbind, name), base), name
    for name in ("GraphFormatError", "InvalidGraphError"):
        assert issubclass(getattr(qgbind, name), ValueError), name


def _bench_tool_parser() -> argparse.ArgumentParser:
    spec = importlib.util.spec_from_file_location("bench_tool", ROOT / "tools" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_parser()


def _accepted_flags() -> set[str]:
    """Flags of the qgbind CLI and of the README's ``tools/bench.py`` lines."""
    parser = build_parser()
    parsers = [parser, _bench_tool_parser()]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers += action.choices.values()
    return {flag for p in parsers for action in p._actions for flag in action.option_strings}


def test_every_readme_flag_is_accepted_by_the_cli():
    documented = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", README.read_text(encoding="utf-8")))
    assert documented, "no --flag found in README.md"
    assert documented - FOREIGN_FLAGS - _accepted_flags() == set()
