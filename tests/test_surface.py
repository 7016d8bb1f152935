"""The public surface: the names ``qgbind`` exports and the command-line
flags its README documents."""

import argparse
import importlib.util
import re
from pathlib import Path

import qgbind
from qgbind.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# flags of pip and pytest that the README's install and test commands use
FOREIGN_FLAGS = {"--no-build-isolation", "--continue-on-collection-errors"}


def test_exports_are_unique_and_resolve():
    names = qgbind.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(qgbind, name), name
    removed = {"SecularMatrix", "build_secular_matrix", "singularity_indicator",
               "mu0", "min_eigenpair", "derivative_signs", "NULLSPACE_GAP_MIN",
               "reconstruct_eigenfunction", "check_monotonicity_line",
               "MonotonicityReport", "MonotonicityViolation", "grow_loop",
               "classify_coefficients"}
    assert removed.isdisjoint(names)


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
