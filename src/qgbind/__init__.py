"""Ground states of metric-graph Laplacians with attractive delta coupling.

Two independent solution paths (vertex-reduced matrix on general graphs,
kernel matrix for interactions on a line or loop), a finite-element oracle,
edge shape classification, parameter sweeps and the edge-scaling quotient.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

# the module that defines each public name: `import qgbind` loads none of
# them, and each access looks the name up there (PEP 562), so a command
# loads only the modules it runs and no copy here outlives a rebinding there
_EXPORTS = {
    "graph": (
        "FiniteEdge", "GraphFormatError", "InfiniteEdge", "InvalidGraphError",
        "MetricGraph", "ValidationReport", "VertexSpec", "degree", "load_graph",
        "require_valid", "save_graph", "validate", "vertex_incidences",
    ),
    "line": (
        "GammaMatrix", "LineConfig", "LineGroundState", "LoopConfig", "NoRoot",
        "as_chain_graph", "as_cycle_graph", "gamma_line", "gamma_loop",
        "ground_state_line", "ground_state_loop", "stretch_gap",
    ),
    "oracle": (
        "ComparisonReport", "Discretization", "OracleError", "OracleResult",
        "compare", "comparison_constant", "discretize", "smallest_eigenvalue",
    ),
    "rayleigh": ("GraphTrial", "rayleigh_quotient", "scaled_trial_quotient"),
    "secular": (
        "DegenerateRoot", "Diagnostics", "EdgeSolution", "GroundState",
        "NoBoundState", "PositivityViolation", "SolverOptions",
        "classify_edge_index", "find_ground_state", "vertex_condition_residuals",
    ),
    "sweeps": (
        "CritError", "CritResult", "SweepPoint", "SweepSpec", "SweepTarget",
        "apply_target", "find_critical_coupling", "run_sweep",
    ),
}
_HOME = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # sys.modules first: import_module's own checks would double a lookup's cost
    return getattr(sys.modules.get(home) or import_module(home), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
