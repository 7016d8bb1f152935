"""Ground states of metric-graph Laplacians with attractive delta coupling.

Two independent solution paths (vertex-reduced matrix on general graphs,
kernel matrix for interactions on a line or loop), a finite-element oracle,
edge shape classification, parameter sweeps and the edge-scaling quotient.
"""

from .graph import (
    FiniteEdge,
    GraphFormatError,
    InfiniteEdge,
    InvalidGraphError,
    MetricGraph,
    ValidationReport,
    VertexSpec,
    degree,
    load_graph,
    require_valid,
    save_graph,
    validate,
    vertex_incidences,
)
from .line import (
    GammaMatrix,
    LineConfig,
    LineGroundState,
    LoopConfig,
    NoRoot,
    as_chain_graph,
    as_cycle_graph,
    gamma_line,
    gamma_loop,
    ground_state_line,
    ground_state_loop,
    stretch_gap,
)
from .oracle import (
    ComparisonReport,
    Discretization,
    OracleError,
    OracleResult,
    compare,
    comparison_constant,
    discretize,
    smallest_eigenvalue,
)
from .rayleigh import GraphTrial, rayleigh_quotient, scaled_trial_quotient
from .secular import (
    DegenerateRoot,
    Diagnostics,
    EdgeSolution,
    GroundState,
    NoBoundState,
    PositivityViolation,
    SolverOptions,
    classify_edge_index,
    find_ground_state,
    vertex_condition_residuals,
)
from .sweeps import (
    CritError,
    CritResult,
    SweepPoint,
    SweepSpec,
    SweepTarget,
    apply_target,
    find_critical_coupling,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "FiniteEdge", "GraphFormatError", "InfiniteEdge", "InvalidGraphError",
    "MetricGraph", "ValidationReport", "VertexSpec", "degree", "load_graph",
    "require_valid", "save_graph", "validate", "vertex_incidences",
    "GammaMatrix", "LineConfig", "LineGroundState", "LoopConfig", "NoRoot",
    "as_chain_graph", "as_cycle_graph", "gamma_line", "gamma_loop",
    "ground_state_line", "ground_state_loop", "stretch_gap",
    "ComparisonReport", "Discretization", "OracleError", "OracleResult",
    "compare", "comparison_constant", "discretize", "smallest_eigenvalue",
    "GraphTrial", "rayleigh_quotient", "scaled_trial_quotient",
    "DegenerateRoot", "Diagnostics", "EdgeSolution", "GroundState",
    "NoBoundState", "PositivityViolation", "SolverOptions",
    "classify_edge_index", "find_ground_state", "vertex_condition_residuals",
    "CritError", "CritResult", "SweepPoint", "SweepSpec", "SweepTarget",
    "apply_target", "find_critical_coupling", "run_sweep",
    "__version__",
]
