"""Brute-force validation path: piecewise-linear finite elements.

The quadratic form sum_e int |psi'|^2 + sum_v alpha_v |psi(v)|^2 is
discretized with P1 elements; continuity at vertices is node sharing, the
coupling term lands on the stiffness diagonal of the vertex node.  Leads are
truncated at length R with a Dirichlet end.  Both truncation and the
conforming trial space shrink the minimization set, so the discrete smallest
eigenvalue always sits above the true one and converges at O(h^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import InfiniteEdge, MetricGraph, VertexSpec, require_valid
from .secular import GroundState

_DENSE_CUTOFF = 32
_MAX_NODES = 10**8


class OracleError(RuntimeError):
    """Discretization or eigensolve failure."""


@dataclass
class Discretization:
    """Assembled P1 matrices for a (truncated) graph mesh.

    ``node_table`` maps (edge_id, local node index) to global node; the
    Dirichlet node at the truncated end of a lead is absent.  Vertex nodes
    are shared across incident edges.
    """

    h: float
    R: float | None
    node_count: int
    stiffness: "scipy.sparse.csr_matrix"
    mass: "scipy.sparse.csr_matrix"
    vertex_nodes: dict[str, int]
    node_table: dict[tuple[str, int], int]
    extent: float
    alpha_magnitude: float


@dataclass(frozen=True)
class OracleResult:
    lambda_min: float
    h: float
    R: float | None
    error_bound: float
    node_count: int


@dataclass(frozen=True)
class ComparisonReport:
    lambda_secular: float
    lambda_oracle: float
    difference: float
    tolerance: float
    ok: bool
    h: float
    R: float | None


def discretize(graph: MetricGraph, h: float, R: float | None = None) -> Discretization:
    """Mesh the graph and assemble stiffness and mass matrices.

    Each edge gets the integer element count nearest to length/h (at least
    one), so stored lengths are met exactly.  Leads use length R and drop
    the far node.
    """
    import scipy.sparse as sp

    require_valid(graph)
    if not (math.isfinite(h) and h > 0):
        raise OracleError("mesh size h must be positive")
    if graph.infinite_edges:
        if R is None or not (math.isfinite(R) and R > 0):
            raise OracleError("graphs with leads need a positive truncation length R")

    vertex_nodes = {v.id: i for i, v in enumerate(graph.vertices)}
    # (id, first node, last node, length) per edge; a lead ends at the
    # eliminated Dirichlet node -1
    pieces = [(e.id, vertex_nodes[e.start], vertex_nodes[e.end], e.length)
              for e in graph.finite_edges]
    pieces += [(t.id, vertex_nodes[t.anchor], -1, R) for t in graph.infinite_edges]
    if not pieces:
        raise OracleError("empty mesh")
    # counts as floats, so the size is checked before anything is allocated
    # (length / h may even overflow to inf)
    counts = [max(1.0, round(length / h, 0)) for *_, length in pieces]
    node_count = len(vertex_nodes) + sum(n - 1.0 for n in counts)
    if not node_count <= _MAX_NODES:
        raise OracleError(
            f"mesh size h={h!r} needs {node_count:.4g} nodes, "
            f"more than the limit of {_MAX_NODES:.0e}"
        )

    node_table: dict[tuple[str, int], int] = {}
    next_node = len(vertex_nodes)
    g0s, g1s, hes = [], [], []
    for (eid, first, last, length), n in zip(pieces, map(int, counts)):
        chain = np.concatenate(([first], np.arange(next_node, next_node + n - 1), [last]))
        next_node += n - 1
        kept = chain if last >= 0 else chain[:-1]
        node_table.update(zip([(eid, k) for k in range(len(kept))], kept.tolist()))
        g0s.append(chain[:-1])
        g1s.append(chain[1:])
        hes.append(np.full(n, length / n))
    g0, g1, he = np.concatenate(g0s), np.concatenate(g1s), np.concatenate(hes)

    # per element (g0,g0), (g1,g1), (g0,g1), (g1,g0), entries on the
    # Dirichlet node dropped, then the vertex couplings: tocsr sums the
    # duplicates in this order
    rows = np.stack((g0, g1, g0, g1), axis=1).ravel()
    cols = np.stack((g0, g1, g1, g0), axis=1).ravel()
    inv = 1.0 / he
    kdat = np.stack((inv, inv, -inv, -inv), axis=1).ravel()
    diag, off = 2.0 * he / 6.0, he / 6.0
    mdat = np.stack((diag, diag, off, off), axis=1).ravel()
    keep = (rows >= 0) & (cols >= 0)
    vertices = np.arange(len(vertex_nodes))
    rows = np.concatenate((rows[keep], vertices))
    cols = np.concatenate((cols[keep], vertices))
    kdat = np.concatenate((kdat[keep], [float(v.alpha) for v in graph.vertices]))
    mdat = np.concatenate((mdat[keep], np.zeros(len(vertices))))

    shape = (next_node, next_node)
    stiffness = sp.coo_matrix((kdat, (rows, cols)), shape=shape).tocsr()
    mass = sp.coo_matrix((mdat, (rows, cols)), shape=shape).tocsr()
    return Discretization(
        h=h,
        R=R if graph.infinite_edges else None,
        node_count=next_node,
        stiffness=stiffness,
        mass=mass,
        vertex_nodes=vertex_nodes,
        node_table=node_table,
        extent=sum(e.length for e in graph.finite_edges),
        alpha_magnitude=sum(abs(v.alpha) for v in graph.vertices),
    )


def smallest_eigenvalue(
    disc: Discretization,
    shift: float | None = None,
    kappa_ref: float | None = None,
) -> OracleResult:
    """Smallest generalized eigenvalue of (K, M) by shift-and-invert.

    ``shift`` must sit below every eigenvalue; the default is the coarse
    a-priori bound -(sum |alpha|)^2 - 1.  Shift-and-invert returns the level
    nearest the shift, so before it runs, a banded Cholesky factor of
    K - shift*M proves that matrix positive definite (by Sylvester's law of
    inertia, no level lies below the shift) or raises OracleError.  Seeding
    is deterministic.  The reported error bound is heuristic:
    |lambda|^2 h^2 / 4 plus the lead truncation term.
    """
    import scipy.linalg
    from scipy.sparse.linalg import eigsh

    n = disc.node_count
    if shift is None:
        shift = -disc.alpha_magnitude**2 - 1.0
    if n <= _DENSE_CUTOFF:
        w = scipy.linalg.eigh(
            disc.stiffness.toarray(), disc.mass.toarray(), eigvals_only=True
        )
        lam = float(w[0])
    else:
        _certify_shift(disc, shift)
        v0 = np.full(n, 1.0 / math.sqrt(n))
        try:
            w = eigsh(
                disc.stiffness.tocsc(),
                k=1,
                M=disc.mass.tocsc(),
                sigma=shift,
                which="LM",
                v0=v0,
                tol=0,
                return_eigenvectors=False,
            )
        except Exception as exc:
            raise OracleError(f"generalized eigensolve failed: {exc}") from exc
        lam = float(w[0])

    kref = kappa_ref if kappa_ref is not None else math.sqrt(abs(lam))
    trunc = 0.0
    if disc.R is not None and kref > 0:
        trunc = math.exp(-2.0 * kref * (disc.R - disc.extent))
    bound = lam * lam * disc.h**2 / 4.0 + trunc
    return OracleResult(lam, disc.h, disc.R, bound, n)


def _certify_shift(disc: Discretization, shift: float) -> None:
    """Raise OracleError unless K - shift*M is positive definite.

    A reverse Cuthill-McKee order keeps the band narrow (width 1-4 on the
    usual graphs), so the factor costs about as much as the assembly.
    """
    from scipy.linalg import LinAlgError, cholesky_banded
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    a = disc.stiffness - shift * disc.mass
    perm = reverse_cuthill_mckee(a, symmetric_mode=True)
    pos = np.empty_like(perm)
    pos[perm] = np.arange(len(perm))
    a = a.tocoo()
    i, j = pos[a.row], pos[a.col]
    upper = i <= j
    i, j, data = i[upper], j[upper], a.data[upper]
    width = int(np.max(j - i))
    band = np.zeros((width + 1, disc.node_count))
    band[width + i - j, j] = data
    try:
        cholesky_banded(band, lower=False, check_finite=False)
    except LinAlgError:
        raise OracleError(
            f"shift {shift!r} is not below every finite-element level "
            "(K - shift*M is not positive definite)"
        ) from None


_CMP_HEADROOM = 100.0
_CMP_CAL_H = 0.02
_cmp_cache: dict[str, float] = {}


def comparison_constant() -> float:
    """Calibrated C in the comparison tolerance C*h^2 + truncation.

    Measured once per process on the one-vertex two-lead graph, whose exact
    eigenvalue is -(|alpha|/2)^2 = -1, then padded with a fixed headroom
    factor: target graphs carry deeper eigenvalues and mildly non-uniform
    meshes, both of which scale the h^2 coefficient up.
    """
    if "C" not in _cmp_cache:
        g = MetricGraph(
            (VertexSpec("v", -2.0),),
            (),
            (InfiniteEdge("t1", "v"), InfiniteEdge("t2", "v")),
        )
        disc = discretize(g, _CMP_CAL_H, 15.0)
        lam = smallest_eigenvalue(disc, shift=-1.5).lambda_min
        measured = max(lam - (-1.0), 1e-9)
        _cmp_cache["C"] = _CMP_HEADROOM * measured / _CMP_CAL_H**2
    return _cmp_cache["C"]


def compare(
    graph: MetricGraph,
    ground: GroundState,
    h: float = 0.01,
    R: float | None = None,
) -> ComparisonReport:
    """Cross-validate a secular result against the finite-element path.

    On graphs with leads the truncation term of the tolerance is
    exp(-2 kappa0 (R - extent)), extent the total finite edge length, so R
    must exceed the extent; the default is extent + max(15, 25 / kappa0).
    The eigensolve is shifted just below lambda0; when the shift is refuted
    (some level lies below it, so lambda0 is an excited level or too high),
    the oracle solves again from the a-priori bound and the report carries
    the true smallest level.
    """
    if graph.infinite_edges:
        extent = sum(e.length for e in graph.finite_edges)
        if R is None:
            R = extent + max(15.0, 25.0 / ground.kappa0)
        elif not R > extent:
            raise ValueError(
                f"lead truncation R={R!r} must exceed the finite extent {extent!r}"
            )
    disc = discretize(graph, h, R if graph.infinite_edges else None)
    shift = ground.lambda0 - max(0.5, 0.5 * abs(ground.lambda0))
    try:
        oracle = smallest_eigenvalue(disc, shift=shift, kappa_ref=ground.kappa0)
    except OracleError:
        # the shift is refuted (a level lies below it, so lambda0 is not
        # the ground state) or the solve failed there: solve again from the
        # a-priori bound and report that level
        oracle = smallest_eigenvalue(disc, kappa_ref=ground.kappa0)
    tol = comparison_constant() * h * h
    if graph.infinite_edges:
        tol += math.exp(-2.0 * ground.kappa0 * (R - disc.extent))
    diff = abs(oracle.lambda_min - ground.lambda0)
    return ComparisonReport(
        lambda_secular=ground.lambda0,
        lambda_oracle=oracle.lambda_min,
        difference=diff,
        tolerance=tol,
        ok=bool(diff <= tol),
        h=h,
        R=disc.R,
    )


def _interval_dirichlet(length: float, h: float) -> float:
    """Smallest Dirichlet eigenvalue of -d2/dx2 on [0, length], P1 mesh.

    Assembly sanity case only: no graph, no coupling; exact value is
    (pi/length)^2.
    """
    import scipy.linalg
    import scipy.sparse as sp

    n = max(2, round(length / h))
    he = length / n
    m = n - 1
    k_main = np.full(m, 2.0 / he)
    k_off = np.full(m - 1, -1.0 / he)
    m_main = np.full(m, 4.0 * he / 6.0)
    m_off = np.full(m - 1, he / 6.0)
    K = sp.diags([k_off, k_main, k_off], [-1, 0, 1]).toarray()
    M = sp.diags([m_off, m_main, m_off], [-1, 0, 1]).toarray()
    w = scipy.linalg.eigh(K, M, eigvals_only=True)
    return float(w[0])
