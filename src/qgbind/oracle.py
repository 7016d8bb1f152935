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
from typing import Callable, NamedTuple

import numpy as np

from .graph import MetricGraph, require_valid, vertex_incidences
from .secular import _MEMORY_BUDGET, GroundState, NumericalFailure

# compare peaks at 150-170 bytes a mesh node and under 60 a pair of
# vertices (tracemalloc), so a mesh at the node limit stays within _MEMORY_BUDGET
_BYTES_PER_NODE, _BYTES_PER_VERTEX_PAIR = 180.0, 64.0
_MAX_ITERATIONS = 1000
_EPS = float(np.finfo(float).eps)


class OracleError(NumericalFailure):
    """Discretization or eigensolve failure.

    ``solves`` and ``factors`` count the solves and factorizations a failed
    eigensolve made before it gave up (0 when it made none).
    """

    def __init__(self, message: str, solves: int = 0, factors: int = 0):
        super().__init__(message)
        self.solves, self.factors = solves, factors


class Blocks(NamedTuple):
    """One of K and M, split at the vertices.

    ``vertex`` is the dense block of the vertex nodes.  ``diagonal`` and
    ``off`` are the tridiagonal block of the chain interiors: ``off[j]``
    couples interior nodes j and j + 1, and is 0 at the last interior node
    of each chain.  ``coupling`` is, per chain with interior nodes, the
    entry between each end and the interior node next to it.
    """

    vertex: np.ndarray
    diagonal: np.ndarray
    off: np.ndarray
    coupling: np.ndarray


@dataclass
class Discretization:
    """Assembled P1 pair (K, M) on a (truncated) graph mesh.

    Nodes are numbered as the element loop meets them: the vertices in the
    graph's order (``vertex_nodes``), then the interior nodes of each edge
    and then of each lead, chain by chain from its first end.  ``stiffness``
    and ``mass`` are K and M split at the vertices (``Blocks``).
    ``elements`` holds the two nodes of each element in the loop's order,
    ``element_lengths`` their lengths, and ``alphas`` the vertex couplings.
    ``chain_ends`` and ``chain_nodes`` give, for each chain with interior
    nodes, its end nodes and its first and last interior node.  Node -1 is
    the Dirichlet node at the truncated end of a lead; an array or matrix
    indexed by node gets one more slot, row and column for it, which read 0.
    ``kappa_bound`` is the kappa* of the proven bound lambda0 >= -kappa*^2
    behind the default shift of ``smallest_eigenvalue``.
    """

    h: float
    R: float | None
    node_count: int
    stiffness: Blocks
    mass: Blocks
    vertex_nodes: dict[str, int]
    alphas: np.ndarray
    elements: np.ndarray
    element_lengths: np.ndarray
    chain_ends: np.ndarray
    chain_nodes: np.ndarray
    kappa_bound: float


@dataclass(frozen=True)
class OracleResult:
    lambda_min: float
    h: float
    R: float | None
    node_count: int
    p1_error: float
    solves: int
    factors: int


@dataclass(frozen=True)
class ComparisonReport:
    lambda_secular: float
    lambda_oracle: float
    correction: float
    difference: float
    tolerance: float
    ok: bool
    h: float
    R: float | None
    solves: int
    factors: int


def discretize(graph: MetricGraph, h: float, R: float | None = None) -> Discretization:
    """Mesh the graph and assemble the blocks of K and M.

    Each edge gets the integer element count nearest to length/h (at least
    one), so stored lengths are met exactly.  Leads use length R and drop
    the far node.  A mesh that would not fit in a 2 GB budget (1.1e7 nodes
    on a small graph) raises OracleError before anything is allocated.
    """
    require_valid(graph)
    if not (math.isfinite(h) and h > 0):
        raise OracleError("mesh size h must be positive")
    if graph.infinite_edges:
        if R is None or not (math.isfinite(R) and R > 0):
            raise OracleError("graphs with leads need a positive truncation length R")

    vertex_nodes = {v.id: i for i, v in enumerate(graph.vertices)}
    nv = len(vertex_nodes)
    # the end nodes of each chain, edges then leads; a lead ends at the
    # eliminated Dirichlet node -1
    ends = [(vertex_nodes[e.start], vertex_nodes[e.end]) for e in graph.finite_edges]
    ends += [(vertex_nodes[t.anchor], -1) for t in graph.infinite_edges]
    lengths = [e.length for e in graph.finite_edges] + [R] * len(graph.infinite_edges)
    # counts as floats, so the size is checked before anything is allocated
    # (length / h may even overflow to inf)
    counts = [max(1.0, round(length / h, 0)) for length in lengths]
    node_count = nv + sum(n - 1.0 for n in counts)
    limit = (_MEMORY_BUDGET - _BYTES_PER_VERTEX_PAIR * nv * nv) / _BYTES_PER_NODE
    if not node_count <= limit:
        raise OracleError(
            f"mesh size h={h!r} needs {node_count:.4g} nodes, more than the limit "
            f"of {limit:.4g} that a {_MEMORY_BUDGET / 1e9:g} GB budget leaves"
        )

    counts = np.array(counts, dtype=int)
    ends = np.array(ends, dtype=int).reshape(-1, 2)
    he = np.array(lengths, dtype=float) / counts
    interior = counts - 1
    inner = np.arange(nv, nv + int(np.sum(interior)))
    at = np.cumsum(interior) - interior
    alphas = np.array([float(v.alpha) for v in graph.vertices])
    # the element matrix of K is [[1, -1], [-1, 1]] / h_e, that of M
    # [[2, 1], [1, 2]] h_e / 6
    return Discretization(
        h=h,
        R=R if graph.infinite_edges else None,
        node_count=nv + len(inner),
        stiffness=_blocks(ends, interior, 1.0 / he, -1.0 / he, alphas),
        mass=_blocks(ends, interior, 2.0 * he / 6.0, he / 6.0, np.zeros(nv)),
        vertex_nodes=vertex_nodes,
        alphas=alphas,
        elements=np.stack((np.insert(inner, at, ends[:, 0]),
                           np.insert(inner, at + interior, ends[:, 1])), axis=1),
        element_lengths=np.repeat(he, counts),
        chain_ends=ends[interior > 0],
        chain_nodes=np.stack((at, at + interior - 1), axis=1)[interior > 0] + nv,
        kappa_bound=_kappa_bound(graph),
    )


def _blocks(ends: np.ndarray, interior: np.ndarray, diagonal: np.ndarray,
            off: np.ndarray, alphas: np.ndarray) -> Blocks:
    """Blocks of the matrix with element matrix [[diagonal, off], [off,
    diagonal]] on each chain, plus diag(alphas); each vertex cell is summed
    in element order, then alpha added, as the element-by-element loop does.
    """
    nv = len(alphas)
    vertex = np.zeros((nv + 1, nv + 1))
    np.add.at(vertex, (ends, ends), diagonal[:, None])
    single = interior == 0
    np.add.at(vertex, (ends[single], ends[single, ::-1]), off[single, None])
    along = np.repeat(off, interior)
    along[np.cumsum(interior)[interior > 0] - 1] = 0.0
    return Blocks(vertex[:nv, :nv] + np.diag(alphas),
                  np.repeat(diagonal + diagonal, interior), along, off[interior > 0])


def _kappa_bound(graph: MetricGraph) -> float:
    """kappa* with lambda0 >= -kappa*^2.

    Split each edge at its midpoint.  On a half-edge of length l (infinite
    on a lead) |f(0)|^2 <= (coth(k l)/k)(|f'|^2 + k^2 |f|^2), and with
    tanh x >= x/(1+x) each coupling term alpha_v |f(v)|^2 is at least
    -(|f'|^2 + k^2 |f|^2) summed over the half-edges at v once
    k >= a/2 + sqrt(a^2/4 + a/l), a = max(-alpha_v, 0)/deg v (k >= a on a
    lead).  kappa* is the largest such k.
    """
    incidences = vertex_incidences(graph)
    bound = 0.0
    for v in graph.vertices:
        a = max(-v.alpha, 0.0) / len(incidences[v.id])
        for kind, i in incidences[v.id]:
            half = math.inf if kind == "lead" else graph.finite_edges[i].length / 2.0
            bound = max(bound, a / 2.0 + math.sqrt(a * a / 4.0 + a / half))
    return bound


def smallest_eigenvalue(disc: Discretization, shift: float | None = None) -> OracleResult:
    """Smallest generalized eigenvalue of (K, M) by inverse iteration.

    ``shift`` must be finite and sit below every eigenvalue.  The default
    -kappa_bound^2 - 1 lies below the graph's lambda0 (``_kappa_bound``),
    hence below every finite-element level: truncation and the P1 trial
    space only raise levels.  A shift just below the level converges
    fastest: plain inverse iteration shrinks the error of the quotient by
    r^2 a step, r = (lambda - shift) / (lambda_1 - shift), lambda_1 the
    next level.

    The factors of K - shift*M condensed onto the vertices (``_factor``)
    first prove that no level lies at or below the shift, or OracleError is
    raised.  Inverse iteration on them from the uniform vector then
    converges to the lowest level, never to an excited one: every level
    lies above the shift, so the lowest is the largest eigenvalue of
    (K - shift*M)^-1 M.  Each step solves (K - shift*M) y = M x; the
    Rayleigh quotient of y is then shift + y'Mx / y'My, with no product by
    K.  While that quotient falls slowly, the shift moves up by certified
    bisection (``_inverse_iteration``), so the step count does not grow as
    the gap above the lowest level closes.  It stops once the quotient has
    fallen by at most 1e-14 |lambda| and its rounding is below that too, and
    raises OracleError if it has not within a fixed budget, or if y'My
    leaves the positive floats (a shift so far below the level that y
    underflows).  Every mesh, however small, takes this path.  ``solves``
    and ``factors`` count its solves and factorizations, refused ones
    included.

    The level returned is the Rayleigh quotient of the final vector u_h
    summed element by element,
    (sum_e (u1 - u0)^2 / h_e + sum_v alpha_v u_v^2)
    / (sum_e h_e (u0^2 + u0 u1 + u1^2) / 3),
    not shift + y'Mx / y'My: that form carries a rounding of about
    eps * max K_ii / M_ii (1e-8 with an edge of 1e-8), while the sum takes
    each difference u1 - u0 before it divides by h_e.

    ``p1_error`` is the leading P1 error of the level,
    lambda^2 / 12 * sum_e h_e^2 int_e u_h^2 over the elements e, with u_h
    the M-normalized eigenvector (Strang-Fix, ch. 6); on a uniform mesh it
    is lambda^2 h^2 / 12.
    """
    if shift is None:
        shift = -disc.kappa_bound**2 - 1.0
    elif not math.isfinite(shift):
        raise OracleError(f"shift {shift!r} is not finite")
    x, solves, factors = _inverse_iteration(disc, shift)
    # int_e u_h^2 = h_e (u0^2 + u0 u1 + u1^2) / 3
    u0, u1 = x[disc.elements].T
    he = disc.element_lengths
    square = u0 * u0 + u0 * u1 + u1 * u1
    coupled = x[:len(disc.alphas)]
    energy = float(np.sum((u1 - u0) ** 2 / he)) + float(disc.alphas @ (coupled * coupled))
    lam = energy / (float(np.sum(he * square)) / 3.0)
    p1 = lam * lam / 36.0 * float(np.sum(he**3 * square))
    return OracleResult(lam, disc.h, disc.R, disc.node_count, p1, solves, factors)


def _inverse_iteration(
    disc: Discretization, shift: float,
) -> tuple[np.ndarray, int, int]:
    """M-normalized vector of the lowest level of (K, M), with the Dirichlet
    slot, and the counts of solves and factorizations, by inverse iteration
    on certified factors.

    While the quotient falls by more than a quarter of its previous fall a
    step, the shift sits farther below the lowest level than the next level
    sits above it.  The lowest level lies between the shift and the current
    quotient, so the shift moves to their midpoint if the factor there
    certifies it, and that midpoint becomes the upper end otherwise: a
    bisection that leaves the shift within about one gap of the level
    however small the gap is.

    The quotient is shift + g, and g carries a rounding of about 4 eps g,
    so a smaller fall is not measured: such a step counts as slow, and the
    quotient is not taken as settled while that rounding exceeds the
    stopping tolerance.  Otherwise a shift far below the level (an edge of
    1e-8 puts the default near -1e8) stops at the quotient of the start
    vector.
    """
    solve = _factor(disc, shift)
    solves, factors = 0, 1
    if solve is None:
        raise OracleError(
            f"shift {shift!r} is not below every finite-element level "
            "(K - shift*M is not positive definite)", solves, factors,
        )
    n = disc.node_count
    mx = _product(disc, disc.mass, np.append(np.full(n, 1.0 / math.sqrt(n)), 0.0))
    lam = fall = top = math.inf
    for _ in range(_MAX_ITERATIONS):
        y = solve(mx)
        solves += 1
        my = _product(disc, disc.mass, y)
        norm2 = float(y @ my)
        if not 0.0 < norm2 < math.inf:
            raise OracleError(
                f"inverse iteration at shift {shift!r} gave y'My = {norm2!r}",
                solves, factors,
            )
        gain = float(y @ mx) / norm2
        new = shift + gain
        rounding = 4.0 * _EPS * gain
        if lam - new <= 1e-14 * abs(new) and rounding <= 1e-14 * abs(new):
            return y / math.sqrt(norm2), solves, factors
        # x = y / |y|_M, so M x is M y scaled: no second product by M
        mx = my / math.sqrt(norm2)
        slow = lam - new > 0.25 * fall or lam - new <= rounding
        lam, fall = new, lam - new
        if slow:
            mid = 0.5 * (shift + min(new, top))
            better = _factor(disc, mid)
            factors += 1
            if better is None:
                top = mid
            else:
                shift, solve, fall = mid, better, math.inf
    raise OracleError(
        f"inverse iteration did not settle in {_MAX_ITERATIONS} steps "
        f"(last shift {shift!r})", solves, factors,
    )


def _factor(disc: Discretization, shift: float) -> Callable[[np.ndarray], np.ndarray] | None:
    """Solver of (K - shift*M) y = b, Dirichlet slot included, by condensation
    onto the vertices, or None when K - shift*M is not positive definite.

    Split at the vertices, K - shift*M = [[A, B'], [B, T]] with T the
    tridiagonal block of the chain interiors.  T is factored by ``dpttrf``
    and the Schur complement S = A - B'T^-1 B by ``dpotrf``; both factors
    exist exactly when K - shift*M is positive definite (Haynsworth's
    inertia additivity), which by Sylvester's law of inertia certifies that
    no level lies at or below the shift.  T is block diagonal by chain and
    B has one entry at each end of a chain, so T^-1 B is two columns: each
    chain's solve from its first coupling and from its last.
    """
    from scipy.linalg.lapack import dpotrf, dpotrs, dpttrf, dpttrs

    a = Blocks(*(k - shift * m for k, m in zip(disc.stiffness, disc.mass)))
    # the wrapper wants an off-diagonal of at least one entry, which LAPACK
    # reads only from two nodes on
    d, e, info = dpttrf(a.diagonal, a.off[:-1] if len(a.off) > 1 else np.zeros(1),
                        overwrite_d=1, overwrite_e=1)
    if info == 0:
        nv, ends, nodes = len(a.vertex), disc.chain_ends, disc.chain_nodes
        x = np.zeros((len(d), 2))
        x[nodes - nv, [0, 1]] = a.coupling[:, None]
        x = dpttrs(d, e, x, overwrite_b=1)[0]
        s = np.zeros((nv + 1, nv + 1))
        s[:nv, :nv] = a.vertex
        np.subtract.at(s, (ends[:, :, None], ends[:, None, :]),
                       a.coupling[:, None, None] * x[nodes - nv])
        u, info = dpotrf(s[:nv, :nv])
    if info < 0:
        raise ValueError(f"LAPACK: illegal value in argument {-info}")
    if info > 0:
        return None

    def solve(b: np.ndarray) -> np.ndarray:
        y = b.copy()
        y[nv:-1] = dpttrs(d, e, b[nv:-1])[0]
        np.subtract.at(y, ends, a.coupling[:, None] * y[nodes])
        y[:nv], y[-1] = dpotrs(u, y[:nv])[0], 0.0
        v = np.repeat(y[ends].T, nodes[:, 1] - nodes[:, 0] + 1, axis=1)
        y[nv:-1] -= x[:, 0] * v[0] + x[:, 1] * v[1]
        return y

    return solve


def _product(disc: Discretization, blocks: Blocks, y: np.ndarray) -> np.ndarray:
    """The product of the matrix in ``blocks`` with y, Dirichlet slot included."""
    nv, ends, nodes = len(blocks.vertex), disc.chain_ends, disc.chain_nodes
    out = np.zeros_like(y)
    out[:nv] = blocks.vertex @ y[:nv]
    out[nv:-1] = blocks.diagonal * y[nv:-1] + blocks.off * y[nv + 1:]
    out[nv + 1:] += blocks.off * y[nv:-1]
    np.add.at(out, ends, blocks.coupling[:, None] * y[nodes])
    np.add.at(out, nodes, blocks.coupling[:, None] * y[ends])
    out[-1] = 0.0
    return out


_CMP_HEADROOM = 100.0


def comparison_constant() -> float:
    """C in the comparison tolerance C*h^2 + truncation.

    The leading P1 error lambda^2 h^2 / 12 of the one-vertex two-lead graph
    with alpha = -2 (lambda = -1) over h^2, padded with a fixed headroom
    factor: target graphs carry deeper eigenvalues and mildly non-uniform
    meshes, both of which scale the h^2 coefficient up.
    """
    return _CMP_HEADROOM / 12.0


def compare(
    graph: MetricGraph,
    ground: GroundState,
    h: float = 0.01,
    R: float | None = None,
) -> ComparisonReport:
    """Cross-validate a secular result against the finite-element path.

    ``h`` must be finite and positive.  On graphs with leads the truncation
    term of the tolerance is exp(-2 kappa0 (R - extent)), extent the total
    finite edge length, so R must exceed the extent; the default is
    extent + max(15, 25 / kappa0).  Either violation raises ValueError.
    The eigensolve is shifted to 1.01 lambda0, |lambda0| / 100 below the
    level of a true ground state however weakly it is bound (Ritz:
    lambda_h >= lambda0), so inverse iteration settles in about five
    solves.  The factor at that shift is still the certificate: when it is
    refused (some level lies below the shift, so lambda0 is an excited
    level or more than 1% too high), the oracle solves again from the
    proven default shift and the report carries the true smallest level.
    A lambda0 less than 1% too high leaves the shift below the true level,
    which the iteration then finds.  ``solves`` and ``factors`` count the
    solves and factorizations of both attempts.

    ``lambda_oracle`` is the raw level lambda_h.  The verdict judges
    |lambda_h - correction - lambda0| against the tolerance, where the
    correction is the oracle's own leading P1 error term (``p1_error`` of
    ``smallest_eigenvalue``: lambda_h^2 h^2 / 12 on a uniform mesh, weighted
    by h_e^2 per element otherwise).  Without it the error grows as
    kappa0^4 h^2 / 12 and outruns C h^2 once kappa0 exceeds about 3.2.
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"mesh size h={h!r} must be finite and positive")
    if graph.infinite_edges:
        extent = sum(e.length for e in graph.finite_edges)
        if R is None:
            R = extent + max(15.0, 25.0 / ground.kappa0)
        elif not R > extent:
            raise ValueError(
                f"lead truncation R={R!r} must exceed the finite extent {extent!r}"
            )
    disc = discretize(graph, h, R if graph.infinite_edges else None)
    # lambda_h >= lambda0 for a true ground state, so this shift is certified;
    # a next level near 0 (a lead's) sits about 100 times as far above it as
    # lambda_h, so the error of the quotient shrinks by about 1e-4 a step
    try:
        oracle = smallest_eigenvalue(disc, shift=1.01 * ground.lambda0)
        spent = (0, 0)
    except OracleError as refused:
        # the shift is refuted (a level lies below it, so lambda0 is not
        # the ground state) or the solve failed there: solve again from the
        # proven default shift and report that level
        spent = (refused.solves, refused.factors)
        oracle = smallest_eigenvalue(disc)
    tol = comparison_constant() * h * h
    if graph.infinite_edges:
        tol += math.exp(-2.0 * ground.kappa0 * (R - extent))
    correction = oracle.p1_error
    diff = abs(oracle.lambda_min - correction - ground.lambda0)
    return ComparisonReport(
        lambda_secular=ground.lambda0,
        lambda_oracle=oracle.lambda_min,
        correction=correction,
        difference=diff,
        tolerance=tol,
        ok=bool(diff <= tol),
        h=h,
        R=disc.R,
        solves=spent[0] + oracle.solves,
        factors=spent[1] + oracle.factors,
    )
