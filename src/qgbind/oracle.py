"""Brute-force validation path: piecewise-linear finite elements.

The quadratic form sum_e int |psi'|^2 + sum_v alpha_v |psi(v)|^2 is
discretized with P1 elements; continuity at vertices is node sharing, the
coupling term lands on the stiffness diagonal of the vertex node.  Leads are
truncated at length R with a Dirichlet end.  Both truncation and the
conforming trial space shrink the minimization set, so the discrete smallest
eigenvalue always sits above the true one and converges at O(h^2).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .graph import MetricGraph, require_valid, vertex_incidences
from .secular import GroundState

_MAX_NODES = 10**8
_MAX_ITERATIONS = 1000
_EPS = float(np.finfo(float).eps)
# distance to a lead's Dirichlet end: past every node (at most 1e8),
# and still an int64 once a chain length is added
_FAR = 1 << 62


class OracleError(RuntimeError):
    """Discretization or eigensolve failure.

    ``solves`` and ``factors`` count the banded solves and Cholesky
    factorizations a failed eigensolve made before it gave up (0 when it
    made none).
    """

    def __init__(self, message: str, solves: int = 0, factors: int = 0):
        super().__init__(message)
        self.solves, self.factors = solves, factors


@dataclass
class Discretization:
    """Assembled P1 pair (K, M) on a (truncated) graph mesh.

    Nodes are numbered in a Cuthill-McKee level order read off the edge
    chains (``_level_order``), which keeps the band narrow (width 1 on a
    chain, 2 on a star, up to 6 on the random cyclic test graphs).
    ``stiffness`` and ``mass`` are the upper bands of K and M, the (w+1, n)
    layout LAPACK's ``dpbtrf`` reads: entry (i, j), i <= j, sits at row
    w + i - j, column j, for band width w.
    ``elements`` holds the two nodes of each element, edge by edge along its
    chain, then lead by lead; vertex nodes (``vertex_nodes``) are shared
    across incident edges, and the Dirichlet node at the truncated end of a
    lead is -1.  ``element_lengths`` holds their lengths, and ``alphas``
    the vertex couplings in the order of ``vertex_nodes``.
    ``kappa_bound`` is the kappa* of the proven bound lambda0 >= -kappa*^2
    behind the default shift of ``smallest_eigenvalue``.
    """

    h: float
    R: float | None
    node_count: int
    stiffness: np.ndarray
    mass: np.ndarray
    vertex_nodes: dict[str, int]
    alphas: np.ndarray
    elements: np.ndarray
    element_lengths: np.ndarray
    extent: float
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
    """Mesh the graph and assemble the stiffness and mass bands.

    Each edge gets the integer element count nearest to length/h (at least
    one), so stored lengths are met exactly.  Leads use length R and drop
    the far node.
    """
    require_valid(graph)
    if not (math.isfinite(h) and h > 0):
        raise OracleError("mesh size h must be positive")
    if graph.infinite_edges:
        if R is None or not (math.isfinite(R) and R > 0):
            raise OracleError("graphs with leads need a positive truncation length R")

    vertex_nodes = {v.id: i for i, v in enumerate(graph.vertices)}
    # (first node, last node, length) per edge; a lead ends at the
    # eliminated Dirichlet node -1
    pieces = [(vertex_nodes[e.start], vertex_nodes[e.end], e.length)
              for e in graph.finite_edges]
    pieces += [(vertex_nodes[t.anchor], -1, R) for t in graph.infinite_edges]
    # counts as floats, so the size is checked before anything is allocated
    # (length / h may even overflow to inf)
    counts = [max(1.0, round(length / h, 0)) for *_, length in pieces]
    node_count = len(vertex_nodes) + sum(n - 1.0 for n in counts)
    if not node_count <= _MAX_NODES:
        raise OracleError(
            f"mesh size h={h!r} needs {node_count:.4g} nodes, "
            f"more than the limit of {_MAX_NODES:.0e}"
        )
    counts = [int(c) for c in counts]

    n = len(vertex_nodes)
    g0s, g1s, hes = [], [], []
    for (first, last, length), count in zip(pieces, counts):
        chain = np.concatenate(([first], np.arange(n, n + count - 1), [last]))
        n += count - 1
        g0s.append(chain[:-1])
        g1s.append(chain[1:])
        hes.append(np.full(count, length / count))
    g0, g1, he = np.concatenate(g0s), np.concatenate(g1s), np.concatenate(hes)

    # renumber in level order; only g1 is ever the Dirichlet node, and the
    # extra last slot of pos keeps it at -1
    pos = np.full(n + 1, -1)
    pos[_level_order(len(vertex_nodes), [p[:2] for p in pieces], counts)] = np.arange(n)
    g0, g1 = pos[g0], pos[g1]

    # per element (g0,g0), (g1,g1), (min,max), entries on the Dirichlet
    # node dropped, then the vertex couplings: bincount sums each band cell
    # in this order, as the element-by-element loop does
    rows = np.stack((g0, g1, np.minimum(g0, g1)), axis=1).ravel()
    cols = np.stack((g0, g1, np.maximum(g0, g1)), axis=1).ravel()
    inv = 1.0 / he
    kdat = np.stack((inv, inv, -inv), axis=1).ravel()
    diag, off = 2.0 * he / 6.0, he / 6.0
    mdat = np.stack((diag, diag, off), axis=1).ravel()
    keep = rows >= 0
    vertices = pos[:len(vertex_nodes)]
    alphas = np.array([float(v.alpha) for v in graph.vertices])
    rows = np.concatenate((rows[keep], vertices))
    cols = np.concatenate((cols[keep], vertices))
    kdat = np.concatenate((kdat[keep], alphas))
    mdat = np.concatenate((mdat[keep], np.zeros(len(vertices))))
    # band cell (w + i - j, j), laid out column by column as LAPACK reads it
    width = int(np.max(cols - rows))
    cells = cols * (width + 1) + width + rows - cols
    return Discretization(
        h=h,
        R=R if graph.infinite_edges else None,
        node_count=n,
        stiffness=np.bincount(cells, kdat, (width + 1) * n).reshape(n, width + 1).T,
        mass=np.bincount(cells, mdat, (width + 1) * n).reshape(n, width + 1).T,
        vertex_nodes={v: int(pos[i]) for v, i in vertex_nodes.items()},
        alphas=alphas,
        elements=np.stack((g0, g1), axis=1),
        element_lengths=he,
        extent=sum(e.length for e in graph.finite_edges),
        kappa_bound=_kappa_bound(graph),
    )


def _level_order(vertex_count: int, ends: list[tuple[int, int]],
                 counts: list[int]) -> np.ndarray:
    """Mesh nodes in a Cuthill-McKee level order, read off the chains.

    Nodes below ``vertex_count`` are the vertices; the count - 1 interior
    nodes of each chain follow, chain by chain, from its first end
    (``ends``: first and last vertex, last -1 on a lead).  A node's level is
    its distance in elements from a start node.  The vertices' distances
    come from Dijkstra on the vertex graph weighted by element counts;
    interior node k of a chain sits at min(d_first + k, d_last + count - k).
    The start is a leaf of the mesh (a vertex of degree one or the last
    node of a lead; any vertex on a mesh without leaves): the first leaf, or
    the leaf farthest from it (George-Liu), whichever gives the narrower
    widest level, since the band is about as wide as that level.  Within a
    level the nodes follow a depth-first slot of the half-chain tree: the
    half-chains that leave a vertex take the place of the one that reached
    it, so each level lists the half-chains that cross it in the order of
    the level before.  Where the two half-chains of a cycle meet at a node
    as far from both ends, that node takes the smaller slot.
    """
    # half-chain 2p runs from chain p's first end, 2p + 1 from its last
    to = [end for first, last in ends for end in (last, first)]
    leaving: list[list[int]] = [[] for _ in range(vertex_count)]
    for p, (first, last) in enumerate(ends):
        leaving[first].append(2 * p)
        if last >= 0:
            leaving[last].append(2 * p + 1)

    def sweep(start):
        """Distances from a start (its vertex's distance, the vertex, the
        half-chain that reaches it or -1): of each vertex, of each chain's
        first and last end, and the half-chain that reaches each vertex."""
        dist, via = [-1] * vertex_count, [-1] * vertex_count
        heap = [start]
        while heap:
            d, v, half = heapq.heappop(heap)
            if dist[v] < 0:
                dist[v], via[v] = d, half
                for out in leaving[v]:
                    if to[out] >= 0 and dist[to[out]] < 0:
                        heapq.heappush(heap, (d + counts[out // 2], to[out], out))
        d_first = [dist[first] for first, _ in ends]
        d_last = [dist[last] if last >= 0 else _FAR for _, last in ends]
        if start[2] >= 0:  # the start's lead ends one element past its last node
            d_last[start[2] // 2] = -1
        return dist, d_first, d_last, via, start

    def runs(d_first, d_last, half_slot):
        """Each chain's interior nodes as two runs (length, first level,
        step, slot): the nodes nearer its first end, levels rising from
        d_first + 1, then those nearer its last end, levels falling to
        d_last + 1."""
        out = []
        for d0, d1, count, fore, back in zip(d_first, d_last, counts,
                                             half_slot[::2], half_slot[1::2]):
            span = d1 + count - d0
            ahead = min(count - 1, max(0, (span - 1) // 2 + (span % 2 == 0 and fore < back)))
            out += [(ahead, d0 + 1, 1, fore),
                    (count - 1 - ahead, d1 + count - ahead - 1, -1, back)]
        return out

    def widest(dist, d_first, d_last, *_):
        """Node count of the widest level."""
        events = [(d, 1) for d in dist] + [(d + 1, -1) for d in dist]
        for length, level, step, _ in runs(d_first, d_last, [0] * len(to)):
            low = min(level, level + step * (length - 1))
            events += [(low, 1), (low + length, -1)]
        return max(accumulate(change for _, change in sorted(events)))

    leaves = [(0, v, -1) for v in range(vertex_count) if len(leaving[v]) == 1]
    leaves += [(count - 1, first, 2 * p + 1)
               for p, ((first, last), count) in enumerate(zip(ends, counts)) if last < 0]
    leaves = leaves or [(0, v, -1) for v in range(vertex_count)]
    near = sweep(leaves[0])
    far = max(leaves, key=lambda leaf: 0 if leaf == leaves[0] else near[0][leaf[1]] + leaf[0])
    dist, d_first, d_last, via, start = min(near, sweep(far), key=lambda s: widest(*s))

    half_slot, vertex_slot = [0] * len(to), [0] * vertex_count
    reached = {half: v for v, half in enumerate(via) if half >= 0}
    stack = [start[2]] if start[2] >= 0 else leaving[start[1]][::-1]
    slot = 0
    while stack:
        half = stack.pop()
        half_slot[half] = slot
        if half in reached:
            vertex_slot[reached[half]] = slot
            stack += leaving[reached[half]][::-1]
        slot += 1

    length, origin, step, slots = (np.array(c) for c in zip(*runs(d_first, d_last, half_slot)))
    at = np.cumsum(length) - length
    i = np.arange(int(np.sum(length)))
    level = np.repeat(origin - step * at, length) + np.repeat(step, length) * i
    return np.lexsort((np.concatenate((vertex_slot, np.repeat(slots, length))),
                       np.concatenate((dist, level))))


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

    A banded Cholesky factor of K - shift*M first proves that matrix
    positive definite (by Sylvester's law of inertia, no level lies below
    the shift) or raises OracleError.  Inverse iteration on that factor from
    the uniform vector then converges to the lowest level, never to an
    excited one: every level lies above the shift, so the lowest is the
    largest eigenvalue of (K - shift*M)^-1 M.  Each step solves
    (K - shift*M) y = M x; the Rayleigh quotient of y is then
    shift + y'Mx / y'My, with no product by K.  While that quotient falls
    slowly, the shift moves up by certified bisection (``_inverse_iteration``),
    so the step count does not grow as the gap above the lowest level
    closes.  It stops once the quotient has fallen by at most 1e-14 |lambda|
    and its rounding is below that too, and raises OracleError if it has
    not within a fixed budget, or if y'My leaves the positive floats (a
    shift so far below the level that y underflows).  Every mesh, however
    small, takes this path.  ``solves`` and ``factors`` count its banded
    solves and Cholesky factorizations, refused ones included.

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
    # int_e u_h^2 = h_e (u0^2 + u0 u1 + u1^2) / 3; the Dirichlet node reads 0
    u0, u1 = np.append(x, 0.0)[disc.elements].T
    he = disc.element_lengths
    square = u0 * u0 + u0 * u1 + u1 * u1
    coupled = x[list(disc.vertex_nodes.values())]
    energy = float(np.sum((u1 - u0) ** 2 / he)) + float(disc.alphas @ (coupled * coupled))
    lam = energy / (float(np.sum(he * square)) / 3.0)
    p1 = lam * lam / 36.0 * float(np.sum(he**3 * square))
    return OracleResult(lam, disc.h, disc.R, disc.node_count, p1, solves, factors)


def _inverse_iteration(
    disc: Discretization, shift: float,
) -> tuple[np.ndarray, int, int]:
    """M-normalized vector of the lowest level of (K, M), and the counts of
    banded solves and factorizations, by inverse iteration on certified
    factors.

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
    from scipy.linalg.blas import dsbmv
    from scipy.linalg.lapack import dpbtrs

    factor = _factor(disc, shift)
    solves, factors = 0, 1
    if factor is None:
        raise OracleError(
            f"shift {shift!r} is not below every finite-element level "
            "(K - shift*M is not positive definite)", solves, factors,
        )
    mass, width = disc.mass, len(disc.mass) - 1
    n = disc.node_count
    mx = dsbmv(width, 1.0, mass, np.full(n, 1.0 / math.sqrt(n)))
    lam = fall = top = math.inf
    for _ in range(_MAX_ITERATIONS):
        y, info = dpbtrs(factor, mx)
        if info < 0:
            raise ValueError(f"dpbtrs: illegal value in argument {-info}")
        solves += 1
        my = dsbmv(width, 1.0, mass, y)
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
                shift, factor, fall = mid, better, math.inf
    raise OracleError(
        f"inverse iteration did not settle in {_MAX_ITERATIONS} steps "
        f"(last shift {shift!r})", solves, factors,
    )


def _factor(disc: Discretization, shift: float) -> np.ndarray | None:
    """Upper banded Cholesky factor of K - shift*M, or None.

    A factor exists exactly when K - shift*M is positive definite, which by
    Sylvester's law of inertia certifies that no level lies at or below
    the shift.
    """
    from scipy.linalg.lapack import dpbtrf

    # the difference is a fresh Fortran-ordered band, factored in place
    factor, info = dpbtrf(disc.stiffness - shift * disc.mass, overwrite_ab=1)
    if info < 0:
        raise ValueError(f"dpbtrf: illegal value in argument {-info}")
    return factor if info == 0 else None


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
    lambda_h >= lambda0), so inverse iteration settles in about five banded
    solves.  The factor at that shift is still the certificate: when it is
    refused (some level lies below the shift, so lambda0 is an excited
    level or more than 1% too high), the oracle solves again from the
    proven default shift and the report carries the true smallest level.
    A lambda0 less than 1% too high leaves the shift below the true level,
    which the iteration then finds.  ``solves`` and ``factors`` count the
    banded solves and Cholesky factorizations of both attempts.

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
        tol += math.exp(-2.0 * ground.kappa0 * (R - disc.extent))
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
