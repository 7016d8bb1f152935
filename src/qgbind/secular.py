"""Secular system for negative-energy bound states on a metric graph.

Energies are written lambda = -kappa**2 with kappa > 0.  On a finite edge of
length l the solution is stored in the overflow-safe exponential basis

    psi(x) = p * exp(-kappa x) + q * exp(-kappa (l - x)),

equivalent to a*cosh(kappa x) + b*sinh(kappa x) with a = p + q*E and
b = q*E - p, E = exp(-kappa l).  Both exponents are nonpositive on the edge,
so entries stay finite for arbitrarily large kappa*l.  On a lead the
square-integrable solution is c * exp(-kappa x).

The conditions at a vertex are continuity plus sum(outward derivatives) =
alpha * psi(vertex).  Written in the vertex values f they become the
vertex-reduced matrix M(kappa) (see :func:`vertex_matrix`): kappa is an
eigenvalue root exactly when M(kappa) f = 0 for some f, and the ground state
is the one root of its increasing smallest eigenvalue.  The reconstructed
state is checked against the conditions on the edge functions themselves
(:func:`vertex_condition_residuals`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np
from numpy.linalg._umath_linalg import eigh_lo, solve1

from .graph import (
    InvalidGraphError,
    MetricGraph,
    ValidationReport,
    _components,
    parameter_problems,
    parameters,
    topology_ok,
    validate,
    vertex_incidences,
)
from .rootscan import OUT_OF_RANGE, constant_trial_bound, fits, increasing_roots, unit
# stubs that raise, unused here; perfbench/tracer.py wraps them until ROADMAP item 1
from .rootscan import _removed as _equilibrated_det  # noqa: F401
from .rootscan import bisect_sign, probe_geometric, scan_down  # noqa: F401

_GAP_MIN = 1e6
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_EPSILON_IDX = 1e-9  # relative |a| - |b| below which an edge index is 0
_SHORT_KL = 1e-3  # kappa l below which an edge's ends are eliminated (see _reduced)
# bytes a sweep grid (sweeps.run_sweep) or a finite-element mesh
# (oracle.discretize) may take; both refuse, before allocating, what would not fit
_MEMORY_BUDGET = 2e9


def _eigh(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy.linalg.eigh of a stack of float64 symmetric matrices, from the
    lower triangle, through its gufunc: the public wrapper's per-call checks
    and error state add about 40% to the eigensolve of the small matrices
    here.  A member that does not converge comes back NaN, and its Newton
    step or gap test refuses it; the other members are unaffected.  The gufunc
    flags that as an invalid value: callers hold np.errstate(invalid="ignore")."""
    return eigh_lo(S, signature="d->dd")


def _solve(S: np.ndarray, f: np.ndarray) -> np.ndarray:
    """numpy.linalg.solve of a stack of systems S y = f, one vector f per
    matrix, through its gufunc (see :func:`_eigh`).  An exactly singular
    member comes back NaN, also flagged as an invalid value."""
    return solve1(S, f, signature="dd->d")


class NumericalFailure(RuntimeError):
    """Base of every numerical failure the package raises; the command line
    maps it to exit code 3."""


class NoBoundState(NumericalFailure):
    """No negative-energy state was found; for admissible graphs this
    signals a numerics problem, not physics."""


class DegenerateRoot(NumericalFailure):
    """The numerical nullspace at the converged root is not one-dimensional."""


class PositivityViolation(NumericalFailure):
    """The reconstructed state is not strictly positive (a wrong root, or
    a state that underflows)."""


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for :func:`find_ground_state`.

    ``tol_kappa`` is the tolerance of kappa0, relative: a certificate
    bounds its error by 2 tol_kappa (see :func:`rootscan.increasing_root`).
    ``kappa_max``, when given, is a hard ceiling: a ground state above it
    raises NoBoundState.
    """

    tol_kappa: float = 1e-12
    kappa_max: float | None = None


@dataclass(frozen=True)
class EdgeSolution:
    """Bound-state component on one edge at fixed kappa.

    Finite edges carry (p, q) in the exponential basis; ``a`` and ``b``
    are the equivalent coefficients of a*cosh + b*sinh.  Leads carry the
    tail amplitude c.
    """

    edge_id: str
    kind: str  # 'finite' | 'infinite'
    kappa: float
    length: float | None = None
    p: float | None = None
    q: float | None = None
    c: float | None = None

    @classmethod
    def finite(cls, edge_id, kappa, length, p, q):
        return cls(edge_id, "finite", kappa, length=length, p=p, q=q)

    @classmethod
    def infinite(cls, edge_id, kappa, c):
        return cls(edge_id, "infinite", kappa, c=c)

    @property
    def a(self) -> float:
        e = math.exp(-self.kappa * self.length)
        return self.p + self.q * e

    @property
    def b(self) -> float:
        e = math.exp(-self.kappa * self.length)
        return self.q * e - self.p

    def value(self, x):
        x = np.asarray(x, dtype=float)
        k = self.kappa
        if self.kind == "finite":
            return self.p * np.exp(-k * x) + self.q * np.exp(-k * (self.length - x))
        return self.c * np.exp(-k * x)

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        k = self.kappa
        if self.kind == "finite":
            return k * (-self.p * np.exp(-k * x) + self.q * np.exp(-k * (self.length - x)))
        return -k * self.c * np.exp(-k * x)


@dataclass(frozen=True)
class Diagnostics:
    """What a solve did and the certificate of its state.

    ``bracket`` = (lo, hi) holds the root, mu0(lo) <= 0 <= mu0(hi) for the
    smallest eigenvalue mu0 of M(kappa): the last Newton iterate below the
    root and the certificate point (see :func:`rootscan.increasing_root`).
    ``nullspace_gap`` is mu1 / max(|mu0|, tau) at kappa0, tau the rounding
    of an eigenvalue (see :func:`_states`): large when the zero
    eigenvalue is simple.  ``min_sampled`` is the
    exact minimum of the normalized state.  ``indicator_evaluations``
    counts the matrices M(kappa) built; ``dips`` is always empty (the
    descending scan that reported them is gone; perfbench/tracer.py reads
    its length until ROADMAP item 1).
    """

    continuity_residual: float
    coupling_residual: float
    nullspace_gap: float
    min_sampled: float  # exact minimum of the state (see _Topology.audit)
    bracket: tuple[float, float]
    indicator_evaluations: int
    dips: tuple = ()


@dataclass(frozen=True)
class GroundState:
    """Ground state of a graph: energy, per-edge components, shape indices.

    ``solutions`` and ``indices`` are aligned: finite edges in input order,
    then leads in input order.  The state is L2-normalized and positive.
    """

    kappa0: float
    lambda0: float
    solutions: tuple[EdgeSolution, ...]
    indices: tuple[int, ...]
    diagnostics: Diagnostics

    def solution(self, edge_id: str) -> EdgeSolution:
        for s in self.solutions:
            if s.edge_id == edge_id:
                return s
        raise KeyError(f"unknown edge id: {edge_id!r}")

    def index(self, edge_id: str) -> int:
        return self.indices[self.solutions.index(self.solution(edge_id))]


class _Topology:
    """Index arrays of a graph's layout, built once and shared by every
    member of a batch: member i replaces the graph's alphas and finite-edge
    lengths by row i of ``alphas`` (k, vertices) and ``lengths`` (k, finite
    edges).  Functions of kappa take one kappa per member, kappa (k,), and
    return arrays with the members in rows.  The edge ends at each vertex,
    in order, are those of :func:`graph.vertex_incidences`.
    """

    def __init__(self, graph: MetricGraph, members: int = 1):
        n = self.n = len(graph.vertices)
        m = len(graph.finite_edges)
        # each edge end's vertex, and the ends at each vertex as positions in
        # the concatenation (start ends, end ends, leads), in one pass
        start, end, anchors = [0] * m, [0] * m, [0] * len(graph.infinite_edges)
        where = {"start": (start, 0), "end": (end, m), "lead": (anchors, 2 * m)}
        order, degree = [], []
        for u, ends in enumerate(vertex_incidences(graph).values()):
            for kind, i in ends:
                at, offset = where[kind]
                at[i] = u
                order.append(offset + i)
            degree.append(len(ends))
        self.order = np.array(order, dtype=np.intp)
        self.first = np.array([0, *accumulate(degree[:-1])], dtype=np.intp)
        self.degree = np.array(degree, dtype=float)
        self.max_degree = max(degree)
        self.start, self.end, self.anchors = (np.array(x, dtype=np.intp)
                                              for x in (start, end, anchors))
        self.leads = np.bincount(self.anchors, minlength=n).astype(float)
        # W's entries, then a's edge terms, in one accumulation; row i, for
        # any i-th of up to ``members`` members, is offset by i n (n + 1)
        index = np.array([u * n + v for u, v in zip(start, end)]
                         + [v * n + u for u, v in zip(start, end)]
                         + [n * n + u for u in start] + [n * n + v for v in end], dtype=np.intp)
        self.bins = index + n * (n + 1) * np.arange(members)[:, None]

    def parts(self, kappa: np.ndarray, alphas: np.ndarray, lengths: np.ndarray):
        """(a, W, E, den) with M(kappa) = diag(a + W 1) - W (see
        :func:`vertex_matrix`), E = exp(-kappa l) and den = 1 - E**2 per edge.

        coth(x) = tanh(x/2) + csch(x) splits an edge's terms: it adds kappa
        tanh(kappa l / 2) to a at both ends and the weight w = kappa csch(kappa
        l) = 2 kappa E / (1 - E**2) between them; a lead adds kappa to a.  So a
        = alpha + O(kappa) and every w > 0, and a short edge's large w never
        has to cancel against a (see :func:`_reduced`).  One bincount builds
        every member's matrix.
        """
        n, k = self.n, len(kappa)
        kappa = kappa[:, None]
        nkl = kappa * -lengths
        E = np.exp(nkl)
        g = -np.expm1(nkl)  # 1 - E without cancellation
        h = 1.0 + E
        den = g * h
        w = 2.0 * kappa * E / den
        half_tanh = kappa * g / h
        acc = np.bincount(self.bins[:k].ravel(),
                          np.concatenate((w, w, half_tanh, half_tanh), axis=1).ravel(),
                          minlength=k * n * (n + 1)).reshape(k, n * (n + 1))
        # without edges bincount returns integer zeros
        return (alphas + kappa * self.leads + acc[:, n * n:],
                acc[:, : n * n].reshape(k, n, n).astype(float, copy=False), E, den)

    def profiles(self, kappa, lengths, E, den, fk, kept, steps, roots):
        """(p, q, c, mass) of the states with values fk at the ``kept``
        vertices of :func:`_reduced`, with E and den from :meth:`parts`.

        The other vertices get f_v = sum_j w_vj f_j / p_v in reverse order of
        ``steps``, through delta_v = f_v - f_root = sum_j (w_vj / p_v) (f_j -
        f_root) - (a_v / p_v) f_root.  On an edge from u to v, p = (f_u - E
        f_v) / (1 - E**2) and q = (f_v - E f_u) / (1 - E**2), with f_u - f_v =
        delta_u - delta_v within a cluster of short edges, where plain
        subtraction would lose eps / (kappa l) of the O(kappa l) terms; c = f
        at a lead's vertex.  The L2 mass is (p**2 + q**2)(1 - E**2)/(2 kappa) +
        2 p q l E per edge plus c**2 / (2 kappa) per lead.
        """
        f = fk
        if steps:
            f, delta = np.zeros((len(fk), self.n)), np.zeros((len(fk), self.n))
            f[:, kept] = fk
            for v, wv, a_v, pivot in reversed(steps):
                r = roots[v]
                from_root = np.where(roots == r, delta, f - f[:, r, None])
                delta[:, v] = ((wv * from_root).sum(axis=1) - a_v * f[:, r]) / pivot
                f[:, v] = f[:, r] + delta[:, v]
        fu, fv = f.take(self.start, axis=1), f.take(self.end, axis=1)
        p, q = fu - E * fv, fv - E * fu
        if steps:
            same = np.flatnonzero(roots[self.start] == roots[self.end])
            d = delta[:, self.start[same]] - delta[:, self.end[same]]
            g = -np.expm1(kappa[:, None] * -lengths[:, same])
            p[:, same], q[:, same] = d + g * fv[:, same], g * fu[:, same] - d
        p /= den
        q /= den
        c = f.take(self.anchors, axis=1)
        mass = (np.add.reduce((p * p + q * q) * den, 1) + np.add.reduce(c * c, 1)) / (2.0 * kappa)
        return p, q, c, mass + 2.0 * np.add.reduce(p * q * (lengths * E), 1)

    def clusters(self, kl: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Per vertex, the first vertex of its cluster joined by edges with
        kappa l = ``kl`` < 1e-3, and the other vertices of the clusters,
        which are eliminated before the eigensolve.

        Such an edge's weight ~ 1/l would swamp the O(kappa) terms of M in
        rounding (kappa0 off by 1e-7 relative at l = 1e-9); eliminated, it
        leaves no entry larger than about 1e3 kappa.
        """
        short = kl < _SHORT_KL
        roots = _components(self.n, zip(self.start[short].tolist(), self.end[short].tolist()))
        return np.array(roots), [i for i, r in enumerate(roots) if r != i]

    def audit(self, kappa, alphas, lengths, p, q, c, E, unit=1.0):
        """Shape indices of the finite edges, exact minima and vertex
        residuals of the states with coefficients p, q, c: (indices, minimum,
        continuity, coupling), with kappa, alphas and lengths in the members'
        ``unit``, where the coupling residual's max(1, kappa) is max(1 / unit,
        kappa).

        A lead's minimum is c, and its index is 0 (see
        :func:`classify_edge_index`).  The residuals are those of
        :func:`vertex_condition_residuals`, from the values and outward
        derivatives of psi at the edge ends, relative to the largest value
        (the sup norm of a positive state convex on the edges).
        """
        qE, pE = q * E, p * E
        first, last, b = p + qE, pE + q, qE - p
        # values and outward slopes (derivatives / kappa) at the edge ends
        ends = np.concatenate((first, last, c, b, pE - q, -c), axis=1)
        ends = ends.reshape(len(p), 2, len(self.order)).take(self.order, axis=2)
        vals, sums = ends[:, 0], np.add.reduceat(ends, self.first, 2)
        sup = np.maximum.reduce(np.abs(vals), 1)
        spread = np.maximum.reduceat(vals, self.first, 1) - np.minimum.reduceat(vals, self.first, 1)
        mismatch = np.abs(kappa[:, None] * sums[:, 1] - alphas * (sums[:, 0] / self.degree))
        edges = _edge_minima(p, q, qE, pE, np.minimum(first, last), kappa[:, None] * lengths)
        return (_shape_indices(*_edge_shapes(p, q, E, first, b)),
                np.minimum.reduce(np.concatenate((edges, c), axis=1), 1),
                np.maximum.reduce(spread, 1) / sup,
                np.maximum.reduce(mismatch, 1) / (sup * np.maximum(1.0 / unit, kappa)))


def _reduced(a, W, order):
    """Schur complement S of M = diag(a + W 1) - W on the vertices not in
    ``order``, eliminating those in order, members in rows, with the kept
    vertices (None without an order), the steps that recover the others and
    the positions of the members whose pivots are all positive (None when
    that is every member); a and W are overwritten.

    Eliminating v with pivot p = a_v + sum_j w_vj adds w_vi a_v / p to a_i
    and w_vi w_vj / p to w_ij: sums of like-signed terms, with no
    cancellation against a large pivot.  A pivot that is not positive proves
    that M is not positive definite, so mu0(M) < 0: that member is left out
    of S, the steps and the positions.  Otherwise S has the inertia of M
    (Haynsworth), so mu0(S) has the sign of mu0(M) and the same one root.
    """
    if not order:
        return _assemble(a, W), None, [], None
    steps, members, alive = [], len(a), np.arange(len(a))
    diagonal = np.arange(a.shape[1])
    for v in order:
        wv = W[:, v].copy()
        p = a[:, v] + wv.sum(axis=1)
        ok = p > 0.0
        if not ok.all():
            a, W, wv, p, alive = a[ok], W[ok], wv[ok], p[ok], alive[ok]
            steps = [(u, wu[ok], au[ok], pu[ok]) for u, wu, au, pu in steps]
        a += wv * (a[:, v] / p)[:, None]
        W += wv[:, :, None] * wv[:, None, :] / p[:, None, None]
        W[:, v, :] = W[:, :, v] = 0.0
        W[:, diagonal, diagonal] = 0.0
        steps.append((v, wv, a[:, v].copy(), p))
    kept = np.delete(diagonal, order)
    return (_assemble(a[:, kept], W[:, kept][:, :, kept]), kept, steps,
            None if len(alive) == members else alive)


def _assemble(a: np.ndarray, W: np.ndarray) -> np.ndarray:
    """diag(a + W 1) - W, overwriting W (whose diagonal is zero); a leading
    member axis is kept."""
    W *= -1.0
    diagonal = np.arange(a.shape[-1])
    W[..., diagonal, diagonal] = a - np.add.reduce(W, -1)
    return W


def vertex_matrix(graph: MetricGraph, kappa: float) -> np.ndarray:
    """Vertex-reduced Dirichlet-to-Neumann matrix M(kappa), vertices in
    input order.

    M f = 0 exactly when the vertex values f extend, edge by edge, to a
    solution of -psi'' = -kappa**2 psi that meets every vertex condition.
    With E = exp(-kappa l) and 1 - E**2 written as -expm1(-2 kappa l), an
    edge of length l adds kappa (1 + E**2) / (1 - E**2) to both of its
    vertices' diagonal entries and -2 kappa E / (1 - E**2) to the entry
    joining them; a lead adds kappa to its vertex's diagonal entry, and
    parallel edges add up; it is assembled as diag(a + W 1) - W (see
    :meth:`_Topology.parts`).  dM/dkappa is positive definite, so every
    eigenvalue increases with kappa.  The graph is not validated: the
    alphas are used as given.
    """
    a, W, _, _ = _Topology(graph).parts(np.array([float(kappa)]), *parameters(graph))
    return _assemble(a, W)[0]


def _shape_indices(diff, big):
    """Sign of diff = |a| - |b|, or 0 where it is within _EPSILON_IDX of
    big = max(|a|, |b|)."""
    return np.where(np.abs(diff) <= _EPSILON_IDX * big, 0, np.where(diff > 0, 1, -1))


def _edge_shapes(p, q, E, a, b):
    """(diff, big) of each finite edge for :func:`_shape_indices`, from a =
    p + q E and b = q E - p.

    The comparison |a| vs |b| is done through the identity |a|**2 - |b|**2 =
    4 p q E, which avoids the cancellation in a and b when kappa l is large.
    """
    fa, fb = np.abs(a), np.abs(b)
    # fa + fb = 0 only where p = q E = 0, and then diff = 0
    return 4.0 * p * q * E / np.maximum(fa + fb, _TINY), np.maximum(fa, fb)


def _edge_minima(p, q, qE, pE, ends, kl):
    """Exact minimum of psi = p exp(-kappa x) + q exp(-kappa (l - x)) on
    each finite edge, from qE = q E, pE = p E (E = exp(-kappa l)), the
    smaller end value ``ends`` and kl = kappa l.

    The critical point x* = (l + ln(p/q) / kappa) / 2 of psi lies inside
    the edge where p > q E and q > p E, which also make p, q > 0 and psi
    convex; the minimum there is 2 sqrt(p q) exp(-kappa l / 2), written
    without E, which underflows long before its square root does.
    Elsewhere psi is monotone on the edge and the minimum is the smaller
    end value.  With x* at an end, rounding can put the closed form an ulp
    above that end's value, so the smaller of the two is returned.
    """
    dip = 2.0 * np.sqrt(np.maximum(p, 0.0)) * np.sqrt(np.maximum(q, 0.0)) * np.exp(-0.5 * kl)
    return np.where((p > qE) & (q > pE), np.minimum(ends, dip), ends)


def classify_edge_index(solution: EdgeSolution) -> int:
    """Shape index of one edge component (see :func:`_edge_shapes`): +1
    cosh-like, -1 sinh-like, 0 within relative _EPSILON_IDX and on leads; a
    zero component raises ValueError."""
    if solution.kind == "infinite":
        diff, big = 0.0, abs(solution.c)
    else:
        p, q = np.array(solution.p), np.array(solution.q)
        E = np.exp(-np.array(solution.kappa * solution.length))
        diff, big = _edge_shapes(p, q, E, p + q * E, q * E - p)
    if big == 0.0:
        raise ValueError("zero solution on edge cannot be classified")
    return int(_shape_indices(diff, big))


def vertex_condition_residuals(
    graph: MetricGraph, solutions: Sequence[EdgeSolution]
) -> tuple[float, float]:
    """Max continuity and coupling residuals, relative to the state's scale.

    For a positive convex-on-edges state the sup norm is attained at a
    vertex, so the vertex values set the scale; the coupling residual is
    additionally scaled by max(1, kappa) since derivative terms grow with
    kappa.
    """
    kappa = np.array([solutions[0].kappa])
    by_id = {s.edge_id: s for s in solutions}
    p, q = (np.array([[getattr(by_id[e.id], x) for e in graph.finite_edges]]) for x in "pq")
    c = np.array([[by_id[e.id].c for e in graph.infinite_edges]])
    if not (p.any() or q.any() or c.any()):  # no scale
        return math.inf, math.inf
    alphas, lengths = parameters(graph)
    E = np.exp(kappa[:, None] * -lengths)
    _, _, cont, coup = _Topology(graph).audit(kappa, alphas, lengths, p, q, c, E)
    return float(cont[0]), float(coup[0])


def _positive_tail(matrix: np.ndarray, mu0: float, f: np.ndarray) -> np.ndarray:
    """The Perron vector f of M with its small components recomputed.

    ``eigh`` resolves components only to about eps * max|f| and can deflate
    an exponentially small one to exactly 0.  The rows S of M f = mu0 f with
    f_S <= sqrt(eps) * max f give (M_SS - mu0 I) f_S = -M_SL f_L from the
    large components L.  M is an irreducible Z-matrix and mu0 its simple
    smallest eigenvalue, so M_SS - mu0 I is a nonsingular M-matrix: its
    inverse and -M_SL are nonnegative, and f_S comes out positive to working
    accuracy, however far down an exponential tail it lies.  The caller
    passes only an f with such a component.
    """
    small = f <= math.sqrt(_EPS) * f.max()
    f = f.copy()
    block = matrix[np.ix_(small, small)]
    block.flat[:: len(block) + 1] -= mu0
    f[small] = np.linalg.solve(block, -matrix[np.ix_(small, ~small)] @ f[~small])
    return f


def _states(topo: _Topology, kappa, alphas, lengths, roots, order, unit) -> list:
    """States at the certified roots of mu0, members in rows: from the
    vector of mu0, the smallest eigenvalue of the reduced M(kappa), with
    shape indices, simplicity gap, exact minimum and vertex residuals, from
    kappa, alphas and lengths in each member's ``unit``; the state is
    normalized in the caller's units.

    The gap is mu1 / max(|mu0|, tau), with tau = n * eps * (||S|| +
    max|alpha| + kappa * max degree) the rounding of an eigenvalue: Weyl's
    bound for the eigensolver plus the rounding of summing an entry's terms,
    which can cancel (two wells alpha = -2 at distance 400 give entries of
    4e-174 at kappa = 1).  The bracket mu0(lo) <= 0 <= mu0(hi) makes kappa
    a root of mu0, never an excited root, so the vector of mu0 is positive
    (Perron-Frobenius), and a zero in it is underflow.

    Returns per member (p, q, c, indices, continuity, coupling, gap,
    minimum), or the DegenerateRoot or PositivityViolation it raises.
    """
    out: list = [None] * len(kappa)
    a, W, E, den = topo.parts(kappa, alphas, lengths)
    S, kept, steps, alive = _reduced(a, W, order)
    rows = range(len(kappa))
    if alive is not None:
        for i in np.setdiff1d(rows, alive).tolist():
            out[i] = PositivityViolation(
                f"M is not positive semidefinite at kappa={float(kappa[i] * unit[i])!r}: "
                "kappa lies below the ground-state root"
            )
        kappa, alphas, lengths, E, den, unit = (
            x[alive] for x in (kappa, alphas, lengths, E, den, unit))
        rows = alive.tolist()
    with np.errstate(invalid="ignore"):  # see _eigh
        w, vecs = _eigh(S)
    aw = np.abs(w)
    gap = np.full(len(rows), math.inf)
    if w.shape[1] > 1:
        tau = w.shape[1] * _EPS * (aw[:, -1] + (np.maximum.reduce(np.abs(alphas), 1)
                                                + kappa * topo.max_degree))
        gap = aw[:, 1] / np.maximum(aw[:, 0], tau)  # tau > 0: kappa**2 is normal in the unit
    at = np.arange(len(rows))
    fk = vecs[:, :, 0].copy()
    fk *= np.sign(fk[at, np.argmax(np.abs(fk), axis=1)])[:, None]
    small = np.minimum.reduce(fk, 1) <= math.sqrt(_EPS) * np.maximum.reduce(fk, 1)
    for i in np.flatnonzero(small).tolist():
        if gap[i] >= _GAP_MIN:
            fk[i] = _positive_tail(S[i], float(w[i, 0]), fk[i])
    p, q, c, mass = topo.profiles(kappa, lengths, E, den, fk, kept, steps, roots)
    scale = (np.sqrt(mass) / np.sqrt(unit))[:, None]  # the mass is unit times the caller's
    p, q, c = p / scale, q / scale, c / scale
    indices, minimum, cont, coup = topo.audit(kappa, alphas, lengths, p, q, c, E, unit)
    leads = (0,) * c.shape[1]
    for i, r, index, cont_i, coup_i, gap_i, min_i in zip(
            range(len(rows)), rows, indices.tolist(), cont.tolist(), coup.tolist(),
            gap.tolist(), minimum.tolist()):
        if not gap_i >= _GAP_MIN:
            out[r] = DegenerateRoot(
                f"nullspace not simple at kappa={float(kappa[i] * unit[i])!r}: "
                f"eigenvalue gap {gap_i:.3g} < {_GAP_MIN:.0e}")
        elif not min_i > 0.0:
            kl = float(kappa[i]) * max(lengths[i].tolist(), default=0.0)
            out[r] = PositivityViolation(
                f"state is not strictly positive (min {min_i:.3g}); "
                f"it underflows: exp(-kappa0 l) leaves the double range beyond kappa0 l "
                f"~ 745, and the longest edge has kappa0 l = {kl:.4g}")
        else:
            out[r] = (p[i], q[i], c[i], tuple(index) + leads, cont_i, coup_i, gap_i, min_i)
    return out


class _State(NamedTuple):
    """One member's ground state (see :func:`_ground_states`); the fields
    after ``indices`` are those of :class:`Diagnostics`, in its order."""

    kappa0: float
    p: np.ndarray
    q: np.ndarray
    c: np.ndarray
    indices: tuple[int, ...]
    continuity_residual: float
    coupling_residual: float
    nullspace_gap: float
    min_sampled: float
    bracket: tuple[float, float]
    indicator_evaluations: int


def _sums(x: np.ndarray) -> np.ndarray:
    """Row sums from 0, left to right (np.add.reduce pairs the terms)."""
    return np.add.accumulate(x, axis=1)[:, -1] if x.shape[1] else np.zeros(len(x))


def _newton_round(topo: _Topology, S, f, kappa, lengths, E, den, kept, steps, roots):
    """One Newton round of the graph route on S, the reduced M(kappa) of
    :func:`_reduced`, members in rows, with E and den from
    :meth:`_Topology.parts`: (value, slope, next), value and slope in s =
    kappa**2 those of an upper bound of mu0 times one positive factor per
    member (see :func:`rootscan.increasing_root`), and next >= 0 each
    member's ``f`` for its next round; ``f`` is None in the first round.

    y = S^-1 f has the Rayleigh quotient rho = y^T S y / y^T y = y^T f / y^T y
    with the slope mass(y) / y^T y in s (:meth:`_Topology.profiles`).  For a
    fixed y, y^T S(s) y is concave and increasing in s and at least mu0(s)
    y^T y, so the Newton step on rho lands at or below kappa0**2 from any
    kappa.  S is an irreducible Z-matrix and f >= 0, f != 0: y < 0 gives y^T
    S y = y^T f < 0, so mu0 < 0; y > 0 with S y = f >= 0 makes S a
    nonsingular M-matrix, so mu0 > 0 (Haynsworth carries both signs to M).
    Near the root mu0 is by far the eigenvalue nearest 0, so y is the Perron
    vector to working precision (inverse iteration) and rho is mu0 to second
    order.  A y with both signs, or NaN (S singular), proves nothing: such a
    member, like every member in its first round, takes mu0 and its
    Hellmann-Feynman slope from eigh and keeps the absolute value of its
    vector.  Otherwise u = y / sum(y) > 0 is kept, the value is u^T f /
    sum(y) and the slope mass(u): rho and its slope times y^T y / sum(y)**2.
    """
    if f is None:
        w, vecs = _eigh(S)
        v = vecs[:, :, 0]
        return w[:, 0], topo.profiles(kappa, lengths, E, den, v, kept, steps, roots)[3], np.abs(v)
    u = _solve(S, f)
    t = np.add.reduce(u, 1)
    u /= t[:, None]
    mu = np.add.reduce(u * f, 1)
    mu /= t
    if np.minimum.reduce(u, None, initial=math.inf) > 0.0:  # every y one-signed
        return mu, topo.profiles(kappa, lengths, E, den, u, kept, steps, roots)[3], u
    bad = ~(np.minimum.reduce(u, 1) > 0.0)  # both signs or NaN
    w, vecs = _eigh(S[bad])
    mu[bad], u[bad] = w[:, 0], vecs[:, :, 0]
    slope = topo.profiles(kappa, lengths, E, den, u, kept, steps, roots)[3]
    return mu, slope, np.abs(u, out=u)


def _ground_states(graph: MetricGraph, alphas: np.ndarray, lengths: np.ndarray,
                   options: SolverOptions | None = None) -> list:
    """Ground states of a family of graphs with the layout of ``graph``: member
    i has the alphas ``alphas[i]`` and the finite-edge lengths ``lengths[i]``,
    float arrays (members, vertices) and (members, finite edges).

    Each member gets the :class:`_State` that :func:`find_ground_state`
    computes for it alone, bit for bit, or the exception it raises there:
    InvalidGraphError with the report of :func:`graph.validate` for every
    member when the layout fails :func:`graph.topology_ok`, and for a
    member that breaks an alpha or length rule (its report written from its
    values as Python floats), NoBoundState (also before any matrix when it
    does not fit its :func:`rootscan.unit`), DegenerateRoot or
    PositivityViolation.

    The set-up takes array operations over the batch: the rules, the start
    bound (sums left to right), the unit, the scaling and
    :func:`rootscan.fits`.  Members that eliminate the same short-edge
    clusters form a group, and :func:`rootscan.increasing_roots` solves a
    group: each round builds the pending members' matrices with one
    bincount, solves them with one stacked linear solve (:func:`_newton_round`;
    eigh in a member's first round and where the solve proves nothing) and
    takes one array step.  Each member's vector for the next round is kept
    per group, in its reduced order.
    """
    if not topology_ok(graph):  # every member fails as the graph does
        return [InvalidGraphError(validate(graph))] * len(alphas)
    opts = options or SolverOptions()
    if opts.kappa_max is not None and not (math.isfinite(opts.kappa_max) and opts.kappa_max > 0):
        raise ValueError(f"kappa_max must be positive and finite, got {opts.kappa_max!r}")
    results: list = [None] * len(alphas)
    n = alphas.shape[1]
    with np.errstate(all="ignore"):  # a value that is not finite fails the checks below
        shortest = np.minimum.reduce(lengths, 1, initial=math.inf)
        # mu0 <= 0 at the constant-trial bound (see find_ground_state)
        lo = constant_trial_bound(_sums(lengths), len(graph.infinite_edges), _sums(alphas))
        # each member in its unit: alpha / sigma and l sigma give kappa / sigma
        sigma = unit(lo, shortest)
        scaled = np.concatenate((alphas / sigma[:, None], lengths * sigma[:, None]), axis=1)
        # a member that breaks an alpha or length rule is not plain: a value
        # that is not finite, or no alpha < 0, spoils lo and so the fit; an
        # alpha > 0 fails the sign; a length <= 0 looks short.  Some alpha
        # must stay < 0 in the unit too.  The members that are not plain are
        # sorted out one by one below.
        fit = (fits(lo / sigma, scaled) & (np.maximum.reduce(alphas, 1) <= 0.0)
               & (np.minimum.reduce(scaled[:, :n], 1) < 0.0))
        plain = fit & (lo * shortest >= _SHORT_KL)  # no short edge to eliminate
    topo = _Topology(graph, len(alphas))
    groups: dict = {}  # cluster roots (None without clusters) -> (roots, order, members)
    if plain.all():
        groups[None] = (None, [], slice(None))
    else:
        for i in np.flatnonzero(~plain).tolist():
            problems = parameter_problems(graph, alphas[i, None].tolist(),
                                          lengths[i, None].tolist())[0]
            if problems:
                results[i] = InvalidGraphError(ValidationReport(problems))
            elif not fit[i]:
                results[i] = NoBoundState(OUT_OF_RANGE.format(float(lo[i])))
            else:
                roots, order = topo.clusters(lo[i] * lengths[i])
                groups.setdefault(tuple(roots.tolist()), (roots, order, []))[2].append(i)
        if plain.any():
            groups[None] = (None, [], np.flatnonzero(plain))

    for roots, order, group in groups.values():
        units, rows = sigma[group], scaled[group]
        alphas, lengths = rows[:, :n], rows[:, n:]
        built = []  # the members of each matrix M(kappa) built
        # each member's vector for its next round on the reduced M(kappa)
        # (see _newton_round), NaN until such a round sets it
        store = np.full((len(units), n - len(order)), math.nan)

        def values(batch, kappa):
            first = not built
            built.append(batch)
            A, L = alphas, lengths
            if len(batch) < len(L):
                A, L = A.take(batch, axis=0), L.take(batch, axis=0)
            a, W, E, den = topo.parts(kappa, A, L)
            S, kept, steps, alive = _reduced(a, W, order)
            at, on = (batch, (kappa, L, E, den)) if alive is None else (
                batch[alive], (x[alive] for x in (kappa, L, E, den)))
            mu, slope, store[at] = _newton_round(topo, S, None if first else store.take(at, axis=0),
                                                 *on, kept, steps, roots)
            if alive is None:
                return mu, slope
            # a pivot <= 0 proves kappa < kappa0: those members step on M
            # itself, with eigh, and keep their stored vectors
            rest = np.delete(np.arange(len(batch)), alive)
            built.append(batch[rest])
            a, W, E, den = topo.parts(kappa[rest], A[rest], L[rest])
            both = np.empty((2, len(batch)))
            both[:, alive] = mu, slope
            both[:, rest] = _newton_round(topo, _assemble(a, W), None, kappa[rest], L[rest], E, den,
                                          None, [], roots)[:2]
            return both[0], both[1]

        found = increasing_roots(values, lo[group], opts.tol_kappa, NoBoundState,
                                 units=units, ceiling=opts.kappa_max or math.inf)
        sel = [i for i, outcome in enumerate(found) if isinstance(outcome, tuple)]
        if sel:
            evaluations = np.bincount(np.concatenate(built), minlength=len(found)).tolist()
            if len(sel) < len(found):
                units, alphas, lengths = units[sel], alphas[sel], lengths[sel]
            kappa0 = np.array([found[i][0] for i in sel]) / units
            states = _states(topo, kappa0, alphas, lengths, roots, order, units)
            for i, state in zip(sel, states):
                root, lo_i, hi = found[i]
                found[i] = (state if isinstance(state, Exception)
                            else _State(root, *state, (lo_i, hi), evaluations[i] + 1))
        for j, outcome in zip(np.arange(len(results))[group].tolist(), found):
            results[j] = outcome
    return results


def find_ground_state(graph: MetricGraph, options: SolverOptions | None = None) -> GroundState:
    """Ground state: the one root kappa0 of mu0(kappa), the smallest
    eigenvalue of the vertex-reduced matrix M(kappa); then the state,
    its shape indices and its certificate.

    M'(kappa) is positive definite, so mu0 increases and has exactly one
    root, and M_uv <= 0 makes its vector f positive (Perron-Frobenius).
    f^T M f is a minimum of functions affine in s = kappa**2, so mu0 is
    concave in s: :func:`rootscan.increasing_root` runs Newton's method in s
    from :func:`rootscan.constant_trial_bound` lo, where mu0 <= 0, in the
    unit of lo (see :func:`_ground_states` and :func:`rootscan.unit`).  The
    first round steps on mu0 from eigh with the Hellmann-Feynman slope
    ||psi||**2 / ||f||**2, psi the state with vertex values f; each later
    round on the Rayleigh quotient of y = M^-1 f, f the vector of the round
    before, an upper bound of mu0 with its sign where y is one-signed (see
    :func:`_newton_round`).  Vertices joined by edges with lo * l < 1e-3
    are eliminated first (see :func:`_reduced`); the Schur complement keeps
    the sign, the root and the concavity of mu0, and where a pivot is not
    positive (kappa < kappa0) the step is taken on M itself.  ``kappa_max``
    is a hard ceiling: NoBoundState when an iterate passes it.  The graph is
    a batch of one for :func:`_ground_states`.
    """
    state = _ground_states(graph, *parameters(graph), options)[0]
    if isinstance(state, InvalidGraphError):  # its report shows the values as given
        raise InvalidGraphError(validate(graph))
    if isinstance(state, Exception):
        raise state
    kappa0 = state.kappa0
    sols = [EdgeSolution.finite(e.id, kappa0, e.length, pe, qe)
            for e, pe, qe in zip(graph.finite_edges, state.p.tolist(), state.q.tolist())]
    sols += [EdgeSolution.infinite(e.id, kappa0, ce)
             for e, ce in zip(graph.infinite_edges, state.c.tolist())]
    return GroundState(kappa0, -kappa0 * kappa0, tuple(sols), state.indices,
                       Diagnostics(*state[5:]))
