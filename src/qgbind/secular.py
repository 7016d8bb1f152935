"""Secular system for negative-energy bound states on a metric graph.

Energies are written lambda = -kappa**2 with kappa > 0.  On a finite edge of
length l the solution is stored in the overflow-safe exponential basis

    psi(x) = p * exp(-kappa x) + q * exp(-kappa (l - x)),

equivalent to a*cosh(kappa x) + b*sinh(kappa x) with a = p + q*E and
b = q*E - p, E = exp(-kappa l).  Both exponents are nonpositive on the edge,
so entries stay finite for arbitrarily large kappa*l.  On a lead the
square-integrable solution is c * exp(-kappa x).

The matching conditions at a vertex of degree n are continuity (n - 1 rows)
plus the coupling row sum(outward derivatives) = alpha * psi(vertex), giving
a square system of size D = 2 * #finite + #leads.  kappa is an eigenvalue
root exactly when the system is singular.

The solver works on the smaller vertex-reduced matrix M(kappa) instead (see
:func:`vertex_matrix`): the ground state is the one root of its increasing
smallest eigenvalue, and the D x D system stays as independent evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .graph import MetricGraph, require_valid, vertex_incidences
from .rootscan import increasing_root
# stubs that raise, unused here; perfbench/tracer.py wraps them until ROADMAP item 1
from .rootscan import bisect_sign, probe_geometric, scan_down  # noqa: F401

NULLSPACE_GAP_MIN = 1e6
_EPS = float(np.finfo(float).eps)


class NoBoundState(RuntimeError):
    """No negative-energy state was found; for admissible graphs this
    signals a numerics problem, not physics."""


class DegenerateRoot(RuntimeError):
    """The numerical nullspace at the converged root is not one-dimensional."""


class PositivityViolation(RuntimeError):
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
class SecularMatrix:
    """Dense secular matrix at one kappa, with row/column labels.

    Row labels are ('continuity', vertex_id, k) or ('coupling', vertex_id);
    column labels are ('p'|'q', edge_id) or ('lead', edge_id).
    """

    kappa: float
    entries: np.ndarray
    row_labels: tuple[tuple, ...]
    col_labels: tuple[tuple, ...]


@dataclass(frozen=True)
class EdgeSolution:
    """Bound-state component on one edge at fixed kappa.

    Finite edges carry (p, q) in the exponential basis; ``coefficients``
    exposes the equivalent (a, b) of a*cosh + b*sinh.  Leads carry the tail
    amplitude c.
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

    @property
    def coefficients(self) -> tuple[float, ...]:
        if self.kind == "finite":
            return (self.a, self.b)
        return (self.c,)

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

    def _integrals(self, x0: float, x1: float | None) -> tuple[float, float]:
        """S = 2 kappa int(u**2 + w**2) and C = int 2 u w over [x0, x1], with
        psi = u + w split into its two exponentials (u' = -kappa u,
        w' = kappa w, u w constant)."""
        k = self.kappa
        if self.kind == "infinite":
            hi = 0.0 if x1 is None else math.exp(-2 * k * x1)
            return self.c**2 * (math.exp(-2 * k * x0) - hi), 0.0
        x1 = self.length if x1 is None else x1
        sq = (self.p**2 * (math.exp(-2 * k * x0) - math.exp(-2 * k * x1))
              + self.q**2 * (math.exp(-2 * k * (self.length - x1))
                             - math.exp(-2 * k * (self.length - x0))))
        cross = 2 * self.p * self.q * math.exp(-k * self.length) * (x1 - x0)
        return sq, cross

    def l2_mass(self, x0: float = 0.0, x1: float | None = None) -> float:
        """Integral of psi**2 over [x0, x1] (whole edge by default)."""
        sq, cross = self._integrals(x0, x1)
        return sq / (2 * self.kappa) + cross

    def dirichlet_energy(self, x0: float = 0.0, x1: float | None = None) -> float:
        """Integral of psi'(x)**2 over [x0, x1] (whole edge by default)."""
        sq, cross = self._integrals(x0, x1)
        return sq * self.kappa / 2 - cross * self.kappa**2

    def minimum(self) -> float:
        """Exact minimum of psi on the edge.

        On a lead this is c, the vertex value: c*exp(-kappa x) keeps the
        sign of c and decays to 0.  On a finite edge with p, q > 0 psi is
        convex with its critical point at x* = (l + ln(p/q)/kappa) / 2; when
        x* lies inside the edge the minimum is 2*sqrt(p q)*exp(-kappa l / 2),
        written without exp(-kappa l), which underflows long before its
        square root does.  Otherwise psi is monotone on the edge and the
        minimum is the smaller endpoint value.  With x* at an end, rounding
        can put the closed form an ulp above that end's value, so the smaller
        of the two is returned.
        """
        if self.kind == "infinite":
            return self.c
        ends = float(np.min(self.value([0.0, self.length])))
        p, q, kl = self.p, self.q, self.kappa * self.length
        if p > 0 and q > 0 and abs(math.log(p) - math.log(q)) < kl:
            return min(ends, 2.0 * math.sqrt(p) * math.sqrt(q) * math.exp(-kl / 2))
        return ends

    def scaled(self, factor: float) -> "EdgeSolution":
        if self.kind == "finite":
            return replace(self, p=self.p * factor, q=self.q * factor)
        return replace(self, c=self.c * factor)


@dataclass(frozen=True)
class Diagnostics:
    """What a solve did and the certificate of its state.

    ``bracket`` = (lo, hi) holds the root, mu0(lo) <= 0 <= mu0(hi) for the
    smallest eigenvalue mu0 of M(kappa): the last Newton iterate below the
    root and the certificate point (see :func:`rootscan.increasing_root`).
    ``nullspace_gap`` is mu1 / max(|mu0|, tau) at kappa0, tau the rounding
    of an eigenvalue (see :func:`_reconstruct`): large when the zero
    eigenvalue is simple.  ``min_sampled`` is the
    exact minimum of the normalized state.  ``indicator_evaluations``
    counts the matrices M(kappa) built; ``dips`` is always empty (the
    descending scan that reported them is gone; perfbench/tracer.py reads
    its length until ROADMAP item 1).
    """

    continuity_residual: float
    coupling_residual: float
    nullspace_gap: float
    min_sampled: float  # exact minimum of the state (EdgeSolution.minimum)
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


def _equilibrated_det(stack: np.ndarray) -> np.ndarray:
    """Determinant after scaling each row to unit max-norm.

    Positive row scalings keep the sign and the zeros of det; a row of exact
    zeros means the matrix is singular outright, reported as 0.
    """
    scale = np.abs(stack).max(axis=2)
    singular = (scale == 0.0).any(axis=1)
    safe = np.where(scale == 0.0, 1.0, scale)
    dets = np.linalg.det(stack / safe[:, :, None])
    if singular.any():
        dets = np.where(singular, 0.0, dets)
    return dets


def build_secular_matrix(graph: MetricGraph, kappa: float) -> SecularMatrix:
    """Assemble the matching-condition matrix at one kappa > 0.

    Each edge end contributes (column, value coefficient, outward-derivative
    coefficient) terms: at an edge's start psi = p + E q and the outward
    derivative is -kappa p + kappa E q, at its end the same with p and q
    swapped, and on a lead c and -kappa c.
    """
    require_valid(graph)
    if not (isinstance(kappa, (int, float)) and math.isfinite(kappa) and kappa > 0):
        raise ValueError(f"kappa must be a positive finite number, got {kappa!r}")
    kappa = float(kappa)
    nf = len(graph.finite_edges)
    lengths = np.array([e.length for e in graph.finite_edges], dtype=float)
    E = np.exp(-kappa * lengths).tolist()

    def terms(kind, i):
        if kind == "lead":
            return ((2 * nf + i, 1.0, -kappa),)
        near, far = (2 * i, 2 * i + 1) if kind == "start" else (2 * i + 1, 2 * i)
        return ((near, 1.0, -kappa), (far, E[i], kappa * E[i]))

    D = 2 * nf + len(graph.infinite_edges)
    entries = np.zeros((D, D))
    row_labels: list[tuple] = []
    incidences = vertex_incidences(graph)
    for v in graph.vertices:
        incs = incidences[v.id]
        for t in range(len(incs) - 1):
            row = entries[len(row_labels)]
            for c, value, _ in terms(*incs[t]):
                row[c] += value
            for c, value, _ in terms(*incs[t + 1]):
                row[c] -= value
            row_labels.append(("continuity", v.id, t))
        row = entries[len(row_labels)]
        for inc in incs:
            for c, _, outward in terms(*inc):
                row[c] += outward
        for c, value, _ in terms(*incs[0]):
            row[c] -= v.alpha * value
        row_labels.append(("coupling", v.id))
    col_labels = [(side, e.id) for e in graph.finite_edges for side in ("p", "q")]
    col_labels += [("lead", e.id) for e in graph.infinite_edges]
    return SecularMatrix(kappa, entries, tuple(row_labels), tuple(col_labels))


def singularity_indicator(matrix: SecularMatrix) -> float:
    """Signed scalar vanishing exactly where the secular matrix is singular."""
    return float(_equilibrated_det(matrix.entries[None, :, :])[0])


def _dtn_parts(graph: MetricGraph):
    """(parts, profiles), two functions of kappa on index arrays built once.

    parts(kappa) = (a, W) with M(kappa) = diag(a + W 1) - W (see
    :func:`vertex_matrix`).  coth(x) = tanh(x/2) + csch(x) splits an edge's
    terms: it adds kappa tanh(kappa l / 2) to a at both ends and the weight
    w = kappa csch(kappa l) = 2 kappa E / (1 - E**2) between them; a lead
    adds kappa to a.  So a = alpha + O(kappa) and every w > 0, and a short
    edge's large w never has to cancel against a (see :func:`_reduced`).

    profiles(kappa, fk, kept, steps, roots) = (p, q, c, mass) of the state
    with values fk at the ``kept`` vertices of :func:`_reduced`; the others
    get f_v = sum_j w_vj f_j / p_v in reverse order of ``steps``, through
    delta_v = f_v - f_root = sum_j (w_vj / p_v) (f_j - f_root) - (a_v /
    p_v) f_root.  On an edge from u to v, p = (f_u - E f_v) / (1 - E**2)
    and q = (f_v - E f_u) / (1 - E**2), with f_u - f_v = delta_u - delta_v
    within a cluster of short edges, where plain subtraction would lose
    eps / (kappa l) of the O(kappa l) terms; c = f at a lead's vertex.  The
    L2 mass is (p**2 + q**2)(1 - E**2)/(2 kappa) + 2 p q l E per edge plus
    c**2 / (2 kappa) per lead.
    """
    n = len(graph.vertices)
    ids = {v.id: i for i, v in enumerate(graph.vertices)}
    start = np.array([ids[e.start] for e in graph.finite_edges], dtype=np.intp)
    end = np.array([ids[e.end] for e in graph.finite_edges], dtype=np.intp)
    anchors = np.array([ids[e.anchor] for e in graph.infinite_edges], dtype=np.intp)
    lengths = np.array([e.length for e in graph.finite_edges], dtype=float)
    alphas = np.array([v.alpha for v in graph.vertices], dtype=float)
    leads = np.bincount(anchors, minlength=n).astype(float)
    # W's entries, then a's edge terms, in one accumulation
    index = np.concatenate((start * n + end, end * n + start, n * n + start, n * n + end))

    def parts(kappa: float) -> tuple[np.ndarray, np.ndarray]:
        kl = kappa * lengths
        E = np.exp(-kl)
        g = -np.expm1(-kl)  # 1 - E without cancellation
        w = 2.0 * kappa * E / (g * (1.0 + E))
        half_tanh = kappa * g / (1.0 + E)
        acc = np.bincount(index, np.concatenate((w, w, half_tanh, half_tanh)),
                          minlength=n * n + n).astype(float, copy=False)  # int if no edges
        return alphas + kappa * leads + acc[n * n:], acc[: n * n].reshape(n, n)

    def profiles(kappa: float, fk: np.ndarray, kept, steps, roots: np.ndarray):
        f = fk
        if steps:
            f, delta = np.zeros(n), np.zeros(n)
            f[kept] = fk
            for v, wv, a_v, pivot in reversed(steps):
                r = roots[v]
                from_root = np.where(roots == r, delta, f - f[r])
                delta[v] = (wv @ from_root - a_v * f[r]) / pivot
                f[v] = f[r] + delta[v]
        kl = kappa * lengths
        E = np.exp(-kl)
        den = -np.expm1(-2.0 * kl)  # 1 - E**2
        fu, fv = f[start], f[end]
        p, q = fu - E * fv, fv - E * fu
        if steps:
            same = np.flatnonzero(roots[start] == roots[end])
            d, g = delta[start[same]] - delta[end[same]], -np.expm1(-kl[same])
            p[same], q[same] = d + g * fv[same], g * fu[same] - d
        p /= den
        q /= den
        c = f[anchors]
        mass = ((p * p + q * q) @ den + c @ c) / (2.0 * kappa) + 2.0 * ((p * q) @ (lengths * E))
        return p, q, c, float(mass)

    return parts, profiles


def _short_edge_roots(graph: MetricGraph, kappa: float) -> tuple[np.ndarray, list[int]]:
    """Per vertex, the first vertex of its cluster joined by edges with
    kappa * l < 1e-3, and the list of the other vertices of the clusters,
    which are eliminated before the eigensolve.

    Such an edge's weight ~ 1/l would swamp the O(kappa) terms of M in
    rounding (kappa0 off by 1e-7 relative at l = 1e-9); eliminated, it
    leaves no entry larger than about 1e3 kappa.
    """
    ids = {v.id: i for i, v in enumerate(graph.vertices)}
    root = list(range(len(graph.vertices)))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for e in graph.finite_edges:
        if kappa * e.length < 1e-3:
            u, v = sorted((find(ids[e.start]), find(ids[e.end])))
            root[v] = u
    roots = [find(i) for i in range(len(root))]
    return np.array(roots), [i for i, r in enumerate(roots) if r != i]


def _reduced(a, W, order):
    """Schur complement S of M = diag(a + W 1) - W on the vertices not in
    ``order``, eliminating those in order, with the kept vertices and the
    steps that recover the others; a and W are overwritten.

    Eliminating v with pivot p = a_v + sum_j w_vj adds w_vi a_v / p to a_i
    and w_vi w_vj / p to w_ij: sums of like-signed terms, with no
    cancellation against a large pivot.  Returns None when a pivot is not
    positive: then M is not positive definite, so mu0(M) < 0.  Otherwise S
    has the inertia of M (Haynsworth), so mu0(S) has the sign of mu0(M) and
    the same one root.
    """
    steps = []
    kept = np.arange(len(a))
    if order:
        for v in order:
            wv = W[v].copy()
            p = a[v] + wv.sum()
            if not p > 0.0:
                return None
            a += wv * (a[v] / p)
            W += np.outer(wv, wv) / p
            W[v, :] = W[:, v] = 0.0
            np.fill_diagonal(W, 0.0)
            steps.append((v, wv, a[v], p))
        kept = np.setdiff1d(kept, order)
        a, W = a[kept], W[np.ix_(kept, kept)]
    return _assemble(a, W), kept, steps


def _assemble(a: np.ndarray, W: np.ndarray) -> np.ndarray:
    """diag(a + W 1) - W, overwriting W (whose diagonal is zero)."""
    W *= -1.0
    W.flat[:: len(a) + 1] = a - W.sum(axis=1)
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
    :func:`_dtn_parts`).  dM/dkappa is positive definite, so every
    eigenvalue increases with kappa.  The graph is not validated: the
    alphas are used as given.
    """
    return _assemble(*_dtn_parts(graph)[0](kappa))


def _shape_index(diff: float, big: float, epsilon_idx: float) -> int:
    """Sign of diff = |a| - |b|, or 0 when it is within epsilon_idx of
    big = max(|a|, |b|)."""
    if big == 0.0:
        raise ValueError("zero solution on edge cannot be classified")
    if abs(diff) <= epsilon_idx * big:
        return 0
    return 1 if diff > 0 else -1


def classify_coefficients(a: float, b: float, epsilon_idx: float = 1e-9) -> int:
    """Shape index from cosh/sinh coefficients: +1 cosh-like, -1 sinh-like,
    0 for a pure exponential (|a| and |b| equal to relative epsilon_idx)."""
    fa, fb = abs(a), abs(b)
    return _shape_index(fa - fb, max(fa, fb), epsilon_idx)


def classify_edge_index(solution: EdgeSolution, epsilon_idx: float = 1e-9) -> int:
    """Shape index of one edge component; leads are always 0.

    For finite edges the comparison |a| vs |b| is done through the identity
    |a|**2 - |b|**2 = 4*p*q*exp(-kappa l), which avoids the cancellation in
    a and b when kappa*l is large.
    """
    if solution.kind == "infinite":
        return _shape_index(0.0, abs(solution.c), epsilon_idx)
    fa, fb = abs(solution.a), abs(solution.b)
    diff = 4.0 * solution.p * solution.q * math.exp(-solution.kappa * solution.length)
    return _shape_index(diff / (fa + fb) if fa + fb else 0.0, max(fa, fb), epsilon_idx)


def _vertex_values(graph, values, derivatives=None):
    """Per vertex id: (values, outward derivatives) at the incident edge ends.

    ``values`` and ``derivatives`` map edge ids to callables of the edge
    coordinate; without ``derivatives`` the second list stays empty.
    """
    out: dict[str, tuple[list[float], list[float]]] = {}
    for vid, incs in vertex_incidences(graph).items():
        vals, outd = [], []
        for kind, i in incs:
            e = graph.infinite_edges[i] if kind == "lead" else graph.finite_edges[i]
            x = e.length if kind == "end" else 0.0
            vals.append(float(values[e.id](x)))
            if derivatives is not None:
                outd.append((-1.0 if kind == "end" else 1.0) * float(derivatives[e.id](x)))
        out[vid] = (vals, outd)
    return out


def vertex_condition_residuals(
    graph: MetricGraph, solutions: Sequence[EdgeSolution]
) -> tuple[float, float]:
    """Max continuity and coupling residuals, relative to the state's scale.

    For a positive convex-on-edges state the sup norm is attained at a
    vertex, so the vertex values set the scale; the coupling residual is
    additionally scaled by max(1, kappa) since derivative terms grow with
    kappa.
    """
    kappa = solutions[0].kappa
    per_vertex = _vertex_values(
        graph,
        {s.edge_id: s.value for s in solutions},
        {s.edge_id: s.derivative for s in solutions},
    )
    sup = max(abs(v) for vals, _ in per_vertex.values() for v in vals)
    if sup == 0.0:
        return math.inf, math.inf
    cont = 0.0
    coup = 0.0
    for v in graph.vertices:
        vals, outd = per_vertex[v.id]
        cont = max(cont, (max(vals) - min(vals)) / sup)
        mismatch = abs(sum(outd) - v.alpha * (sum(vals) / len(vals)))
        coup = max(coup, mismatch / (sup * max(1.0, kappa)))
    return cont, coup


def _positive_tail(matrix: np.ndarray, mu0: float, f: np.ndarray) -> np.ndarray:
    """The Perron vector f of M with its small components recomputed.

    ``eigh`` resolves components only to about eps * max|f| and can deflate
    an exponentially small one to exactly 0.  Row i of M f = mu0 f gives
    f_i = sum_j (-M_ij) f_j / (M_ii - mu0); with M_ij <= 0 off the diagonal
    every term is >= 0, so the sum has no cancellation.  Components below
    sqrt(eps) * max f are recomputed from the largest down, so each one sees
    its larger neighbours already done.
    """
    f = f.copy()
    small = np.flatnonzero(f <= math.sqrt(_EPS) * f.max())
    for i in small[np.argsort(-f[small], kind="stable")]:
        den = matrix[i, i] - mu0
        if den > 0.0:
            neighbours = -matrix[i]
            neighbours[i] = 0.0
            f[i] = (neighbours @ f) / den
    return f


def _reconstruct(graph, kappa0, reduced, roots, profiles):
    """State at kappa0 from the eigenvector of the reduced M(kappa0) whose
    eigenvalue is nearest zero, with its simplicity gap and exact minimum.

    At the ground-state root that eigenvalue is mu0 and the gap is
    mu1 / max(|mu0|, tau), with tau = n * eps * (||S|| + max|alpha| +
    kappa * max degree) the rounding of an eigenvalue: Weyl's bound for the
    eigensolver plus the rounding of summing an entry's terms, which can
    cancel (two wells alpha = -2 at distance 400 give entries of 4e-174 at
    kappa = 1).  At an excited root the eigenvalue nearest zero is a higher
    one, whose vector changes sign, so the positivity check refuses it; the
    vector of mu0 is positive, and a zero in it is underflow.
    """
    if reduced is None:
        raise PositivityViolation(
            f"M is not positive semidefinite at kappa={kappa0!r}: "
            "kappa lies below the ground-state root"
        )
    matrix, kept, steps = reduced
    w, vecs = np.linalg.eigh(matrix)
    k = int(np.argmin(np.abs(w)))
    terms = (max(abs(v.alpha) for v in graph.vertices)
             + kappa0 * max(len(incs) for incs in vertex_incidences(graph).values()))
    tau = len(w) * _EPS * (float(np.max(np.abs(w))) + terms)
    others = np.delete(np.abs(w), k)
    gap = (float(others.min() / max(abs(w[k]), tau, np.finfo(float).tiny))
           if others.size else math.inf)
    if gap < NULLSPACE_GAP_MIN:
        raise DegenerateRoot(
            f"nullspace not simple at kappa={kappa0!r}: "
            f"eigenvalue gap {gap:.3g} < {NULLSPACE_GAP_MIN:.0e}"
        )
    fk = vecs[:, k]
    if fk[np.argmax(np.abs(fk))] < 0:
        fk = -fk
    if k == 0:
        fk = _positive_tail(matrix, float(w[0]), fk)
    p, q, c, mass = profiles(kappa0, fk, kept, steps, roots)
    p, q, c = ((x / math.sqrt(mass)).tolist() for x in (p, q, c))
    sols = [EdgeSolution.finite(e.id, kappa0, e.length, pe, qe)
            for e, pe, qe in zip(graph.finite_edges, p, q)]
    sols += [EdgeSolution.infinite(e.id, kappa0, ce) for e, ce in zip(graph.infinite_edges, c)]

    min_value = min(s.minimum() for s in sols)
    if not min_value > 0.0:
        kl = kappa0 * max((e.length for e in graph.finite_edges), default=0.0)
        why = (f"it underflows: exp(-kappa0 l) leaves the double range beyond kappa0 l "
               f"~ 745, and the longest edge has kappa0 l = {kl:.4g}" if k == 0
               else "kappa may be an excited root")
        raise PositivityViolation(f"state is not strictly positive (min {min_value:.3g}); {why}")
    return tuple(sols), gap, float(min_value)


def reconstruct_eigenfunction(graph: MetricGraph, kappa0: float) -> list[EdgeSolution]:
    """Normalized positive eigenfunction at a converged root kappa0.

    The state is built from the eigenvector of M(kappa0) whose eigenvalue is
    nearest zero.  Raises DegenerateRoot when that eigenvalue is not
    separated from the rest (kappa0 is no simple root) and
    PositivityViolation when the state changes sign (kappa0 is an excited
    root).
    """
    require_valid(graph)
    if not kappa0 > 0:
        raise ValueError("kappa0 must be positive")
    kappa0 = float(kappa0)
    parts, profiles = _dtn_parts(graph)
    roots, order = _short_edge_roots(graph, kappa0)
    reduced = _reduced(*parts(kappa0), order)
    sols, _, _ = _reconstruct(graph, kappa0, reduced, roots, profiles)
    return list(sols)


def find_ground_state(graph: MetricGraph, options: SolverOptions | None = None) -> GroundState:
    """Ground state: the one root kappa0 of mu0(kappa), the smallest
    eigenvalue of the vertex-reduced matrix M(kappa); then the state,
    its shape indices and its certificate.

    M'(kappa) is positive definite, so mu0 increases and has exactly one
    root, and M_uv <= 0 makes its vector f positive (Perron-Frobenius).
    f^T M f is a minimum of functions affine in s = kappa**2, so mu0 is
    concave in s: :func:`rootscan.increasing_root` runs Newton's method in s
    with the Hellmann-Feynman slope ||psi||**2 / ||f||**2, psi the state
    with vertex values f.  It starts at the positive root lo of L kappa**2 +
    N kappa + sum alpha (N leads, L the total edge length): the constant
    trial vector gives 1^T M 1 <= that (2 tanh(x/2) <= x), so mu0(lo) <= 0,
    exact for a single vertex.  Vertices joined by edges with lo * l < 1e-3
    are eliminated first (see :func:`_reduced`); the Schur complement keeps
    the sign, the root and the concavity of mu0, and where a pivot is not
    positive (kappa < kappa0) the step is taken on M itself.  ``kappa_max``
    is a hard ceiling: NoBoundState when an iterate passes it.
    """
    require_valid(graph)
    opts = options or SolverOptions()
    if opts.kappa_max is not None and not (math.isfinite(opts.kappa_max) and opts.kappa_max > 0):
        raise ValueError(f"kappa_max must be positive and finite, got {opts.kappa_max!r}")
    alpha_sum = sum(v.alpha for v in graph.vertices)  # < 0 on a valid graph
    n_leads = len(graph.infinite_edges)
    total = sum(e.length for e in graph.finite_edges)
    lo = -2.0 * alpha_sum / (n_leads + math.sqrt(n_leads * n_leads - 4.0 * total * alpha_sum))
    parts, profiles = _dtn_parts(graph)
    roots, order = _short_edge_roots(graph, lo)
    evals = 0

    def reduced(kappa: float, order=order):
        nonlocal evals
        evals += 1
        return _reduced(*parts(kappa), order)

    def mu0_slope(kappa: float) -> tuple[float, float]:
        # None from _reduced: a pivot <= 0 proves kappa < kappa0; step on M itself
        matrix, kept, steps = reduced(kappa) or reduced(kappa, [])
        w, vecs = np.linalg.eigh(matrix)
        return float(w[0]), profiles(kappa, vecs[:, 0], kept, steps, roots)[3]

    kappa0, lo, hi = increasing_root(mu0_slope, lo, opts.tol_kappa, NoBoundState,
                                     ceiling=opts.kappa_max or math.inf)
    sols, gap, min_sampled = _reconstruct(graph, kappa0, reduced(kappa0), roots, profiles)
    indices = tuple(classify_edge_index(s) for s in sols)
    cont, coup = vertex_condition_residuals(graph, sols)
    diag = Diagnostics(
        continuity_residual=cont,
        coupling_residual=coup,
        nullspace_gap=gap,
        min_sampled=min_sampled,
        bracket=(lo, hi),
        indicator_evaluations=evals,
    )
    return GroundState(kappa0, -kappa0 * kappa0, sols, indices, diag)
