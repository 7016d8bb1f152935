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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .graph import MetricGraph, require_valid, vertex_incidences
from .rootscan import (
    DipReport, ScanOutcome, bisect_sign, in_chunks, probe_geometric, scan_down,
)

NULLSPACE_GAP_MIN = 1e6
# largest kappa grid find_ground_state lets scan_down build (2**24 float64
# values are 128 MiB); a higher ceiling raises NoBoundState instead
MAX_SCAN_POINTS = 2**24


class NoBoundState(RuntimeError):
    """No negative-energy state was found; for admissible graphs this
    signals a numerics problem, not physics."""


class DegenerateRoot(RuntimeError):
    """The numerical nullspace at the converged root is not one-dimensional."""


class PositivityViolation(RuntimeError):
    """The reconstructed state is not strictly positive (wrong root)."""


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for :func:`find_ground_state`; defaults match the desk scale."""

    tol_kappa: float = 1e-12
    kappa_max: float | None = None
    max_doublings: int = 24


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
    continuity_residual: float
    coupling_residual: float
    nullspace_gap: float
    min_sampled: float  # exact minimum of the state (EdgeSolution.minimum)
    bracket: tuple[float, float]
    kappa_max_used: float
    indicator_evaluations: int
    dips: tuple[DipReport, ...]


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


class _Structure:
    """Index maps and kappa-independent entry coefficients for one graph.

    Every matrix entry has the form u + v*kappa + (w + z*kappa)*E_e with
    E_e = exp(-kappa * length of the column's own edge), so a whole kappa
    grid is assembled with a handful of vectorized operations.
    """

    def __init__(self, graph: MetricGraph):
        self.graph = graph
        self.nf = len(graph.finite_edges)
        self.nl = len(graph.infinite_edges)
        self.D = 2 * self.nf + self.nl
        self.lengths = np.array([e.length for e in graph.finite_edges])
        self.col_labels: list[tuple] = []
        for e in graph.finite_edges:
            self.col_labels += [("p", e.id), ("q", e.id)]
        for e in graph.infinite_edges:
            self.col_labels.append(("lead", e.id))
        self.row_labels: list[tuple] = []
        entries: dict[tuple[int, int], list[float]] = {}

        def add(r, c, u=0.0, v=0.0, w=0.0, z=0.0):
            acc = entries.setdefault((r, c), [0.0, 0.0, 0.0, 0.0])
            acc[0] += u
            acc[1] += v
            acc[2] += w
            acc[3] += z

        def value_terms(inc):
            kind, i = inc
            if kind == "start":
                return [(2 * i, 1.0, 0.0, 0.0, 0.0), (2 * i + 1, 0.0, 0.0, 1.0, 0.0)]
            if kind == "end":
                return [(2 * i, 0.0, 0.0, 1.0, 0.0), (2 * i + 1, 1.0, 0.0, 0.0, 0.0)]
            return [(2 * self.nf + i, 1.0, 0.0, 0.0, 0.0)]

        def outward_terms(inc):
            kind, i = inc
            if kind == "start":
                return [(2 * i, 0.0, -1.0, 0.0, 0.0), (2 * i + 1, 0.0, 0.0, 0.0, 1.0)]
            if kind == "end":
                return [(2 * i, 0.0, 0.0, 0.0, 1.0), (2 * i + 1, 0.0, -1.0, 0.0, 0.0)]
            return [(2 * self.nf + i, 0.0, -1.0, 0.0, 0.0)]

        incidences = vertex_incidences(graph)
        row = 0
        for v in graph.vertices:
            incs = incidences[v.id]
            for t in range(len(incs) - 1):
                for c, u, vv, w, z in value_terms(incs[t]):
                    add(row, c, u, vv, w, z)
                for c, u, vv, w, z in value_terms(incs[t + 1]):
                    add(row, c, -u, -vv, -w, -z)
                self.row_labels.append(("continuity", v.id, t))
                row += 1
            for inc in incs:
                for c, u, vv, w, z in outward_terms(inc):
                    add(row, c, u, vv, w, z)
            for c, u, vv, w, z in value_terms(incs[0]):
                add(row, c, -v.alpha * u, -v.alpha * vv, -v.alpha * w, -v.alpha * z)
            self.row_labels.append(("coupling", v.id))
            row += 1
        assert row == self.D, "vertex conditions must give a square system"
        # flat entry tables: position r*D + c in the entry-major buffer, the
        # four coefficients, and the column's edge for entries with an E term
        pos = np.array([r * self.D + c for r, c in entries], dtype=np.intp)
        coef = np.array(list(entries.values()), dtype=float).reshape(-1, 4)
        edge = np.array([c // 2 for _, c in entries], dtype=np.intp)
        has_e = (coef[:, 2] != 0.0) | (coef[:, 3] != 0.0)
        self._plain = (pos[~has_e], coef[~has_e, 0, None], coef[~has_e, 1, None])
        self._exp = (pos[has_e], coef[has_e, 0, None], coef[has_e, 1, None],
                     coef[has_e, 2, None], coef[has_e, 3, None], edge[has_e])

    def assemble(self, kappas: np.ndarray) -> np.ndarray:
        """Matrices at each kappa, shape (m, D, D).

        The result is a view of an entry-major (D*D, m) buffer: each matrix
        entry is one contiguous row over the kappas.
        """
        kappas = np.asarray(kappas, dtype=float)
        m = kappas.shape[0]
        out = np.zeros((self.D * self.D, m))
        pos, u, v = self._plain
        out[pos] = u + v * kappas
        pos, u, v, w, z, edge = self._exp
        if pos.size:
            E = np.exp(-np.outer(self.lengths, kappas))
            out[pos] = (u + v * kappas) + (w + z * kappas) * E[edge]
        return out.reshape(self.D, self.D, m).transpose(2, 0, 1)

    def indicator(self, kappas: np.ndarray) -> np.ndarray:
        """Equilibrated determinant at each kappa, one stack per ~1 MiB chunk."""
        return in_chunks(lambda ks: _equilibrated_det(self.assemble(ks)), kappas, self.D)

    def alpha_sum(self) -> float:
        return float(sum(abs(v.alpha) for v in self.graph.vertices))


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
    """Assemble the matching-condition matrix at one kappa > 0."""
    require_valid(graph)
    if not (isinstance(kappa, (int, float)) and math.isfinite(kappa) and kappa > 0):
        raise ValueError(f"kappa must be a positive finite number, got {kappa!r}")
    st = _Structure(graph)
    entries = st.assemble(np.array([float(kappa)]))[0]
    return SecularMatrix(float(kappa), entries, tuple(st.row_labels), tuple(st.col_labels))


def singularity_indicator(matrix: SecularMatrix) -> float:
    """Signed scalar vanishing exactly where the secular matrix is singular."""
    return float(_equilibrated_det(matrix.entries[None, :, :])[0])


def vertex_matrix(graph: MetricGraph, kappa: float) -> np.ndarray:
    """Vertex-reduced Dirichlet-to-Neumann matrix M(kappa), vertices in
    input order.

    M f = 0 exactly when the vertex values f extend, edge by edge, to a
    solution of -psi'' = -kappa**2 psi that meets every vertex condition.
    With E = exp(-kappa l) and 1 - E**2 written as -expm1(-2 kappa l), an
    edge of length l adds kappa (1 + E**2) / (1 - E**2) to both of its
    vertices' diagonal entries and -2 kappa E / (1 - E**2) to the entry
    joining them; a lead adds kappa to its vertex's diagonal entry, and
    parallel edges add up.  dM/dkappa is positive definite, so every
    eigenvalue increases with kappa.  The graph is not validated: the
    alphas are used as given.
    """
    ids = {v.id: i for i, v in enumerate(graph.vertices)}
    out = np.diag(np.array([v.alpha for v in graph.vertices], dtype=float))
    start = np.array([ids[e.start] for e in graph.finite_edges], dtype=np.intp)
    end = np.array([ids[e.end] for e in graph.finite_edges], dtype=np.intp)
    kl = kappa * np.array([e.length for e in graph.finite_edges], dtype=float)
    E = np.exp(-kl)
    den = -np.expm1(-2.0 * kl)
    diag = kappa * (1.0 + E * E) / den
    off = -2.0 * kappa * E / den
    np.add.at(out, (start, start), diag)
    np.add.at(out, (end, end), diag)
    np.add.at(out, (start, end), off)
    np.add.at(out, (end, start), off)
    anchors = np.array([ids[e.anchor] for e in graph.infinite_edges], dtype=np.intp)
    np.add.at(out, (anchors, anchors), kappa)
    return out


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


def _nullvector(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit right-singular vector of the smallest singular value and the
    nullspace simplicity gap (second-smallest over smallest)."""
    scale = np.abs(matrix).max(axis=1)
    safe = np.where(scale == 0.0, 1.0, scale)
    _, svals, vt = np.linalg.svd(matrix / safe[:, None])
    if len(svals) == 1:
        return vt[-1], math.inf
    if svals[-1] == 0.0:
        return vt[-1], math.inf
    return vt[-1], float(svals[-2] / svals[-1])


def _build_solutions(graph, kappa0, vec):
    sols = []
    nf = len(graph.finite_edges)
    for i, e in enumerate(graph.finite_edges):
        sols.append(EdgeSolution.finite(e.id, kappa0, e.length, float(vec[2 * i]), float(vec[2 * i + 1])))
    for k, e in enumerate(graph.infinite_edges):
        sols.append(EdgeSolution.infinite(e.id, kappa0, float(vec[2 * nf + k])))
    return sols


def _reconstruct(st, kappa0):
    graph = st.graph
    vec, gap = _nullvector(st.assemble(np.array([kappa0]))[0])
    if gap < NULLSPACE_GAP_MIN:
        raise DegenerateRoot(
            f"nullspace not simple at kappa={kappa0!r}: "
            f"singular-value gap {gap:.3g} < {NULLSPACE_GAP_MIN:.0e}"
        )
    sols = _build_solutions(graph, kappa0, vec)

    anchor = min(graph.vertices, key=lambda v: (v.alpha,))
    vals, _ = _vertex_values(graph, {s.edge_id: s.value for s in sols})[anchor.id]
    if vals[0] < 0:
        sols = [s.scaled(-1.0) for s in sols]
    mass = sum(s.l2_mass() for s in sols)
    if mass <= 0:
        raise PositivityViolation("reconstructed state has zero mass")
    sols = [s.scaled(1.0 / math.sqrt(mass)) for s in sols]

    min_value = min(s.minimum() for s in sols)
    if not min_value > 0.0:
        raise PositivityViolation(
            f"state is not strictly positive (min {min_value:.3g}); "
            "kappa may be an excited root"
        )
    return tuple(sols), gap, float(min_value)


def reconstruct_eigenfunction(graph: MetricGraph, kappa0: float) -> list[EdgeSolution]:
    """Normalized positive eigenfunction at a converged root kappa0.

    Raises DegenerateRoot when the numerical nullspace is not simple and
    PositivityViolation when kappa0 is not the ground-state root.
    """
    require_valid(graph)
    if not kappa0 > 0:
        raise ValueError("kappa0 must be positive")
    sols, _, _ = _reconstruct(_Structure(graph), float(kappa0))
    return list(sols)


def find_ground_state(graph: MetricGraph, options: SolverOptions | None = None) -> GroundState:
    """Locate the largest kappa root, reconstruct and classify the state.

    Downward scan over a uniform kappa grid brackets the top root; plain
    bisection converges it to tol_kappa.  The search ceiling starts at
    max(sum |alpha|, 1) and doubles when the root lands in the topmost cell
    or no sign change is found: compact graphs with short edges bind more
    strongly than any point-interaction bound, so a fixed ceiling would be
    wrong.  A geometric tail probe below the grid guards against extremely
    weak binding.  A ceiling whose grid would exceed MAX_SCAN_POINTS raises
    NoBoundState.
    """
    require_valid(graph)
    opts = options or SolverOptions()
    if not (math.isfinite(opts.tol_kappa) and opts.tol_kappa > 0):
        raise ValueError(f"tol_kappa must be positive and finite, got {opts.tol_kappa!r}")
    if opts.kappa_max is not None and not (math.isfinite(opts.kappa_max) and opts.kappa_max > 0):
        raise ValueError(f"kappa_max must be positive and finite, got {opts.kappa_max!r}")
    st = _Structure(graph)
    kappa_max = opts.kappa_max if opts.kappa_max is not None else max(st.alpha_sum(), 1.0)

    evals = 0
    dips: tuple[DipReport, ...] = ()
    bracket = None
    outcome: ScanOutcome | None = None
    for _ in range(opts.max_doublings):
        step = min(1e-2, kappa_max / 1e4)
        points = math.floor((kappa_max - step) / step) + 1
        if points > MAX_SCAN_POINTS:
            raise NoBoundState(
                f"the scan below kappa={kappa_max!r} needs {points} grid points, "
                f"more than {MAX_SCAN_POINTS}"
            )
        outcome = scan_down(st.indicator, kappa_max, step)
        evals += outcome.evaluations
        dips += outcome.dips
        if outcome.bracket is not None and not outcome.at_top:
            bracket = outcome.bracket
            break
        if outcome.bracket is None:
            tail = probe_geometric(st.indicator, step, step * 1e-6)
            evals += 40
            if tail is not None:
                bracket = tail
                break
        kappa_max *= 2.0
    if bracket is None:
        raise NoBoundState(
            f"no sign change of the secular indicator up to kappa={kappa_max!r}; "
            f"unresolved dips: {len(dips)}"
        )

    lo, hi = bracket
    kappa0 = bisect_sign(lambda k: float(st.indicator(np.array([k]))[0]), lo, hi, opts.tol_kappa)
    sols, gap, min_sampled = _reconstruct(st, kappa0)
    indices = tuple(classify_edge_index(s) for s in sols)
    cont, coup = vertex_condition_residuals(graph, sols)
    diag = Diagnostics(
        continuity_residual=cont,
        coupling_residual=coup,
        nullspace_gap=gap,
        min_sampled=min_sampled,
        bracket=(lo, hi),
        kappa_max_used=kappa_max,
        indicator_evaluations=evals,
        dips=dips,
    )
    return GroundState(kappa0, -kappa0 * kappa0, sols, indices, diag)
