"""Point interactions on a line or a loop, solved through the kernel matrix.

For sites y_1 < ... < y_n with strengths alpha_i < 0, the n x n matrix

    Gamma(kappa)_ij = -delta_ij / alpha_i - G_kappa(y_i, y_j)

has smallest eigenvalue mu0(kappa); the ground-state kappa is the unique
root of the increasing mu0.  On the line G_kappa(x, y) = exp(-kappa |x-y|) /
(2 kappa); on a loop of circumference L the kernel is written with decaying
exponentials,

    G = (exp(-kappa d) + exp(-kappa (2L - d))) / (2 kappa (1 - exp(-2 kappa L))),

with d the arc distance, so it stays finite for large kappa*L.  For a fixed
positive vector c the quadratic form (c, Gamma(kappa) c) is strictly
increasing in kappa and in every pairwise distance, which is what drives the
distance monotonicity of the energy checked here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import FiniteEdge, InfiniteEdge, MetricGraph, VertexSpec
from .rootscan import increasing_root
# unused here (stubs that raise); perfbench/tracer.py wraps them until
# ROADMAP item 1
from .rootscan import brentq, probe_geometric, scan_down  # noqa: F401


class NoRoot(RuntimeError):
    """mu0 has no root in the searched range; for attractive configs this
    signals a numerics problem."""


class MonotonicityViolation(AssertionError):
    """A stretched configuration failed to raise the ground-state energy."""


def _set_sites_strengths(config) -> None:
    """Store sites and strengths as float tuples and check them."""
    sites = tuple(float(y) for y in config.sites)
    strengths = tuple(float(a) for a in config.strengths)
    object.__setattr__(config, "sites", sites)
    object.__setattr__(config, "strengths", strengths)
    if len(sites) != len(strengths) or not sites:
        raise ValueError("need equally many sites and strengths, at least one")
    if any(not math.isfinite(y) for y in sites):
        raise ValueError("sites must be finite")
    if any(not (math.isfinite(a) and a < 0) for a in strengths):
        raise ValueError("strengths must be finite and negative")
    if any(b <= a for a, b in zip(sites, sites[1:])):
        raise ValueError("sites must be strictly increasing")


@dataclass(frozen=True)
class LineConfig:
    """Attractive point interactions on the real line."""

    sites: tuple[float, ...]
    strengths: tuple[float, ...]

    def __post_init__(self):
        _set_sites_strengths(self)

    @property
    def n(self) -> int:
        return len(self.sites)

    def gaps(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.sites, self.sites[1:]))

    def translated(self, shift: float) -> "LineConfig":
        return LineConfig(tuple(y + shift for y in self.sites), self.strengths)


@dataclass(frozen=True)
class LoopConfig:
    """Attractive point interactions on a loop of given circumference."""

    circumference: float
    sites: tuple[float, ...]
    strengths: tuple[float, ...]

    def __post_init__(self):
        if not (math.isfinite(self.circumference) and self.circumference > 0):
            raise ValueError("circumference must be positive")
        _set_sites_strengths(self)
        if self.sites[0] < 0 or self.sites[-1] >= self.circumference:
            raise ValueError("sites must lie in [0, circumference)")

    @property
    def n(self) -> int:
        return len(self.sites)


@dataclass(frozen=True)
class GammaMatrix:
    kappa: float
    entries: np.ndarray


def _line_distances(config: LineConfig) -> np.ndarray:
    y = np.asarray(config.sites)
    return np.abs(y[:, None] - y[None, :])


def _loop_distances(config: LoopConfig) -> np.ndarray:
    y = np.asarray(config.sites)
    direct = np.abs(y[:, None] - y[None, :])
    return np.minimum(direct, config.circumference - direct)


def _gamma_line_stack(config: LineConfig, kappas: np.ndarray) -> np.ndarray:
    """Kernel G at each kappa, shape (len(kappas), n, n)."""
    dist = _line_distances(config)
    k = kappas[:, None, None]
    return np.exp(-k * dist) / (2.0 * k)


def _gamma_loop_stack(config: LoopConfig, kappas: np.ndarray) -> np.ndarray:
    """Loop kernel G at each kappa, shape (len(kappas), n, n)."""
    # periodic kernel cosh(kappa (L/2 - d)) / (2 kappa sinh(kappa L / 2)) in
    # overflow-free form; d is the minimal arc distance, in [0, L/2]
    dist = _loop_distances(config)
    L = config.circumference
    k = kappas[:, None, None]
    return (np.exp(-k * dist) + np.exp(-k * (L - dist))) / (
        2.0 * k * (1.0 - np.exp(-k * L))
    )


def _gamma_stack(config: LineConfig | LoopConfig, kappas: np.ndarray) -> np.ndarray:
    """Gamma = -G - diag(1/alpha) at each kappa."""
    # the kernels are looked up at call time, so rebinding the module
    # attributes (as perfbench/tracer.py does) takes effect here
    kernel = _gamma_loop_stack if isinstance(config, LoopConfig) else _gamma_line_stack
    out = -kernel(config, kappas)
    idx = np.arange(config.n)
    out[:, idx, idx] -= 1.0 / np.asarray(config.strengths)
    return out


def gamma_line(config: LineConfig | LoopConfig, kappa: float) -> GammaMatrix:
    """Kernel matrix Gamma(kappa) of a line or a loop configuration."""
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    return GammaMatrix(float(kappa), _gamma_stack(config, np.array([float(kappa)]))[0])


gamma_loop = gamma_line


def mu0(gamma: GammaMatrix) -> float:
    """Smallest eigenvalue of the kernel matrix."""
    return float(np.linalg.eigvalsh(gamma.entries)[0])


def min_eigenpair(gamma: GammaMatrix) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and its eigenvector, oriented to positive sum."""
    w, v = np.linalg.eigh(gamma.entries)
    vec = v[:, 0]
    if vec.sum() < 0:
        vec = -vec
    return float(w[0]), vec


@dataclass(frozen=True)
class LineGroundState:
    kappa0: float
    lambda0: float
    weights: tuple[float, ...]


def _mu0_slope(config: LineConfig | LoopConfig):
    """kappa -> (mu0, dmu0/ds) of Gamma(kappa), s = kappa**2: the slope is
    c^T (-dG/ds) c for the unit eigenvector c of mu0, with no new matrix.

    On the line G = exp(-kappa d) / (2 kappa), so -dG/dkappa = d G + G /
    kappa.  On a loop of circumference L, G = (e^{-kappa d} +
    e^{-kappa (L - d)}) / (2 kappa g) with g = 1 - e^{-kappa L}, and
    -dG/dkappa gains (L - 2 d) e^{-kappa (L - d)} / (2 kappa g) + G L
    e^{-kappa L} / g.  d vanishes on the diagonal and G = -Gamma off it, so
    c^T (d G) c = -c^T (d Gamma) c, and c^T G c = -mu0 - sum c_i**2 / alpha_i.
    """
    inv_alpha = 1.0 / np.asarray(config.strengths)
    loop = isinstance(config, LoopConfig)
    d = _loop_distances(config) if loop else _line_distances(config)
    if loop:
        L = config.circumference
        rest, lever = L - d, L - 2.0 * d

    def mu0_slope(kappa):
        gamma = _gamma_stack(config, np.array([kappa]))[0]
        w, v = np.linalg.eigh(gamma)
        mu, c = float(w[0]), v[:, 0]
        cgc = -mu - (c * c) @ inv_alpha
        dk = cgc / kappa - c @ (d * gamma) @ c
        if loop:
            g = -math.expm1(-kappa * L)
            far = c @ (lever * np.exp(-kappa * rest)) @ c
            dk += far / (2.0 * kappa * g) + cgc * L * math.exp(-kappa * L) / g
        return mu, float(dk) / (2.0 * kappa)

    return mu0_slope


def _solve_mu0(config: LineConfig | LoopConfig, tol_kappa: float) -> tuple[float, np.ndarray]:
    """Unique root of mu0 from a proven lower bound (rootscan.increasing_root).

    dGamma/dkappa = -dG/dkappa is positive definite, so mu0 increases, and
    G(s) is a compression of the resolvent (-Laplacian + s)^-1, convex in
    s = kappa**2, so mu0 is concave in s: Newton's method in s (slope from
    :func:`_mu0_slope`) climbs to the root.  At kappa = max|alpha|/2 the
    strongest site's diagonal entry is <= 0 (G_ii >= 1/(2 kappa) on the line
    and the loop), so mu0 <= 0 there; on the line the entry is exactly 0.0,
    which makes a single site exact.  tol_kappa bounds the error relative
    to kappa0, for weak binding as well as strong.
    """
    lo = 0.5 * max(abs(a) for a in config.strengths)
    kappa0, _, _ = increasing_root(_mu0_slope(config), lo, tol_kappa, NoRoot)
    _, weights = min_eigenpair(gamma_line(config, kappa0))
    return float(kappa0), weights


def ground_state_line(
    config: LineConfig | LoopConfig, *, tol_kappa: float = 1e-12
) -> LineGroundState:
    """Ground state of a line or a loop configuration.

    The returned weights are the minimizing vector at the root; they are the
    coefficients of the kernel superposition psi = sum_i w_i G(x, y_i) and
    are strictly one-signed for the ground state.  A loop binds at least as
    strongly as the same sites on the line.
    """
    kappa0, w = _solve_mu0(config, tol_kappa)
    return LineGroundState(kappa0, -kappa0 * kappa0, tuple(float(x) for x in w))


ground_state_loop = ground_state_line


def derivative_signs(
    config: LineConfig, kappa0: float, weights
) -> tuple[tuple[int, int], ...]:
    """Signs of psi' just left and right of each site (diagnostic only)."""
    y = np.asarray(config.sites)
    w = np.asarray(weights, dtype=float)
    out = []
    for i in range(config.n):
        right = sum(
            w[j] * (1.0 if y[j] > y[i] else -1.0) * math.exp(-kappa0 * abs(y[j] - y[i]))
            for j in range(config.n)
        )
        left = sum(
            w[j] * (1.0 if y[j] >= y[i] else -1.0) * math.exp(-kappa0 * abs(y[j] - y[i]))
            for j in range(config.n)
        )
        out.append((int(np.sign(left)), int(np.sign(right))))
    return tuple(out)


def stretch_gap(config: LineConfig, gap_index: int, eta: float) -> LineConfig:
    """Widen the gap after site ``gap_index`` by eta > 0, shifting the tail."""
    if not 0 <= gap_index < config.n - 1:
        raise ValueError(f"gap_index out of range: {gap_index}")
    if not eta > 0:
        raise ValueError("eta must be positive")
    sites = list(config.sites)
    for j in range(gap_index + 1, config.n):
        sites[j] += eta
    return LineConfig(tuple(sites), config.strengths)


def grow_loop(config: LoopConfig, delta: float) -> LoopConfig:
    """Lengthen the circumference by delta, keeping site positions fixed;
    no pairwise arc distance shrinks."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    return LoopConfig(config.circumference + delta, config.sites, config.strengths)


@dataclass(frozen=True)
class MonotonicityReport:
    lambda_before: float
    lambda_after: float

    @property
    def margin(self) -> float:
        return self.lambda_after - self.lambda_before


def check_monotonicity_line(base: LineConfig, stretched: LineConfig) -> MonotonicityReport:
    """Solve both configurations and assert the energy strictly increased.

    Precondition: same strengths, no pairwise distance shrinks, and at least
    one grows.  Raises MonotonicityViolation with both values otherwise.
    """
    if base.strengths != stretched.strengths:
        raise ValueError("configurations must share strengths")
    d0 = _line_distances(base)
    d1 = _line_distances(stretched)
    if np.any(d1 < d0 - 1e-15):
        raise ValueError("stretched configuration shrinks a pairwise distance")
    if not np.any(d1 > d0 + 1e-15):
        raise ValueError("stretched configuration increases no pairwise distance")
    before = ground_state_line(base)
    after = ground_state_line(stretched)
    report = MonotonicityReport(before.lambda0, after.lambda0)
    if not report.margin > 0:
        raise MonotonicityViolation(
            f"energy did not increase: before={before.lambda0!r} after={after.lambda0!r}"
        )
    return report


def as_chain_graph(config: LineConfig) -> MetricGraph:
    """The same operator as a metric graph: a path of finite edges with one
    lead at each end; a single site becomes one vertex with two leads."""
    vertices = tuple(
        VertexSpec(f"v{i + 1}", a) for i, a in enumerate(config.strengths)
    )
    edges = tuple(
        FiniteEdge(f"e{i + 1}", f"v{i + 1}", f"v{i + 2}", g)
        for i, g in enumerate(config.gaps())
    )
    leads = (
        InfiniteEdge("lead_left", "v1"),
        InfiniteEdge("lead_right", f"v{config.n}"),
    )
    return MetricGraph(vertices, edges, leads)


def as_cycle_graph(config: LoopConfig) -> MetricGraph:
    """The loop as a metric graph.  A single site is split with an auxiliary
    alpha = 0 vertex at the antipode (self-loops are not representable)."""
    if config.n == 1:
        half = config.circumference / 2.0
        return MetricGraph(
            (VertexSpec("v1", config.strengths[0]), VertexSpec("aux", 0.0)),
            (FiniteEdge("arc1", "v1", "aux", half), FiniteEdge("arc2", "aux", "v1", half)),
        )
    vertices = tuple(
        VertexSpec(f"v{i + 1}", a) for i, a in enumerate(config.strengths)
    )
    gaps = [b - a for a, b in zip(config.sites, config.sites[1:])]
    closing = config.circumference - (config.sites[-1] - config.sites[0])
    edges = [
        FiniteEdge(f"arc{i + 1}", f"v{i + 1}", f"v{i + 2}", g) for i, g in enumerate(gaps)
    ]
    edges.append(FiniteEdge(f"arc{config.n}", f"v{config.n}", "v1", closing))
    return MetricGraph(vertices, tuple(edges))
