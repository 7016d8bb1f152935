"""Point interactions on a line or a loop, solved through the kernel matrix.

For sites y_1 < ... < y_n with strengths alpha_i < 0, the n x n matrix

    Gamma(kappa)_ij = -delta_ij / alpha_i - G_kappa(y_i, y_j)

has smallest eigenvalue mu0(kappa); the ground-state kappa is the unique
root of the increasing mu0.  On the line G_kappa(x, y) = exp(-kappa |x-y|) /
(2 kappa); on a loop of circumference L the kernel is written with decaying
exponentials,

    G = (exp(-kappa d) + exp(-kappa (L - d))) / (2 kappa (1 - exp(-kappa L))),

with d the arc distance, so it stays finite for large kappa*L.  For a fixed
positive vector c the quadratic form (c, Gamma(kappa) c) is strictly
increasing in kappa and in every pairwise distance, which is what drives the
distance monotonicity of the energy; :func:`stretch_gap` builds the
stretched configurations that test it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import FiniteEdge, InfiniteEdge, MetricGraph, VertexSpec
from .rootscan import OUT_OF_RANGE, constant_trial_bound, fits, increasing_root, unit
from .secular import NumericalFailure, _eigh
# unused here (stubs that raise); perfbench/tracer.py wraps them until
# ROADMAP item 1
from .rootscan import brentq, probe_geometric, scan_down  # noqa: F401


class NoRoot(NumericalFailure):
    """mu0 has no root in the searched range; for attractive configs this
    signals a numerics problem."""


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


def _line_kernel(dist: np.ndarray, k) -> np.ndarray:
    """G = exp(-kappa d) / (2 kappa) at the distances ``dist``."""
    return np.exp(-k * dist) / (2.0 * k)


def _loop_kernel(dist: np.ndarray, rest: np.ndarray, L: float, k) -> np.ndarray:
    """Loop kernel at the arc distances ``dist``, with ``rest`` = L - dist."""
    # periodic kernel cosh(kappa (L/2 - d)) / (2 kappa sinh(kappa L / 2)) in
    # overflow-free form; d is the minimal arc distance, in [0, L/2]
    g = -np.expm1(-k * L)  # 1 - exp(-kappa L) without cancellation
    return (np.exp(-k * dist) + np.exp(-k * rest)) / (2.0 * k * g)


# perfbench/tracer.py only looks these names up (it wraps them and never
# calls them), until ROADMAP item 1.
def _gamma_line_stack(*args, **kwargs):
    raise RuntimeError("the Gamma stacks were removed; use _mu0_slope(config).gamma")


_gamma_loop_stack = _gamma_line_stack


def gamma_line(config: LineConfig | LoopConfig, kappa: float) -> GammaMatrix:
    """Kernel matrix Gamma(kappa) of a line or a loop configuration: the
    matrix the kernel route's Newton rounds build (:func:`_mu0_slope`)."""
    if not (math.isfinite(kappa) and kappa > 0):
        raise ValueError("kappa must be finite and positive")
    return GammaMatrix(float(kappa), _mu0_slope(config).gamma(float(kappa)))


gamma_loop = gamma_line


@dataclass(frozen=True)
class LineGroundState:
    kappa0: float
    lambda0: float
    weights: tuple[float, ...]


def _mu0_slope(config: LineConfig | LoopConfig, lo: float = 1.0):
    """kappa -> (mu0, dmu0/ds) of Gamma(kappa), s = kappa**2: the slope is
    c^T (-dG/ds) c for the unit eigenvector c of mu0, with no new matrix.
    Its ``gamma`` attribute builds Gamma(kappa) from the site distances,
    computed once: it is the one builder of Gamma, behind :func:`gamma_line`
    as well as the Newton rounds and the weights.

    Both take kappa / sigma, sigma = rootscan.unit(lo) (the ``unit``
    attribute): distances, circumference and 1/alpha times sigma give sigma
    Gamma.  Values that fit no unit (rootscan.fits) raise NoRoot first.

    On the line G = exp(-kappa d) / (2 kappa), so -dG/dkappa = d G + G /
    kappa.  On a loop of circumference L, G = (e^{-kappa d} +
    e^{-kappa (L - d)}) / (2 kappa g) with g = 1 - e^{-kappa L}, and
    -dG/dkappa gains (L - 2 d) e^{-kappa (L - d)} / (2 kappa g) + G L
    e^{-kappa L} / g.  d vanishes on the diagonal and G = -Gamma off it, so
    c^T (d G) c = -c^T (d Gamma) c, and c^T G c = -mu0 - sum c_i**2 / alpha_i.
    """
    sigma, y, loop = float(unit(lo)), config.sites, isinstance(config, LoopConfig)
    inv_alpha = [sigma * (1.0 / a) for a in config.strengths]
    L = config.circumference * sigma if loop else 0.0
    # the gaps and the span (and on a loop L - span) bound every distance
    gaps, span = [sigma * (b - a) for a, b in zip(y, y[1:])], sigma * (y[-1] - y[0])
    if not fits(lo / sigma, inv_alpha + gaps + [span, L, L - span]):
        raise NoRoot(OUT_OF_RANGE.format(lo))
    inv_alpha, y = np.array(inv_alpha), np.asarray(y)
    d = np.abs(y[:, None] - y[None, :]) * sigma
    if loop:
        d = np.minimum(d, L - d)  # arc distance
        rest, lever = L - d, L - 2.0 * d
    diag = -np.diag(inv_alpha)  # diag - G: -0.0 - G is -G off the diagonal

    def gamma(kappa):
        return diag - (_loop_kernel(d, rest, L, kappa) if loop else _line_kernel(d, kappa))

    def mu0_slope(kappa):
        gamma_k = gamma(kappa)
        w, v = _eigh(gamma_k)
        mu, c = float(w[0]), v[:, 0]
        cgc = float(-mu - (c * c) @ inv_alpha)
        dk = cgc / kappa - c @ (d * gamma_k) @ c
        if loop:
            g = -math.expm1(-kappa * L)
            far = float(c @ (lever * np.exp(-kappa * rest)) @ c)
            dk += far / (2.0 * kappa * g) + cgc * L * math.exp(-kappa * L) / g
        return mu, float(dk) / (2.0 * kappa)

    mu0_slope.gamma, mu0_slope.unit = gamma, sigma
    return mu0_slope


def ground_state_line(
    config: LineConfig | LoopConfig, *, tol_kappa: float = 1e-12
) -> LineGroundState:
    """Ground state of a line or a loop configuration: the unique root of mu0
    from a proven lower bound (rootscan.increasing_root).

    dGamma/dkappa = -dG/dkappa is positive definite, so mu0 increases, and
    G(s) is a compression of the resolvent (-Laplacian + s)^-1, convex in
    s = kappa**2, so mu0 is concave in s: Newton's method in s (slope from
    :func:`_mu0_slope`) climbs to the root.  It starts at the larger of two
    points where mu0 <= 0.  At kappa = max|alpha|/2 the strongest site's
    diagonal entry is <= 0 (G_ii >= 1/(2 kappa) on the line and the loop);
    on the line the entry is exactly 0.0, which makes a single site exact.
    The other is the graph route's :func:`rootscan.constant_trial_bound`
    for the same operator (:func:`as_chain_graph`, :func:`as_cycle_graph`):
    total length y_n - y_1 and two leads on the line, the circumference and
    no lead on the loop.  It lies at or below kappa0, and mu0 has one root,
    so mu0 <= 0 there too.  tol_kappa bounds the error relative to kappa0,
    for weak binding as well as strong.

    The returned weights are the eigenvector of mu0 at kappa0, oriented to a
    positive sum; they are the coefficients of the kernel superposition
    psi = sum_i w_i G(x, y_i) and are strictly one-signed for the ground
    state.  A loop binds at least as strongly as the same sites on the line.
    """
    if isinstance(config, LoopConfig):
        length, leads = config.circumference, 0
    else:
        length, leads = config.sites[-1] - config.sites[0], 2
    lo = max(0.5 * max(abs(a) for a in config.strengths),
             float(constant_trial_bound(length, leads, sum(config.strengths))))
    mu0_slope = _mu0_slope(config, lo)
    with np.errstate(invalid="ignore"):  # see secular._eigh
        kappa0, _, _ = increasing_root(mu0_slope, lo, tol_kappa, NoRoot, unit=mu0_slope.unit)
        w = _eigh(mu0_slope.gamma(kappa0 / mu0_slope.unit))[1][:, 0]
    w = -w if w.sum() < 0 else w
    return LineGroundState(kappa0, -kappa0 * kappa0, tuple(float(x) for x in w))


ground_state_loop = ground_state_line


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
