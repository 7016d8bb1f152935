"""Shared graph builders and random-instance generators for the tests.

Random generators take a ``numpy.random.Generator`` so every test pins its
own seed.  The screened generators reject draws whose binding rate times
spatial extent is large enough that eigenfunction tails (and hence energy
differences under edge stretching) would fall below double precision; the
bound 0.5 * sum|alpha| * total length <= 8 keeps the smallest relevant
signal above ~1e-7.
"""

from __future__ import annotations

import numpy as np

from qgbind import (
    FiniteEdge,
    InfiniteEdge,
    LineConfig,
    LoopConfig,
    MetricGraph,
    VertexSpec,
)

_SCREEN_BOUND = 8.0
_MAX_DRAWS = 500

# critical center coupling of the reference star (star_graph defaults): the
# alpha at which its energy stops depending on the axial length
ALPHA_CRIT = -1.0908817883350728


def single_vertex_graph(alpha: float, n_leads: int) -> MetricGraph:
    """One attractive vertex carrying ``n_leads`` semi-infinite leads."""
    leads = tuple(InfiniteEdge(f"t{i + 1}", "v") for i in range(n_leads))
    return MetricGraph((VertexSpec("v", alpha),), (), leads)


def robin_interval(alpha_left: float, alpha_right: float, length: float) -> MetricGraph:
    """A single finite edge with attractive endpoints and no leads."""
    return MetricGraph(
        (VertexSpec("v1", alpha_left), VertexSpec("v2", alpha_right)),
        (FiniteEdge("e1", "v1", "v2", length),),
    )


def star_graph(
    alpha_center: float,
    L2: float = 1.0,
    L1: float = 1.0,
    arm_alpha: float = -1.5,
    axial_alpha: float = -2.0,
) -> MetricGraph:
    """Compact 4-vertex star: two arms of length L1 plus an axial edge L2."""
    return MetricGraph(
        (
            VertexSpec("c", alpha_center),
            VertexSpec("p1", arm_alpha),
            VertexSpec("p2", arm_alpha),
            VertexSpec("q", axial_alpha),
        ),
        (
            FiniteEdge("arm1", "c", "p1", L1),
            FiniteEdge("arm2", "c", "p2", L1),
            FiniteEdge("axial", "c", "q", L2),
        ),
    )


def chain_graph(alphas, lengths) -> MetricGraph:
    """Path of attractive vertices with one lead at each end."""
    n = len(alphas)
    if len(lengths) != n - 1:
        raise ValueError("need one length per consecutive vertex pair")
    vertices = tuple(VertexSpec(f"v{i + 1}", float(a)) for i, a in enumerate(alphas))
    edges = tuple(
        FiniteEdge(f"e{i + 1}", f"v{i + 1}", f"v{i + 2}", float(l))
        for i, l in enumerate(lengths)
    )
    leads = (InfiniteEdge("lead_left", "v1"), InfiniteEdge("lead_right", f"v{n}"))
    return MetricGraph(vertices, edges, leads)


def scaled_graph(graph: MetricGraph, s: float) -> MetricGraph:
    """Scaling partner: lengths times s, strengths divided by s."""
    vertices = tuple(VertexSpec(v.id, v.alpha / s) for v in graph.vertices)
    edges = tuple(
        FiniteEdge(e.id, e.start, e.end, e.length * s) for e in graph.finite_edges
    )
    return MetricGraph(vertices, edges, graph.infinite_edges)


def random_line_config(rng: np.random.Generator) -> LineConfig:
    """Line draw with n in [2, 6], alpha in [-3, -0.2], gaps in [0.2, 3]."""
    n = int(rng.integers(2, 7))
    gaps = rng.uniform(0.2, 3.0, size=n - 1)
    sites = np.concatenate(([0.0], np.cumsum(gaps)))
    strengths = rng.uniform(-3.0, -0.2, size=n)
    return LineConfig(tuple(sites), tuple(strengths))


def screened_line_config(rng: np.random.Generator, n_max: int = 8) -> LineConfig:
    """Line draw with n up to ``n_max``, screened for resolvable tails."""
    n = int(rng.integers(1, n_max + 1))
    strengths = rng.uniform(-min(2.5, 5.5 / n), -0.2, size=n)
    if n == 1:
        return LineConfig((0.0,), tuple(strengths))
    gaps = rng.uniform(0.2, min(2.0, 7.0 / (n - 1)), size=n - 1)
    sites = np.concatenate(([0.0], np.cumsum(gaps)))
    return LineConfig(tuple(sites), tuple(strengths))


def random_loop_config(rng: np.random.Generator, circumference: float) -> LoopConfig:
    """Loop draw weak enough that the line limit is resolvable at l = 40."""
    n = int(rng.integers(1, 4))
    strengths = rng.uniform(-0.15, -0.05, size=n)
    if n == 1:
        sites = np.array([0.0])
    else:
        gaps = rng.uniform(0.2, 1.0, size=n - 1)
        sites = np.concatenate(([0.0], np.cumsum(gaps)))
    return LoopConfig(float(circumference), tuple(sites), tuple(strengths))


def random_chain_graph(rng: np.random.Generator) -> MetricGraph:
    """Chain draw (2 to 4 vertices) screened for resolvable stretch margins."""
    for _ in range(_MAX_DRAWS):
        n = int(rng.integers(2, 5))
        alphas = rng.uniform(-1.2, -0.3, size=n)
        lengths = rng.uniform(0.3, 1.2, size=n - 1)
        if 0.5 * np.abs(alphas).sum() * lengths.sum() <= _SCREEN_BOUND:
            return chain_graph(alphas, lengths)
    raise AssertionError("chain screening rejected every draw")


def random_tree_graph(rng: np.random.Generator) -> MetricGraph:
    """Random tree (3 to 6 vertices, 0 to 2 leads), screened as above."""
    for _ in range(_MAX_DRAWS):
        n = int(rng.integers(3, 7))
        parent = [int(rng.integers(0, i)) for i in range(1, n)]
        alphas = rng.uniform(-1.5, -0.1, size=n)
        lengths = rng.uniform(0.3, 1.2, size=n - 1)
        n_leads = int(rng.integers(0, 3))
        anchors = rng.integers(0, n, size=n_leads)
        if 0.5 * np.abs(alphas).sum() * lengths.sum() > _SCREEN_BOUND:
            continue
        vertices = tuple(
            VertexSpec(f"v{i + 1}", float(a)) for i, a in enumerate(alphas)
        )
        edges = tuple(
            FiniteEdge(f"e{i + 1}", f"v{parent[i] + 1}", f"v{i + 2}", float(lengths[i]))
            for i in range(n - 1)
        )
        leads = tuple(
            InfiniteEdge(f"t{j + 1}", f"v{int(anchors[j]) + 1}")
            for j in range(n_leads)
        )
        return MetricGraph(vertices, edges, leads)
    raise AssertionError("tree screening rejected every draw")


def random_mixed_graph(rng: np.random.Generator) -> MetricGraph:
    """Either a chain with leads or a tree, equally likely."""
    if rng.uniform() < 0.5:
        return random_chain_graph(rng)
    return random_tree_graph(rng)


def random_cyclic_graph(rng: np.random.Generator) -> MetricGraph:
    """Random connected graph (2 to 7 vertices, 0 to 3 leads) with one to
    three edges beyond a spanning tree, so cycles and parallel edges occur;
    about one edge in six is short (1e-8 to 1e-3), forming clusters."""
    n = int(rng.integers(2, 8))
    pairs = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    for _ in range(int(rng.integers(1, 4))):
        u, v = rng.choice(n, size=2, replace=False)
        pairs.append((int(u), int(v)))
    lengths = np.where(rng.uniform(size=len(pairs)) < 1 / 6,
                       10.0 ** rng.uniform(-8, -3, size=len(pairs)),
                       rng.uniform(0.2, 3.0, size=len(pairs)))
    vertices = tuple(
        VertexSpec(f"v{i + 1}", float(a)) for i, a in enumerate(rng.uniform(-3.0, -0.05, size=n))
    )
    edges = tuple(
        FiniteEdge(f"e{j + 1}", f"v{u + 1}", f"v{v + 1}", float(l))
        for j, ((u, v), l) in enumerate(zip(pairs, lengths))
    )
    leads = tuple(
        InfiniteEdge(f"t{j + 1}", f"v{int(a) + 1}")
        for j, a in enumerate(rng.integers(0, n, size=int(rng.integers(0, 4))))
    )
    return MetricGraph(vertices, edges, leads)
