"""Metric graphs with delta coupling at the vertices.

A graph consists of vertices carrying coupling strengths alpha (attractive
when negative), finite edges with positive lengths, and semi-infinite leads.
Finite edges are oriented only for bookkeeping: the local coordinate runs
from 0 at ``start`` to ``length`` at ``end``.  Leads are parametrized from 0
at the anchor outward.

All types are immutable; operations never mutate their inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np


class GraphFormatError(ValueError):
    """A graph file does not parse against the schema."""


class InvalidGraphError(ValueError):
    """An operation received a graph that fails validation."""

    def __init__(self, report: "ValidationReport"):
        super().__init__("invalid graph: " + "; ".join(report.problems))
        self.report = report


@dataclass(frozen=True)
class VertexSpec:
    """A vertex with delta-coupling strength ``alpha`` (must be <= 0)."""

    id: str
    alpha: float


@dataclass(frozen=True)
class FiniteEdge:
    """An edge of finite positive length between two distinct vertices."""

    id: str
    start: str
    end: str
    length: float


@dataclass(frozen=True)
class InfiniteEdge:
    """A semi-infinite lead attached to ``anchor``."""

    id: str
    anchor: str


@dataclass(frozen=True)
class MetricGraph:
    """An immutable metric graph.

    Self-loops are not representable; subdivide a loop with an auxiliary
    alpha = 0 vertex of degree 2 instead.
    """

    vertices: tuple[VertexSpec, ...]
    finite_edges: tuple[FiniteEdge, ...] = ()
    infinite_edges: tuple[InfiniteEdge, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "finite_edges", tuple(self.finite_edges))
        object.__setattr__(self, "infinite_edges", tuple(self.infinite_edges))

    def vertex(self, vertex_id: str) -> VertexSpec:
        for v in self.vertices:
            if v.id == vertex_id:
                return v
        raise KeyError(f"unknown vertex id: {vertex_id!r}")

    def alpha(self, vertex_id: str) -> float:
        return self.vertex(vertex_id).alpha

    def edge_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.finite_edges) + tuple(
            e.id for e in self.infinite_edges
        )


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`; ``ok`` iff ``problems`` is empty."""

    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems


def parameters(graph: MetricGraph) -> tuple[np.ndarray, np.ndarray]:
    """The graph's alphas, shape (1, vertices), and finite-edge lengths,
    shape (1, finite edges), as floats: one member of a batch.  They are
    not checked against the rules (see :func:`parameter_problems`), but a
    value that is not a number raises TypeError, as in :func:`validate`."""
    rows = []
    for values in ([v.alpha for v in graph.vertices], [e.length for e in graph.finite_edges]):
        try:
            row = np.array([values])
        except ValueError:  # a sequence beside numbers: "inhomogeneous shape"
            row = None
        if row is None or row.ndim != 2 or row.dtype.kind not in "biuf":
            raise TypeError(f"alphas and lengths must be numbers, got {values!r}")
        rows.append(row.astype(float))
    return rows[0], rows[1]


def parameter_problems(
    graph: MetricGraph, alphas: Sequence[Sequence[float]], lengths: Sequence[Sequence[float]]
) -> list[tuple[str, ...]]:
    """The alpha and length rules, per member: row i of ``alphas`` and
    ``lengths`` (lists of numbers) replaces the graph's alphas and
    finite-edge lengths, and entry i lists its problems (empty when it
    passes).  A value that is not a real number raises TypeError.

    The rules: every alpha finite and <= 0, at least one alpha < 0, every
    length finite and > 0.
    """
    out = []
    for alpha_row, length_row in zip(alphas, lengths):
        problems = []
        for v, alpha in zip(graph.vertices, alpha_row):
            if not math.isfinite(alpha):
                problems.append(f"vertex {v.id!r}: non-finite alpha")
            elif alpha > 0:
                problems.append(f"vertex {v.id!r}: positive alpha {alpha!r}")
        if alpha_row and not any(alpha < 0 for alpha in alpha_row if math.isfinite(alpha)):
            problems.append("no attractive vertex (no alpha is finite and negative)")
        for e, length in zip(graph.finite_edges, length_row):
            if not math.isfinite(length):
                problems.append(f"edge {e.id!r}: non-finite length")
            elif length <= 0:
                problems.append(f"edge {e.id!r}: nonpositive length {length!r}")
        out.append(tuple(problems))
    return out


def _id_problems(graph: MetricGraph) -> list[str]:
    """Duplicate ids, unknown endpoints, self-loops and an empty graph."""
    problems: list[str] = []
    seen_v: set[str] = set()
    for v in graph.vertices:
        if v.id in seen_v:
            problems.append(f"duplicate vertex id {v.id!r}")
        seen_v.add(v.id)
    if not graph.vertices:
        problems.append("graph has no vertices")
    seen_e: set[str] = set()
    for e in graph.finite_edges:
        if e.id in seen_e:
            problems.append(f"duplicate edge id {e.id!r}")
        seen_e.add(e.id)
        for endpoint in (e.start, e.end):
            if endpoint not in seen_v:
                problems.append(f"edge {e.id!r}: unknown vertex {endpoint!r}")
        if e.start == e.end:
            problems.append(f"edge {e.id!r}: self-loop at {e.start!r}")
    for e in graph.infinite_edges:
        if e.id in seen_e:
            problems.append(f"duplicate edge id {e.id!r}")
        seen_e.add(e.id)
        if e.anchor not in seen_v:
            problems.append(f"lead {e.id!r}: unknown vertex {e.anchor!r}")
    return problems


def _layout_problems(graph: MetricGraph) -> list[str]:
    """Isolated vertices and disconnected components; the ids must be sound."""
    problems = []
    incidences = vertex_incidences(graph)
    for v in graph.vertices:
        if not incidences[v.id]:
            problems.append(f"vertex {v.id!r}: isolated vertex (degree 0)")
    ids = {v.id: i for i, v in enumerate(graph.vertices)}
    roots = set(_components(len(ids), [(ids[e.start], ids[e.end]) for e in graph.finite_edges]))
    if len(roots) > 1:
        problems.append(f"disconnected graph ({len(roots)} components)")
    return problems


def _components(n: int, pairs) -> list[int]:
    """Per index in range(n), the smallest index of its component when each
    pair (u, v) in ``pairs`` joins u and v (union-find with path halving)."""
    root = list(range(n))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for u, v in pairs:
        u, v = find(u), find(v)
        if u > v:
            u, v = v, u
        root[v] = u
    return [find(i) for i in range(n)]


def topology_ok(graph: MetricGraph) -> bool:
    """Whether the graph passes every check of :func:`validate` that does
    not read an alpha or a length: a family of graphs that shares this
    topology needs only :func:`parameter_problems` per member."""
    return not _id_problems(graph) and not _layout_problems(graph)


def validate(graph: MetricGraph) -> ValidationReport:
    """Check admissibility; returns a report and never raises.

    Admissible means: at least one vertex, all alpha finite and <= 0, at
    least one alpha < 0, positive finite edge lengths, no self-loops, known
    endpoints, unique ids, no isolated vertices, and a connected layout
    (leads attach to a single vertex and do not join components).  The
    layout is checked only when everything else passes.
    """
    problems = _id_problems(graph)
    problems += parameter_problems(graph, [[v.alpha for v in graph.vertices]],
                                   [[e.length for e in graph.finite_edges]])[0]
    if not problems:
        problems += _layout_problems(graph)
    return ValidationReport(tuple(problems))


def require_valid(graph: MetricGraph) -> None:
    report = validate(graph)
    if not report.ok:
        raise InvalidGraphError(report)


def degree(graph: MetricGraph, vertex_id: str) -> int:
    """Number of edge ends meeting the vertex; parallel edges count twice."""
    ends = vertex_incidences(graph).get(vertex_id)
    if ends is None:
        raise KeyError(f"unknown vertex id: {vertex_id!r}")
    return len(ends)


def vertex_incidences(graph: MetricGraph) -> dict[str, list[tuple[str, int]]]:
    """Edge ends per vertex, in a fixed deterministic order.

    Values are ('start'|'end', finite edge position) or ('lead', lead
    position); finite edges come first in input order, then leads.
    """
    inc: dict[str, list[tuple[str, int]]] = {v.id: [] for v in graph.vertices}
    for i, e in enumerate(graph.finite_edges):
        inc[e.start].append(("start", i))
        inc[e.end].append(("end", i))
    for k, e in enumerate(graph.infinite_edges):
        inc[e.anchor].append(("lead", k))
    return inc


# The file format, for load_graph and save_graph: per list key (also the
# MetricGraph field), the spec of its items and, per JSON key in file order,
# the spec field it fills; alpha and length are numbers, the other keys ids.
_SCHEMA = (
    ("vertices", VertexSpec, {"id": "id", "alpha": "alpha"}),
    ("finite_edges", FiniteEdge, {"id": "id", "from": "start", "to": "end", "length": "length"}),
    ("infinite_edges", InfiniteEdge, {"id": "id", "anchor": "anchor"}),
)
_NUMBERS = {"alpha", "length"}


def _check_fields(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise GraphFormatError(f"{where}: expected an object")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise GraphFormatError(f"{where}: unknown field(s) {', '.join(unknown)}")
    missing = sorted(required - set(obj))
    if missing:
        raise GraphFormatError(f"{where}: missing field(s) {', '.join(missing)}")


def _list_field(doc: dict, key: str, path) -> list:
    """doc[key] as a list; the edge lists may also be absent or null."""
    value = doc.get(key)
    if value is None and key != "vertices":
        return []
    if not isinstance(value, list):
        raise GraphFormatError(f"{path}: {key!r} must be a list")
    return value


def _as_id(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise GraphFormatError(f"{where}: ids must be non-empty strings")
    return value


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise GraphFormatError(f"{where}: expected a number")
    return float(value)


def load_graph(path: str | Path) -> MetricGraph:
    """Read a graph from JSON; parse errors carry line/field context.

    The loaded graph is validated; an inadmissible graph raises
    :class:`InvalidGraphError` listing each problem.
    """
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise GraphFormatError(f"{path}: cannot read file: {err.strerror or err}") from err
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise GraphFormatError(
            f"{path}: invalid JSON at line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    _check_fields(doc, {key for key, _, _ in _SCHEMA}, {"vertices"}, str(path))
    lists = []
    for key, spec, fields in _SCHEMA:
        lists.append([])
        for i, item in enumerate(_list_field(doc, key, path)):
            where = f"{path}: {key}[{i}]"
            _check_fields(item, set(fields), set(fields), where)
            lists[-1].append(spec(**{
                field: (_as_number if name in _NUMBERS else _as_id)(item[name], where)
                for name, field in fields.items()}))
    graph = MetricGraph(*lists)
    require_valid(graph)
    return graph


def save_graph(graph: MetricGraph, path: str | Path) -> None:
    """Write a graph as JSON; loading the file reproduces the graph exactly."""
    doc = {key: [{name: getattr(item, field) for name, field in fields.items()}
                 for item in getattr(graph, key)] for key, _, fields in _SCHEMA}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
