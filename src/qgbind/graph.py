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


def validate(graph: MetricGraph) -> ValidationReport:
    """Check admissibility; returns a report and never raises.

    Admissible means: at least one vertex, all alpha finite and <= 0, at
    least one alpha < 0, positive finite edge lengths, no self-loops, known
    endpoints, unique ids, no isolated vertices, and a connected layout
    (leads attach to a single vertex and do not join components).
    """
    problems: list[str] = []
    seen_v: set[str] = set()
    for v in graph.vertices:
        if v.id in seen_v:
            problems.append(f"duplicate vertex id {v.id!r}")
        seen_v.add(v.id)
        if not math.isfinite(v.alpha):
            problems.append(f"vertex {v.id!r}: non-finite alpha")
        elif v.alpha > 0:
            problems.append(f"vertex {v.id!r}: positive alpha {v.alpha!r}")
    if not graph.vertices:
        problems.append("graph has no vertices")
    elif not any(v.alpha < 0 for v in graph.vertices if math.isfinite(v.alpha)):
        problems.append("no attractive vertex (every alpha is zero)")

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
        if not math.isfinite(e.length):
            problems.append(f"edge {e.id!r}: non-finite length")
        elif e.length <= 0:
            problems.append(f"edge {e.id!r}: nonpositive length {e.length!r}")
    for e in graph.infinite_edges:
        if e.id in seen_e:
            problems.append(f"duplicate edge id {e.id!r}")
        seen_e.add(e.id)
        if e.anchor not in seen_v:
            problems.append(f"lead {e.id!r}: unknown vertex {e.anchor!r}")

    if not problems:
        incidences = vertex_incidences(graph)
        for v in graph.vertices:
            if not incidences[v.id]:
                problems.append(f"vertex {v.id!r}: isolated vertex (degree 0)")
        comp = {v.id: v.id for v in graph.vertices}

        def find(x: str) -> str:
            while comp[x] != x:
                comp[x] = comp[comp[x]]
                x = comp[x]
            return x

        for e in graph.finite_edges:
            comp[find(e.start)] = find(e.end)
        roots = {find(v.id) for v in graph.vertices}
        if len(roots) > 1:
            problems.append(f"disconnected graph ({len(roots)} components)")

    return ValidationReport(tuple(problems))


def require_valid(graph: MetricGraph) -> None:
    report = validate(graph)
    if not report.ok:
        raise InvalidGraphError(report)


def degree(graph: MetricGraph, vertex_id: str) -> int:
    """Number of edge ends meeting the vertex; parallel edges count twice."""
    if all(v.id != vertex_id for v in graph.vertices):
        raise KeyError(f"unknown vertex id: {vertex_id!r}")
    n = 0
    for e in graph.finite_edges:
        n += (e.start == vertex_id) + (e.end == vertex_id)
    for e in graph.infinite_edges:
        n += e.anchor == vertex_id
    return n


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


_VERTEX_FIELDS = {"id", "alpha"}
_FINITE_FIELDS = {"id", "from", "to", "length"}
_LEAD_FIELDS = {"id", "anchor"}
_TOP_FIELDS = {"vertices", "finite_edges", "infinite_edges"}


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
    _check_fields(doc, _TOP_FIELDS, {"vertices"}, str(path))

    vertices = []
    for i, item in enumerate(_list_field(doc, "vertices", path)):
        where = f"{path}: vertices[{i}]"
        _check_fields(item, _VERTEX_FIELDS, _VERTEX_FIELDS, where)
        vertices.append(VertexSpec(_as_id(item["id"], where), _as_number(item["alpha"], where)))

    finite = []
    for i, item in enumerate(_list_field(doc, "finite_edges", path)):
        where = f"{path}: finite_edges[{i}]"
        _check_fields(item, _FINITE_FIELDS, _FINITE_FIELDS, where)
        finite.append(
            FiniteEdge(
                _as_id(item["id"], where),
                _as_id(item["from"], where),
                _as_id(item["to"], where),
                _as_number(item["length"], where),
            )
        )

    leads = []
    for i, item in enumerate(_list_field(doc, "infinite_edges", path)):
        where = f"{path}: infinite_edges[{i}]"
        _check_fields(item, _LEAD_FIELDS, _LEAD_FIELDS, where)
        leads.append(InfiniteEdge(_as_id(item["id"], where), _as_id(item["anchor"], where)))

    graph = MetricGraph(tuple(vertices), tuple(finite), tuple(leads))
    require_valid(graph)
    return graph


def save_graph(graph: MetricGraph, path: str | Path) -> None:
    """Write a graph as JSON; loading the file reproduces the graph exactly."""
    doc = {
        "vertices": [{"id": v.id, "alpha": v.alpha} for v in graph.vertices],
        "finite_edges": [
            {"id": e.id, "from": e.start, "to": e.end, "length": e.length}
            for e in graph.finite_edges
        ],
        "infinite_edges": [
            {"id": e.id, "anchor": e.anchor} for e in graph.infinite_edges
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
