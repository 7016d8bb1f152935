"""Graph model, validation, and JSON round-trip tests."""

import json
import math
import time

import numpy as np
import pytest

from conftest import chain_graph, single_vertex_graph, star_graph
from qgbind import (
    FiniteEdge,
    GraphFormatError,
    InfiniteEdge,
    InvalidGraphError,
    LineConfig,
    MetricGraph,
    SweepSpec,
    SweepTarget,
    VertexSpec,
    as_chain_graph,
    degree,
    find_ground_state,
    load_graph,
    require_valid,
    run_sweep,
    save_graph,
    validate,
    vertex_incidences,
)
from qgbind.cli import main
from qgbind.graph import _components, parameters


def test_star_is_admissible():
    report = validate(star_graph(-1.0))
    assert report.ok
    assert report.problems == ()


def test_degrees_on_star():
    g = star_graph(-1.0)
    assert degree(g, "c") == 3
    assert degree(g, "p1") == 1
    assert degree(g, "q") == 1


def test_degree_counts_leads():
    g = single_vertex_graph(-2.0, 3)
    assert degree(g, "v") == 3


def test_degree_counts_parallel_edges_twice_and_leads_once():
    g = MetricGraph(
        (VertexSpec("u", -1.0), VertexSpec("v", -0.5)),
        (FiniteEdge("e1", "u", "v", 1.0), FiniteEdge("e2", "v", "u", 2.0)),
        (InfiniteEdge("t", "u"),),
    )
    assert (degree(g, "u"), degree(g, "v")) == (3, 2)
    with pytest.raises(KeyError, match="unknown vertex id: 'w'"):
        degree(g, "w")


def test_components_match_a_breadth_first_search():
    # each index's root is the smallest index of its component
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        pairs = [tuple(int(x) for x in rng.integers(0, n, size=2))
                 for _ in range(int(rng.integers(0, 2 * n)))]
        roots = _components(n, pairs)
        neighbours = [set() for _ in range(n)]
        for u, v in pairs:
            neighbours[u].add(v)
            neighbours[v].add(u)
        unseen = set(range(n))
        while unseen:
            component, queue = set(), [min(unseen)]
            while queue:
                i = queue.pop(0)
                if i not in component:
                    component.add(i)
                    queue += neighbours[i]
            unseen -= component
            assert {roots[i] for i in component} == {min(component)}, pairs


def test_degree_sum_identity():
    g = chain_graph([-1.0, -0.5, -0.7], [1.0, 0.5])
    total = sum(degree(g, v.id) for v in g.vertices)
    assert total == 2 * len(g.finite_edges) + len(g.infinite_edges)


def test_vertex_incidences_cover_all_edges():
    g = star_graph(-1.0)
    inc = vertex_incidences(g)
    assert set(inc) == {"c", "p1", "p2", "q"}
    assert inc["c"] == [("start", 0), ("start", 1), ("start", 2)]
    assert inc["p1"] == [("end", 0)]
    assert inc["q"] == [("end", 2)]
    ends = [kind for pairs in inc.values() for kind, _ in pairs]
    assert ends.count("start") == ends.count("end") == 3


def test_positive_alpha_rejected():
    g = MetricGraph((VertexSpec("v", 0.5),), (), (InfiniteEdge("t1", "v"),))
    report = validate(g)
    assert not report.ok
    assert any("positive alpha" in p for p in report.problems)


def test_problem_strings_show_the_values_as_given():
    # an int stays an int in the message; it is not read through a float array
    g = MetricGraph(
        (VertexSpec("a", 1), VertexSpec("b", -1)),
        (FiniteEdge("e", "a", "b", 0),),
    )
    assert validate(g).problems == (
        "vertex 'a': positive alpha 1",
        "edge 'e': nonpositive length 0",
    )


@pytest.mark.parametrize("field", ["alpha", "length"])
def test_non_numeric_value_is_rejected(field):
    alpha, length = ("-1", 1.0) if field == "alpha" else (-1.0, "1")
    g = MetricGraph(
        (VertexSpec("a", alpha), VertexSpec("b", -1.0)),
        (FiniteEdge("e", "a", "b", length),),
    )
    with pytest.raises(TypeError):
        validate(g)
    with pytest.raises(TypeError):
        find_ground_state(g)
    # a sweep of another value does not read it as a float either
    with pytest.raises(TypeError):
        run_sweep(g, [SweepSpec(SweepTarget("vertex", "b"), -2.0, -1.0, 3)])


# beside numbers, a list makes numpy raise ValueError ("inhomogeneous shape");
# a list in every slot would build a 3-D array of floats
@pytest.mark.parametrize("lengths", [(1.0, [1.0]), ([1.0], [1.0])])
def test_sequence_valued_length_is_a_type_error(lengths):
    g = chain_graph([-1.0, -1.0, -1.0], [1.0, 1.0])
    g = MetricGraph(g.vertices, tuple(FiniteEdge(e.id, e.start, e.end, l)
                                      for e, l in zip(g.finite_edges, lengths)), g.infinite_edges)
    with pytest.raises(TypeError, match=r"must be numbers, got \["):
        parameters(g)
    with pytest.raises(TypeError):
        find_ground_state(g)
    with pytest.raises(TypeError):
        run_sweep(g, [SweepSpec(SweepTarget("vertex", "v1"), -2.0, -1.0, 3)])


def test_all_zero_alpha_rejected():
    g = MetricGraph(
        (VertexSpec("a", 0.0), VertexSpec("b", 0.0)),
        (FiniteEdge("e", "a", "b", 1.0),),
    )
    report = validate(g)
    assert any("no attractive vertex" in p for p in report.problems)


def test_self_loop_rejected():
    g = MetricGraph((VertexSpec("v", -1.0),), (FiniteEdge("e", "v", "v", 1.0),))
    assert any("self-loop" in p for p in validate(g).problems)


def test_unknown_endpoint_rejected():
    g = MetricGraph((VertexSpec("v", -1.0),), (FiniteEdge("e", "v", "w", 1.0),))
    assert any("unknown vertex 'w'" in p for p in validate(g).problems)


def test_nonpositive_length_rejected():
    g = MetricGraph(
        (VertexSpec("a", -1.0), VertexSpec("b", -1.0)),
        (FiniteEdge("e", "a", "b", 0.0),),
    )
    assert any("nonpositive length" in p for p in validate(g).problems)


def test_duplicate_ids_rejected():
    g = MetricGraph(
        (VertexSpec("a", -1.0), VertexSpec("a", -2.0)),
        (),
        (InfiniteEdge("t", "a"), InfiniteEdge("t", "a")),
    )
    problems = validate(g).problems
    assert any("duplicate vertex id" in p for p in problems)
    assert any("duplicate edge id" in p for p in problems)


def test_isolated_vertex_rejected():
    g = MetricGraph(
        (VertexSpec("a", -1.0), VertexSpec("b", -1.0)),
        (),
        (InfiniteEdge("t", "a"),),
    )
    assert validate(g).problems == (
        "vertex 'b': isolated vertex (degree 0)",
        "disconnected graph (2 components)",
    )


def test_isolated_vertices_reported_in_vertex_order():
    g = MetricGraph(
        (
            VertexSpec("c", -1.0),
            VertexSpec("a", -1.0),
            VertexSpec("b", 0.0),
            VertexSpec("d", -1.0),
        ),
        (),
        (InfiniteEdge("t", "a"),),
    )
    assert validate(g).problems == (
        "vertex 'c': isolated vertex (degree 0)",
        "vertex 'b': isolated vertex (degree 0)",
        "vertex 'd': isolated vertex (degree 0)",
        "disconnected graph (4 components)",
    )


def test_disconnected_graph_rejected():
    g = MetricGraph(
        (
            VertexSpec("a", -1.0),
            VertexSpec("b", -1.0),
            VertexSpec("c", -1.0),
            VertexSpec("d", -1.0),
        ),
        (FiniteEdge("e1", "a", "b", 1.0), FiniteEdge("e2", "c", "d", 1.0)),
    )
    assert validate(g).problems == ("disconnected graph (2 components)",)


def test_validate_long_chain_is_fast():
    # validate is linear in the graph size: 2e4 vertices take well under a
    # second, where a scan of all edges per vertex takes about 45 s
    n = 20_000
    g = as_chain_graph(LineConfig(tuple(float(i) for i in range(n)), (-1.0,) * n))
    t0 = time.perf_counter()
    report = validate(g)
    assert report.ok
    assert time.perf_counter() - t0 < 5.0


def test_require_valid_raises_with_report():
    g = MetricGraph((VertexSpec("v", 1.0),), (), (InfiniteEdge("t", "v"),))
    with pytest.raises(InvalidGraphError) as err:
        require_valid(g)
    assert "positive alpha" in str(err.value)


def test_require_valid_accepts_star():
    require_valid(star_graph(-2.0))


def test_graph_accessors():
    g = star_graph(-1.25)
    assert g.alpha("c") == -1.25
    assert g.vertex("q").alpha == -2.0
    assert "axial" in g.edge_ids()
    with pytest.raises(KeyError):
        g.vertex("nope")


def test_round_trip_preserves_graph(tmp_path):
    g = star_graph(-1.090881788, L2=2.5)
    path = tmp_path / "star.json"
    save_graph(g, path)
    assert load_graph(path) == g


def test_round_trip_with_leads(tmp_path):
    g = chain_graph([-1.0, -0.25], [0.75])
    path = tmp_path / "chain.json"
    save_graph(g, path)
    loaded = load_graph(path)
    assert loaded == g
    assert loaded.infinite_edges[0].anchor == "v1"


def test_saved_file_is_plain_json(tmp_path):
    path = tmp_path / "g.json"
    save_graph(single_vertex_graph(-2.0, 2), path)
    data = json.loads(path.read_text())
    assert data["vertices"] == [{"id": "v", "alpha": -2.0}]
    assert data["infinite_edges"] == [{"id": "t1", "anchor": "v"}, {"id": "t2", "anchor": "v"}]


def test_load_missing_file_is_format_error(tmp_path):
    with pytest.raises(GraphFormatError):
        load_graph(tmp_path / "absent.json")


def test_load_malformed_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    with pytest.raises(GraphFormatError) as err:
        load_graph(path)
    assert "line" in str(err.value)


def test_load_rejects_unknown_field(tmp_path):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps({
        "vertices": [{"id": "v", "alpha": -2.0, "color": "red"}],
        "finite_edges": [],
        "infinite_edges": [{"id": "t", "anchor": "v"}],
    }))
    with pytest.raises(GraphFormatError) as err:
        load_graph(path)
    assert "color" in str(err.value)


def test_load_rejects_missing_field(tmp_path):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps({
        "vertices": [{"id": "v"}],
        "finite_edges": [],
        "infinite_edges": [{"id": "t", "anchor": "v"}],
    }))
    with pytest.raises(GraphFormatError) as err:
        load_graph(path)
    assert "alpha" in str(err.value)


def test_load_rejects_boolean_alpha(tmp_path):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({
        "vertices": [{"id": "v", "alpha": True}],
        "finite_edges": [],
        "infinite_edges": [{"id": "t", "anchor": "v"}],
    }))
    with pytest.raises(GraphFormatError):
        load_graph(path)


@pytest.mark.parametrize("field", ["finite_edges", "infinite_edges"])
@pytest.mark.parametrize("value", [5, "t1", {"id": "t1", "anchor": "v"}])
def test_load_rejects_edge_list_that_is_not_a_list(tmp_path, field, value):
    path = tmp_path / "notlist.json"
    doc = {"vertices": [{"id": "v", "alpha": -2.0}], "finite_edges": [], "infinite_edges": []}
    doc[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(GraphFormatError) as err:
        load_graph(path)
    assert field in str(err.value)


def test_load_accepts_absent_or_null_edge_lists(tmp_path):
    path = tmp_path / "lead_only.json"
    path.write_text(json.dumps({
        "vertices": [{"id": "v", "alpha": -2.0}],
        "finite_edges": None,
        "infinite_edges": [{"id": "t", "anchor": "v"}],
    }))
    assert load_graph(path).finite_edges == ()


def test_load_runs_validation(tmp_path):
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps({
        "vertices": [{"id": "v", "alpha": 2.0}],
        "finite_edges": [],
        "infinite_edges": [{"id": "t", "anchor": "v"}],
    }))
    with pytest.raises(InvalidGraphError):
        load_graph(path)


_PAIR = [{"id": "a", "alpha": -1.0}, {"id": "b", "alpha": -1.0}]


@pytest.mark.parametrize("doc, problems", [
    ({"vertices": [{"id": "v", "alpha": math.nan}], "infinite_edges": [{"id": "t", "anchor": "v"}]},
     ("vertex 'v': non-finite alpha", "no attractive vertex (no alpha is finite and negative)")),
    ({"vertices": [{"id": "v", "alpha": 2.0}], "infinite_edges": [{"id": "t", "anchor": "v"}]},
     ("vertex 'v': positive alpha 2.0", "no attractive vertex (no alpha is finite and negative)")),
    ({"vertices": _PAIR, "finite_edges": [{"id": "e", "from": "a", "to": "b", "length": math.inf}]},
     ("edge 'e': non-finite length",)),
    ({"vertices": []}, ("graph has no vertices",)),
    ({"vertices": _PAIR, "finite_edges": [{"id": "e", "from": "a", "to": "b", "length": 1.0},
                                          {"id": "e", "from": "b", "to": "a", "length": 2.0}]},
     ("duplicate edge id 'e'",)),
    ({"vertices": [{"id": "v", "alpha": -1.0}], "infinite_edges": [{"id": "t", "anchor": "w"}]},
     ("lead 't': unknown vertex 'w'",)),
], ids=["nan-alpha", "positive-alpha", "inf-length", "no-vertices", "duplicate-edge",
        "lead-on-unknown-vertex"])
def test_validation_messages_of_a_file(tmp_path, doc, problems, capsys):
    # json writes NaN and Infinity, and load_graph reads them as floats
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidGraphError) as err:
        load_graph(path)
    assert err.value.report.problems == problems
    assert main(["groundstate", str(path)]) == 2
    assert capsys.readouterr().err == "error: invalid graph: " + "; ".join(problems) + "\n"


_V = '{"id": "v", "alpha": -1}'


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "expected an object"),
    ('{"vertices": [], "edges": [], "color": 1}', "unknown field(s) color, edges"),
    ('{"finite_edges": []}', "missing field(s) vertices"),
    ('{"vertices": null}', "'vertices' must be a list"),
    ('{"vertices": [], "infinite_edges": 5}', "'infinite_edges' must be a list"),
    ('{"vertices": ["v"]}', "vertices[0]: expected an object"),
    ('{"vertices": [{"id": "v", "alpha": -1, "color": 1}]}', "vertices[0]: unknown field(s) color"),
    ('{"vertices": [%s], "finite_edges": [{"id": "e"}]}' % _V,
     "finite_edges[0]: missing field(s) from, length, to"),
    ('{"vertices": [{"id": "", "alpha": -1}]}', "vertices[0]: ids must be non-empty strings"),
    ('{"vertices": [%s], "infinite_edges": [{"id": "t", "anchor": 0}]}' % _V,
     "infinite_edges[0]: ids must be non-empty strings"),
    ('{"vertices": [%s, {"id": "w", "alpha": "-1"}]}' % _V, "vertices[1]: expected a number"),
    ('{"vertices": [%s], "finite_edges": [{"id": "e", "from": "v", "to": "w", "length": true}]}'
     % _V, "finite_edges[0]: expected a number"),
    ("{ not json", "invalid JSON at line 1 column 3: "
                   "Expecting property name enclosed in double quotes"),
    (None, "cannot read file: No such file or directory"),
])
def test_format_error_messages(tmp_path, text, message):
    path = tmp_path / "g.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(GraphFormatError) as err:
        load_graph(path)
    assert str(err.value) == f"{path}: {message}"


def test_saved_file_bytes(tmp_path):
    path = tmp_path / "g.json"
    save_graph(MetricGraph((VertexSpec("c", -1.0), VertexSpec("q", -2.0)),
                           (FiniteEdge("axial", "c", "q", 1.0),), (InfiniteEdge("t1", "c"),)), path)
    assert path.read_text() == """{
  "vertices": [
    {
      "id": "c",
      "alpha": -1.0
    },
    {
      "id": "q",
      "alpha": -2.0
    }
  ],
  "finite_edges": [
    {
      "id": "axial",
      "from": "c",
      "to": "q",
      "length": 1.0
    }
  ],
  "infinite_edges": [
    {
      "id": "t1",
      "anchor": "c"
    }
  ]
}
"""
