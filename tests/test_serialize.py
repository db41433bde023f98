"""Canonical JSON round-trips and the export formats."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from fractalcut import (Graph, ParseError, ProblemInstance, build_fractal,
                        compose_lbec, fractal_to_dot, parse, to_dimacs,
                        to_dot, to_json)
from fractalcut.fractal import MAX_DEPTH
from fractalcut.reducer import TwoPageEmbedding
from fractalcut.serialize import (MAX_VERTICES, fractal_to_json_obj,
                                  graph_to_json_obj, instance_to_json_obj,
                                  parse_embedding, parse_vc, pretty_json)


def test_fractal_round_trip():
    f = build_fractal(3)
    again = parse(to_json(f))
    assert again == f


def test_graph_round_trip_with_labels_and_costs():
    g = Graph(True, 4, [(0, 1, 3, 1), (1, 2), (2, 3, 1, 1), (0, 3, 2)],
              labels={0: "src", 3: "dst"})
    assert parse(to_json(g)) == g


def test_instance_round_trip():
    g = Graph(False, 4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    inst = ProblemInstance("lbec", g, s=0, t=2, k=1, ell=3)
    again = parse(to_json(inst))
    assert again == inst


def test_weighted_instance_round_trip():
    tri = ProblemInstance("lbec", Graph(False, 3, [(0, 1), (1, 2), (0, 2)]),
                          s=0, t=2, k=2, ell=3)
    art = compose_lbec([tri, tri])
    text = to_json(art.composed)
    assert '"costs"' in text
    again = parse(text)
    # the instance schema is label-free; everything else survives
    orig = art.composed
    assert (again.kind, again.s, again.t, again.k, again.ell) == \
        (orig.kind, orig.s, orig.t, orig.k, orig.ell)
    assert again.graph.edges == orig.graph.edges
    assert again.graph.directed == orig.graph.directed
    assert again.graph.n == orig.graph.n


def _stdlib_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_to_json_matches_stdlib_on_fractals():
    for q in range(0, 11):
        for directed in (False, True):
            for cost in (1, 2):
                f = build_fractal(q, directed=directed, cost=cost)
                assert to_json(f) == _stdlib_text(fractal_to_json_obj(f))


def test_to_json_matches_stdlib_on_graphs_and_instances():
    labels = {0: 'quote " here', 1: "back\\slash", 2: "caf\u00e9 \u2192 \u03c3",
              3: "tab\tnew\nline"}
    graphs = [Graph(False, 0, []), Graph(True, 3, []),
              Graph(True, 4, [(0, 1, 3, 1), (1, 2), (2, 3, 1, 5)], labels=labels),
              Graph(False, 4, [(0, 1), (1, 2), (0, 1)], labels={3: ""})]
    for g in graphs:
        assert to_json(g) == _stdlib_text(graph_to_json_obj(g))
    tri = Graph(False, 3, [(0, 1), (1, 2), (0, 2)])
    instances = [
        ProblemInstance("lbec", tri, s=0, t=2, k=1, ell=3),
        ProblemInstance("mded", tri, k=1, ell=2),
        ProblemInstance("dsct", Graph(True, 2, []), k=0, ell=2),
        compose_lbec([ProblemInstance("lbec", tri, s=0, t=2, k=2, ell=3)] * 2).composed,
    ]
    assert '"costs"' in to_json(instances[-1])
    for inst in instances:
        assert to_json(inst) == _stdlib_text(instance_to_json_obj(inst))


@pytest.mark.parametrize("payload", [
    [], {}, [[]], [[], [1]], [[1, 2], [3, 4, 5]], [[1, 2], (3, 4)],
    (1, (2, 3)), [True, 1, None], [1.5, -0.0, float("inf"), 10 ** 30],
    {"z": {}, "a": [], "m": {"n": [["x", 1]]}, "\u00e9": "\\"},
    {"witness": None, "answer": False, "nodes": 0},
])
def test_pretty_json_matches_stdlib(payload):
    assert pretty_json(payload) == _stdlib_text(payload)


@pytest.mark.parametrize("payload", [{1: 2}, {"a": {None: 1}}, [set()], object()])
def test_pretty_json_rejects_non_string_keys_and_unknown_types(payload):
    with pytest.raises(TypeError):
        pretty_json(payload)


def test_parse_error_diagnostics():
    with pytest.raises(ParseError, match="not valid JSON"):
        parse("{oops")
    with pytest.raises(ParseError, match="type tag"):
        parse("{}")
    with pytest.raises(ParseError, match="edges"):
        parse('{"type": "graph", "directed": false, "n": 2, "edges": [[0]]}')
    with pytest.raises(ParseError, match="'n'"):
        parse('{"type": "graph", "directed": false, "edges": []}')
    with pytest.raises(ParseError):
        parse('{"problem": "lbec", "directed": false, "n": 2, '
              '"edges": [[0, 1]], "k": 1, "ell": 1}')  # missing terminals
    with pytest.raises(ParseError, match="unknown problem kind 'cut'"):
        parse('{"problem": "cut", "directed": false, "n": 2, '
              '"edges": [[0, 1]], "k": 1, "ell": 1}')


def _with(doc, **changes):
    return json.dumps({**doc, **changes})


_INSTANCE = {"problem": "lbec", "directed": False, "n": 3,
             "edges": [[0, 1], [1, 2]], "s": 0, "t": 2, "k": 1, "ell": 2}
_GRAPH = {"type": "graph", "directed": False, "n": 3, "edges": [[0, 1, 1, 1]]}


_FRACTAL = json.loads(to_json(build_fractal(1)))


@pytest.mark.parametrize("text", [
    _with(_INSTANCE, n=True),
    _with(_INSTANCE, k=True),
    _with(_INSTANCE, ell=True),
    _with(_INSTANCE, s=False),
    _with(_INSTANCE, t=True),
    _with(_INSTANCE, s=0.0),
    _with(_INSTANCE, edges=[[0, True], [1, 2]]),
    _with(_INSTANCE, costs=[1, True]),
    _with(_INSTANCE, costs="12"),
    _with(_GRAPH, n=True),
    _with(_GRAPH, edges=[[0, 1, True, 1]]),
    _with(_GRAPH, edges=[[0, 1, 1, False]]),
    _with(_FRACTAL, q=True),
    _with(_FRACTAL, cost=True),
], ids=["n", "k", "ell", "s", "t", "s-float", "edge", "costs", "costs-str",
        "graph-n", "graph-cost", "graph-length", "fractal-q", "fractal-cost"])
def test_parse_rejects_bool_and_float_where_int_expected(text):
    with pytest.raises(ParseError):
        parse(text)


def test_parse_accepts_the_same_documents_with_ints():
    assert parse(json.dumps(_INSTANCE)).k == 1
    assert parse(_with(_INSTANCE, costs=[1, 2])).graph.edges[1].cost == 2
    assert parse(json.dumps(_GRAPH)).n == 3


def test_parse_rejects_tampered_fractal():
    f = build_fractal(2)
    text = to_json(f).replace('"q": 2', '"q": 3')
    with pytest.raises(ParseError):
        parse(text)


def test_parse_refuses_fractal_deeper_than_cap():
    with pytest.raises(ParseError, match="depth"):
        parse(_with(_FRACTAL, q=MAX_DEPTH + 1))


@pytest.mark.parametrize("labels", [{"1_0": "x"}, {" 3": "x"},
                                    {"\u0663": "x"}, {"0": None}],
                         ids=["key-underscore", "key-space", "key-non-ascii",
                              "value-null"])
def test_parse_rejects_malformed_labels(labels):
    # int() would read each key as a vertex id below n and str() any value
    with pytest.raises(ParseError, match="labels"):
        parse(_with(_GRAPH, n=11, labels=labels))


_VC = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]], "k": 2}


@pytest.mark.parametrize("read, doc", [(parse, _GRAPH), (parse, _INSTANCE),
                                       (parse_vc, _VC)],
                         ids=["graph", "instance", "vc"])
def test_parse_caps_the_vertex_count(read, doc):
    assert MAX_VERTICES >= (1 << MAX_DEPTH) + 1  # the deepest fractal fits
    for n in (MAX_VERTICES + 1, 3_000_000, 10 ** 30):
        with pytest.raises(ParseError, match="above the cap"):
            read(_with(doc, n=n))


def test_parse_accepts_a_graph_at_the_vertex_cap():
    assert parse(_with(_GRAPH, n=MAX_VERTICES)).n == MAX_VERTICES
    assert parse(_with(_INSTANCE, n=MAX_VERTICES)).graph.n == MAX_VERTICES


_EMBEDDING = {"order": [0, 1, 2], "pages": {"0-1": "upper", "2-1": "lower"}}


def test_parse_embedding_reads_canonical_pairs():
    emb = parse_embedding(json.dumps(_EMBEDDING))
    assert emb == TwoPageEmbedding((0, 1, 2), {(0, 1): "upper", (1, 2): "lower"})


@pytest.mark.parametrize("text", [
    _with(_EMBEDDING, order=[0, True, 2]),
    _with(_EMBEDDING, order=[0, 1.0, 2]),
    _with(_EMBEDDING, order="012"),
    _with(_EMBEDDING, pages=[1]),
    _with(_EMBEDDING, pages={"0-1": 1}),
    _with(_EMBEDDING, pages={"0-1": "left"}),
    _with(_EMBEDDING, pages={"0_1": "upper"}),
    _with(_EMBEDDING, pages={"0-1-2": "upper"}),
    _with(_EMBEDDING, pages={"-1-0": "upper"}),
    _with(_EMBEDDING, pages={"\u0661-2": "upper"}),
    json.dumps({"order": [0, 1]}),
    "[1]",
], ids=["order-bool", "order-float", "order-str", "pages-list", "page-int",
        "page-name", "key-sep", "key-three", "key-negative", "key-non-ascii",
        "no-pages", "not-object"])
def test_parse_embedding_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_embedding(text)


def test_dot_export_shape():
    f = build_fractal(1)
    dot = fractal_to_dot(f)
    assert dot.startswith("graph fractal_q1 {")
    assert dot.count(" -- ") == 3
    assert 'role="sigma"' in dot and 'role="tau"' in dot
    directed = to_dot(Graph(True, 2, [(0, 1)]))
    assert " -> " in directed


def test_dimacs_export():
    for q in (0, 3):
        f = build_fractal(q)
        lines = to_dimacs(f.graph).splitlines()
        assert lines[0] == f"p edge {2 ** q + 1} {2 ** (q + 1) - 1}"
        assert len(lines) == 1 + (2 ** (q + 1) - 1)
        assert all(line.startswith("e ") for line in lines[1:])
        # 1-indexed endpoints
        assert all(min(int(a), int(b)) >= 1
                   for _, a, b in (line.split() for line in lines[1:]))


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 6))
    directed = draw(st.booleans())
    pool = [(u, v) for u in range(n) for v in range(n)
            if (u != v if directed else u < v)]
    if not pool:
        return Graph(directed, n, [])
    chosen = draw(st.lists(st.sampled_from(pool), max_size=8))
    edges = [(u, v, draw(st.integers(1, 4)), 1) for u, v in chosen]
    return Graph(directed, n, edges)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_round_trip_property(g):
    assert parse(to_json(g)) == g
