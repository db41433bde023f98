"""Canonical JSON round-trips and the export formats."""

import json
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from fractalcut import (Graph, ParseError, ProblemInstance, build_fractal,
                        compose_lbec, fractal_to_dot, parse, to_dimacs,
                        to_dot, to_json)
from fractalcut import serialize
from fractalcut.cli import main
from fractalcut.fractal import MAX_DEPTH
from fractalcut.reducer import TwoPageEmbedding
from fractalcut.serialize import (MAX_VERTICES, parse_embedding, parse_vc,
                                  write_json)


def test_fractal_round_trip():
    f = build_fractal(3)
    again = parse(to_json(f))
    assert again == f


def test_graph_round_trip_with_labels_and_costs():
    g = Graph(True, 4, [(0, 1, 3, 1), (1, 2), (2, 3, 1, 1), (0, 3, 2)],
              labels={0: "src", 3: "dst"})
    assert parse(to_json(g)) == g


def test_graph_document_with_two_three_and_four_item_rows():
    doc = {"type": "graph", "directed": False, "n": 4,
           "edges": [[1, 0], [1, 2, 3], [3, 2, 2, 1]]}
    g = parse(json.dumps(doc))
    assert [tuple(e) for e in g.edges] == [(0, 1, 1, 1), (1, 2, 3, 1), (2, 3, 2, 1)]
    assert parse(to_json(g)) == g
    doc["edges"][2][3] = 4
    with pytest.raises(ParseError, match="length 4"):
        parse(json.dumps(doc))


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


# The payloads of to_json as plain containers, with a pair or an edge tuple
# per row: the reference that json.dumps writes.


def graph_to_json_obj(g):
    obj = {"type": "graph", "directed": g.directed, "n": g.n,
           "edges": list(g.edges)}
    if g.labels:
        obj["labels"] = {str(v): name for v, name in sorted(g.labels.items())}
    return obj


def instance_to_json_obj(inst):
    obj = {"problem": inst.kind, "directed": inst.graph.directed,
           "n": inst.graph.n, "edges": [(e.u, e.v) for e in inst.graph.edges],
           "k": inst.k, "ell": inst.ell}
    if inst.s is not None:
        obj["s"] = inst.s
        obj["t"] = inst.t
    if any(e.cost != 1 for e in inst.graph.edges):
        obj["costs"] = [e.cost for e in inst.graph.edges]
    return obj


def fractal_to_json_obj(f):
    return {"type": "fractal", "q": f.depth, "directed": f.graph.directed,
            "cost": f.edge_cost, "sigma": f.sigma, "tau": f.tau,
            "n": f.graph.n, "edges": [(e.u, e.v) for e in f.graph.edges],
            "boundaries": [list(b) for b in f.boundaries]}


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
              Graph(True, 4, [(0, 1, 3, 1), (1, 2), (2, 3, 1, 1)], labels=labels),
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


# (batch, q): the writer's own batch, with the deepest boundary of q = 10
# exactly one batch of ints and the edges below (q = 9) and across (q = 10,
# q = 11) a batch boundary; then batches of 16, 15, 5 and 4 rows against
# q = 3's 15 edges: below, exactly one, exactly three, and across; then
# batches of 1 and 2 rows against q = 0's one edge and q = 1's three.  The
# fractal's batches never span two boundaries, so q = 1 at a batch of 2
# is written as a batch of 1 and a batch of 2, where its edge tuple would
# be cut into 2 and 1.
@pytest.mark.parametrize("batch,q", [(None, 9), (None, 10), (None, 11),
                                     (16, 3), (15, 3), (5, 3), (4, 3),
                                     (1, 0), (2, 0), (1, 1), (2, 1)])
def test_gen_writes_the_to_json_bytes_at_batch_boundaries(capsys, monkeypatch,
                                                          batch, q):
    if batch is not None:
        monkeypatch.setattr(serialize, "_BATCH", batch)
    for directed in (False, True):
        for cost in (1, 3):
            argv = ["gen", "--q", str(q), "--cost", str(cost)]
            assert main(argv + (["--directed"] if directed else [])) == 0
            f = build_fractal(q, directed=directed, cost=cost)
            out = capsys.readouterr().out
            assert out == to_json(f) == _stdlib_text(fractal_to_json_obj(f))


@pytest.mark.parametrize("batch", [None, 2])
def test_to_json_matches_stdlib_across_row_batches(monkeypatch, batch):
    if batch is not None:
        monkeypatch.setattr(serialize, "_BATCH", batch)
    for m in (1, 2, 3, 5, 1023, 1024, 1025, 2048):
        path = Graph(False, m + 1, [(i, i + 1, 1 + i % 2) for i in range(m)])
        inst = ProblemInstance("lbec", path, s=0, t=m, k=1, ell=m)
        assert to_json(path) == _stdlib_text(graph_to_json_obj(path))
        assert to_json(inst) == _stdlib_text(instance_to_json_obj(inst))


def test_writing_a_fractal_holds_no_per_edge_container():
    f = build_fractal(14)
    pairs = [(e.u, e.v) for e in f.graph.edges]
    assert len(pairs) == 32_767
    container = sys.getsizeof(pairs) + sum(map(sys.getsizeof, pairs))
    del pairs
    written = []
    tracemalloc.start()
    try:
        write_json(f, lambda text: written.append(len(text)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(written) == len(to_json(f))
    assert max(written) < container / 20
    assert peak < container / 5


class _CountingWriter:
    def __init__(self):
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))


def test_gen_holds_no_per_edge_container(monkeypatch):
    pairs = [(e.u, e.v) for e in build_fractal(14).graph.edges]
    container = sys.getsizeof(pairs) + sum(map(sys.getsizeof, pairs))
    del pairs
    out = _CountingWriter()
    monkeypatch.setattr(sys, "stdout", out)
    # A first run fills caches (argparse's, the regex module's) that are
    # no part of writing the document.
    assert main(["gen", "--q", "0"]) == 0
    out.sizes.clear()
    tracemalloc.start()
    try:
        assert main(["gen", "--q", "14"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(out.sizes) == len(to_json(build_fractal(14)))
    assert max(out.sizes) < container / 20
    assert peak < container / 5


@st.composite
def documents(draw):
    """A graph with labels of any text, or an instance with or without
    terminals; either weighted (costs 1-3) or unit, on n <= 30 vertices."""
    n = draw(st.integers(2, 30))
    directed = draw(st.booleans())
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    rows = draw(st.lists(pair.filter(lambda p: p[0] != p[1]), max_size=60))
    max_cost = draw(st.sampled_from([1, 3]))
    edges = [(u, v, draw(st.integers(1, max_cost))) for u, v in rows]
    kind = draw(st.sampled_from(["graph", "lbec", "mded", "dsct"]))
    if kind == "graph":
        labels = draw(st.dictionaries(st.integers(0, n - 1), st.text(),
                                      max_size=4))
        return Graph(directed, n, edges, labels)
    g = Graph(kind == "dsct" or directed, n, edges)
    k, ell = draw(st.integers(0, 5)), draw(st.integers(1, 6))
    if kind != "lbec":
        return ProblemInstance(kind, g, k=k, ell=ell)
    s, t = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                         unique=True))
    return ProblemInstance(kind, g, s=s, t=t, k=k, ell=ell)


@settings(max_examples=200, deadline=None)
@given(documents())
def test_to_json_matches_stdlib_and_round_trips(doc):
    reference = (graph_to_json_obj(doc) if isinstance(doc, Graph)
                 else instance_to_json_obj(doc))
    text = to_json(doc)
    assert text == _stdlib_text(reference)
    assert parse(text) == doc


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
_FRACTAL0 = json.loads(to_json(build_fractal(0)))


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
    _with(_FRACTAL0, edges=[[False, True]]),
    _with(_FRACTAL0, boundaries=[[False]]),
    _with(_FRACTAL, edges=[[0, 2], [0, 1.0], [1, 2]]),
    _with(_FRACTAL, boundaries=[[0.0], [1, 2]]),
], ids=["n", "k", "ell", "s", "t", "s-float", "edge", "costs", "costs-str",
        "graph-n", "graph-cost", "graph-length", "fractal-q", "fractal-cost",
        "fractal-edge-bool", "fractal-boundary-bool", "fractal-edge-float",
        "fractal-boundary-float"])
def test_parse_rejects_bool_and_float_where_int_expected(text):
    with pytest.raises(ParseError):
        parse(text)


def test_parse_accepts_the_same_documents_with_ints():
    assert parse(json.dumps(_INSTANCE)).k == 1
    assert parse(_with(_INSTANCE, costs=[1, 2])).graph.edges[1].cost == 2
    assert parse(json.dumps(_GRAPH)).n == 3


def test_parse_of_a_fractal_document_builds_no_graph(monkeypatch):
    cases = [(q, directed, cost) for q in (0, 1, 12)
             for directed in (False, True) for cost in (1, 3)]
    docs = [(to_json(build_fractal(*case)), build_fractal(*case))
            for case in cases]

    def refuse(self, *args, **kwargs):
        raise AssertionError("a Graph was built")

    monkeypatch.setattr(Graph, "__init__", refuse)
    parsed = [parse(text) for text, _ in docs]
    assert parsed == [f for _, f in docs]
    monkeypatch.undo()
    assert [f.graph for f in parsed] == [f.graph for _, f in docs]


def test_parse_rejects_tampered_fractal():
    doc = json.loads(to_json(build_fractal(2)))
    for field, value, message in (
            ("q", 3, "does not match its parameters"),
            ("edges", [[0, 4]], "edge list"),
            ("boundaries", [[9], [9, 9]], "boundaries"),
            ("sigma", 3, "'sigma'"),
            ("n", 99, "'n'"),
            ("tau", "x", "'tau'")):
        with pytest.raises(ParseError, match=message):
            parse(_with(doc, **{field: value}))


def test_parse_compares_every_item_of_every_fractal_row():
    doc = json.loads(to_json(build_fractal(2, directed=True)))
    assert parse(json.dumps(doc)) == build_fractal(2, directed=True)
    for i, row in enumerate(doc["edges"]):
        for j in range(2):
            for bad in (row[j] + 1, float(row[j]), row[j] == 1):
                edges = [list(r) for r in doc["edges"]]
                edges[i][j] = bad
                with pytest.raises(ParseError, match="edge list"):
                    parse(_with(doc, edges=edges))
        for bad in (row + [0], row[:1], row[::-1]):
            edges = doc["edges"][:i] + [bad] + doc["edges"][i + 1:]
            with pytest.raises(ParseError, match="edge list"):
                parse(_with(doc, edges=edges))
    for bad in (doc["edges"][:-1], doc["edges"] + [[0, 4]]):
        with pytest.raises(ParseError, match="edge list"):
            parse(_with(doc, edges=bad))


def test_parse_refuses_fractal_deeper_than_cap():
    with pytest.raises(ParseError, match="depth"):
        parse(_with(_FRACTAL, q=MAX_DEPTH + 1))


def test_parse_refuses_a_tiny_deep_fractal_before_building_it():
    p = 1 << MAX_DEPTH
    text = json.dumps({"type": "fractal", "q": MAX_DEPTH, "directed": False,
                       "cost": 1, "sigma": 0, "tau": p, "n": p + 1,
                       "edges": [], "boundaries": []})
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as exc:
            parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "fractal edge list does not match its parameters"
    assert peak < 1 << 20


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


def test_dot_escapes_labels_and_roles():
    g = Graph(False, 2, [(0, 1)], labels={0: 'a"b', 1: "x\ny"})
    dot = to_dot(g, roles={0: "back\\slash"}, edge_colors={0: 'r"ed'})
    assert dot.splitlines() == [
        "graph g {",
        '  0 [role="back\\\\slash", label="a\\"b"];',
        '  1 [label="x\\ny"];',
        '  0 -- 1 [color="r\\"ed"];',
        "}",
    ]


@pytest.mark.parametrize("name,header", [
    ("g", "graph g {"),
    ("_Fractal_q7", "graph _Fractal_q7 {"),
    ("my graph", 'graph "my graph" {'),
    ("7up", 'graph "7up" {'),
    ('say "hi"', 'graph "say \\"hi\\"" {'),
    ("", 'graph "" {'),
    ("Graph", 'graph "Graph" {'),
    ("strict", 'graph "strict" {'),
])
def test_dot_quotes_names_that_are_not_identifiers(name, header):
    dot = to_dot(Graph(False, 2, [(0, 1)]), name=name)
    assert dot.splitlines()[0] == header


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
