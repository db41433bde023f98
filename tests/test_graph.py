"""Graph substrate: elementary algorithms against exhaustive oracles."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from fractalcut import (Graph, InputError, ParseError, UNREACHABLE,
                        bfs_distance, build_fractal, is_connected,
                        is_edge_cut, is_minimal_edge_cut,
                        is_strongly_connected, min_cut, parse, to_json)
from fractalcut.composer import _expand_marked
from fractalcut.fractal import cut_for_instance
from fractalcut.graph import distances


def brute_min_cut_value(g, s, t):
    """Independent oracle: cheapest disconnecting edge subset, by enumeration."""
    m = len(g.edges)
    best = None
    for size in range(0, m + 1):
        for combo in itertools.combinations(range(m), size):
            if is_edge_cut(g, s, t, combo):
                cost = g.total_cost(combo)
                if best is None or cost < best:
                    best = cost
    return best


# -- construction and validation ---------------------------------------------

def test_vertex_and_edge_validation():
    with pytest.raises(InputError):
        Graph(False, 2, [(0, 2)])
    with pytest.raises(InputError):
        Graph(False, 2, [(0, 0)])
    with pytest.raises(InputError):
        Graph(False, 2, [(0, 1, 0)])
    with pytest.raises(InputError):
        Graph(False, 2, [(0, 1, 1, 0)])


def test_graph_refuses_non_unit_lengths():
    # Every edge is one hop.  Read as 1, the length 5 below would make the
    # 7-hop cycle 0 -> 1 -> 2 -> 0 a 3-hop one, so it is refused where the
    # graph is built, in code and in a graph document alike.
    with pytest.raises(InputError, match=r"edge \(0,1\) has length 5"):
        Graph(True, 3, [(0, 1, 1, 5), (1, 2), (2, 0)])
    doc = {"type": "graph", "directed": True, "n": 3,
           "edges": [[0, 1, 1, 5], [1, 2], [2, 0]]}
    with pytest.raises(ParseError, match="has length 5"):
        parse(json.dumps(doc))


@pytest.mark.parametrize("row", [(0, 1, 2.0), (0, 1, True), (0, 1, False),
                                 (0, 1, "2"), (0, 1, 2.0, 1), (0, 1, True, 1)])
def test_graph_refuses_costs_that_are_not_ints(row):
    # A float cost would be written back as 2.0, which parse refuses, and
    # True would read as a unit cost; both are refused, naming the edge.
    with pytest.raises(InputError, match=r"edge \(0,1\) needs a positive int cost"):
        Graph(False, 3, [row, (1, 2), (0, 2)])


def test_unit_reads_costs_only():
    # Rows of two, three and four items all store one-hop edges, so a
    # graph is unit exactly when every cost is 1.
    g = Graph(False, 4, [(1, 0), (1, 2, 1), (3, 2, 1, 1)])
    assert [e.length for e in g.edges] == [1, 1, 1]
    assert g.is_unit and g.is_simple
    assert not Graph(False, 4, [(1, 0), (1, 2, 1), (3, 2, 2, 1)]).is_unit


def test_undirected_edges_canonicalized():
    g = Graph(False, 3, [(2, 0), (1, 2)])
    assert [(e.u, e.v) for e in g.edges] == [(0, 2), (1, 2)]


def test_simple_mode_flag():
    assert Graph(False, 3, [(0, 1), (1, 2)]).is_simple
    assert not Graph(False, 3, [(0, 1), (0, 1)]).is_simple
    assert not Graph(False, 3, [(0, 1, 2)]).is_simple


# -- bfs ----------------------------------------------------------------------

def test_bfs_single_edge():
    g = Graph(False, 2, [(0, 1)])
    assert bfs_distance(g, 0, 1) == 1


def test_bfs_fractal_terminals_adjacent():
    f = build_fractal(3)
    assert bfs_distance(f.graph, f.sigma, f.tau) == 1  # depth-0 boundary edge


def test_bfs_unreachable_after_full_cut():
    f = build_fractal(3)
    cut = cut_for_instance(f, 1)
    assert bfs_distance(f.graph, f.sigma, f.tau, frozenset(cut.edges)) == UNREACHABLE


def test_bfs_rejects_bad_vertex():
    g = Graph(False, 2, [(0, 1)])
    with pytest.raises(InputError):
        bfs_distance(g, 0, 5)
    for source in (-1, 2):
        with pytest.raises(InputError):
            distances(g, source)


def test_bfs_directed_respects_orientation():
    g = Graph(True, 3, [(0, 1), (1, 2)])
    assert bfs_distance(g, 0, 2) == 2
    assert bfs_distance(g, 2, 0) == UNREACHABLE


# -- min cut -------------------------------------------------------------------

def test_min_cut_fractal_sizes():
    for q in range(0, 6):
        f = build_fractal(q)
        cert = min_cut(f.graph, f.sigma, f.tau)
        assert cert.total_cost == q + 1
        assert is_minimal_edge_cut(f.graph, f.sigma, f.tau, cert.edges)


def test_min_cut_single_edge():
    f = build_fractal(0)
    cert = min_cut(f.graph, 0, 1)
    assert cert.edges == (0,) and cert.total_cost == 1


def test_min_cut_weighted_fractal():
    f = build_fractal(2, cost=4)
    assert min_cut(f.graph, f.sigma, f.tau).total_cost == 12


def test_min_cut_requires_distinct_terminals():
    g = Graph(False, 2, [(0, 1)])
    with pytest.raises(InputError):
        min_cut(g, 1, 1)


def test_min_cut_matches_exhaustive_enumeration():
    cases = [
        Graph(False, 4, [(0, 1), (1, 3), (0, 2), (2, 3), (0, 3)]),
        Graph(False, 4, [(0, 1, 3), (1, 3, 2), (0, 3, 1), (0, 2), (2, 3, 4)]),
        Graph(True, 4, [(0, 1), (1, 3), (0, 2), (2, 3), (3, 0)]),
        Graph(False, 5, [(0, 1), (0, 1), (1, 4), (0, 2), (2, 4), (0, 4)]),
        build_fractal(2).graph,
        build_fractal(1, cost=3).graph,
    ]
    for g in cases:
        assert min_cut(g, 0, g.n - 1).total_cost == brute_min_cut_value(g, 0, g.n - 1)


# -- connectivity ---------------------------------------------------------------

def test_connectivity_basics():
    assert not is_connected(Graph(False, 2, []))
    for q in range(0, 9):
        assert is_connected(build_fractal(q).graph)
    # tau has no outgoing arcs, so the directed variant is never strongly
    # connected beyond the single-vertex degenerate case
    for q in range(1, 9):
        assert not is_strongly_connected(build_fractal(q, directed=True).graph)
    cyc = Graph(True, 3, [(0, 1), (1, 2), (2, 0)])
    assert is_strongly_connected(cyc)


# -- adjacency on first query ------------------------------------------------------

def _eager_lists(g):
    """Reference neighbour lists, built the way the constructor once built
    them for every graph: (neighbor, edge index) pairs in edge order, then
    sorted; an undirected graph's in-lists are its out-lists."""
    adj = [[] for _ in range(g.n)]
    radj = [[] for _ in range(g.n)] if g.directed else adj
    for idx, e in enumerate(g.edges):
        adj[e.u].append((e.v, idx))
        if g.directed:
            radj[e.v].append((e.u, idx))
        else:
            adj[e.v].append((e.u, idx))
    for lst in adj + (radj if g.directed else []):
        lst.sort()
    return adj, radj


def _reference_distances(lists, source, dead=frozenset()):
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v, idx in lists[u]:
                if idx not in dead and v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def _seeded_multigraph(seed, directed):
    """Up to 8 vertices, with parallel edges, undirected edges given in
    either order, and on odd seeds a last vertex that no edge touches."""
    rnd = random.Random(seed)
    n = rnd.randint(1, 8)
    used = n - (seed % 2) if n > 2 else n
    edges = []
    for _ in range(rnd.randint(0, 3 * used) if used >= 2 else 0):
        if edges and rnd.random() < 0.25:
            edges.append(rnd.choice(edges))
        else:
            edges.append(tuple(rnd.sample(range(used), 2)))
    return Graph(directed, n, edges)


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_adjacency_queries_match_an_eager_reference(directed):
    for seed in range(40):
        g = _seeded_multigraph(seed, directed)
        assert g._adj is None
        adj, radj = _eager_lists(g)
        for u in range(g.n):
            assert g.out_neighbors(u) == adj[u]
            assert g._adjacency()[1][u] == radj[u]
            assert g.degree(u) == len(adj[u])
            assert g.in_degree(u) == len(radj[u])
        dead = frozenset(random.Random(seed).sample(range(len(g.edges)),
                                                    len(g.edges) // 3))
        for s in range(g.n):
            for cut in (frozenset(), dead):
                dist = _reference_distances(adj, s, cut)
                forward = distances(g, s, cut)
                backward = distances(g, s, cut, reverse=True)
                for t in range(g.n):
                    assert bfs_distance(g, s, t, cut) == dist.get(t, UNREACHABLE)
                    assert forward[t] == bfs_distance(g, s, t, cut)
                    assert backward[t] == bfs_distance(g, t, s, cut)
        both = [adj[u] + radj[u] if directed else adj[u] for u in range(g.n)]
        assert is_connected(g) == (len(_reference_distances(both, 0)) == g.n)
        assert is_strongly_connected(g) == all(
            len(_reference_distances(adj, s)) == g.n for s in range(g.n))


def test_adjacency_is_not_built_by_construction_cuts_or_serialization():
    for directed in (False, True):
        f = build_fractal(5, directed=directed, cost=2)
        assert min_cut(f.graph, f.sigma, f.tau).total_cost == 2 * 6
        back = parse(to_json(f))
        plain = parse(to_json(f.graph))
        for g in (f.graph, back.graph, plain):
            assert g._adj is None and g._radj is None
        assert bfs_distance(f.graph, f.sigma, f.tau) == 1
        assert f.graph._adj is not None and f.graph._radj is not None


# -- cost expansion --------------------------------------------------------------

def subdivide(g):
    """Every edge of cost c becomes c parallel two-hop paths through fresh
    midpoints: the composer's expansion with every edge marked."""
    n, rows, _ = _expand_marked(g.edges, g.n, set(range(len(g.edges))))
    return Graph(g.directed, n, rows, g.labels)


def test_subdivide_single_edge_cost3():
    g = subdivide(Graph(False, 2, [(0, 1, 3)]))
    assert g.n == 5 and len(g.edges) == 6
    assert g.is_simple
    assert bfs_distance(g, 0, 1) == 2
    assert min_cut(g, 0, 1).total_cost == 3


def test_subdivide_unit_edge_becomes_two_hop_path():
    g = subdivide(Graph(False, 2, [(0, 1)]))
    assert g.n == 3 and len(g.edges) == 2
    assert bfs_distance(g, 0, 1) == 2


def test_subdivide_weighted_fractal():
    f = build_fractal(2, cost=2)
    g = subdivide(f.graph)
    assert min_cut(g, f.sigma, f.tau).total_cost == 6
    assert bfs_distance(g, f.sigma, f.tau) == 2


def test_subdivide_preserves_distances_and_cuts():
    cases = [
        Graph(False, 4, [(0, 1, 2), (1, 2), (2, 3, 3), (0, 3)]),
        Graph(True, 4, [(0, 1), (1, 2, 2), (2, 3), (0, 2)]),
        build_fractal(2, cost=2).graph,
    ]
    for g in cases:
        out = subdivide(g)
        assert out.is_simple
        for x in range(g.n):
            for y in range(g.n):
                d = bfs_distance(g, x, y)
                d2 = bfs_distance(out, x, y)
                assert d2 == (d * 2 if d != UNREACHABLE else UNREACHABLE)
        for x in range(g.n):
            for y in range(x + 1, g.n):
                if bfs_distance(g, x, y) == UNREACHABLE:
                    continue
                assert (min_cut(g, x, y).total_cost
                        == min_cut(out, x, y).total_cost)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 6))
    directed = draw(st.booleans())
    pool = [(u, v) for u in range(n) for v in range(n)
            if (u != v if directed else u < v)]
    chosen = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    edges = [(u, v, draw(st.integers(1, 3)), 1) for u, v in chosen]
    return Graph(directed, n, edges)


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_subdivide_doubles_distances_property(g):
    out = subdivide(g)
    assert out.is_simple
    for x in range(g.n):
        d = bfs_distance(g, 0, x)
        d2 = bfs_distance(out, 0, x)
        assert d2 == (d * 2 if d != UNREACHABLE else UNREACHABLE)
