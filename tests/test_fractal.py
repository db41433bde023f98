"""Fractal construction, boundaries, dual tree, and cut enumeration.

The library builds the fractal from its closed form under the position
labels and reads its minimum cuts off the same labels;
``verify.check_fractal_formulas`` holds the build to the marked-edge rounds.
The recursive construction and the dual tree live here, as further
independent references for the edges, their order and the cuts.
"""

import itertools
from typing import NamedTuple

import pytest

from fractalcut import (Graph, InputError, TFractal, build_fractal,
                        cut_for_instance, enumerate_min_cuts, is_edge_cut,
                        is_minimal_edge_cut, selected_instance)
from fractalcut.fractal import MAX_DEPTH
from fractalcut.graph import bfs_distance


def test_depth_zero():
    f = build_fractal(0)
    assert f.graph.n == 2 and len(f.graph.edges) == 1
    assert f.sigma == 0 and f.tau == 1
    assert tuple(map(tuple, f.boundaries)) == ((0,),)


def test_depth_three_counts():
    f = build_fractal(3)
    assert f.graph.n == 9
    assert len(f.graph.edges) == 15
    assert [len(b) for b in f.boundaries] == [1, 2, 4, 8]


def test_depth_four_max_degree():
    f = build_fractal(4)
    assert max(f.graph.degree(v) for v in range(f.graph.n)) == 8


def test_invalid_parameters():
    with pytest.raises(InputError):
        build_fractal(-1)
    with pytest.raises(InputError):
        build_fractal(2, cost=0)
    # A cost must be an int proper: True would be written as "cost": true,
    # which parse refuses, and 2.0 as 2.0.
    for cost in (True, 2.0, "3"):
        with pytest.raises(InputError, match="positive int"):
            build_fractal(1, cost=cost)


def test_fractal_builds_its_graph_on_first_read(monkeypatch):
    builds = []
    init = Graph.__init__

    def counted(self, *args, **kwargs):
        builds.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counted)
    for q, directed, cost in ((0, False, 1), (3, True, 1), (5, False, 3)):
        builds.clear()
        f = TFractal(q, directed, cost)
        assert (f.sigma, f.tau, f.leaf_count) == (0, 1 << q, 1 << q)
        cut = cut_for_instance(f, f.leaf_count)
        assert selected_instance(f, cut) == f.leaf_count
        assert builds == []
        g = f.graph
        assert builds == [g] and f.graph is g
        # build_fractal returns its fractal with the graph already built.
        built = build_fractal(q, directed=directed, cost=cost)
        assert builds == [g, built.graph] and "graph" in vars(built)
        assert built == f and built.graph == g


def test_boundaries_partition_edges_and_form_terminal_paths():
    for q in range(0, 7):
        f = build_fractal(q)
        seen = [i for b in f.boundaries for i in b]
        assert sorted(seen) == list(range(len(f.graph.edges)))
        for boundary in f.boundaries:
            at = f.sigma
            for idx in boundary:
                e = f.graph.edges[idx]
                assert at in (e.u, e.v)
                at = e.v if e.u == at else e.u
            assert at == f.tau


def test_directed_terminal_degrees():
    for q in range(0, 7):
        f = build_fractal(q, directed=True)
        g = f.graph
        assert g.in_degree(f.sigma) == 0
        assert len(g.out_neighbors(f.sigma)) == q + 1
        assert len(g.out_neighbors(f.tau)) == 0
        assert g.in_degree(f.tau) == q + 1
        # position labeling is a topological order
        assert all(e.u < e.v for e in g.edges)


def _recursive_boundaries(q, lo, hi):
    """Reference: the recursive construction, which splits the span at its
    midpoint and merges the two halves' boundaries level by level, left
    half first (O(q 2**q) list copies)."""
    if q == 0:
        return [[(lo, hi)]]
    mid = (lo + hi) // 2
    left = _recursive_boundaries(q - 1, lo, mid)
    right = _recursive_boundaries(q - 1, mid, hi)
    return [[(lo, hi)]] + [a + b for a, b in zip(left, right)]


def test_builder_matches_the_recursive_construction():
    # Edge indices are part of the canonical form, so the edge list must
    # match in order: boundary by boundary, each left to right.
    for q in range(15):
        want = [pair for level in _recursive_boundaries(q, 0, 1 << q)
                for pair in level]
        assert len(set(want)) == len(want) == (2 << q) - 1
        for directed in (False, True):
            for cost in (1, 3):
                edges = build_fractal(q, directed=directed, cost=cost).graph.edges
                assert [(e.u, e.v) for e in edges] == want
                assert {(e.cost, e.length) for e in edges} == {(cost, 1)}


def test_edges_share_one_int_object_per_vertex():
    # Ints above 256 are not cached: an endpoint made per edge would hold
    # one int object per edge end, 2**(q+2) - 2 of them.
    for directed, cost in ((False, 1), (True, 3)):
        f = build_fractal(14, directed=directed, cost=cost)
        ends = {id(x) for e in f.graph.edges for x in (e.u, e.v)}
        assert len(ends) == f.graph.n == (1 << 14) + 1


def test_costed_fractal_keeps_the_unit_edge_order():
    for q in range(6):
        for directed in (False, True):
            unit = build_fractal(q, directed=directed).graph.edges
            costed = build_fractal(q, directed=directed, cost=3).graph.edges
            assert [(e.u, e.v) for e in costed] == [(e.u, e.v) for e in unit]
            assert all(e.cost == 3 and e.length == 1 for e in costed)


# -- dual tree -----------------------------------------------------------------

class _DualTree(NamedTuple):
    """Rooted binary tree whose edges biject with fractal edges.

    Node 0 is the root (the split vertex next to the {sigma, tau} edge); the
    internal nodes are the triangles, preorder left to right; the leaves are
    the remaining split vertices.  ``edge_map[(parent, child)]`` is the
    fractal edge index dual to that tree edge.  ``leaf_gap[leaf]`` is the
    index i such that the cut through that leaf separates deepest-boundary
    vertices i-1 and i.
    """

    parent: list
    children: list
    edge_map: dict
    leaf_order: list
    leaf_gap: dict

    def root_leaf_edges(self, leaf):
        """Fractal edge indices along the root-leaf path, root end first."""
        out = []
        node = leaf
        while node != 0:
            out.append(self.edge_map[(self.parent[node], node)])
            node = self.parent[node]
        out.reverse()
        return out


def _build_dual(q):
    parent = [0]
    children = [[]]
    edge_map = {}
    leaf_order = []
    leaf_gap = {}

    # Depth-first, left child before right, so leaves come out left to right.
    # stack holds (level, j, parent_node): the tree node below the j-th edge
    # (1-indexed) of boundary ``level``, which has index 2**level - 1 + j - 1.
    stack = [(0, 1, 0)]
    while stack:
        level, j, par = stack.pop()
        node = len(parent)
        parent.append(par)
        children.append([])
        children[par].append(node)
        edge_map[(par, node)] = (1 << level) - 1 + (j - 1)
        if level == q:
            leaf_order.append(node)
            leaf_gap[node] = j
        else:
            # Right pushed first so the left branch is explored first.
            stack.append((level + 1, 2 * j, node))
            stack.append((level + 1, 2 * j - 1, node))

    return _DualTree(parent, children, edge_map, leaf_order, leaf_gap)


def test_dual_tree_depth_zero():
    d = _build_dual(0)
    assert len(d.leaf_order) == 1
    leaf = d.leaf_order[0]
    assert d.edge_map[(0, leaf)] == 0  # the single tree edge maps to {sigma, tau}


def test_dual_tree_leaf_counts_and_gaps():
    for q in range(0, 7):
        d = _build_dual(q)
        assert len(d.leaf_order) == 1 << q
        assert sorted(d.leaf_gap.values()) == list(range(1, (1 << q) + 1))


def test_dual_tree_edge_map_bijection():
    for q in range(0, 6):
        f = build_fractal(q)
        mapped = sorted(_build_dual(q).edge_map.values())
        assert mapped == list(range(len(f.graph.edges)))


def test_root_leaf_paths_have_one_edge_per_boundary():
    f = build_fractal(2)
    d = _build_dual(2)
    for leaf in d.leaf_order:
        path = d.root_leaf_edges(leaf)
        assert len(path) == 3
        for boundary, idx in zip(f.boundaries, path):
            assert idx in boundary


def test_internal_nodes_have_two_children():
    for q in range(0, 6):
        d = _build_dual(q)
        leaves = set(d.leaf_order)
        for node in range(1, len(d.parent)):
            if node not in leaves:
                assert len(d.children[node]) == 2
        assert len(d.children[0]) == 1  # root hangs off the depth-0 edge


# -- minimum cut enumeration -----------------------------------------------------

def closed_form_cut(f, i):
    """Independent oracle: boundary level l contributes its ceil(i / 2**(q-l))-th
    edge, counting from one; derived from the interval nesting of the
    position labeling rather than from the dual tree."""
    q = f.depth
    edges = []
    for level in range(q + 1):
        j = -(-i // (1 << (q - level)))  # ceil division
        edges.append((1 << level) - 1 + (j - 1))
    return tuple(sorted(edges))


def test_cut_for_instance_matches_closed_form():
    for q in range(0, 11):
        for directed in (False, True):
            f = build_fractal(q, directed=directed, cost=3)
            for i in range(1, (1 << q) + 1):
                cert = cut_for_instance(f, i)
                assert cert.edges == closed_form_cut(f, i)
                assert cert.total_cost == 3 * (q + 1)


def test_cut_for_instance_matches_dual_tree_paths():
    for q in range(0, 11):
        d = _build_dual(q)
        for directed in (False, True):
            f = build_fractal(q, directed=directed)
            for i in range(1, (1 << q) + 1):
                path = d.root_leaf_edges(d.leaf_order[i - 1])
                assert cut_for_instance(f, i).edges == tuple(sorted(path))


def test_depth_cap():
    assert build_fractal(0).depth == 0
    for q in (-1, MAX_DEPTH + 1, 10 ** 9):
        with pytest.raises(InputError, match="depth"):
            build_fractal(q)


def test_depth_one_first_cut():
    f = build_fractal(1)
    cert = cut_for_instance(f, 1)
    pairs = {(f.graph.edges[i].u, f.graph.edges[i].v) for i in cert.edges}
    # apex u has id 1 under the position labeling; sigma = 0, tau = 2
    assert pairs == {(0, 2), (0, 1)}


def test_enumeration_counts_and_structure():
    for q in range(0, 7):
        f = build_fractal(q)
        cuts = enumerate_min_cuts(f)
        assert len(cuts) == 1 << q
        assert len({c.edges for c in cuts}) == len(cuts)
        for cert in cuts:
            assert len(cert.edges) == q + 1
            assert cert.total_cost == q + 1
            for boundary in f.boundaries:
                assert len(set(cert.edges) & set(boundary)) == 1


def test_enumeration_equals_exhaustive_minimal_cuts():
    # The minimum cut has q+1 edges, so every disconnecting (q+1)-subset is
    # a minimum (hence minimal) cut; enumerate them all.
    for q in range(0, 5):
        f = build_fractal(q)
        m = len(f.graph.edges)
        found = {c for c in itertools.combinations(range(m), q + 1)
                 if is_edge_cut(f.graph, f.sigma, f.tau, c)}
        assert found == {c.edges for c in enumerate_min_cuts(f)}


def test_cuts_are_minimal_disconnecting_sets():
    for q in range(0, 6):
        f = build_fractal(q)
        for cert in enumerate_min_cuts(f):
            assert is_minimal_edge_cut(f.graph, f.sigma, f.tau, cert.edges)


def test_selected_instance_inverts_cut_for_instance():
    for q in range(0, 7):
        f = build_fractal(q)
        for i in range(1, (1 << q) + 1):
            assert selected_instance(f, cut_for_instance(f, i)) == i


def test_cut_component_orientation():
    # gap i leaves deepest-boundary vertex i-1 on sigma's side and i on tau's
    for q in range(1, 6):
        f = build_fractal(q)
        for i in range(1, (1 << q) + 1):
            dead = frozenset(cut_for_instance(f, i).edges)
            assert bfs_distance(f.graph, f.sigma, i - 1, dead) != float("inf")
            assert bfs_distance(f.graph, i, f.tau, dead) != float("inf")
            assert bfs_distance(f.graph, f.sigma, i, dead) == float("inf")


def test_index_out_of_range():
    f = build_fractal(2)
    with pytest.raises(InputError):
        cut_for_instance(f, 0)
    with pytest.raises(InputError):
        cut_for_instance(f, 5)


def test_distance_split_at_cuts():
    for q in range(0, 6):
        for directed in (False, True):
            f = build_fractal(q, directed=directed)
            deepest = set(f.boundaries[-1])
            for cert in enumerate_min_cuts(f):
                dead = frozenset(cert.edges)
                (bq,) = [e for e in cert.edges if e in deepest]
                x, y = f.graph.edges[bq].u, f.graph.edges[bq].v
                assert (bfs_distance(f.graph, f.sigma, x, dead)
                        + bfs_distance(f.graph, y, f.tau, dead)) == q
