"""Vertex-cover reduction: embeddings, gadget arithmetic, soundness."""

import itertools
import json
import random

import pytest

from fractalcut import (Graph, InputError, TwoPageEmbedding,
                        UnsupportedParameterError, VcInstance,
                        check_witness, reduce_vc_to_planar_lbec, solve_fpt,
                        solve_vc_bruteforce, validate_embedding)
from fractalcut.composer import _is_acyclic
from fractalcut.fixtures import VC_FIXTURES
from fractalcut.serialize import parse_embedding
from fractalcut.solvers import instance_predicate


def embedding(order, upper=(), lower=()):
    pages = {}
    for u, v in upper:
        pages[(min(u, v), max(u, v))] = "upper"
    for u, v in lower:
        pages[(min(u, v), max(u, v))] = "lower"
    return TwoPageEmbedding(tuple(order), pages)


# -- embedding validation ---------------------------------------------------------

def test_embedding_cycle4_valid():
    g = Graph(False, 4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    emb = embedding([0, 1, 2, 3], upper=[(0, 1), (1, 2), (2, 3)], lower=[(0, 3)])
    assert validate_embedding(g, emb)


def test_embedding_k4_single_page_crosses():
    g = Graph(False, 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    emb = embedding([0, 1, 2, 3], upper=g.edges and [(e.u, e.v) for e in g.edges])
    assert not validate_embedding(g, emb)  # (0,2) and (1,3) interleave


def test_embedding_single_edge_any_order():
    g = Graph(False, 2, [(0, 1)])
    assert validate_embedding(g, embedding([0, 1], upper=[(0, 1)]))
    assert validate_embedding(g, embedding([1, 0], lower=[(0, 1)]))


def test_embedding_requires_permutation_and_pages():
    g = Graph(False, 3, [(0, 1), (1, 2)])
    assert not validate_embedding(g, embedding([0, 1], upper=[(0, 1), (1, 2)]))
    assert not validate_embedding(g, embedding([0, 1, 2], upper=[(0, 1)]))


def test_embedding_json_round_trip():
    emb = VC_FIXTURES[2].embedding()
    again = parse_embedding(json.dumps(emb.to_json_obj()))
    assert again == emb


def test_fixture_embeddings_all_valid():
    for fx in VC_FIXTURES:
        assert validate_embedding(fx.graph(), fx.embedding()), fx.name


# -- instance validation ------------------------------------------------------------

def test_vc_instance_rejects_degree_four():
    star = Graph(False, 5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    with pytest.raises(InputError):
        VcInstance(star, 2)


def test_vc_instance_rejects_directed():
    with pytest.raises(InputError):
        VcInstance(Graph(True, 2, [(0, 1)]), 1)


# -- vertex cover brute force ---------------------------------------------------------

def test_vc_bruteforce_examples():
    tri = VcInstance(Graph(False, 3, [(0, 1), (1, 2), (0, 2)]), 1)
    assert not solve_vc_bruteforce(tri)
    assert solve_vc_bruteforce(VcInstance(tri.graph, 2))
    star = VcInstance(Graph(False, 4, [(0, 1), (0, 2), (0, 3)]), 1)
    assert solve_vc_bruteforce(star)


def independent_cover_check(g, k):
    """Second exhaustive pass with a different enumeration order."""
    pairs = [(e.u, e.v) for e in g.edges]
    for bits in range(1 << g.n):
        chosen = [v for v in range(g.n) if bits >> v & 1]
        if len(chosen) <= k and all(u in chosen or v in chosen
                                    for u, v in pairs):
            return True
    return False


def test_vc_bruteforce_against_independent_pass():
    rnd = random.Random(11)
    for _ in range(25):
        n = rnd.randint(3, 6)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rnd.shuffle(pool)
        edges, deg = [], [0] * n
        for u, v in pool:
            if deg[u] < 3 and deg[v] < 3 and rnd.random() < 0.6:
                edges.append((u, v))
                deg[u] += 1
                deg[v] += 1
        if not edges:
            continue
        g = Graph(False, n, edges)
        for k in range(0, 4):
            inst = VcInstance(g, k)
            assert solve_vc_bruteforce(inst) == independent_cover_check(g, k)


# -- the reduction ---------------------------------------------------------------------

def test_reduction_parameters():
    fx = next(f for f in VC_FIXTURES if f.name == "cycle4")
    red = reduce_vc_to_planar_lbec(fx.instance(2), fx.embedding())
    assert red.k == 4
    assert red.ell == 2 * 4 + 2 * 3  # k*2k + (n-k)(2k-1) with n = 4, k = 2


def test_reduction_rejects_small_budget():
    fx = VC_FIXTURES[0]
    with pytest.raises(UnsupportedParameterError):
        reduce_vc_to_planar_lbec(fx.instance(1), fx.embedding())


def test_reduction_rejects_invalid_embedding():
    fx = next(f for f in VC_FIXTURES if f.name == "k4")
    broken = embedding(fx.order, upper=fx.upper + fx.lower)
    with pytest.raises(InputError):
        reduce_vc_to_planar_lbec(fx.instance(2), broken)


def test_adjacent_gadget_connector_is_one_duplicated_edge():
    g = Graph(False, 2, [(0, 1)])
    inst = VcInstance(g, 2)
    red = reduce_vc_to_planar_lbec(inst, embedding([0, 1], upper=[(0, 1)]))
    # connector length (2k-1)(j-i) - 2 = 1; laid down in 2k+1 = 5 copies
    labels = {name: v for v, name in red.graph.labels.items()}
    y1, x2 = labels["y1u"], labels["x2u"]
    copies = sum(1 for e in red.graph.edges
                 if {e.u, e.v} == {y1, x2})
    assert copies == 5


def test_reduction_vertex_count_bookkeeping():
    # gadget: 2 shared terminals + two (2k-2)-interiors + one (2k-1)-interior
    # = 6k-3 vertices, chained over n gadgets; connectors add their interiors
    for fx in VC_FIXTURES:
        for k in (2, 3):
            red = reduce_vc_to_planar_lbec(fx.instance(k), fx.embedding())
            pos = {v: i for i, v in enumerate(fx.order)}
            connector_interiors = sum(
                (2 * k - 1) * (abs(pos[e.u] - pos[e.v])) - 3
                for e in fx.graph().edges)
            want = fx.n * (6 * k - 3) - (fx.n - 1) + connector_interiors
            assert red.graph.n == want, fx.name


def test_reduction_nontrivial_cuts():
    # duplication keeps every terminal cut above the budget, otherwise three
    # strand deletions would disconnect the terminals and every instance
    # would be a yes
    from fractalcut.graph import min_cut
    fx = next(f for f in VC_FIXTURES if f.name == "path4")
    red = reduce_vc_to_planar_lbec(fx.instance(2), fx.embedding())
    assert min_cut(red.graph, red.s, red.t).total_cost > red.k


def test_reduction_soundness_small_fixtures():
    for fx in VC_FIXTURES:
        if fx.n > 5:
            continue
        for k in (2, 3):
            inst = fx.instance(k)
            expected = solve_vc_bruteforce(inst)
            red = reduce_vc_to_planar_lbec(inst, fx.embedding())
            got = solve_fpt(red)
            assert got.answer == expected, (fx.name, k)
            if got.answer:
                assert check_witness(red, got.witness)


def test_reduction_p3_example():
    g = Graph(False, 3, [(0, 1), (1, 2)])
    inst = VcInstance(g, 2)
    emb = embedding([0, 1, 2], upper=[(0, 1), (1, 2)])
    assert solve_vc_bruteforce(inst)
    red = reduce_vc_to_planar_lbec(inst, emb)
    assert solve_fpt(red).answer


def test_directed_reduction_is_acyclic_and_agrees():
    for fx in VC_FIXTURES[:4]:
        inst = fx.instance(2)
        red = reduce_vc_to_planar_lbec(inst, fx.embedding(), directed=True)
        assert _is_acyclic(red.graph)
        assert solve_fpt(red).answer == solve_vc_bruteforce(inst), fx.name


def test_minimum_witnesses_use_only_middle_edges():
    # Candidate deletions reduce to the single-copy middle edges: every other
    # edge comes in 2k+1 > 2k parallel copies, and deleting part of a bundle
    # changes no distance, so a minimum witness never touches one.  Over that
    # quotient, enumerate the minimum witnesses of every cover-yes budget-2
    # fixture on four vertices and replay one.
    k = 2
    for fx in VC_FIXTURES:
        if fx.n != 4 or fx.min_cover > k:
            continue
        red = reduce_vc_to_planar_lbec(fx.instance(k), fx.embedding())
        g = red.graph
        singles = [i for i in range(len(g.edges))
                   if sum(1 for e in g.edges
                          if (e.u, e.v) == (g.edges[i].u, g.edges[i].v)) == 1]
        assert len(singles) == 2 * fx.n  # two middle edges per gadget
        witnesses = []
        for size in range(0, red.k + 1):
            for combo in itertools.combinations(singles, size):
                if instance_predicate(red, combo):
                    witnesses.append(combo)
            if witnesses:
                break
        assert witnesses, fx.name
        # the threshold prices exactly k long gadget passages, so even a
        # smaller cover must be padded: minimum witnesses delete both
        # middles of k gadgets whose spine vertices cover the input edges
        assert all(len(w) == 2 * k for w in witnesses), fx.name
        assert check_witness(red, witnesses[0])
        for w in witnesses:
            gadgets = set()
            for idx in w:
                e = red.graph.edges[idx]
                name = red.graph.labels[e.u]  # x{i}{page}
                gadgets.add(int(name[1:-1]))
            assert len(gadgets) == k, fx.name
            covered = {fx.order[i - 1] for i in gadgets}
            assert all(u in covered or v in covered
                       for u, v in fx.edges), (fx.name, covered)
