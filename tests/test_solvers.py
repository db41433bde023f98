"""Branching solvers against the exhaustive oracle, plus witness replay,
branch-counter bounds, and the cost-aware search's symmetry reductions."""

import gc
import hashlib
import itertools
import random
import weakref
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from fractalcut import (Graph, InputError, ProblemInstance,
                        ResourceBudgetError, build_fractal, check_witness,
                        solve_bruteforce, solve_bruteforce_costaware,
                        solve_dsct_fpt, solve_fpt, solve_lbec_fpt,
                        solve_mded_fpt)
from fractalcut.fixtures import VC_FIXTURES
from fractalcut.generators import random_solver_instance
from fractalcut.graph import (UNREACHABLE, bfs_distance, distances,
                              is_connected, is_strongly_connected)
from fractalcut.composer import (_is_acyclic, compose_dsct, compose_lbec,
                                 compose_mded)
from fractalcut.reducer import reduce_vc_to_planar_lbec
from fractalcut import solvers
from fractalcut.reference import _girth_directed, instance_predicate
from fractalcut.solvers import _CostAwareSearch, _SlotState, _Support
from fractalcut.verify import _make_inputs


def triangle():
    return Graph(False, 3, [(0, 1), (0, 2), (1, 2)])


# -- lbec ----------------------------------------------------------------------

def test_lbec_cut_short_circuit_single_edge():
    inst = ProblemInstance("lbec", Graph(False, 2, [(0, 1)]), s=0, t=1, k=1, ell=5)
    # the instance is bad by the edge-count rule (ell > |E|), so widen it
    inst = ProblemInstance("lbec", Graph(False, 2, [(0, 1)]), s=0, t=1, k=1, ell=1)
    v = solve_lbec_fpt(inst)
    assert v.answer


def test_lbec_cut_short_circuit_with_large_threshold():
    # five parallel two-hop paths; cutting one side of each costs 5 <= k
    edges = []
    for j in range(5):
        edges.append((0, 2 + j))
        edges.append((2 + j, 1))
    inst = ProblemInstance("lbec", Graph(False, 7, edges), s=0, t=1, k=5, ell=9)
    v = solve_lbec_fpt(inst)
    assert v.answer and v.nodes == 0
    assert check_witness(inst, v.witness)


def test_lbec_vacuous_threshold():
    inst = ProblemInstance("lbec", triangle(), s=0, t=1, k=0, ell=1)
    v = solve_lbec_fpt(inst)
    assert v.answer and v.witness == () and v.nodes == 0


def test_lbec_triangle_examples():
    yes = ProblemInstance("lbec", triangle(), s=0, t=1, k=1, ell=2)
    v = solve_lbec_fpt(yes)
    assert v.answer
    assert set(v.witness) == {0}  # the direct {s, t} edge
    no = ProblemInstance("lbec", triangle(), s=0, t=1, k=0, ell=2)
    assert not solve_lbec_fpt(no).answer
    assert not solve_bruteforce(no).answer


def test_lbec_on_weighted_fractal_cut_budget():
    f = build_fractal(2)
    inst = ProblemInstance("lbec", f.graph, s=f.sigma, t=f.tau, k=3, ell=4)
    assert solve_lbec_fpt(inst).answer  # budget covers the size-3 minimum cut
    assert solve_bruteforce(inst).answer


def test_lbec_rejects_bad_instance():
    inst = ProblemInstance("lbec", triangle(), s=0, t=1, k=9, ell=2)
    with pytest.raises(InputError):
        solve_lbec_fpt(inst)


def test_lbec_rejects_weighted_graph():
    g = Graph(False, 2, [(0, 1, 3)])
    inst = ProblemInstance("lbec", g, s=0, t=1, k=1, ell=1)
    with pytest.raises(InputError):
        solve_lbec_fpt(inst)


@pytest.mark.parametrize("param", [{"s": 0.0}, {"s": True}, {"k": 1.5},
                                   {"ell": 2.5}],
                         ids=["s=0.0", "s=True", "k=1.5", "ell=2.5"])
def test_instance_refuses_parameters_that_are_not_ints(param):
    # Accepted, a float terminal reached the searches' bit shifts, True
    # solved as vertex 1, and a fractional budget or threshold solved.
    with pytest.raises(InputError):
        ProblemInstance("lbec", triangle(), **{"s": 0, "t": 1, "k": 1,
                                               "ell": 2, **param})


# -- mded ----------------------------------------------------------------------

def cycle4():
    return Graph(False, 4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def test_mded_cycle_examples():
    assert solve_mded_fpt(ProblemInstance("mded", cycle4(), k=1, ell=3)).answer
    assert solve_bruteforce(ProblemInstance("mded", cycle4(), k=1, ell=3)).answer
    assert not solve_mded_fpt(ProblemInstance("mded", cycle4(), k=0, ell=3)).answer


def test_mded_threshold_below_diameter():
    assert solve_mded_fpt(ProblemInstance("mded", cycle4(), k=0, ell=2)).answer


def test_mded_witness_keeps_graph_connected():
    inst = ProblemInstance("mded", cycle4(), k=2, ell=3)
    v = solve_mded_fpt(inst)
    assert v.answer and check_witness(inst, v.witness)


def test_mded_rejects_disconnected():
    g = Graph(False, 4, [(0, 1), (2, 3)])
    with pytest.raises(InputError):
        solve_mded_fpt(ProblemInstance("mded", g, k=1, ell=2))


def test_mded_directed_needs_strong_connectivity():
    g = Graph(True, 3, [(0, 1), (1, 2)])
    with pytest.raises(InputError):
        solve_mded_fpt(ProblemInstance("mded", g, k=1, ell=2))


# -- dsct ----------------------------------------------------------------------

def cycle3():
    return Graph(True, 3, [(0, 1), (1, 2), (2, 0)])


def test_dsct_examples():
    assert solve_dsct_fpt(ProblemInstance("dsct", cycle3(), k=0, ell=2)).answer
    assert not solve_dsct_fpt(ProblemInstance("dsct", cycle3(), k=0, ell=3)).answer
    v = solve_dsct_fpt(ProblemInstance("dsct", cycle3(), k=1, ell=3))
    assert v.answer and len(v.witness) == 1
    assert solve_bruteforce(ProblemInstance("dsct", cycle3(), k=1, ell=3)).answer


def test_dsct_dag_is_vacuous():
    dag = Graph(True, 4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    v = solve_dsct_fpt(ProblemInstance("dsct", dag, k=2, ell=4))
    assert v.answer and v.witness == ()


def test_dsct_rejects_undirected():
    with pytest.raises(InputError):
        ProblemInstance("dsct", triangle(), k=1, ell=2)


@pytest.mark.parametrize("kind", ["lbec", "mded", "dsct"])
def test_reference_predicate_refuses_non_unit_lengths(kind):
    # The lone cycle 0 -> 1 -> 2 -> 0 is 7 long; read in hops it would be 3,
    # and the dsct question (no cycle of length at most 3) would read no.
    g = Graph(True, 3, [(0, 1, 1, 5), (1, 2), (2, 0)])
    terminals = {"s": 0, "t": 2} if kind == "lbec" else {}
    inst = ProblemInstance(kind, g, k=1, ell=3, **terminals)
    for replay in (instance_predicate, check_witness):
        with pytest.raises(InputError, match="unit edge lengths"):
            replay(inst, [])


def test_split_vertex_matches_shortest_cycle():
    rnd = random.Random(5)
    pick = random.Random(6)
    for _ in range(30):
        inst = random_solver_instance(rnd, "dsct")
        g = inst.graph
        state = _SlotState(g, "dsct")
        search = _CostAwareSearch(inst, symmetry=False)
        dead = frozenset()
        while True:
            # the mask search against the reference girth on what survives
            cycle = state.shortest_cycle(len(g.edges) + 1)
            girth = _girth_directed(g, dead)
            assert (len(cycle) if cycle is not None else float("inf")) == girth
            # the oracle's masks, severed in step: a closed walk of exactly
            # girth surviving arcs when girth <= limit, else None
            for limit in range(5):
                found = search.shortest_cycle(limit)
                if girth > limit:
                    assert found is None, (dead, limit)
                    continue
                arcs = [search.pairs[pid] for pid in found]
                assert len(arcs) == girth, (dead, limit, found)
                assert all(search.out_masks[u] >> v & 1 for u, v in arcs)
                assert all(arcs[i][1] == arcs[(i + 1) % len(arcs)][0]
                           for i in range(len(arcs)))
            if cycle is None:
                break
            # a closed directed walk of surviving pairs
            arcs = [state.pairs[pid] for pid in cycle]
            assert all(state.mult[pid] for pid in cycle)
            assert all(arcs[i][1] == arcs[(i + 1) % len(arcs)][0]
                       for i in range(len(arcs)))
            # sever one of its pairs and search again
            pid = pick.choice(cycle)
            while state.mult[pid]:
                dead |= {state.delete_copy(pid)}
            search.sever(pid)


def _cycle_scan_over_every_vertex(support, limit):
    """The reference for shortest_cycle: every vertex's cycle in id
    order, and only a strictly shorter one replaces an earlier one."""
    best = None
    for v in range(support.n):
        cycle = support._cycle_through(v, limit)
        if cycle is not None:
            best = cycle
            limit = len(cycle) - 1
    return best


def test_cycle_scan_over_the_root_feedback_set_matches_every_vertex():
    rnd = random.Random(2525)
    left_out = 0
    for _ in range(150):
        n = rnd.randint(2, 8)
        pool = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = rnd.sample(pool, rnd.randint(1, len(pool)))
        g = Graph(True, n, arcs + rnd.sample(arcs, min(2, len(arcs))))
        state = _SlotState(g, "dsct")
        feedback = state.feedback  # taken at the root
        left_out += any(state._cycle_through(v, g.n) for v in range(g.n)
                        if v not in feedback)
        # sever the surviving pairs one by one in a random order
        order = list(range(len(state.pairs)))
        rnd.shuffle(order)
        for pid in [None] + order:
            if pid is not None:
                state.sever(pid)
            for limit in range(g.n + 2):
                assert state.shortest_cycle(limit) \
                    == _cycle_scan_over_every_vertex(state, limit), \
                    (g.edges, limit)
    assert left_out


def test_cycle_scan_skips_the_lowest_vertex_off_every_cycle():
    # 0 feeds the triangle 1 -> 2 -> 3 -> 1 and the 2-cycle 3 <-> 4.  F is
    # [1, 3]: vertex 0 lies on no cycle and 2 and 4 go once 1 and 3 do.
    # The triangle through 1 is found first and the 2-cycle through 3
    # replaces it; a scan over every vertex finds the same.
    g = Graph(True, 5, [(0, 1), (0, 3), (1, 2), (2, 3), (3, 1), (3, 4),
                        (4, 3)])
    state = _SlotState(g, "dsct")
    assert state.feedback == [1, 3]
    cycle = state.shortest_cycle(3)
    assert [state.pairs[pid] for pid in cycle] == [(3, 4), (4, 3)]
    assert cycle == _cycle_scan_over_every_vertex(state, 3)
    for k, answer in ((1, False), (2, True)):
        inst = ProblemInstance("dsct", g, k=k, ell=3)
        got = solve_fpt(inst)
        assert got.answer == answer == solve_bruteforce(inst).answer
        assert not answer or check_witness(inst, got.witness)


def test_check_witness_refuses_bad_indices():
    # -1 names edge 3 when costed from the end, but deletes no edge.
    inst = ProblemInstance("mded", Graph(False, 4, [(0, 1), (1, 2), (0, 2),
                                                    (2, 3)]), k=1, ell=2)
    assert not check_witness(inst, [3])
    # True would stand for edge 1, and 1.0 hashes like it.
    for bad in ([-1], [4], [0, 0], [True], [3, True], [1.0], [3, 1.0], ["0"]):
        with pytest.raises(InputError, match="ints, distinct and in range"):
            check_witness(inst, bad)


@pytest.mark.parametrize("directed", [True, False])
def test_path_into_matches_bfs_distance(directed):
    rnd = random.Random(23 + directed)
    for _ in range(200):
        n = rnd.randint(2, 8)
        pool = [(u, v) for u in range(n) for v in range(n)
                if u != v and (directed or u < v)]
        edges = rnd.sample(pool, rnd.randint(1, len(pool)))
        edges += rnd.sample(edges, rnd.randint(0, min(2, len(edges))))
        g = Graph(directed, n, edges)
        support = _SlotState(g, "lbec")
        severed = [pid for pid in range(len(support.pairs))
                   if rnd.random() < 0.3]
        for pid in severed:
            support.sever(pid)
        dead = frozenset(i for pid in severed for i in support.pair_edges[pid])
        s, t = rnd.sample(range(n), 2)
        dist = bfs_distance(g, s, t, dead)
        for cap in range(-1, n + 1):
            found = support._path_into(s, 1 << t, cap)
            assert (found is None) == (dist > cap), (edges, severed, s, t, cap)
            # The MDED brancher relies on it: the path the list BFS records.
            assert (found and found[0]) \
                == support.shortest_path_slots(s, t, cap)[0], (edges, s, t)
            if found is None:
                continue
            path, end = found
            assert end == t and len(path) == dist, (edges, severed, s, t)
            # a contiguous s -> t walk of surviving pairs
            at = s
            for pid in path:
                assert support.alive[pid], (edges, severed, s, t)
                u, v = support.pairs[pid]
                assert at == u or (not directed and at == v)
                at = v if at == u else u
            assert at == t, (edges, severed, s, t)


@pytest.mark.parametrize("symmetry", [True, False])
@pytest.mark.parametrize("ell", [0, 1])
def test_costaware_lbec_below_two_hops_passes_at_root(ell, symmetry):
    # s != t, so no s-t path is shorter than one hop: the root passes.
    inst = ProblemInstance("lbec", Graph(True, 3, [(0, 1), (1, 2), (0, 2)]),
                           s=0, t=2, k=0, ell=ell)
    v = solve_bruteforce_costaware(inst, symmetry=symmetry)
    assert (v.answer, v.witness, v.nodes) == (True, (), 1)


def _feedback(g):
    """The oracle's feedback vertex set of g's support, without the rest of
    the oracle's set-up."""
    return _CostAwareSearch._feedback_vertices(_Support(g))


def test_feedback_vertices_meet_every_cycle():
    rnd = random.Random(29)
    graphs = [random_solver_instance(rnd, "dsct").graph for _ in range(100)]
    for _ in range(200):
        n = rnd.randint(1, 9)
        p = rnd.choice((0.15, 0.3, 0.5))
        graphs.append(Graph(True, n, [(u, v) for u in range(n)
                                      for v in range(n)
                                      if u != v and rnd.random() < p]))
    for g in graphs:
        feedback = _feedback(g)
        assert feedback == sorted(set(feedback)), g.edges
        rest = Graph(True, g.n, [e for e in g.edges if e.u not in feedback
                                 and e.v not in feedback])
        assert _is_acyclic(rest), (g.edges, feedback)
        # F holds each cycle's lowest vertex: no other vertex lies on a
        # cycle of vertices no lower than itself.
        for v in set(range(g.n)) - set(feedback):
            below = frozenset(i for i, e in enumerate(g.edges)
                              if min(e.u, e.v) < v)
            dist = distances(g, v, below)
            assert all(dist[e.u] == UNREACHABLE for e in g.edges
                       if e.v == v and e.u > v), (g.edges, feedback, v)


def test_feedback_scan_passes_a_vertex_on_no_short_cycle():
    # A DAG prefix (0, 1) feeds two disjoint triangles with interleaved ids,
    # 2 -> 4 -> 6 -> 2 and 3 -> 5 -> 7 -> 3.  F is their lowest vertices,
    # so the graph's lowest vertex and four vertices on triangles are not
    # in it.  With the first triangle broken, the scan passes vertex 2 and
    # finds the second through 3.
    g = Graph(True, 8, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (4, 6),
                        (6, 2), (3, 5), (5, 7), (7, 3)])
    inst = ProblemInstance("dsct", g, k=2, ell=3)
    search = _CostAwareSearch(inst, symmetry=False)
    assert search.feedback == [2, 3]
    assert search.shortest_cycle(2) is None
    first = search.shortest_cycle(3)
    assert [search.pairs[pid] for pid in first] == [(2, 4), (4, 6), (6, 2)]
    search.sever(search.pair_id[4, 6])
    first = search.shortest_cycle(3)
    assert [search.pairs[pid] for pid in first] == [(3, 5), (5, 7), (7, 3)]
    for k, answer in ((1, False), (2, True)):
        inst = ProblemInstance("dsct", g, k=k, ell=3)
        got = solve_bruteforce_costaware(inst)
        assert got.answer == answer == solve_bruteforce(inst).answer
        assert not answer or check_witness(inst, got.witness)


@pytest.mark.parametrize("closed", [True, False])
def test_feedback_vertices_on_long_paths_need_no_recursion(closed):
    n = 5000
    arcs = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)] * closed
    assert _feedback(Graph(True, n, arcs)) == [0] * closed


def _girth_per_arc(g, dead):
    """The shortest directed cycle by its definition: one BFS per live arc
    u -> v, closing a cycle of dist(v, u) + 1 arcs."""
    return min((distances(g, e.v, dead)[e.u] + 1
                for idx, e in enumerate(g.edges) if idx not in dead),
               default=UNREACHABLE)


def test_girth_directed_matches_per_arc_definition():
    rnd = random.Random(1515)
    parallel = two_cycles = 0
    for _ in range(300):
        n = rnd.randint(1, 7)
        pool = [(u, v) for u in range(n) for v in range(n) if u != v]
        # Drawn with replacement, so parallel arcs and 2-cycles both occur.
        arcs = [rnd.choice(pool) for _ in range(rnd.randint(0, 3 * n))] \
            if pool else []
        g = Graph(True, n, arcs)
        dead = frozenset(i for i in range(len(arcs)) if rnd.random() < 0.3)
        parallel += len(set(arcs)) < len(arcs)
        two_cycles += any((v, u) in arcs for u, v in arcs)
        assert _girth_directed(g, dead) == _girth_per_arc(g, dead), (arcs, dead)
    assert parallel >= 50 and two_cycles >= 50


def test_connected_without_matches_reference():
    # connected_without needs a (strongly) connected support, so only
    # connected supports are drawn.
    rnd = random.Random(808)
    outcomes = set()
    drawn = 0
    while drawn < 80:
        directed = rnd.random() < 0.5
        n = rnd.randint(2, 7)
        pool = [(u, v) for u in range(n) for v in range(n)
                if u != v and (directed or u < v)]
        edges = rnd.sample(pool, rnd.randint(1, len(pool)))
        edges += [rnd.choice(edges) for _ in range(rnd.randint(0, 2))]
        g = Graph(directed, n, edges)
        if not is_strongly_connected(g):
            continue
        drawn += 1
        support = _Support(g)
        masks = (list(support.out_masks), list(support.in_masks))
        for pid, idxs in enumerate(support.pair_edges):
            got = support.connected_without(pid)
            assert got == is_strongly_connected(g, frozenset(idxs)), (g.edges, pid)
            assert (support.out_masks, support.in_masks) == masks
            outcomes.add((directed, got))
    assert outcomes == {(d, c) for d in (False, True) for c in (False, True)}


class _SweptSupport(_Support):
    """Counts the reach sweeps its searches make."""

    sweeps = 0

    def _sweep(self, masks, start):
        self.sweeps += 1
        return super()._sweep(masks, start)


@pytest.mark.parametrize("arcs,expected", [
    # 0 -> 3 has the detour 0 -> 1 -> 2 -> 3 and no common neighbour.
    ([(0, 3), (0, 1), (1, 2), (2, 3), (3, 0)], True),
    # 0 -> 1 has two ways out of 0 and two into 1, but no detour.
    ([(0, 1), (1, 0), (0, 2), (2, 0), (3, 1), (1, 3)], False)])
def test_connected_without_sweeps_when_no_neighbour_is_shared(arcs, expected):
    g = Graph(True, 4, arcs)
    support = _SweptSupport(g)
    assert support.connected_without(0) is expected
    assert support.sweeps == 1
    assert is_strongly_connected(g, frozenset({0})) is expected
    assert support.alive[0] and support.out_masks == _Support(g).out_masks


def test_dsct_exclusions_are_the_arcs_on_no_cycle():
    # An arc (u, v) lies on a directed cycle iff v reaches u.
    rnd = random.Random(4242)
    outcomes = set()
    for _ in range(100):
        n = rnd.randint(2, 9)
        pool = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = rnd.sample(pool, rnd.randint(1, min(len(pool), 2 * n)))
        arcs += [rnd.choice(arcs) for _ in range(rnd.randint(0, 2))]
        g = Graph(True, n, arcs)
        search = _CostAwareSearch(ProblemInstance("dsct", g, k=0, ell=n))
        excluded = search._excluded_pairs(search._corridors())
        for pid, (u, v) in enumerate(search.pairs):
            on_cycle = distances(g, v)[u] != UNREACHABLE
            assert (pid in excluded) != on_cycle, (arcs, u, v)
            outcomes.add(on_cycle)
    assert outcomes == {False, True}


class _CountedMasks(list):
    """A mask list that counts its reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


@pytest.mark.parametrize("chain", ["path", "two-cycles"])
def test_dsct_exclusions_read_each_mask_a_bounded_number_of_times(chain):
    # A 5,000-vertex directed path, whose arcs lie on no cycle, and a chain
    # of 2,500 two-cycles joined one way, whose joining arcs lie on none.
    # Labelling the strongly connected components reads each vertex's
    # masks a bounded number of times, not once per vertex labelled.
    n = 5000
    arcs = [(i, i + 1) for i in range(n - 1)]
    if chain == "two-cycles":
        arcs += [(i + 1, i) for i in range(0, n, 2)]
    g = Graph(True, n, arcs)
    search = _CostAwareSearch(ProblemInstance("dsct", g, k=1, ell=3),
                              symmetry=False)
    corridors = search._corridors()
    search.out_masks = _CountedMasks(search.out_masks)
    search.in_masks = _CountedMasks(search.in_masks)
    excluded = search._excluded_pairs(corridors)
    assert excluded == {search.pair_id[u, v] for u, v in arcs
                        if chain == "path" or u // 2 != v // 2}
    assert search.out_masks.reads + search.in_masks.reads <= 3 * n


def _corridor_graph(rnd, directed, weighted=False):
    """A random multigraph laid down as walks, some closed, over random
    vertices, plus stray edges and parallel copies, so that corridors,
    loops at branch vertices, cycles of interior vertices and parallel
    pairs all occur.  Some set a lone cycle apart on their top vertices."""
    n = rnd.randint(2, 9)
    cut = n
    if n >= 3 and rnd.random() < 0.3:
        cut = rnd.choice([0] + list(range(2, n - 2)))
    lone = rnd.sample(range(cut, n), n - cut)
    edges = list(zip(lone, lone[1:] + lone[:1]))
    for _ in range(rnd.randint(1, 3) if cut else 0):
        walk = rnd.sample(range(cut), rnd.randint(2, cut))
        if rnd.random() < 0.5:
            walk.append(walk[0])
        edges += zip(walk, walk[1:])
    if cut:
        edges += [rnd.sample(range(cut), 2) for _ in range(rnd.randint(0, 2))]
    edges += [rnd.choice(edges) for _ in range(rnd.randint(0, 2))]
    if weighted:
        edges = [(u, v, rnd.randint(1, 3)) for u, v in edges]
    return Graph(directed, n, edges)


def _interior(inst):
    """The interior vertices by definition: one distinct in- and one
    distinct out-neighbour if directed, two distinct neighbours if not, and
    never an LBEC terminal."""
    g = inst.graph
    outs = [set() for _ in range(g.n)]
    ins = outs if not g.directed else [set() for _ in range(g.n)]
    for e in g.edges:
        outs[e.u].add(e.v)
        ins[e.v].add(e.u)
    return {v for v in range(g.n) if v not in (inst.s, inst.t)
            and (len(outs[v]) == len(ins[v]) == 1 if g.directed
                 else len(outs[v]) == 2)}


def _corridor_shape(interior, ch, head, tail):
    if head != tail:
        return "one pair" if len(ch) == 1 else "path"
    return "interior cycle" if head in interior else "loop"


@pytest.mark.parametrize("kind,directed", [
    ("lbec", False), ("lbec", True), ("mded", False), ("mded", True),
    ("dsct", True)])
def test_corridors_partition_the_pairs(kind, directed):
    rnd = random.Random(2020)
    shapes = Counter()
    for _ in range(150):
        g = _corridor_graph(rnd, directed)
        terminals = dict(s=0, t=1) if kind == "lbec" else {}
        inst = ProblemInstance(kind, g, k=0, ell=2, **terminals)
        search = _CostAwareSearch(inst)
        interior = _interior(inst)
        corridors = search._corridors()
        assert sorted(pid for ch, _, _ in corridors for pid in ch) \
            == list(range(len(search.pairs)))
        for ch, head, tail in corridors:
            # Trace the corridor from its head: each pair goes on from the
            # vertex the one before it reached, and that vertex is interior.
            at, inner = head, []
            for pid in ch:
                u, v = search.pairs[pid]
                assert at == u or not directed and at == v, (g.edges, ch)
                inner.append(at)
                at = v if at == u else u
            assert at == tail
            assert interior.issuperset(inner[1:]), (g.edges, ch)
            shape = _corridor_shape(interior, ch, head, tail)
            # Maximal: only a cycle of interior vertices ends at one.
            if shape != "interior cycle":
                assert head not in interior and tail not in interior
            shapes[shape] += 1
        shapes["parallel"] += any(len(e) > 1 for e in search.pair_edges)
    assert all(shapes[s] for s in ("one pair", "path", "loop",
                                   "interior cycle", "parallel")), shapes


@pytest.mark.parametrize("kind,directed", [
    ("mded", False), ("mded", True), ("dsct", True)])
def test_exclusions_by_corridor_match_the_per_pair_reference(kind, directed):
    # One test per corridor decides all of its pairs.  The reference tests
    # each pair: a (strong) bridge for MDED, an arc on no cycle for DSCT.
    rnd = random.Random(3030)
    outcomes = set()
    for _ in range(150):
        g = _corridor_graph(rnd, directed)
        inst = ProblemInstance(kind, g, k=0, ell=2)
        search = _CostAwareSearch(inst)
        interior = _interior(inst)
        corridors = search._corridors()
        excluded = search._excluded_pairs(corridors)
        for ch, head, tail in corridors:
            for pid in ch:
                if kind == "mded":
                    dead = frozenset(search.pair_edges[pid])
                    ref = not is_strongly_connected(g, dead)
                else:
                    u, v = search.pairs[pid]
                    ref = distances(g, v)[u] == UNREACHABLE
                assert (pid in excluded) == ref, (g.edges, pid)
                outcomes.add((_corridor_shape(interior, ch, head, tail), ref))
    assert {shape for shape, _ in outcomes} == {
        "one pair", "path", "loop", "interior cycle"}
    assert {ref for _, ref in outcomes} == {False, True}


# (source, seed or k) -> (answer, witness, nodes) of solve_fpt, recorded
# before the branchers moved onto the shared pair masks: the branching order
# and with it every witness and leaf count must not drift.  The VC-fixture
# reductions after vc/k4/2, which with it cover all nine fixtures at k = 2
# and 3, were recorded before the branchers began resuming the s-t search
# from the severed level.
PINNED_FPT = [
    (("lbec", 111), (True, (0, 3), 1)),
    (("lbec", 187), (False, None, 4)),
    (("lbec", 264), (True, (5,), 2)),
    (("mded", 103), (True, (13,), 3)),
    (("mded", 173), (True, (0, 3, 10), 19)),
    (("mded", 186), (False, None, 25)),
    (("mded", 253), (True, (1, 3), 2)),
    (("dsct", 54), (True, (1, 3, 7), 6)),
    (("dsct", 186), (False, None, 8)),
    (("dsct", 262), (True, (7, 11, 12), 8)),
    (("vc/diamond", 2), (True, (47, 58, 89, 100), 59)),
    (("vc/k4", 2), (False, None, 140)),
    (("vc/path4", 2), (True, (5, 16, 89, 100), 5)),
    (("vc/path4", 3), (True, (14, 43, 114, 143, 214, 243), 1)),
    (("vc/star4", 2), (True, (5, 16, 47, 58), 1)),
    (("vc/star4", 3), (True, (14, 43, 114, 143, 214, 243), 1)),
    (("vc/cycle4", 2), (True, (5, 16, 89, 100), 5)),
    (("vc/cycle4", 3), (True, (14, 43, 114, 143, 214, 243), 1)),
    (("vc/diamond", 3), (True, (14, 43, 114, 143, 214, 243), 1)),
    (("vc/k4", 3), (True, (14, 43, 114, 143, 214, 243), 1)),
    (("vc/cycle5", 2), (False, None, 372)),
    (("vc/cycle5", 3), (True, (14, 43, 114, 143, 314, 343), 5)),
    (("vc/bull", 2), (True, (47, 58, 131, 142), 134)),
    (("vc/bull", 3), (True, (14, 43, 114, 143, 314, 343), 5)),
    (("vc/cycle6", 2), (False, None, 1020)),
    (("vc/cycle6", 3), (True, (14, 43, 214, 243, 414, 443), 142)),
    (("vc/prism", 2), (False, None, 879)),
    (("vc/prism", 3), (False, None, 15421)),
]


@pytest.mark.parametrize("params,expected", PINNED_FPT)
def test_fpt_pinned_verdicts(params, expected):
    source, arg = params
    if source.startswith("vc/"):
        (fx,) = [fx for fx in VC_FIXTURES if fx.name == source[3:]]
        inst = reduce_vc_to_planar_lbec(fx.instance(arg), fx.embedding())
    else:
        inst = random_solver_instance(random.Random(arg), source, n_max=10,
                                      k_max=3, ell_max=6)
    v = solve_fpt(inst)
    assert (v.answer, v.witness, v.nodes) == expected


# -- resumed s-t search -------------------------------------------------------------

class _ReplayedSlots(_SlotState):
    """Checks every s-t search a brancher makes, resumed, reused or from
    scratch, against a search from scratch on the current support: the
    same path and the same BFS tree.  Counts the searches that resumed a
    handed-down tree and those that reused it as it stood."""

    resumed = 0
    reused = 0

    def shortest_path_slots(self, s, t, limit, tree=None, cut=0):
        got = super().shortest_path_slots(s, t, limit, tree, cut)
        assert got == super().shortest_path_slots(s, t, limit), (s, t, cut)
        if tree is not None:
            if got[1] is tree:
                self.reused += 1
            else:
                self.resumed += 1
        return got


def _with_parallel_copies(rnd, inst):
    """The instance with a random third of its edges doubled."""
    g = inst.graph
    pairs = [(e.u, e.v) for e in g.edges]
    pairs += rnd.sample(pairs, len(pairs) // 3)
    return ProblemInstance(inst.kind, Graph(g.directed, g.n, sorted(pairs)),
                           s=inst.s, t=inst.t, k=inst.k, ell=inst.ell)


def test_resumed_search_matches_search_from_scratch(monkeypatch):
    made = []

    def replayed(g, kind):
        made.append(_ReplayedSlots(g, kind))
        return made[-1]

    monkeypatch.setattr(solvers, "_SlotState", replayed)
    rnd = random.Random(2019)
    instances = []
    for kind in ("lbec", "mded"):
        for _ in range(60):
            inst = random_solver_instance(rnd, kind)
            instances += [inst, _with_parallel_copies(rnd, inst)]
    instances += [reduce_vc_to_planar_lbec(fx.instance(2), fx.embedding())
                  for fx in VC_FIXTURES]
    for inst in instances:
        solve_fpt(inst)
    assert sum(state.resumed for state in made) > 0
    assert sum(state.reused for state in made) > 0


def test_brancher_states_build_only_what_their_search_reads(monkeypatch):
    # The s-t search's lists are the LBEC brancher's and the feedback
    # vertex set is the DSCT brancher's, directed graphs or not.
    made = []

    def recorded(*args):
        made.append(_SlotState(*args))
        return made[-1]

    monkeypatch.setattr(solvers, "_SlotState", recorded)
    cycle = Graph(True, 3, [(0, 1), (1, 2), (2, 0)])
    solve_lbec_fpt(ProblemInstance("lbec", cycle, s=0, t=2, k=0, ell=3))
    solve_mded_fpt(ProblemInstance("mded", cycle, k=0, ell=3))
    solve_dsct_fpt(ProblemInstance("dsct", cycle, k=1, ell=3))
    lbec, mded, dsct = made
    assert hasattr(lbec, "adj") and not hasattr(lbec, "feedback")
    assert not hasattr(mded, "adj") and not hasattr(mded, "feedback")
    assert hasattr(dsct, "feedback") and not hasattr(dsct, "adj")


# -- replayed failed subtrees ------------------------------------------------------

def _branch_searching_every_subtree(state, find, budget, keep_connected=False):
    """``solvers._branch`` without its table of failed subtrees: every
    child runs its own search."""
    leaves = 0
    deleted = []

    def rec(budget_left, found):
        nonlocal leaves
        obstruction, tree = found
        if obstruction is None:
            leaves += 1
            return list(deleted)
        if budget_left == 0:
            leaves += 1
            return None
        branched = False
        for i, sid in enumerate(obstruction):
            if state.mult[sid] > budget_left:
                continue
            if keep_connected and state.mult[sid] == 1 and \
                    not state.connected_without(sid):
                continue
            branched = True
            deleted.append(state.delete_copy(sid))
            res = rec(budget_left - 1, find(tree, i))
            state.restore_copy(sid)
            deleted.pop()
            if res is not None:
                return res
        if not branched:
            leaves += 1
        return None

    return rec(budget, find(None, 0)), leaves


def _fpt_outcome(inst):
    v = solve_fpt(inst)
    return v.answer, v.witness, v.nodes


def test_replayed_subtrees_match_searching_every_subtree(monkeypatch):
    rnd = random.Random(2020)
    instances = []
    for kind in ("lbec", "mded", "dsct"):
        for _ in range(60):
            inst = random_solver_instance(rnd, kind)
            instances += [inst, _with_parallel_copies(rnd, inst)]
    instances += [reduce_vc_to_planar_lbec(fx.instance(2), fx.embedding())
                  for fx in VC_FIXTURES]
    got = [_fpt_outcome(inst) for inst in instances]
    monkeypatch.setattr(solvers, "_branch", _branch_searching_every_subtree)
    for inst, outcome in zip(instances, got):
        assert outcome == _fpt_outcome(inst), inst
    assert {answer for answer, _, _ in got} == {False, True}


class _CountedSlots(_SlotState):
    """Counts the s-t searches a brancher makes."""

    searches = 0

    def shortest_path_slots(self, s, t, limit, tree=None, cut=0):
        self.searches += 1
        return super().shortest_path_slots(s, t, limit, tree, cut)


def test_replayed_subtrees_search_each_mask_once(monkeypatch):
    # Most of vc/prism's slots at k = 3 are bundles of seven copies, so
    # its 20,195 nodes reach only 592 distinct sets of deleted edges.
    (fx,) = [fx for fx in VC_FIXTURES if fx.name == "prism"]
    inst = reduce_vc_to_planar_lbec(fx.instance(3), fx.embedding())
    made = []

    def counted(g, kind):
        made.append(_CountedSlots(g, kind))
        return made[-1]

    monkeypatch.setattr(solvers, "_SlotState", counted)
    assert _fpt_outcome(inst) == (False, None, 15421)
    assert made[-1].searches <= 592
    monkeypatch.setattr(solvers, "_branch", _branch_searching_every_subtree)
    assert _fpt_outcome(inst) == (False, None, 15421)
    assert made[-1].searches == 20195


def _prism3():
    (fx,) = [fx for fx in VC_FIXTURES if fx.name == "prism"]
    return reduce_vc_to_planar_lbec(fx.instance(3), fx.embedding())


@pytest.mark.parametrize("make,searches,expected", [
    (_prism3, 592, (False, None, 15421)),
    # Six vertex pairs, one search each: the budget holds per pair.
    (lambda: ProblemInstance("mded", cycle4(), k=0, ell=3), 1,
     (False, None, 1)),
], ids=["vc/prism/3", "mded/cycle4"])
def test_brancher_raises_past_its_search_budget(monkeypatch, make, searches,
                                                expected):
    inst = make()
    monkeypatch.setattr(solvers, "MAX_SEARCHES", searches)
    assert _fpt_outcome(inst) == expected
    monkeypatch.setattr(solvers, "MAX_SEARCHES", searches - 1)
    with pytest.raises(ResourceBudgetError,
                       match=f"exceeded {searches - 1} searches"):
        solve_fpt(inst)


def test_deep_fpt_search_ends_in_its_search_budget(monkeypatch):
    # 1,200 disjoint directed 2-cycles: every node on the way down deletes
    # an arc of one, so the path is about 1,000 nodes deep when the budget
    # runs out.
    arcs = [arc for i in range(1200) for arc in ((2 * i, 2 * i + 1),
                                                 (2 * i + 1, 2 * i))]
    inst = ProblemInstance("dsct", Graph(True, 2400, arcs), k=1100, ell=2)
    monkeypatch.setattr(solvers, "MAX_SEARCHES", 1000)
    with pytest.raises(ResourceBudgetError, match="exceeded 1000 searches"):
        solve_fpt(inst)


# -- oracle agreement -------------------------------------------------------------

@pytest.mark.parametrize("kind", ["lbec", "mded", "dsct"])
def test_fpt_agrees_with_bruteforce(kind):
    rnd = random.Random(99)
    for _ in range(80):
        inst = random_solver_instance(rnd, kind)
        fpt = solve_fpt(inst)
        brute = solve_bruteforce(inst)
        assert fpt.answer == brute.answer, inst
        if fpt.answer:
            assert check_witness(inst, fpt.witness)
            assert check_witness(inst, brute.witness)


@pytest.mark.parametrize("kind", ["lbec", "mded", "dsct"])
def test_branch_counters_within_bounds(kind):
    rnd = random.Random(31337)
    for _ in range(80):
        inst = random_solver_instance(rnd, kind)
        v = solve_fpt(inst)
        if kind == "dsct":
            limit = inst.ell ** inst.k if inst.ell >= 1 else 0
        else:
            limit = (inst.ell - 1) ** inst.k if inst.ell >= 2 else 0
        assert v.nodes <= limit, (inst, v.nodes, limit)


def test_bruteforce_zero_budget_is_distance_check():
    rnd = random.Random(4)
    for _ in range(20):
        inst = random_solver_instance(rnd, "lbec")
        inst = ProblemInstance("lbec", inst.graph, s=inst.s, t=inst.t, k=0,
                               ell=inst.ell)
        expect = bfs_distance(inst.graph, inst.s, inst.t) >= inst.ell
        assert solve_bruteforce(inst).answer == expect


def test_bruteforce_witness_is_first_in_size_then_lex_order():
    # witnesses of size two: {0,2}, {0,3}, {1,2}, {1,3}; sizes ascend first,
    # then edge-index tuples lexicographically
    g = Graph(False, 4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    inst = ProblemInstance("lbec", g, s=0, t=3, k=2, ell=3)
    v = solve_bruteforce(inst)
    assert v.answer
    assert v.witness == (0, 2)


def test_bruteforce_budget_errors_out():
    f = build_fractal(3)
    inst = ProblemInstance("lbec", f.graph, s=f.sigma, t=f.tau, k=3, ell=4)
    with pytest.raises(ResourceBudgetError):
        solve_bruteforce(inst, max_subsets=10)


def test_multigraph_bundles_prune_branching():
    # the direct edge is quadrupled: with budget 3 it can never be emptied,
    # so only the two-hop detour edges are branch candidates
    edges = [(0, 1)] * 4 + [(0, 2), (2, 1)]
    inst = ProblemInstance("lbec", Graph(False, 3, edges), s=0, t=1, k=3, ell=3)
    v = solve_lbec_fpt(inst)
    brute = solve_bruteforce(inst)
    assert v.answer == brute.answer == False  # noqa: E712


# -- monotonicity properties -------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["lbec", "mded", "dsct"]))
def test_monotone_in_budget_and_threshold(seed, kind):
    rnd = random.Random(seed)
    inst = random_solver_instance(rnd, kind, n_max=6, k_max=2, ell_max=4)
    v = solve_fpt(inst)
    if not v.answer:
        return
    more_budget = ProblemInstance(kind, inst.graph, s=inst.s, t=inst.t,
                                  k=inst.k + 1, ell=inst.ell)
    if not more_budget.is_bad:
        assert solve_fpt(more_budget).answer
    if inst.ell > 0:
        easier = ProblemInstance(kind, inst.graph, s=inst.s, t=inst.t,
                                 k=inst.k, ell=inst.ell - 1)
        assert solve_fpt(easier).answer


# -- cost-aware search --------------------------------------------------------------

def test_costaware_matches_plain_on_unit_instances():
    rnd = random.Random(77)
    for kind in ("lbec", "mded", "dsct"):
        for _ in range(25):
            inst = random_solver_instance(rnd, kind, n_max=6, k_max=2, ell_max=4)
            a = solve_bruteforce(inst)
            b = solve_bruteforce_costaware(inst)
            assert a.answer == b.answer, inst
            if b.answer:
                assert check_witness(inst, b.witness)


def test_costaware_symmetry_reductions_preserve_verdicts():
    rnd = random.Random(123)
    for kind in ("lbec", "mded", "dsct"):
        for _ in range(15):
            inst = random_solver_instance(rnd, kind, n_max=6, k_max=2, ell_max=4)
            fast = solve_bruteforce_costaware(inst, symmetry=True)
            raw = solve_bruteforce_costaware(inst, symmetry=False)
            assert fast.answer == raw.answer, inst
            assert fast.nodes <= raw.nodes


def test_costaware_weighted_budget_counts_cost():
    # severing the only adjacency means paying for both parallel copies
    g = Graph(False, 2, [(0, 1, 3), (0, 1, 1)])
    base = dict(s=0, t=1, ell=2)
    assert not solve_bruteforce_costaware(
        ProblemInstance("lbec", g, k=3, **base)).answer
    yes = solve_bruteforce_costaware(ProblemInstance("lbec", g, k=4, **base))
    assert yes.answer and set(yes.witness) == {0, 1}


@pytest.mark.parametrize("k", [-1, -2])
@pytest.mark.parametrize("kind,directed", [
    ("lbec", False), ("lbec", True), ("mded", False), ("mded", True),
    ("dsct", True)])
def test_costaware_negative_budget_fits_no_deletion_set(kind, directed, k):
    # Not even the empty set fits, also where the graph itself answers yes.
    rnd = random.Random(f"{kind}/{directed}/{k}")
    yes_at_zero = 0
    for weighted in (False, True):
        for _ in range(20):
            g = _corridor_graph(rnd, directed, weighted)
            terminals = dict(s=0, t=1) if kind == "lbec" else {}
            inst = ProblemInstance(kind, g, k=k, ell=rnd.randint(0, 3),
                                   **terminals)
            for symmetry in (True, False):
                v = solve_bruteforce_costaware(inst, symmetry=symmetry)
                assert (v.answer, v.witness, v.nodes) == (False, None, 0)
            if not weighted:
                assert solve_bruteforce(inst) == v
            zero = ProblemInstance(kind, g, k=0, ell=inst.ell, **terminals)
            yes_at_zero += solve_bruteforce_costaware(zero).answer
    assert yes_at_zero


def _composed_cut(seed, flavor, p, k, ell, mode):
    """A composed LBEC or DSCT instance from the criterion-5 input
    generator, at its shapes: p = 4 trials sample leaner inputs."""
    rnd = random.Random(seed)
    inputs = _make_inputs(rnd, p, k, ell,
                          "undirected" if flavor == "lbec-und" else "dag", 5,
                          2 if p == 2 else 0)
    compose = compose_dsct if flavor == "dsct" else compose_lbec
    return compose(inputs, mode=mode).composed


# (seed, flavor, p, k, ell, mode) -> (answer, witness, nodes), recorded
# before the LBEC predicate handed its obstructions down: the state count
# must not drift.
PINNED_COSTAWARE = [
    ((0, "lbec-und", 2, 1, 3, "weighted"), (False, None, 1059)),
    ((1, "lbec-und", 2, 2, 4, "weighted"), (True, (0, 2, 3, 9), 18)),
    ((15, "lbec-und", 4, 1, 3, "weighted"), (True, (0, 2, 5), 38)),
    ((3, "lbec-und", 2, 2, 4, "simple"),
     (True, (0, 2, 4, 6, 16, 18, 20, 22, 40, 44), 20)),
    ((3, "lbec-dag", 2, 1, 3, "weighted"), (False, None, 178)),
    ((14, "lbec-dag", 4, 1, 3, "weighted"), (True, (0, 1, 4, 11), 17)),
    ((0, "lbec-dag", 2, 1, 3, "simple"), (True, (0, 2, 4, 6, 12), 4)),
    ((14, "lbec-dag", 4, 1, 3, "simple"),
     (True, (0, 2, 4, 6, 16, 18, 36), 17)),
    ((1, "dsct", 2, 2, 4, "weighted"), (True, (0, 1, 3, 4), 5)),
    ((3, "dsct", 2, 1, 3, "simple"), (False, None, 178)),
    ((10, "dsct", 4, 1, 4, "simple"),
     (True, (0, 2, 4, 6, 12, 14, 34), 21)),
]


@pytest.mark.parametrize("params,expected", PINNED_COSTAWARE)
def test_costaware_cut_pinned_verdicts(params, expected):
    v = solve_bruteforce_costaware(_composed_cut(*params))
    assert (v.answer, v.witness, v.nodes) == expected


class _CountedSevers(_CostAwareSearch):
    """Counts the sever calls made on the way to each state, up to the end
    of its predicate, and checks that a state that inherits its parent's
    obstruction made none."""

    severs = 0
    searched = 0
    inherited = 0

    def sever(self, pid):
        self.severs += 1
        super().sever(pid)

    def _obstruction_holds(self, parent, mask):
        got = super()._obstruction_holds(parent, mask)
        if got is parent:
            assert self.severs == 0
            self.inherited += 1
        else:
            self.searched += 1
        self.severs = 0
        return got


@pytest.mark.parametrize("params,expected", [
    case for case in PINNED_COSTAWARE
    if case[0] in ((0, "lbec-und", 2, 1, 3, "weighted"),
                   (3, "dsct", 2, 1, 3, "simple"))])
def test_costaware_inherited_states_sever_nothing(params, expected):
    inst = _composed_cut(*params)
    search = _CountedSevers(inst)
    v = search.solve(inst.k, 50_000_000)
    assert (v.answer, v.witness, v.nodes) == expected
    assert search.inherited > search.searched > 0
    assert search.inherited + search.searched == v.nodes


@pytest.mark.parametrize("params,expected", [
    case for case in PINNED_COSTAWARE if case[0][1] != "dsct"])
def test_costaware_lbec_builds_no_adjacency_lists(params, expected):
    # The oracle's LBEC search walks the masks; the lists are the
    # branchers'.
    inst = _composed_cut(*params)
    search = _CostAwareSearch(inst)
    v = search.solve(inst.k, 50_000_000)
    assert (v.answer, v.witness, v.nodes) == expected
    assert "adj" not in search.__dict__


def test_costaware_deep_search_ends_in_its_state_budget():
    # 1,200 disjoint directed 2-cycles: every state on the way down severs
    # one, so the path grows past 1,000 states, deeper than the
    # interpreter's recursion limit.
    arcs = [arc for i in range(1200) for arc in ((2 * i, 2 * i + 1),
                                                 (2 * i + 1, 2 * i))]
    inst = ProblemInstance("dsct", Graph(True, 2400, arcs), k=1100, ell=2)
    with pytest.raises(ResourceBudgetError, match="exceeded 10000 states"):
        solve_bruteforce_costaware(inst, max_states=10_000)


def test_finished_searches_hold_no_reference_cycle():
    # Without the collector, a search is freed as soon as its last
    # reference goes, unless it is part of a reference cycle.
    enabled = gc.isenabled()
    gc.disable()
    try:
        for k in (0, 1):  # no, then yes
            search = _CostAwareSearch(ProblemInstance("mded", cycle4(), k=k,
                                                      ell=3))
            ref = weakref.ref(search)
            assert search.solve(k, 100).answer == bool(k)
            del search
            assert ref() is None
            state = _SlotState(cycle4(), "lbec")
            ref = weakref.ref(state)
            find = partial(state.shortest_path_slots, 0, 1, 2)
            assert (solvers._branch(state, find, k)[0] is None) == (k == 0)
            del state, find
            assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_replay_predicate_matches_manual_checks():
    inst = ProblemInstance("mded", cycle4(), k=1, ell=3)
    assert instance_predicate(inst, (0,))     # P4: connected, diameter 3
    assert not instance_predicate(inst, ())   # C4 has diameter 2


def _diameter(g: Graph, dead: frozenset[int]) -> float:
    """Maximum shortest-path length over ordered pairs; inf if some pair is
    unreachable (directed: not strongly connected)."""
    if g.n <= 1:
        return 0
    worst = 0
    for v in range(g.n):
        worst = max(worst, max(distances(g, v, dead)))
        if worst == UNREACHABLE:
            return UNREACHABLE
    return worst


def _random_multigraph(rnd, directed, n):
    """A unit multigraph on n vertices: a backbone (a cycle, a path, a path
    whose arcs alternate in direction, or none) plus random extra and
    parallel edges."""
    backbone = rnd.choice(("cycle", "path", "zigzag", "none")) if n > 1 else "none"
    edges = []
    if backbone == "cycle":
        edges += [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1), (1, 0)]
    elif backbone == "path":
        edges += [(i, i + 1) for i in range(n - 1)]
    elif backbone == "zigzag":
        # Weakly connected; strongly connected only through the extras.
        edges += [(i, i + 1) if i % 2 else (i + 1, i) for i in range(n - 1)]
    for _ in range(rnd.randint(0, 2 * n) if n > 1 else 0):
        u, v = rnd.sample(range(n), 2)
        edges.append((u, v))
    if edges and rnd.random() < 0.5:
        edges += rnd.choices(edges, k=rnd.randint(1, 3))
    rnd.shuffle(edges)
    return Graph(directed, n, edges)


def test_mded_predicate_matches_the_diameter_reference():
    rnd = random.Random(2707)
    checked = Counter()
    for _ in range(600):
        directed = rnd.random() < 0.5
        g = _random_multigraph(rnd, directed, rnd.randint(0, 7))
        m = len(g.edges)
        for _ in range(4):
            dead = frozenset(i for i in range(m) if rnd.random() < 0.2)
            connected = is_strongly_connected(g, dead)
            diameter = _diameter(g, dead)
            if directed and not connected and is_connected(Graph(
                    True, g.n, [e for i, e in enumerate(g.edges) if i not in dead])):
                checked["weak only"] += 1
            for ell in range(-1, g.n + 2):
                inst = ProblemInstance("mded", g, k=m, ell=ell)
                expected = connected and diameter >= ell
                assert instance_predicate(inst, dead) == expected, (g.edges, dead, ell)
                assert check_witness(inst, dead) == expected
                checked[expected] += 1
    # No vertex to scan: the empty graph's diameter is 0, so ell <= 0 is a yes.
    for n, directed, ell in itertools.product((0, 1), (False, True), range(-1, 3)):
        inst = ProblemInstance("mded", Graph(directed, n, []), k=0, ell=ell)
        assert _diameter(inst.graph, frozenset()) == 0
        assert instance_predicate(inst, ()) == (ell <= 0)
        assert solve_bruteforce(inst).answer == (ell <= 0)
    assert checked[True] and checked[False] and checked["weak only"], checked


@pytest.mark.parametrize("n", [2, 5, 12])
def test_mded_predicate_stops_at_the_first_far_source(monkeypatch, n):
    # P_n: vertex 0 is n - 1 hops from vertex n - 1, so the scan ends there.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return distances(*args, **kwargs)

    monkeypatch.setattr("fractalcut.reference.distances", counted)
    monkeypatch.setattr("fractalcut.graph.distances", counted)
    path = Graph(False, n, [(i, i + 1) for i in range(n - 1)])
    assert instance_predicate(ProblemInstance("mded", path, k=0, ell=n - 1), ())
    assert calls == [0, 0]  # the connectivity BFS, then source 0


# -- oracle MDED predicate ----------------------------------------------------------

def _composed_mded(seed, directed, k, ell, mode):
    """A composed MDED instance from the criterion-5 input generator."""
    rnd = random.Random(seed)
    if directed:
        inputs = _make_inputs(rnd, 2, k, ell, "dag", 4, 1)
    else:
        n_hi, m_slack = (5, 2) if k == 1 else (4, 0)
        inputs = _make_inputs(rnd, 2, k, ell, "uncuttable", n_hi, m_slack)
    return compose_mded(inputs, directed=directed, mode=mode).composed


# (seed, directed, k, ell, mode) -> (answer, witness, nodes), recorded before
# the MDED predicate became incremental, and the last three before the
# directed one moved to the contracted corridors: the state count must not
# drift.
PINNED_MDED = [
    ((5, True, 1, 4, "weighted"), (True, (0, 2, 28), 20)),
    ((2, True, 1, 3, "simple"), (False, None, 92)),
    ((0, False, 1, 3, "weighted"), (False, None, 606)),
    ((0, False, 2, 3, "simple"), (False, None, 960)),
    ((12, True, 1, 4, "weighted"), (False, None, 1756)),
    ((11, True, 1, 3, "weighted"), (False, None, 1756)),
    ((10, True, 1, 4, "weighted"), (True, (0, 2, 31), 23)),
]


@pytest.mark.parametrize("params,expected", PINNED_MDED)
def test_costaware_mded_pinned_verdicts(params, expected):
    v = solve_bruteforce_costaware(_composed_mded(*params))
    assert (v.answer, v.witness, v.nodes) == expected


# -- oracle set-up --------------------------------------------------------------

def _corridors_by_lookup(search):
    """The corridors of the search's support by a plain walk, the reference
    for ``_CostAwareSearch._corridors``: each step reads the next vertex off
    the masks, looks its pair up in ``pair_id`` and tests a set of the
    pairs met so far."""
    inst = search.inst
    protected = {inst.s, inst.t} if inst.kind == "lbec" else set()
    out_masks, in_masks = search.out_masks, search.in_masks
    inner = 0
    for v in range(search.n):
        if v not in protected and (
                out_masks[v].bit_count() == 1 and in_masks[v].bit_count() == 1
                if search.directed else out_masks[v].bit_count() == 2):
            inner |= 1 << v
    corridors = []
    used = set()

    def walk(prev, cur, masks):
        met = []
        while inner >> cur & 1:
            if search.directed:
                nxt = masks[cur].bit_length() - 1
                pair = (cur, nxt) if masks is out_masks else (nxt, cur)
            else:
                nxt = (masks[cur] & ~(1 << prev)).bit_length() - 1
                pair = (min(cur, nxt), max(cur, nxt))
            np = search.pair_id[pair]
            if np in used:
                break  # the corridor closed into a loop
            met.append(np)
            used.add(np)
            prev, cur = cur, nxt
        return met, cur

    for pid, (u, v) in enumerate(search.pairs):
        if pid not in used:
            used.add(pid)
            ahead, tail = walk(u, v, out_masks)
            behind, head = walk(v, u, in_masks)
            corridors.append((behind[::-1] + [pid] + ahead, head, tail))
    return corridors


@pytest.mark.parametrize("kind,directed", [
    ("lbec", False), ("lbec", True), ("mded", False), ("mded", True),
    ("dsct", True)])
def test_corridors_match_the_lookup_walk(kind, directed):
    terminals = dict(s=0, t=1) if kind == "lbec" else {}
    for seed in (2020, 3030):
        rnd = random.Random(seed)
        for _ in range(150):
            inst = ProblemInstance(kind, _corridor_graph(rnd, directed), k=0,
                                   ell=2, **terminals)
            search = _CostAwareSearch(inst)
            assert search._corridors() == _corridors_by_lookup(search), \
                inst.graph.edges


@pytest.mark.parametrize("inst", [
    pytest.param(_composed_cut(*params), id=f"cut{params}")
    for params, _ in PINNED_COSTAWARE] + [
    pytest.param(_composed_mded(*params), id=f"mded{params}")
    for params, _ in PINNED_MDED])
def test_corridors_match_the_lookup_walk_on_pinned_compositions(inst):
    search = _CostAwareSearch(inst)
    assert search._corridors() == _corridors_by_lookup(search)


# SHA-256 of repr((pairs, pair_edges, pair_cost, units)) of the oracle's
# set-up on each PINNED_COSTAWARE ("cut") and PINNED_MDED ("mded")
# composition, recorded before set-up built each structure in one pass:
# ids, costs, units and their order must not drift.
PINNED_SETUP = [
    (("cut", (0, "lbec-und", 2, 1, 3, "weighted")),
     "c434336a8014ce8f87b54d8e2efe40004e35f43c2f8f3e455559ffa2dd88445f"),
    (("cut", (1, "lbec-und", 2, 2, 4, "weighted")),
     "10deecdd288a015f5acf538da477135160d40c45863db15af0957cbfe758c1f1"),
    (("cut", (15, "lbec-und", 4, 1, 3, "weighted")),
     "514cba77941243bcbf6d02918171c61b77b504fb7302194c5ba8b081a030608f"),
    (("cut", (3, "lbec-und", 2, 2, 4, "simple")),
     "708fdff35b748ddf8673e81cd147bbfd48affb7d21d8994d03a2c997d49c1264"),
    (("cut", (3, "lbec-dag", 2, 1, 3, "weighted")),
     "e1252b455f2f3eff3047030061a8ae845bb6c3560d533888f0345bec29060a59"),
    (("cut", (14, "lbec-dag", 4, 1, 3, "weighted")),
     "033213d0be4631da6f2563015b3161cee5416f13a139663efd2d54ae78239db2"),
    (("cut", (0, "lbec-dag", 2, 1, 3, "simple")),
     "f0e6531d3264559cc8940382173dbe1c325c85835b3c44e8e95092a9f6cdb222"),
    (("cut", (14, "lbec-dag", 4, 1, 3, "simple")),
     "e09b73755697ef59a8dfc1b5df04fe91444102a5b5d14fd056833c753e3789e6"),
    (("cut", (1, "dsct", 2, 2, 4, "weighted")),
     "55faebb56ad18b1a750e835856eeaca9ceae5549c89f516a86b5f055ac475c50"),
    (("cut", (3, "dsct", 2, 1, 3, "simple")),
     "2e7d17479f3ea7d14acf7641a2a18c7d7ae65d62a464dcec2b8d07fcb5500e6d"),
    (("cut", (10, "dsct", 4, 1, 4, "simple")),
     "32b0d8fd769cf9557982677caf9d2329fe3bc37a6e1756c3ebb43e76cf1371e8"),
    (("mded", (5, True, 1, 4, "weighted")),
     "8373d7b75b45053400040996bf57d1566b7e5867c48b2584cf1b76da499d00aa"),
    (("mded", (2, True, 1, 3, "simple")),
     "735a98496604b9017c9e37848f673a6aacc0e4dd91ee46efdb0e4c25f0cb3744"),
    (("mded", (0, False, 1, 3, "weighted")),
     "ef17c44b2868af1935dd8b1fef0c04f889bae23760c39f7cd58affb3646d3f6a"),
    (("mded", (0, False, 2, 3, "simple")),
     "a3f79a38aaf60705cf37b708550628abea412de7016a7859cfb7987d4b250855"),
    (("mded", (12, True, 1, 4, "weighted")),
     "8440b961e0bf17bc9f3f4e71bfaa1ffa5e428c64f932cee20aaa035828dd6d19"),
    (("mded", (11, True, 1, 3, "weighted")),
     "5e43dbfffaf0429d8ad7f8d691f3b19b2c2d7a02f4dc7d099c0ae250797aa7aa"),
    (("mded", (10, True, 1, 4, "weighted")),
     "ed3ea88bcb4d603c9ff21679b3547e3b6eeaf8d68f1f082a7407ad9e0e51fa28"),
]


def test_setup_pins_cover_every_pinned_composition():
    assert [params for (_, params), _ in PINNED_SETUP] == [
        params for params, _ in PINNED_COSTAWARE + PINNED_MDED]


@pytest.mark.parametrize("case,expected", PINNED_SETUP)
def test_costaware_setup_pinned(case, expected):
    family, params = case
    make = _composed_cut if family == "cut" else _composed_mded
    search = _CostAwareSearch(make(*params))
    got = repr((search.pairs, search.pair_edges, search.pair_cost,
                search.units))
    assert hashlib.sha256(got.encode()).hexdigest() == expected


def _severed_pairs(search):
    """The pair ids of the search's chosen units: the pairs severed at the
    current state, whether or not its masks show them yet."""
    return {pid for unit in search.chosen for pid in unit[1]}


def _severed_edges(search):
    """The edge indices of the pairs of the search's chosen units."""
    return frozenset(i for pid in _severed_pairs(search)
                     for i in search.pair_edges[pid])


def _masks_in_step(search):
    """Do the search's masks lack exactly the pairs of its chosen units?
    Checked at every state that searched, which must see them all severed."""
    missing = {pid for pid, (u, v) in enumerate(search.pairs)
               if not search.out_masks[u] >> v & 1}
    return missing == _severed_pairs(search)


def _pendant_reference(g, core):
    """The 2-core of the undirected graph g, by dropping vertices of degree
    below two until none is left, and, for the given core, the height of
    each core vertex's pendant forest and the largest diameter inside one
    forest, from the distances on g: a vertex's forest is that of its
    nearest core vertex."""
    nbrs = [set() for _ in range(g.n)]
    for e in g.edges:
        nbrs[e.u].add(e.v)
        nbrs[e.v].add(e.u)
    alive = set(range(g.n))
    while low := {v for v in alive if len(nbrs[v] & alive) < 2}:
        alive -= low
    rows = [distances(g, v) for v in range(g.n)]
    owner = [min(core, key=lambda c: rows[c][w]) for w in range(g.n)]
    height = [max(rows[c][w] for w in range(g.n) if owner[w] == c)
              for c in core]
    pendant = max(rows[w][x] for w in range(g.n) for x in range(g.n)
                  if owner[w] == owner[x])
    return sorted(alive), height, pendant


class _ReplayedMded(_CostAwareSearch):
    """Checks the diameter predicate at every visited state against the
    replay-grade predicate on the edges of the chosen units, that it hands
    down False exactly where the support is not (strongly) connected, and
    that a state that searched saw all of them severed.  Undirected, it
    checks at a connected root that the core is the 2-core (or one vertex
    of a tree) and the forest heights and the pendant constant against
    ``_pendant_reference``.  Directed, it checks every row handed down,
    reused or rerun, against the distances between the branch vertices on
    the original graph, and counts the rows a child kept and reran."""

    visited = 0
    reused = rerun = 0

    def _mded_holds(self, parent, mask):
        got = super()._mded_holds(parent, mask)
        dead = _severed_edges(self)
        connected = is_strongly_connected(self.inst.graph, dead)
        assert (got is True) == instance_predicate(self.inst, dead), dead
        if self.n > 1:
            assert (got is False) == (not connected), dead
        assert got is False if parent is False else _masks_in_step(self), dead
        core = None if self.directed else self.sources
        if core and parent is None and connected and self.n > 1:
            two_core, height, pendant = _pendant_reference(self.inst.graph,
                                                           core)
            assert core == two_core or not two_core and len(core) == 1
            assert [self.height[c] for c in core] == height
            assert self.pendant == pendant
        if isinstance(got, list) and self.directed:
            branch = sorted(self.branch_index, key=self.branch_index.get)
            assert len(got) == len(branch)
            for i, (x, row) in enumerate(zip(branch, got)):
                dist = distances(self.inst.graph, x, dead)
                assert row == [dist[y] for y in branch], (dead, x)
                if parent:
                    self.reused += row is parent[i]
                    self.rerun += row is not parent[i]
        self.visited += 1
        return got


def _replay_states(inst, symmetry, max_states=50_000_000,
                   replayed=_ReplayedMded):
    """Run the search under replay; a capped run checks the states it got to."""
    search = replayed(inst, symmetry=symmetry)
    try:
        verdict = search.solve(inst.k, max_states)
    except ResourceBudgetError:
        assert search.visited == max_states
        return None
    assert search.visited == verdict.nodes
    # A completed search puts every pair it severed back.
    fresh = _Support(inst.graph)
    assert ((search.out_masks, search.in_masks, search.alive)
            == (fresh.out_masks, fresh.in_masks, fresh.alive))
    return verdict, search


def _random_support_mded(rnd):
    """An MDED instance on random pairs, often not (strongly) connected."""
    directed = rnd.random() < 0.5
    n = rnd.randint(2, 6)
    pool = [(u, v) for u in range(n) for v in range(n)
            if u != v and (directed or u < v)]
    g = Graph(directed, n, rnd.sample(pool, rnd.randint(1, len(pool))))
    return ProblemInstance("mded", g, k=rnd.randint(0, 2),
                           ell=rnd.randint(1, 4))


def test_incremental_mded_predicate_matches_replay_random():
    rnd = random.Random(2016)
    seen_directed = set()
    instances = [random_solver_instance(rnd, "mded", n_max=7, k_max=3,
                                        ell_max=5) for _ in range(40)]
    instances += [_random_support_mded(rnd) for _ in range(200)]
    # A triangle beside a path: the path peels away entirely, so reaching
    # the whole core does not show this root connected.
    beside = Graph(False, 6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)])
    instances += [ProblemInstance("mded", beside, k=k, ell=ell)
                  for k in (0, 1) for ell in (1, 2, 3)]
    for inst in instances:
        seen_directed.add(inst.graph.directed)
        fast, _ = _replay_states(inst, True)
        raw, _ = _replay_states(inst, False)
        assert fast.answer == raw.answer
    assert seen_directed == {True, False}


COMPOSED_MDED = [
    (1, True, 1, 4, "weighted"),
    (5, True, 1, 4, "simple"),
    (4, True, 1, 3, "simple"),
    (2, False, 1, 3, "weighted"),
    (4, False, 1, 4, "simple"),
]


@pytest.mark.parametrize("params", COMPOSED_MDED)
def test_incremental_mded_predicate_matches_replay_composed(params):
    # Without the symmetry reductions the weighted budget of 5 spans
    # millions of states; the capped run still replays the first hundred,
    # which reach the full severance depth.
    inst = _composed_mded(*params)
    assert _replay_states(inst, True) is not None
    _replay_states(inst, False, max_states=100)


def _random_strong_digraph(rnd, n, extra):
    """A Hamiltonian cycle in random order plus random chords."""
    order = list(range(n))
    rnd.shuffle(order)
    arcs = {(order[i], order[(i + 1) % n]) for i in range(n)}
    while len(arcs) < min(n + extra, n * (n - 1)):
        arcs.add(tuple(rnd.sample(range(n), 2)))
    return Graph(True, n, sorted(arcs))


def _interior_count(g):
    """The vertices with one distinct in-neighbour and one out-neighbour."""
    pairs = {(e.u, e.v) for e in g.edges}
    outs = Counter(u for u, _ in pairs)
    ins = Counter(v for _, v in pairs)
    return sum(outs[v] == 1 == ins[v] for v in range(g.n))


def _pendant_graph(rnd, shape):
    """A connected undirected graph of the given shape with pendant trees
    hung at random vertices: "tree" (no core), "cycle" (a lone cycle),
    "two-cycles" (joined by a bridge path of 0-3 vertices) or "random" (a
    random connected core)."""
    if shape == "tree":
        n, pairs = 1, set()
    elif shape == "cycle":
        n = rnd.randint(3, 6)
        pairs = {(i, (i + 1) % n) for i in range(n)}
    elif shape == "two-cycles":
        a, b, bridge = rnd.randint(3, 5), rnd.randint(3, 5), rnd.randint(0, 3)
        path = [0, *range(a, a + bridge), a + bridge]
        n = a + bridge + b
        pairs = ({(i, (i + 1) % a) for i in range(a)}
                 | set(zip(path, path[1:]))
                 | {(n - b + i, n - b + (i + 1) % b) for i in range(b)})
    else:
        n = rnd.randint(3, 6)
        pairs = {(rnd.randrange(v), v) for v in range(1, n)}
        pairs |= {tuple(rnd.sample(range(n), 2))
                  for _ in range(rnd.randint(1, 5))}
    for _ in range(rnd.randint(1 if shape == "tree" else 0, 7)):
        pairs.add((rnd.randrange(n), n))
        n += 1
    return Graph(False, n, sorted({(min(p), max(p)) for p in pairs}))


def _severed_holds(g, ell, pids):
    """The undirected diameter predicate with the pairs pids severed,
    decided as at a root, on g's core, forest heights and pendant constant."""
    search = _CostAwareSearch(ProblemInstance("mded", g, k=0, ell=ell))
    search.chosen = [(0, (pid,), (), 1 << pid) for pid in pids]
    search.synced = 0
    return search._mded_holds(None, 0)


PENDANT_CASES = {
    # A triangle with a tree hung at 0 by the pair (0, 3), whose legs 3 -> 6
    # and 3 -> 9 lie 6 hops apart, away from 0: the core pairs give only
    # h(0) + 1 = 5, so without the pendant constant ell = 6 reads as a no.
    "spider": (Graph(False, 10, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4),
                                 (4, 5), (5, 6), (3, 7), (7, 8), (8, 9)]), 6),
    "path": (Graph(False, 4, [(0, 1), (1, 2), (2, 3)]), 3),
    "cycle": (Graph(False, 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]), 2),
    "two-cycles": (Graph(False, 7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4),
                                    (4, 5), (5, 6), (4, 6)]), 4),
}


@pytest.mark.parametrize("name", PENDANT_CASES)
def test_pendant_quotient_named_cases(name):
    g, diameter = PENDANT_CASES[name]
    assert _diameter(g, frozenset()) == diameter
    for ell in (diameter, diameter + 1):
        inst = ProblemInstance("mded", g, k=0, ell=ell)
        verdict, _ = _replay_states(inst, True)
        assert verdict.answer == (ell == diameter)


def test_pendant_quotient_matches_the_diameter_under_severances():
    rnd = random.Random(2207)
    shapes = ("tree", "cycle", "two-cycles", "random")
    graphs = [_pendant_graph(rnd, shapes[i % 4]) for i in range(400)]
    graphs += [g for g, _ in PENDANT_CASES.values()]
    seen = Counter()
    for g in graphs:
        # Simple graphs: pair pid is edge pid.
        pids, dead = [], frozenset()
        while True:
            diameter = _diameter(g, dead)
            assert _severed_holds(g, diameter, pids) is True, (g.edges, pids)
            failed = _severed_holds(g, diameter + 1, pids)
            assert failed is not True and failed is not False, (g.edges, pids)
            seen[len(pids)] += 1
            cuts = [pid for pid in range(len(g.edges)) if pid not in dead
                    and is_strongly_connected(g, dead | {pid})]
            if not cuts or rnd.random() < 0.3:
                break
            pids.append(rnd.choice(cuts))
            dead |= {pids[-1]}
    assert seen[0] == len(graphs) and seen[2] >= 50, seen


def test_long_pendant_path_is_decided_without_recursion():
    # A triangle with a pendant path of 5,000 vertices at 0: h(0) = 5,000.
    n = 5003
    g = Graph(False, n, [(0, 1), (1, 2), (0, 2), (0, 3)]
              + [(v, v + 1) for v in range(3, n - 1)])
    for k, ell, expected in ((0, 5001, (True, (), 1)),
                             (1, 5002, (True, (0,), 2)),
                             (1, 5003, (False, None, 4))):
        inst = ProblemInstance("mded", g, k=k, ell=ell)
        v = solve_bruteforce_costaware(inst)
        assert (v.answer, v.witness, v.nodes) == expected


def test_huge_ell_costs_no_set_up_per_level():
    # The goal test indexes core vertices by height, not by level, so a
    # target diameter far beyond n builds nothing of its size.
    triangle = Graph(False, 3, [(0, 1), (1, 2), (0, 2)])
    tailed = Graph(False, 5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)])
    for g in (triangle, tailed):
        for k, nodes in ((0, 1), (1, 4)):
            inst = ProblemInstance("mded", g, k=k, ell=10**9)
            v = solve_bruteforce_costaware(inst)
            assert (v.answer, v.witness, v.nodes) == (False, None, nodes)


def _root_holds(g, ell):
    """The diameter predicate at the root of a search on g."""
    search = _CostAwareSearch(ProblemInstance("mded", g, k=0, ell=ell))
    search.chosen, search.synced = [], 0
    return search._mded_holds(None, 0)


def test_corridor_predicate_matches_the_diameter_at_the_root():
    rnd = random.Random(1512)
    graphs = [_random_strong_digraph(rnd, rnd.randint(2, 9), rnd.randint(0, 8))
              for _ in range(300)]
    interior = [_interior_count(g) for g in graphs]
    assert sum(0 < c < g.n for c, g in zip(interior, graphs)) >= 50
    assert sum(c == g.n for c, g in zip(interior, graphs)) >= 10
    graphs += [_composed_mded(*params).graph for params in COMPOSED_MDED
               if params[1]]
    for g in graphs:
        diameter = _diameter(g, frozenset())
        assert _root_holds(g, diameter) is True, g.edges
        rows = _root_holds(g, diameter + 1)
        assert isinstance(rows, list), g.edges
        assert max(map(max, rows)) <= diameter, g.edges


class _EveryMdedState(_ReplayedMded):
    """Goes on past the states that pass, so the search visits every
    deletion set within its budget; records what each state returned,
    None for the rows that a failing, strongly connected state hands
    down."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.outcomes = []

    def _mded_holds(self, parent, mask):
        got = super()._mded_holds(parent, mask)
        self.outcomes.append(got if isinstance(got, bool) else None)
        return None if got is True else got


def _every_state(g, ell, rows=None):
    """What the directed predicate returns on every deletion set of g of
    up to two pairs within a budget of 2, without the symmetry reductions
    (so the pairs inside corridors are units too), checked under replay;
    the root comes first.  Adds the rows the children reused and reran to
    the Counter rows, if given."""
    inst = ProblemInstance("mded", g, k=2, ell=ell)
    verdict, search = _replay_states(inst, False, replayed=_EveryMdedState)
    sets = sum(sum(c) <= 2 for size in range(3)
               for c in itertools.combinations(search.pair_cost, size))
    assert not verdict.answer and verdict.nodes == sets
    if rows is not None:
        rows.update(reused=search.reused, rerun=search.rerun)
    return search.outcomes


def _corridor_digraph(rnd):
    """Corridors of 1-5 arcs between 1-4 branch vertices: mostly a ring
    through all of them, then random corridors, loops back to one branch
    vertex, 2-cycles and parallel corridors.  Not always strongly
    connected, and a vertex meant to branch may end up interior."""
    b = rnd.randint(1, 4)
    arcs, n = [], b

    def corridor(x, y, length):
        nonlocal n
        path = [x, *range(n, n + length - 1), y]
        n += length - 1
        arcs.extend(zip(path, path[1:]))

    if rnd.random() < 0.8:
        for x in range(b):
            corridor(x, (x + 1) % b, rnd.randint(1 if b > 1 else 2, 5))
    for shape in rnd.choices(("corridor", "loop", "2-cycle", "parallel"),
                             k=rnd.randint(1, 3)):
        x, y = rnd.randrange(b), rnd.randrange(b)
        if shape == "loop" or x == y:
            corridor(x, x, rnd.randint(2, 5))
        elif shape == "2-cycle":
            corridor(x, y, 1)
            corridor(y, x, 1)
        else:
            corridor(x, y, rnd.randint(1, 5))
            if shape == "parallel":
                corridor(x, y, rnd.randint(1, 5))
    return Graph(True, n, arcs)


def test_corridor_predicate_matches_replay_on_small_deletion_sets():
    rnd = random.Random(1812)
    seen, rows = Counter(), Counter()
    for _ in range(300):
        g = _corridor_digraph(rnd)
        diameter = _diameter(g, frozenset())
        if diameter == UNREACHABLE:
            ell = rnd.randint(1, g.n)
        else:
            ell = diameter + rnd.randint(0, 2)
        seen.update(_every_state(g, ell, rows))
    assert seen[True] and seen[None] and seen[False], seen
    assert rows["reused"] and rows["rerun"], rows


CORRIDOR_CASES = {
    # The longest corridor ending and starting at 0 is 0 -> 1 -> 2 -> 0, so
    # pairing the longest at each end would read the diameter as 4.
    "two-longest": (5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 0), (0, 4),
                        (4, 0)]),
    "one-cycle": (4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "two-cycles": (5, [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2)]),
    "cycle-beside-branch": (6, [(0, 1), (1, 0), (0, 2), (2, 0), (3, 4),
                                (4, 5), (5, 3)]),
}


@pytest.mark.parametrize("name,ell,root", [
    ("two-longest", 3, True), ("two-longest", 4, None),
    ("one-cycle", 3, True), ("one-cycle", 4, None),
    ("two-cycles", 1, False), ("cycle-beside-branch", 1, False)])
def test_corridor_predicate_named_cases(name, ell, root):
    n, arcs = CORRIDOR_CASES[name]
    assert _every_state(Graph(True, n, arcs), ell)[0] is root


# -- LBEC obstruction inheritance ------------------------------------------------------

class _ReplayedLbec(_CostAwareSearch):
    """Checks the LBEC predicate at every visited state against the
    replay-grade predicate on the edges of the chosen units, that a state
    that searched saw all of them severed, and that every obstruction it
    returns, handed down or found afresh, is the mask of an s-t path of
    fewer than ell hops along pairs that survive."""

    visited = 0
    inherited = 0

    def _obstruction_holds(self, parent, mask):
        got = super()._obstruction_holds(parent, mask)
        gone = _severed_pairs(self)
        dead = _severed_edges(self)
        assert (got is True) == instance_predicate(self.inst, dead), dead
        assert got is parent or _masks_in_step(self), dead
        if got is not True:
            left = set(solvers._bits(got))
            assert 0 < len(left) < self.inst.ell, (dead, got)
            at = self.inst.s
            while left:
                # The one pair of the path left that leaves the vertex reached.
                step = [pid for pid in left if at == self.pairs[pid][0] or
                        (not self.directed and at == self.pairs[pid][1])]
                assert len(step) == 1, (dead, got)
                pid = step[0]
                left.remove(pid)
                assert pid not in gone, (dead, got)
                u, v = self.pairs[pid]
                at = v if at == u else u
            assert at == self.inst.t, (dead, got)
            self.inherited += got is parent
        self.visited += 1
        return got


@pytest.mark.parametrize("symmetry", [True, False])
def test_lbec_obstruction_inheritance_matches_replay(symmetry):
    rnd = random.Random(2017)
    instances = [random_solver_instance(rnd, "lbec", n_max=7, k_max=3,
                                        ell_max=5) for _ in range(60)]
    instances += [_composed_cut(*params) for params, _ in PINNED_COSTAWARE
                  if params[1] != "dsct"]
    # Two parallel corridors severed as one unit: the shortest path runs
    # through the second, so the unit's first pair is not on it.
    corridors = Graph(False, 6, [(0, 3), (3, 5), (0, 2), (2, 5)])
    instances.append(ProblemInstance("lbec", corridors, s=0, t=5, k=2, ell=3))
    inherited = 0
    for inst in instances:
        # Without the symmetry reductions a composed weighted budget can
        # span millions of states; the capped run replays the first ones.
        got = _replay_states(inst, symmetry,
                             max_states=50_000_000 if symmetry else 20_000,
                             replayed=_ReplayedLbec)
        assert got is not None or not symmetry
        if got is not None:
            inherited += got[1].inherited
    assert inherited > 0


# -- DSCT obstruction inheritance ------------------------------------------------------

class _ReplayedDsct(_CostAwareSearch):
    """Checks the DSCT predicate at every visited state against the
    replay-grade predicate on the edges of the chosen units, that a state
    that searched saw all of them severed, and that every obstruction it
    returns, handed down or found afresh, is the mask of a closed walk of
    at most ell arcs along pairs that survive."""

    visited = 0
    inherited = 0

    def _obstruction_holds(self, parent, mask):
        got = super()._obstruction_holds(parent, mask)
        gone = _severed_pairs(self)
        dead = _severed_edges(self)
        assert (got is True) == instance_predicate(self.inst, dead), dead
        assert got is parent or _masks_in_step(self), dead
        if got is not True:
            pids = list(solvers._bits(got))
            assert 2 <= len(pids) <= self.inst.ell, (dead, got)
            assert not gone.intersection(pids), (dead, got)
            # One closed walk: following each arc's head to the arc it is
            # the tail of visits every arc and comes back.
            arcs = [self.pairs[pid] for pid in pids]
            succ = dict(arcs)
            assert len(succ) == len(arcs), (dead, got)
            at, walk = arcs[0][0], []
            for _ in arcs:
                walk.append(at)
                at = succ.get(at)
            assert at == arcs[0][0] and set(walk) == set(succ), (dead, got)
            self.inherited += got is parent
        self.visited += 1
        return got


@pytest.mark.parametrize("symmetry", [True, False])
def test_dsct_obstruction_inheritance_matches_replay(symmetry):
    rnd = random.Random(2018)
    instances = [random_solver_instance(rnd, "dsct", n_max=7, k_max=3,
                                        ell_max=5) for _ in range(60)]
    instances += [_composed_cut(*params) for params, _ in PINNED_COSTAWARE
                  if params[1] == "dsct"]
    instances += [_composed_cut(seed, "dsct", p, 1, ell, mode)
                  for seed in range(4) for p, ell in ((2, 3), (4, 4))
                  for mode in ("weighted", "simple")]
    # Two parallel corridors severed as one unit, closed by a back arc: the
    # cycle found runs through the second, so the unit's first pair is not
    # on it.
    corridors = Graph(True, 6, [(0, 3), (3, 5), (0, 2), (2, 5), (5, 0)])
    instances.append(ProblemInstance("dsct", corridors, k=2, ell=3))
    inherited = 0
    for inst in instances:
        # Without the symmetry reductions a composed simple-mode instance
        # spans many thousands of states, each replayed with one BFS per
        # arc; the capped run replays the first ones.
        got = _replay_states(inst, symmetry,
                             max_states=50_000_000 if symmetry else 300,
                             replayed=_ReplayedDsct)
        assert got is not None or not symmetry
        if got is not None:
            inherited += got[1].inherited
    assert inherited > 0
