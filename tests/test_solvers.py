"""Branching solvers against the exhaustive oracle, plus witness replay,
branch-counter bounds, and the cost-aware search's symmetry reductions."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from fractalcut import (Graph, InputError, ProblemInstance,
                        ResourceBudgetError, build_fractal, check_witness,
                        solve_bruteforce, solve_bruteforce_costaware,
                        solve_dsct_fpt, solve_fpt, solve_lbec_fpt,
                        solve_mded_fpt)
from fractalcut.fixtures import VC_FIXTURES
from fractalcut.generators import random_solver_instance
from fractalcut.graph import UNREACHABLE, bfs_distance, distances
from fractalcut.composer import compose_dsct, compose_lbec, compose_mded
from fractalcut.reducer import reduce_vc_to_planar_lbec
from fractalcut.solvers import (_CostAwareSearch, _SlotState, _Support,
                                _connected_after, _diameter, _girth_directed,
                                instance_predicate)
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
        state = _SlotState(g)
        search = _CostAwareSearch(inst, symmetry=False)
        dead = frozenset()
        while True:
            # the mask search against the reference girth on what survives
            cycle = state.shortest_cycle_slots(len(g.edges) + 1)
            girth = _girth_directed(g, dead)
            assert (len(cycle) if cycle is not None else float("inf")) == girth
            # the oracle's finder: a shortest cycle through the lowest vertex
            # on a cycle of at most limit arcs, or None when there is none
            through = [min((distances(g, v, dead)[e.u] + 1
                            for i, e in enumerate(g.edges)
                            if e.v == v and i not in dead), default=UNREACHABLE)
                       for v in range(g.n)]
            for limit in range(5):
                first = search._first_cycle(limit)
                assert (first is not None) == (girth <= limit), (dead, limit)
                if limit < 2:
                    assert first is None, (dead, limit)
                if first is None:
                    continue
                arcs = [search.pairs[pid] for pid in first]
                assert all(search.out_masks[u] >> v & 1 for u, v in arcs)
                assert all(arcs[i][1] == arcs[(i + 1) % len(arcs)][0]
                           for i in range(len(arcs)))
                lowest = min(v for v in range(g.n) if through[v] <= limit)
                assert lowest in {u for u, _ in arcs}, (dead, limit, first)
                assert len(first) == through[lowest], (dead, limit, first)
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


def test_connected_without_matches_reference():
    rnd = random.Random(808)
    outcomes = set()
    for _ in range(80):
        directed = rnd.random() < 0.5
        n = rnd.randint(2, 7)
        pool = [(u, v) for u in range(n) for v in range(n)
                if u != v and (directed or u < v)]
        edges = rnd.sample(pool, rnd.randint(1, len(pool)))
        edges += [rnd.choice(edges) for _ in range(rnd.randint(0, 2))]
        g = Graph(directed, n, edges)
        support = _Support(g)
        masks = (list(support.out_masks), list(support.in_masks))
        for pid, idxs in enumerate(support.pair_edges):
            got = support.connected_without(pid)
            assert got == _connected_after(g, frozenset(idxs)), (g.edges, pid)
            assert (support.out_masks, support.in_masks) == masks
            outcomes.add((directed, got))
    assert outcomes == {(d, c) for d in (False, True) for c in (False, True)}


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
        excluded = search._excluded_pairs()
        for pid, (u, v) in enumerate(search.pairs):
            on_cycle = distances(g, v)[u] != UNREACHABLE
            assert (pid in excluded) != on_cycle, (arcs, u, v)
            outcomes.add(on_cycle)
    assert outcomes == {False, True}


# (source, seed or k) -> (answer, witness, nodes) of solve_fpt, recorded
# before the branchers moved onto the shared pair masks: the branching order
# and with it every witness and leaf count must not drift.
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


def test_replay_predicate_matches_manual_checks():
    inst = ProblemInstance("mded", cycle4(), k=1, ell=3)
    assert instance_predicate(inst, (0,))     # P4: connected, diameter 3
    assert not instance_predicate(inst, ())   # C4 has diameter 2


# -- incremental MDED predicate ------------------------------------------------------

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
# the MDED predicate became incremental: the state count must not drift.
PINNED_MDED = [
    ((5, True, 1, 4, "weighted"), (True, (0, 2, 28), 20)),
    ((2, True, 1, 3, "simple"), (False, None, 92)),
    ((0, False, 1, 3, "weighted"), (False, None, 606)),
    ((0, False, 2, 3, "simple"), (False, None, 960)),
]


@pytest.mark.parametrize("params,expected", PINNED_MDED)
def test_costaware_mded_pinned_verdicts(params, expected):
    v = solve_bruteforce_costaware(_composed_mded(*params))
    assert (v.answer, v.witness, v.nodes) == expected


def _severed_edges(search):
    """The edge indices of the pairs missing from the search's masks."""
    return frozenset(i for (u, v), idxs in zip(search.pairs, search.pair_edges)
                     if not search.out_masks[u] >> v & 1 for i in idxs)


class _ReplayedMded(_CostAwareSearch):
    """Checks the incremental diameter predicate at every visited state
    against the replay-grade predicate on the severed edges, every distance
    array and reach mask it hands down against a fresh BFS (directed, the
    first array is the reverse one of the first source), and, at every
    connected state, that the diameter sources recomputed from the current
    support are among the search's fixed sources."""

    visited = 0

    def _mded_holds(self, parent, severed):
        got = super()._mded_holds(parent, severed)
        dead = _severed_edges(self)
        assert (got is True) == instance_predicate(self.inst, dead), dead
        if _connected_after(self.inst.graph, dead):
            assert set(self._diameter_sources()) <= set(self.sources), dead
        if isinstance(got, list):
            walks = [(src, False) for src in self.sources]
            if self.directed:
                walks.insert(0, (self.sources[0], True))
            assert len(got) == len(walks)
            for (src, reverse), (dist, reach) in zip(walks, got):
                assert dist == distances(self.inst.graph, src, dead,
                                         reverse=reverse), (dead, src)
                assert reach == [sum(1 << v for v in range(self.n)
                                     if dist[v] <= j)
                                 for j in range(max(dist) + 1)], (dead, src)
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


def _fed_by_out_degree_one(g):
    """Vertices of in-degree >= 2 with an in-neighbour of out-degree 1."""
    out_deg = [0] * g.n
    in_deg = [0] * g.n
    for e in g.edges:
        out_deg[e.u] += 1
        in_deg[e.v] += 1
    return {e.v for e in g.edges if out_deg[e.u] == 1 and in_deg[e.v] >= 2}


def test_diameter_sources_realize_the_diameter():
    rnd = random.Random(1512)
    graphs = [_random_strong_digraph(rnd, rnd.randint(2, 9), rnd.randint(0, 8))
              for _ in range(300)]
    assert sum(bool(_fed_by_out_degree_one(g)) for g in graphs) >= 50
    graphs += [_composed_mded(*params).graph for params in COMPOSED_MDED]
    for g in graphs:
        assert _connected_after(g, frozenset())
        sources = _CostAwareSearch(ProblemInstance("mded", g, k=0, ell=1)).sources
        worst = max(max(distances(g, v)) for v in sources)
        assert worst == _diameter(g, frozenset()), (g.edges, sources)


# -- LBEC obstruction inheritance ------------------------------------------------------

class _ReplayedLbec(_CostAwareSearch):
    """Checks the LBEC predicate at every visited state against the
    replay-grade predicate on the severed edges, and that every obstruction
    it returns, handed down or found afresh, is an s-t path of fewer than
    ell hops along pairs that survive."""

    visited = 0
    inherited = 0

    def _obstruction_holds(self, parent, severed):
        got = super()._obstruction_holds(parent, severed)
        dead = _severed_edges(self)
        assert (got is True) == instance_predicate(self.inst, dead), dead
        if got is not True:
            assert 0 < len(got) < self.inst.ell, (dead, got)
            at = self.inst.s
            for pid in got:
                u, v = self.pairs[pid]
                assert self.out_masks[u] >> v & 1, (dead, got)
                assert at == u or (not self.directed and at == v), (dead, got)
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
    replay-grade predicate on the severed edges, and that every obstruction
    it returns, handed down or found afresh, is a closed walk of at most ell
    arcs along pairs that survive."""

    visited = 0
    inherited = 0

    def _obstruction_holds(self, parent, severed):
        got = super()._obstruction_holds(parent, severed)
        dead = _severed_edges(self)
        assert (got is True) == instance_predicate(self.inst, dead), dead
        if got is not True:
            assert 2 <= len(got) <= self.inst.ell, (dead, got)
            arcs = [self.pairs[pid] for pid in got]
            for (u, v), (nxt, _) in zip(arcs, arcs[1:] + arcs[:1]):
                assert self.out_masks[u] >> v & 1, (dead, got)
                assert v == nxt, (dead, got)
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
