"""Composer: equivalence classes, padding, embeddings, parameter arithmetic,
or-semantics, and the regressions that shaped the construction."""

import random

import pytest

from fractalcut import (EquivalenceError, Graph, InputError, ProblemInstance,
                        bfs_distance, check_equivalent, check_witness, verify,
                        compose_dsct, compose_lbec, compose_mded,
                        cut_for_instance, is_connected, is_strongly_connected,
                        pad_to_power_of_two, solve_bruteforce,
                        solve_bruteforce_costaware, trivial_no_instance)
from fractalcut.composer import _embed, _is_acyclic
from fractalcut.generators import (random_dag_lbec_input,
                                   random_lbec_input,
                                   random_uncuttable_lbec_input)


def lbec_on(graph, k=2, ell=3, s=0, t=None):
    return ProblemInstance("lbec", graph, s=s, t=graph.n - 1 if t is None else t,
                           k=k, ell=ell)


def petite(k=2, ell=3, directed=False):
    if directed:
        return ProblemInstance("lbec", Graph(True, 3, [(0, 1), (1, 2), (0, 2)]),
                               s=0, t=2, k=k, ell=ell)
    return ProblemInstance("lbec", Graph(False, 3, [(0, 1), (1, 2), (0, 2)]),
                           s=0, t=2, k=k, ell=ell)


# -- equivalence classes --------------------------------------------------------

def test_equivalence_same_parameters():
    cls = check_equivalent([petite(2, 3), petite(2, 3)])
    assert (cls.k, cls.ell, cls.bad) == (2, 3, False)


def test_equivalence_bad_class():
    big = ProblemInstance("lbec", Graph(False, 3, [(0, 1), (1, 2)]), s=0, t=2,
                          k=3, ell=9)  # both parameters exceed |E| = 2
    other = ProblemInstance("lbec", Graph(False, 3, [(0, 1), (1, 2)]), s=0, t=2,
                            k=5, ell=7)
    assert check_equivalent([big, other]).bad


def test_equivalence_mismatch_names_pair():
    with pytest.raises(EquivalenceError, match="0 and 1"):
        check_equivalent([petite(1, 3), petite(2, 3)])


# -- padding ---------------------------------------------------------------------

def test_pad_three_to_four_appends_a_no_instance():
    inputs = [petite(1, 3) for _ in range(3)]
    padded = pad_to_power_of_two(inputs)
    assert len(padded) == 4
    extra = padded[3]
    assert (extra.k, extra.ell) == (1, 3)
    assert not extra.is_bad
    assert not solve_bruteforce(extra).answer


def test_pad_power_of_two_unchanged():
    inputs = [petite(1, 3) for _ in range(4)]
    assert pad_to_power_of_two(inputs) == inputs


def test_pad_gadget_arithmetic():
    gadget = trivial_no_instance(2, 4)
    assert gadget.graph.n == 5          # 2 terminals + 3 midpoints
    assert len(gadget.graph.edges) == 6
    assert not solve_bruteforce(gadget).answer


def test_pad_gadget_stays_out_of_bad_class_for_large_ell():
    gadget = trivial_no_instance(1, 5)
    assert not gadget.is_bad
    assert not solve_bruteforce(gadget).answer


def test_pad_rejects_tiny_threshold():
    with pytest.raises(InputError):
        pad_to_power_of_two([petite(2, 3), petite(2, 2)])
    with pytest.raises(InputError):
        trivial_no_instance(2, 2)


# -- constructions -----------------------------------------------------------------

def embedded(instances, cost, directed):
    """_embed's construction and the graph of its rows."""
    q = len(instances).bit_length() - 1
    con = _embed(instances, q, cost, directed=directed)
    return con, Graph(directed, con.n, con.rows, con.labels)


def test_construct1_merge_arithmetic():
    con, g = embedded([petite(), petite()], 4, directed=False)
    f = con.fractal
    assert g.n == 5  # 3 fractal vertices + one interior per input
    assert f.depth == 1
    # fractal edges first, at unchanged indices, carrying the deletion cost
    for idx in range(len(f.graph.edges)):
        assert g.edges[idx].cost == 4
    assert all(e.cost == 1 for e in g.edges[len(f.graph.edges):])


def test_construct1_degenerate_single_input():
    con, g = embedded([petite()], 2, directed=False)
    f = con.fractal
    assert f.depth == 0
    assert g.n == 3  # the input glued across the single fractal edge


def test_construct1_eight_gaps():
    inputs = [petite() for _ in range(8)]
    con, g = embedded(inputs, 4, directed=False)
    f = con.fractal
    assert f.depth == 3
    assert g.n == (8 + 1) + 8 * 1


def test_construct1_rejects_non_power_of_two():
    with pytest.raises(InputError, match="power-of-two instance count, got 3"):
        compose_lbec([petite(), petite(), petite()])
    with pytest.raises(InputError, match="at least one instance"):
        compose_lbec([])


def test_construct2_three_vertex_inputs():
    g = embedded([petite(directed=True), petite(directed=True)], 4,
                 directed=True)[1]
    assert g.n == 5
    assert _is_acyclic(g)


def test_construct2_single_arc_inputs():
    arc = ProblemInstance("lbec", Graph(True, 2, [(0, 1)]), s=0, t=1, k=1, ell=1)
    g = embedded([arc, arc], 2, directed=True)[1]
    assert g.n == 3  # no interior vertices to add


def test_construct2_rejects_cyclic_input():
    cyc = ProblemInstance("lbec", Graph(True, 3, [(0, 1), (1, 2), (2, 0)]),
                          s=0, t=2, k=1, ell=1)
    with pytest.raises(InputError, match="cyclic"):
        _embed([cyc, cyc], 1, 2, directed=True)


def test_construct2_gap_spanning():
    ins = [petite(directed=True), petite(directed=True)]
    con, g = embedded(ins, 4, directed=True)
    f = con.fractal
    fcount = len(f.graph.edges)
    # each gap's instance edges connect only vertices of that gap's embedding
    first = [g.edges[i] for i in range(fcount, fcount + 3)]
    assert all({e.u, e.v} <= {0, 1, 3} for e in first)
    second = [g.edges[i] for i in range(fcount + 3, fcount + 6)]
    assert all({e.u, e.v} <= {1, 2, 4} for e in second)


# -- parameter arithmetic -------------------------------------------------------------

def test_lbec_parameters_k2_p4():
    inputs = [petite(2, 3) for _ in range(4)]
    art = compose_lbec(inputs)
    assert art.params["c"] == 4
    assert art.params["k_prime"] == 14   # 4 * (2 + 1) + 2
    assert art.params["ell_prime"] == 5  # 3 + log2(4)
    assert art.composed.s == 0 and art.composed.t == 4


def test_lbec_parameters_degenerate_budget():
    # k = 1 takes edge cost k + 1 = 2 rather than k**2 = 1: a unit-cost
    # selector lets the leftover budget delete extra fractal edges and chain
    # neighboring inputs, faking a yes out of two no inputs.
    art = compose_lbec([petite(1, 3), petite(1, 3)])
    assert art.params["c"] == 2
    assert art.params["k_prime"] == 5
    assert art.params["ell_prime"] == 4


def test_lbec_simple_mode_doubles_threshold():
    art = compose_lbec([petite(2, 3), petite(2, 3)], mode="simple")
    assert art.params["ell_prime"] == 8  # 2 * (3 + 1)
    assert art.composed.graph.is_simple


def test_selector_is_identity_bijection():
    art = compose_lbec([petite(2, 3) for _ in range(4)])
    assert art.selector == {1: 1, 2: 2, 3: 3, 4: 4}


def test_mded_parameters_from_stated_example():
    rnd = random.Random(3)
    ins = [random_uncuttable_lbec_input(rnd, n=4, m=5, k=1, ell=3)
           for _ in range(2)]
    art = compose_mded(ins)
    assert art.params["L"] == 21        # 4 * (2*1 + 3) + 1
    assert art.params["ell_prime"] == 46  # 2*21 + 1 + 3


def test_mded_directed_parameters_from_stated_example():
    rnd = random.Random(3)
    ins = [random_dag_lbec_input(rnd, n=4, m=5, k=1, ell=3) for _ in range(2)]
    art = compose_mded(ins, directed=True)
    assert art.params["L"] == 61        # 3 * 4 * (2*1 + 3) + 1
    assert art.params["ell_prime"] == 126
    assert is_strongly_connected(art.composed.graph)


def test_dsct_back_arc_and_acyclic_remainder():
    ins = [petite(2, 3, directed=True), petite(2, 3, directed=True)]
    art = compose_dsct(ins)
    g = art.composed.graph
    back = len(g.edges) - 1
    assert g.edges[back].cost == art.params["k_prime"] + 1
    assert (g.edges[back].u, g.edges[back].v) == (2, 0)
    assert not _is_acyclic(g)
    assert _is_acyclic(Graph(True, g.n, g.edges[:back]))
    assert art.params["ell_prime"] == 4  # ell + log p under the at-most reading


@pytest.mark.parametrize("p", [2, 4, 8])
def test_directed_compositions_are_acyclic_by_construction(p):
    # _embed builds no re-check of the composed graph: its docstring argues
    # acyclicity from the input checks, and this test holds it to that.
    rnd = random.Random(1600 + p)
    for _ in range(10):
        k, ell = rnd.choice((1, 2)), rnd.choice((3, 4))
        inputs = verify._make_inputs(rnd, p, k, ell, "dag", 5)
        assert _is_acyclic(compose_lbec(inputs).composed.graph)
        g = compose_dsct(inputs).composed.graph
        back = len(g.edges) - 1
        assert (g.edges[back].u, g.edges[back].v) == (p, 0)
        assert _is_acyclic(Graph(True, g.n, g.edges[:back]))


@pytest.mark.parametrize("mode", ["weighted", "simple"])
@pytest.mark.parametrize("p", [2, 4, 8])
def test_mded_compositions_are_connected_by_construction(p, mode):
    # compose_mded builds no re-check of the composed graph: its docstring
    # argues connectivity (strong connectivity when directed) from the
    # input checks, and this test holds it to that.
    rnd = random.Random(1700 + p)
    for _ in range(10):
        k, ell = rnd.choice((1, 2)), rnd.choice((3, 4))
        inputs = verify._make_inputs(rnd, p, k, ell, "uncuttable", 5)
        g = compose_mded(inputs, mode=mode).composed.graph
        assert not g.directed and is_connected(g)
        inputs = verify._make_inputs(rnd, p, k, ell, "dag", 5)
        g = compose_mded(inputs, directed=True, mode=mode).composed.graph
        assert g.directed and is_strongly_connected(g)


def test_parameters_polynomial_in_input_size_plus_logp():
    rnd = random.Random(8)
    for p in (2, 4, 8):
        ins = [random_lbec_input(rnd, n=5, m=6, k=2, ell=3) for _ in range(p)]
        art = compose_lbec(ins)
        bound = (5 + 6 + p.bit_length()) ** 3
        assert art.params["k_prime"] <= bound
        assert art.params["ell_prime"] <= bound


# -- composed semantics -----------------------------------------------------------------

def test_distance_accounting_in_composed_graph():
    rnd = random.Random(21)
    for p in (2, 4, 8):
        ins = [random_lbec_input(rnd, n=4, m=5, k=2, ell=3) for _ in range(p)]
        art = compose_lbec(ins)
        g = art.composed.graph
        q = art.params["q"]
        for i in range(1, p + 1):
            dead = frozenset(cut_for_instance(art.fractal, i).edges)
            s_i, t_i = i - 1, i
            assert (bfs_distance(g, 0, s_i, dead)
                    + bfs_distance(g, t_i, p, dead)) == q


def test_or_semantics_spot_checks():
    rnd = random.Random(1234)
    for _ in range(10):
        ins = [random_lbec_input(rnd, n=4, m=5, k=2, ell=3) for _ in range(2)]
        expected = any(solve_bruteforce(i).answer for i in ins)
        for mode in ("weighted", "simple"):
            art = compose_lbec(ins, mode=mode)
            got = solve_bruteforce_costaware(art.composed)
            assert got.answer == expected
            if got.answer:
                assert check_witness(art.composed, got.witness)


def test_chaining_regression_all_problems():
    # With a unit selector cost this graph pair composed to a yes although
    # both inputs are no: deleting all depth-1 fractal edges chains the two
    # inputs into one long path.  The raised degenerate-case edge cost keeps
    # it a no.
    g = Graph(True, 4, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)])
    inst = ProblemInstance("lbec", g, s=0, t=3, k=1, ell=3)
    assert not solve_bruteforce(inst).answer
    for art in (compose_lbec([inst, inst]),
                compose_dsct([inst, inst]),
                compose_mded([inst, inst], directed=True)):
        assert not solve_bruteforce_costaware(art.composed).answer


def test_costaware_symmetry_matches_raw_on_subdivided_instances():
    # Subdivided composed graphs are the corridor-heavy case for the
    # cost-aware oracle's quotients; the raw enumeration is the ground truth.
    # The last two are undirected MDED compositions, whose padding paths
    # hang pendant bridges, which only the raw enumeration severs.
    rnd = random.Random(2024)
    checked = 0
    for trial in range(10):
        ell = rnd.choice((3, 4))
        n = 3 if ell == 3 else 4
        if trial >= 8:
            ins = [random_uncuttable_lbec_input(rnd, n=3, m=3, k=1, ell=3)
                   for _ in range(2)]
            art = compose_mded(ins, directed=False, mode="simple")
        elif trial % 2 == 0:
            ins = [random_lbec_input(rnd, n=n, m=max(ell, 3), k=1, ell=ell)
                   for _ in range(2)]
            art = compose_lbec(ins, mode="simple")
        else:
            ins = [random_dag_lbec_input(rnd, n=n, m=max(ell, 3), k=1, ell=ell)
                   for _ in range(2)]
            art = compose_dsct(ins, mode="simple")
        fast = solve_bruteforce_costaware(art.composed, symmetry=True)
        raw = solve_bruteforce_costaware(art.composed, symmetry=False)
        assert fast.answer == raw.answer, trial
        checked += 1
    assert checked == 10


def test_mded_rejects_cuttable_inputs():
    tri = ProblemInstance("lbec", Graph(False, 3, [(0, 1), (1, 2), (0, 2)]),
                          s=0, t=2, k=2, ell=3)  # terminal cut of size 2 <= k
    with pytest.raises(InputError, match="min-cut"):
        compose_mded([tri, tri])


def test_mded_rejects_disconnected_inputs():
    g = Graph(False, 4, [(0, 3), (0, 3)])
    with pytest.raises(InputError):
        Graph(False, 4, [(0, 3), (0, 3)]) and compose_mded(
            [lbec_on(g, 1, 3), lbec_on(g, 1, 3)])


@pytest.mark.parametrize("second_edges, message", [
    # vertex 2 is never reached from the source
    ([(0, 1), (1, 3), (2, 1)], "input 1: source does not reach vertex 2"),
    # vertex 2 is a dead end before the sink
    ([(0, 1), (1, 3), (1, 2)], "input 1: vertex 2 does not reach the sink"),
    # both faults: vertex 1 is checked first and cannot reach the sink
    ([(0, 1), (0, 3), (2, 3)], "input 1: vertex 1 does not reach the sink"),
    # every vertex is on a source-sink walk, but 1 and 2 close a cycle
    ([(0, 1), (1, 2), (2, 1), (2, 3)], "input 1 is cyclic"),
], ids=["unreached", "dead-end", "first-vertex-first", "cyclic"])
def test_mded_directed_rejects_inputs_off_every_source_sink_path(second_edges,
                                                                 message):
    good = lbec_on(Graph(True, 4, [(0, 1), (1, 2), (2, 3)]), 1, 3)
    bad = lbec_on(Graph(True, 4, second_edges), 1, 3)
    with pytest.raises(InputError) as exc:
        compose_mded([good, bad], directed=True)
    assert str(exc.value) == message


@pytest.mark.parametrize("arcs", [[(1, 2, 2, 1)], [(1, 2), (1, 2)]],
                         ids=["cost-2", "parallel"])
def test_mded_directed_rejects_non_unit_inputs(arcs):
    # The detour shadowing rebuilds every arc once at unit cost, so a
    # composition of such an input would answer a different question.
    good = lbec_on(Graph(True, 4, [(0, 1), (1, 2), (2, 3)]), 1, 3)
    bad = lbec_on(Graph(True, 4, [(0, 1), *arcs, (2, 3)]), 1, 3)
    with pytest.raises(InputError) as exc:
        compose_mded([good, bad], directed=True)
    assert str(exc.value) == "input 1 must be a simple unit graph"


def test_compose_rejects_bad_class_and_low_threshold():
    bad = ProblemInstance("lbec", Graph(False, 3, [(0, 1), (1, 2)]), s=0, t=2,
                          k=7, ell=9)
    with pytest.raises(InputError):
        compose_lbec([bad, bad])
    with pytest.raises(InputError):
        compose_lbec([petite(2, 2), petite(2, 2)])


def test_mded_directed_augmentation_preserves_answers():
    # The detour-shadowed input is input 0's rows of a one-input embedding:
    # its source sits at 0 and its sink at 1.
    rnd = random.Random(5)
    for _ in range(10):
        inst = random_dag_lbec_input(rnd, n=4, m=5, k=1, ell=3)
        con = _embed([inst], 0, 2, directed=True, detour=inst.ell)
        lo, hi = con.edge_ranges[0]
        aug = ProblemInstance("lbec", Graph(True, con.n, con.rows[lo:hi]),
                              s=0, t=1, k=inst.k, ell=inst.ell)
        assert _is_acyclic(aug.graph)
        assert solve_bruteforce(inst).answer == solve_bruteforce(aug).answer


def test_diameter_realized_at_appended_tips():
    # The reduction from the diameter question to the sigma-tau distance
    # rests on this identity; the directed case needs the extra wrap arcs
    # for it (without them, pairs wrapping through the one-way chains exceed
    # it already with zero deletions).
    from fractalcut.graph import distances
    rnd = random.Random(424)
    for directed in (False, True):
        if directed:
            ins = [random_dag_lbec_input(rnd, n=4, m=5, k=1, ell=3)
                   for _ in range(2)]
            art = compose_mded(ins, directed=True)
        else:
            ins = [random_uncuttable_lbec_input(rnd, n=4, m=5, k=2, ell=3)
                   for _ in range(2)]
            art = compose_mded(ins)
        g = art.composed.graph
        L, q = art.params["L"], art.params["q"]
        tau = 1 << q
        deletable = [i for i, e in enumerate(g.edges)
                     if e.cost <= art.params["k_prime"]]
        samples = [()] + [tuple(rnd.sample(deletable, rnd.randint(1, 3)))
                          for _ in range(12)]
        for dead in samples:
            if g.total_cost(dead) > art.params["k_prime"]:
                continue
            if not is_strongly_connected(g, frozenset(dead)):
                continue
            diam = max(max(distances(g, v, frozenset(dead)))
                       for v in range(g.n))
            want = 2 * L + bfs_distance(g, 0, tau, frozenset(dead))
            assert diam == want, (directed, dead)


def test_mded_undirected_or_spot():
    rnd = random.Random(77)
    for _ in range(5):
        ins = [random_uncuttable_lbec_input(rnd, n=4, m=5, k=2, ell=3)
               for _ in range(2)]
        expected = any(solve_bruteforce(i).answer for i in ins)
        art = compose_mded(ins)
        assert solve_bruteforce_costaware(art.composed).answer == expected


def _paths_input(hops):
    """An undirected LBEC input with s = 0, t = 1, k = 1 and ell = 3: one
    s-t path of each listed hop count, through vertices of its own."""
    edges, n = [], 2
    for h in hops:
        prev = 0
        for _ in range(h - 1):
            edges.append((prev, n))
            prev, n = n, n + 1
        edges.append((prev, 1))
    return ProblemInstance("lbec", Graph(False, n, edges), s=0, t=1, k=1, ell=3)


@pytest.mark.parametrize("mode", ["weighted", "simple"])
def test_mded_undirected_or_yes_direction(mode):
    # Seeded uncuttable inputs at these sizes are all no-instances, so the
    # yes direction needs inputs built by hand.
    yes = _paths_input((2, 3, 3))  # severing the 2-hop path leaves 3 hops
    no = _paths_input((2, 2, 2))   # one deletion leaves a 2-hop path
    assert solve_bruteforce(yes).answer and not solve_bruteforce(no).answer
    for gap, inputs in ((0, [yes, no]), (1, [no, yes]), (None, [no, no])):
        composed = compose_mded(inputs, mode=mode).composed
        got = solve_bruteforce_costaware(composed)
        assert got.answer == (gap is not None), gap
        if got.answer:
            assert check_witness(composed, got.witness), gap


def test_simple_mode_mded_uses_parallel_copies():
    rnd = random.Random(9)
    ins = [random_uncuttable_lbec_input(rnd, n=4, m=5, k=2, ell=3)
           for _ in range(2)]
    art = compose_mded(ins, mode="simple")
    g = art.composed.graph
    assert g.is_unit
    assert art.params["ell_prime"] == compose_mded(ins).params["ell_prime"]
    # each fractal edge is realized as c parallel unit copies
    for idx in range(len(art.fractal.graph.edges)):
        replacements = art.expanded_edges[idx]
        assert len(replacements) == art.params["c"]
        pairs = {(g.edges[i].u, g.edges[i].v) for i in replacements}
        assert len(pairs) == 1


# -- adjacency on first query --------------------------------------------------------

@pytest.mark.parametrize("mode", ["weighted", "simple"])
def test_composers_build_no_adjacency_they_do_not_check(mode, monkeypatch):
    rnd = random.Random(3)
    und = [random_uncuttable_lbec_input(rnd, n=4, m=5, k=1, ell=3)
           for _ in range(2)]
    dag = [random_dag_lbec_input(rnd, n=4, m=5, k=1, ell=3) for _ in range(2)]
    builds = []
    init = Graph.__init__

    def counted(self, *args, **kwargs):
        builds.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counted)
    calls = {
        "lbec-und": lambda: compose_lbec(und, mode=mode),
        "lbec-dag": lambda: compose_lbec(dag, mode=mode),
        "dsct": lambda: compose_dsct(dag, mode=mode),
        "mded-und": lambda: compose_mded(und, mode=mode),
        "mded-dir": lambda: compose_mded(dag, directed=True, mode=mode),
    }
    # Each composition builds its selector fractal and, from edge rows, the
    # one composed graph; the directed diameter composition lays its detours
    # down as rows too.  Nothing walks the fractal or the composed graph, so
    # neither has neighbour lists.
    for name, call in calls.items():
        builds.clear()
        art = call()
        assert len(builds) == 2, name
        assert builds[-2] is art.fractal.graph, name
        assert builds[-1] is art.composed.graph, name
        assert art.fractal.graph._adj is None, name
        assert art.composed.graph._adj is None, name
