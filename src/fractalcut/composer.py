"""OR-composition of many cut instances into one, with a fractal selector.

Given p = 2**q input instances sharing one parameter class, the composers
embed them into the gaps of a depth-q fractal whose edges carry a deletion
cost c exceeding the class budget k: input i's terminals are merged onto
deepest-boundary vertices i-1 and i.  Every minimum sigma-tau cut of the
fractal then "selects" exactly one input; the composed budget
k' = c (log p + 1) + k pays for exactly one such cut (c > k keeps the
leftover from buying further selector edges) plus a solution of the selected
input.  The composed instance is yes precisely when at least one input is
yes, which the test suite checks against brute force at desk scale.

Two output modes exist.  Weighted mode keeps cost-annotated edges and counts
the composed budget in deletion cost.  Simple mode rebuilds the instance
over a unit-cost graph: for the cut and cycle-transversal targets the whole
graph is expanded and subdivided (a cost-c edge becomes c parallel two-hop
paths, a unit edge one such path), which doubles every distance and
threshold; the diameter target instead lays down c parallel unit copies,
because a severed two-hop path would strand its midpoint.

A composition travels as edge rows from ``_embed`` to ``_epilogue``, which
builds the one composed graph.  Nothing re-checks it: ``_embed`` argues why
directed embeddings are acyclic and ``compose_mded`` why its graphs are
(strongly) connected, and tests/test_composer.py checks both on seeded inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Optional, Sequence

from .errors import EquivalenceError, InputError
from .fractal import TFractal
from .graph import (Graph, UNREACHABLE, bfs_distance, distances,
                    is_connected, min_cut)
from .reference import ProblemInstance


@dataclass(frozen=True)
class EquivalenceClass:
    """Shared parameter class: equal (k, ell), or the single class of bad
    instances (parameters exceeding the edge count or negative)."""

    k: int
    ell: int
    bad: bool


def check_equivalent(instances: Sequence[ProblemInstance]) -> EquivalenceClass:
    """The common class of the given instances, or an error naming the first
    offending pair.

    Two instances are equivalent iff they agree on (k, ell) or are both bad.
    """
    if not instances:
        raise InputError("need at least one instance")
    kind = instances[0].kind
    for i, inst in enumerate(instances):
        if inst.kind != kind:
            raise EquivalenceError(
                f"instances 0 and {i} have different kinds ({kind} vs {inst.kind})")
    if all(inst.is_bad for inst in instances):
        return EquivalenceClass(instances[0].k, instances[0].ell, True)
    first = instances[0]
    for i, inst in enumerate(instances[1:], start=1):
        if (inst.k, inst.ell) != (first.k, first.ell):
            raise EquivalenceError(
                f"instances 0 and {i} are inequivalent: "
                f"(k={first.k}, ell={first.ell}) vs (k={inst.k}, ell={inst.ell})")
    return EquivalenceClass(first.k, first.ell, False)  # all bad returned above


def trivial_no_instance(k: int, ell: int, directed: bool = False) -> ProblemInstance:
    """A provably-no padding instance in class (k, ell).

    Two terminals joined by max(k+1, ceil(ell/2)) internally disjoint paths
    of length 2: the minimum cut exceeds k, so after any k deletions a
    two-hop path survives and 2 < ell.  The path count beyond k+1 only keeps
    the edge count at least ell, so the instance stays out of the bad class.
    """
    if ell < 3:
        raise InputError("no-instance gadget needs ell >= 3 (2-hop paths survive)")
    if k < 0:
        raise InputError("budget must be non-negative")
    paths = max(k + 1, (ell + 1) // 2)
    edges = []
    for j in range(paths):
        mid = 2 + j
        edges.append((0, mid))
        edges.append((mid, 1))
    g = Graph(directed, 2 + paths, edges)
    return ProblemInstance("lbec", g, s=0, t=1, k=k, ell=ell)


def _lbec_class(instances: Sequence[ProblemInstance]) -> EquivalenceClass:
    """The common class of lbec inputs.  Every composer takes lbec instances,
    the only kind with the terminals they read, and the padding is lbec, so
    another kind is refused before padding could mix the kinds."""
    cls = check_equivalent(instances)
    if instances[0].kind != "lbec":
        raise InputError("input 0 is not an lbec instance")
    return cls


def pad_to_power_of_two(instances: Sequence[ProblemInstance]) -> list[ProblemInstance]:
    """Append in-class no-instances until the count is a power of two."""
    cls = _lbec_class(instances)
    if cls.bad:
        raise InputError("cannot pad the bad class")
    if cls.ell < 3:
        raise InputError("cannot build an in-class no-instance for ell <= 2")
    p = len(instances)
    target = 1
    while target < p:
        target *= 2
    directed = instances[0].graph.directed
    out = list(instances)
    while len(out) < target:
        out.append(trivial_no_instance(cls.k, cls.ell, directed))
    return out


# -- embedding the inputs into the fractal ----------------------------------


@dataclass
class _Construction:
    """``n`` vertices and ``rows``, the fractal's (u, v, cost) first, then
    (u, v, cost, length).  Undirected rows are written u < v, as ``Graph``
    stores them, because simple mode subdivides a row from u to v.  The
    closings extend it."""

    n: int
    rows: list
    labels: dict[int, str]
    fractal: TFractal
    # Per input instance: original-vertex -> composed-vertex map and the
    # composed edge indices of its embedded edges.  Keys from the input's n
    # on name its detour vertices, and its range covers its detour rows.
    vertex_maps: tuple[dict, ...]
    edge_ranges: tuple[tuple[int, int], ...]


def _is_acyclic(g: Graph) -> bool:
    indeg = [0] * g.n
    for e in g.edges:
        indeg[e.v] += 1
    stack = [v for v in range(g.n) if indeg[v] == 0]
    seen = 0
    while stack:
        v = stack.pop()
        seen += 1
        for w, _ in g.out_neighbors(v):
            indeg[w] -= 1
            if indeg[w] == 0:
                stack.append(w)
    return seen == g.n


def _embed(instances: Sequence[ProblemInstance], q: int, cost: int,
           directed: bool, detour: int = 0) -> _Construction:
    """Merge p = 2**q terminal instances, which ``_prologue`` checked,
    onto the deepest boundary of a cost-c fractal: input i's source lands
    on vertex i-1 and its sink on vertex i, so consecutive inputs share a
    vertex.  Directed inputs are acyclic and go onto the directed fractal;
    the composed graph is again acyclic, by construction rather than by a
    re-check.  Fractal arcs only go up in position.  Input i's fresh
    vertices touch only input i, so a walk that leaves position i-1 or i
    through them comes back to i-1 or i.  The input checks forbid it to
    come back to where it left (a cycle in input i) or to go from i to
    i-1 (a path from input i's sink to its source).  So positions strictly
    increase along any walk between positions, and a cycle inside one
    input's fresh vertices is again a cycle of that input.

    With ``detour`` > 0, input i's rows go on, for each of its edges in
    order, with a parallel path of ``detour`` unit edges through fresh
    vertices, which ``vertex_maps[i]`` keys as n, n+1, ... in edge order.
    A detour runs from its edge's tail to its head, so it closes no cycle
    and no path from the sink to the source, and the input checks above
    stand for the detour-shadowed input too.
    """
    # The selector's rows, with no fractal graph: c = _selector_cost(k) >= 2,
    # so they are (u, v, c) triples, which Graph reads as unit-length rows.
    fractal = TFractal(q, directed, cost)
    p = 1 << q
    rows = list(fractal.rows())
    next_id = p + 1
    vertex_maps = []
    edge_ranges = []
    for i, inst in enumerate(instances, start=1):
        g = inst.graph
        vmap = {inst.s: i - 1, inst.t: i}
        for v in range(g.n):
            if v not in vmap:
                vmap[v] = next_id
                next_id += 1
        start = len(rows)
        for e in g.edges:
            u, v = vmap[e.u], vmap[e.v]
            rows.append((u, v, 1, 1) if directed or u < v else (v, u, 1, 1))
        first = next_id
        for e in g.edges if detour else ():
            hops = [vmap[e.u], *range(next_id, next_id + detour - 1), vmap[e.v]]
            next_id += detour - 1
            rows += ((a, b, 1, 1) for a, b in zip(hops, hops[1:]))
        vmap.update(zip(range(g.n, g.n + next_id - first), range(first, next_id)))
        vertex_maps.append(vmap)
        edge_ranges.append((start, len(rows)))
    return _Construction(next_id, rows, {0: "sigma", p: "tau"}, fractal,
                         tuple(vertex_maps), tuple(edge_ranges))


# -- composition artifacts ---------------------------------------------------


@dataclass(frozen=True)
class CompositionArtifact:
    """Composed instance plus the selector map and parameter arithmetic.

    ``selector`` maps fractal gap i (1-based) to the index of the input
    instance occupying it.  ``params`` records the arithmetic of the
    generating construction.  In weighted mode the fractal's edge indices
    are also valid composed-graph indices (fractal edges come first), so the
    fractal's minimum cuts can be deleted from the composed graph directly;
    in simple mode ``expanded_edges`` maps each pre-expansion edge index to
    its replacement unit edges.
    """

    composed: ProblemInstance
    selector: dict[int, int] = field(compare=False)
    params: dict = field(compare=False)
    mode: str = "weighted"
    fractal: TFractal = None
    vertex_maps: tuple = field(default=(), compare=False)
    edge_ranges: tuple = ()
    expanded_edges: Optional[dict] = field(default=None, compare=False)


def _expand_marked(rows: Sequence[tuple], n: int, marked: Container[int],
                   subdivide: bool = True) -> tuple[int, list, dict]:
    """Realize the deletion cost of each marked edge with unit edges.

    With ``subdivide`` (the default), a cost-c edge becomes c parallel
    two-hop paths through fresh midpoints, doubling its endpoints' distance.
    Without it, it becomes c parallel unit edges, leaving distances alone;
    the directed diameter composition needs this flavor because a severed
    two-hop path would strand its midpoint and break strong connectivity.
    Unmarked rows are kept as they are.  Returns the new vertex count and
    rows, and a map from old row index to its replacements' row indices.
    """
    out: list[tuple[int, int, int, int]] = []
    mapping: dict[int, tuple[int, ...]] = {}
    for idx, row in enumerate(rows):
        start = len(out)
        u, v, cost = row[0], row[1], row[2]
        if idx not in marked:
            out.append(row)
        elif subdivide:
            for mid in range(n, n + cost):
                out += ((u, mid, 1, 1), (mid, v, 1, 1))
            n += cost
        else:
            out += [(u, v, 1, 1)] * cost
        mapping[idx] = tuple(range(start, len(out)))
    return n, out, mapping


def _selector_cost(k: int) -> int:
    """Fractal edge cost: k**2, raised to k+1 in the degenerate k = 1 case.

    Soundness needs the leftover budget after paying for a minimum selector
    cut (exactly k) to be smaller than the edge cost, or the budget buys
    extra selector edges: deleting all three depth-1 fractal edges chains
    the two adjacent inputs into one long path and fakes a yes from two no
    inputs.  k < k**2 holds for every k except 1.
    """
    return k * k if k >= 2 else k + 1


def _prologue(problem: str, instances: Sequence[ProblemInstance],
              mode: str, directed: Optional[bool] = None) -> dict:
    """What every composition shares up front: the mode check, the common
    class, each input's checks, the selector cost c (see _selector_cost) and
    the budget k' = c (log p + 1) + k, counted in deletion cost.

    ``directed`` is the orientation composed, by default input 0's.  The
    inputs are checked one after another, so the first faulty one is
    reported, each by the first of its checks that fails.

    Returns the artifact's ``params``; each closing adds its own entries.
    """
    if mode not in ("weighted", "simple"):
        raise InputError(f"unknown mode {mode!r}")
    cls = _lbec_class(instances)
    if cls.bad:
        raise InputError("cannot compose the bad equivalence class")
    if cls.ell < 3:
        raise InputError("composition assumes ell >= 3")
    if cls.k < 1:
        raise InputError("composition assumes a positive budget k")
    if problem == "dsct" and not instances[0].graph.directed:
        raise InputError("short-cycle composition takes directed acyclic inputs")
    p = len(instances)
    if p & (p - 1):
        raise InputError(f"need a power-of-two instance count, got {p}")
    directed = instances[0].graph.directed if directed is None else directed
    mded = problem == "mded"
    for i, inst in enumerate(instances):
        g = inst.graph
        if g.directed != directed:
            want = "directed" if directed else "undirected"
            raise InputError(f"input {i} must be {want}")
        if mded and not directed:
            if not is_connected(g):
                raise InputError(f"input {i} must be connected")
            # Standing assumption of the cut problems: the budget stays below
            # every terminal cut.  An input whose witnesses must sever its
            # terminals would disconnect the composed graph, which the
            # diameter problem forbids, so such (trivially yes) inputs would
            # break the or-semantics here.
            if min_cut(g, inst.s, inst.t).total_cost <= cls.k:
                raise InputError(
                    f"input {i} has a terminal cut within budget; the diameter "
                    f"composition needs min-cut(s, t) > k")
        # _embed lays every edge down once at unit cost, so other costs
        # would silently change the input's answer.
        if not g.is_simple:
            raise InputError(f"input {i} must be a simple unit graph")
        if mded and directed:
            from_s = distances(g, inst.s)
            to_t = distances(g, inst.t, reverse=True)
            for v in range(g.n):
                if from_s[v] == UNREACHABLE:
                    raise InputError(f"input {i}: source does not reach vertex {v}")
                if to_t[v] == UNREACHABLE:
                    raise InputError(f"input {i}: vertex {v} does not reach the sink")
        if directed:
            if not _is_acyclic(g):
                raise InputError(f"input {i} is cyclic")
            if bfs_distance(g, inst.t, inst.s) != UNREACHABLE:
                raise InputError(
                    f"input {i} has a path from its sink back to its source")
    q = p.bit_length() - 1
    c = _selector_cost(cls.k)
    return {"p": p, "q": q, "c": c, "k": cls.k, "ell": cls.ell,
            "k_prime": c * (q + 1) + cls.k,
            "n_max": max(i.graph.n for i in instances), "L": None}


def _epilogue(problem: str, params: dict, con: _Construction, mode: str,
              ell_prime: int,
              copies: Optional[set[int]] = None) -> CompositionArtifact:
    """Realize the mode on the closed construction's rows, build the one
    composed graph and the artifact.

    Simple mode subdivides the whole graph unless ``copies`` names the edges
    to lay down as parallel unit copies instead.  Subdividing everything
    makes every deletion question exactly the weighted one with all
    distances doubled, so ell' doubles.  Expanding only the fractal edges is
    not sound: instance hops then stay undoubled and the non-cut distance
    ceiling 2(|D|+1) meets ell + 2 log p already at ell <= 4.
    """
    n, rows, expanded = con.n, con.rows, None
    if mode == "simple" and copies is None:
        ell_prime *= 2
        n, rows, expanded = _expand_marked(rows, n, range(len(rows)))
    elif mode == "simple":
        n, rows, expanded = _expand_marked(rows, n, copies, subdivide=False)
    g = Graph(con.fractal.directed, n, rows, con.labels)
    params["ell_prime"] = ell_prime
    p = params["p"]
    s, t = (0, p) if problem == "lbec" else (None, None)
    return CompositionArtifact(
        composed=ProblemInstance(problem, g, s=s, t=t, k=params["k_prime"],
                                 ell=ell_prime),
        selector={i: i for i in range(1, p + 1)}, params=params, mode=mode,
        fractal=con.fractal, vertex_maps=con.vertex_maps,
        edge_ranges=con.edge_ranges, expanded_edges=expanded)


def _compose_cut(problem: str, instances: Sequence[ProblemInstance],
                 mode: str) -> CompositionArtifact:
    """The cut composition, closed by the back arc for the short-cycle
    target; ell' = ell + log p before the mode is realized."""
    params = _prologue(problem, instances, mode)
    q = params["q"]
    con = _embed(instances, q, params["c"], instances[0].graph.directed)
    if problem == "dsct":
        back = params["back_arc_cost"] = params["k_prime"] + 1
        con.rows.append((1 << q, 0, back, 1))
    return _epilogue(problem, params, con, mode, params["ell"] + q)


def compose_lbec(instances: Sequence[ProblemInstance],
                 mode: str = "weighted") -> CompositionArtifact:
    """Compose p length-bounded cut instances into one.

    Selector edge cost c (k**2, see _selector_cost), budget
    k' = c (log p + 1) + k counted in deletion cost, threshold
    ell' = ell + log p in weighted mode and twice that in simple mode.
    Directed-acyclic inputs go through the directed fractal, undirected
    inputs through the undirected one.
    """
    return _compose_cut("lbec", instances, mode)


def compose_dsct(instances: Sequence[ProblemInstance],
                 mode: str = "weighted") -> CompositionArtifact:
    """Compose p directed-acyclic cut instances into a short-cycle instance.

    On top of the directed embedding, one arc from tau back to sigma with
    cost k'+1 closes the graph: it participates in every cycle and the budget
    cannot pay for it, so short cycles must be lengthened by stretching the
    sigma-tau distance.  The shortest surviving cycle is that distance plus
    one back-arc hop, the transversal question asks for no cycle of length
    *at most* the threshold, and so ell' = ell + log p in weighted mode;
    simple mode subdivides everything and doubles it to 2 (ell + log p).
    """
    return _compose_cut("dsct", instances, mode)


def compose_mded(instances: Sequence[ProblemInstance], directed: bool = False,
                 mode: str = "weighted") -> CompositionArtifact:
    """Compose p cut instances into one diameter instance.

    A path of length L hangs off sigma (ending in sigma') and another off
    tau (ending in tau'); L is large enough that sigma' and tau' always
    realize the diameter, so the diameter question reduces to the sigma-tau
    distance question inside the selector.  The directed variant has
    ``_embed`` shadow every input arc with a parallel ell-hop detour, which
    keeps every vertex reachable after arc deletions without ever offering
    a shorter route (minimal solutions never touch it, so each input's
    answer stands).  It attaches directed paths, then closes the graph with
    the arc (tau', sigma') plus three wrap arcs priced above the whole
    budget (see the inline note on why the one-way chains need short ways
    around).

    The composed graph is connected, and strongly connected when directed,
    by construction rather than by a re-check.  Every fractal vertex lies on
    the deepest boundary path, which runs from sigma to tau.  Input i's
    vertices are reached from its source at position i-1 and reach its
    sink at position i: the input checks ask exactly that of a directed
    input (and connectivity of an undirected one), and each detour runs
    from its arc's tail to its head.  sigma_tip's chain leads into sigma
    and tau's chain out to tau_tip.  So every vertex is reached from
    sigma_tip and reaches tau_tip, and the arc tau_tip -> sigma_tip closes
    the graph.  Simple mode's unit copies keep every adjacency.
    """
    params = _prologue("mded", instances, mode, directed)
    ell, q, c = params["ell"], params["q"], params["c"]
    L = (ell if directed else 1) * params["n_max"] * (2 * q + 3) + 1
    con = _embed(instances, q, c, directed, detour=ell if directed else 0)

    tau = 1 << q
    rows = con.rows

    def attach_path(anchor: int, toward_anchor: bool) -> int:
        chain = [anchor, *range(con.n, con.n + L)]
        con.n += L
        flip = directed and toward_anchor
        rows.extend((b, a, 1, 1) if flip else (a, b, 1, 1)
                    for a, b in zip(chain, chain[1:]))
        return chain[-1]

    sigma_tip = attach_path(0, toward_anchor=True)
    tau_tip = attach_path(tau, toward_anchor=False)
    wrap_arcs: list[int] = []
    if directed:
        rows.append((tau_tip, sigma_tip, 1, 1))
        # Budget-priced wrap arcs.  (tau, sigma) closes the big cycle as in
        # the undirected case.  The other two give the one-way appended
        # chains a short way around: without them, a vertex one step into
        # tau's chain reaches a detour interior only by traversing both
        # chains (2L + dist(sigma, y) hops), which exceeds dist(sigma', tau')
        # whenever some vertex lies farther from sigma than tau does, and
        # detour interiors always do -- the composed instance would be a yes
        # with zero deletions.  With them, every pair except (sigma', tau')
        # stays below 2L + dist(sigma, tau), so the diameter question reduces
        # to the sigma-tau distance exactly as intended.
        for arc in ((tau, 0), (tau, sigma_tip), (tau_tip, 0)):
            wrap_arcs.append(len(rows))
            rows.append((arc[0], arc[1], params["k_prime"] + 1, 1))
    con.labels[sigma_tip] = "sigma_tip"
    con.labels[tau_tip] = "tau_tip"
    params["L"] = L
    # Simple mode lays down parallel unit copies, never subdivision: a
    # severed two-hop path strands its midpoint, which the directed
    # variant's strong connectivity outright forbids, and in the undirected
    # variant a pair of pendant midpoints realizes distances up to two
    # beyond the doubled originals, spoiling the diameter threshold.  Copies
    # leave every distance unchanged, so the threshold stays the weighted one.
    copies = set(range((2 << q) - 1)) | set(wrap_arcs)
    return _epilogue("mded", params, con, mode, 2 * L + q + ell, copies)


def compose(problem: str, instances: Sequence[ProblemInstance],
            mode: str = "weighted") -> CompositionArtifact:
    """Compose the inputs for one target problem: "lbec", "dsct" or "mded".

    The diameter composition is directed exactly when its inputs are.
    """
    if problem == "mded":
        directed = bool(instances) and instances[0].graph.directed
        return compose_mded(instances, directed=directed, mode=mode)
    if problem in ("lbec", "dsct"):
        return _compose_cut(problem, instances, mode)
    raise InputError(f"unknown composition target {problem!r}")
