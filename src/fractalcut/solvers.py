"""Deciders for the three length-bounded deletion problems.

LBEC: delete at most k edges so the s-t distance becomes at least ell.
MDED: delete at most k edges keeping the graph (strongly) connected while
      raising the diameter to at least ell.
DSCT: delete at most k arcs so no directed cycle of length at most ell
      remains (shortest directed cycles are chordless, so checking all
      cycles and checking induced cycles decide the same instances).

Each problem gets a fixed-parameter branching solver and an exhaustive
brute-force oracle.  The brute force exists to check the branchers and the
composers, so it stays dumb: it enumerates deletion sets outright.  The
cost-aware variant additionally applies a few symmetry quotients and
exclusions that are proved in their docstrings and cross-checked against the
raw enumeration in the test suite; they never change a verdict, only the
amount of enumeration.

Budgets count deletion cost.  On unit graphs (every solver's input) that is
the same as cardinality; cost-annotated graphs are only ever handed to the
cost-aware brute force.

Solvers accept parallel edges: the NP-hardness reduction emits bundles of
parallel edges to make them effectively undeletable, and the branchers
handle that with a sound prune (never branch on a bundle whose multiplicity
exceeds the remaining budget; partially deleted bundles leave every distance
unchanged).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterable, Optional

from .errors import InputError, ResourceBudgetError
from .graph import (Graph, UNREACHABLE, bfs_distance, distances,
                    is_connected, is_strongly_connected, min_cut)

KINDS = ("lbec", "mded", "dsct")


@dataclass(frozen=True)
class ProblemInstance:
    """Tagged union of LBEC / MDED / DSCT instances.

    ``k`` is the deletion budget (counted in deletion cost), ``ell`` the
    length threshold.  ``s``/``t`` are set for LBEC only.
    """

    kind: str
    graph: Graph
    s: Optional[int] = None
    t: Optional[int] = None
    k: int = 0
    ell: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown problem kind {self.kind!r}")
        if self.kind == "lbec":
            if self.s is None or self.t is None:
                raise InputError("lbec instance needs terminals s and t")
            for v in (self.s, self.t):
                if not (0 <= v < self.graph.n):
                    raise InputError(f"terminal {v} out of range")
            if self.s == self.t:
                raise InputError("lbec terminals must be distinct")
        else:
            if self.s is not None or self.t is not None:
                raise InputError(f"{self.kind} instance carries no terminals")
        if self.kind == "dsct" and not self.graph.directed:
            raise InputError("dsct instance requires a directed graph")

    @property
    def is_bad(self) -> bool:
        """Degenerate parameter combination, grouped into one equivalence class."""
        m = len(self.graph.edges)
        return max(self.k, self.ell) > m or min(self.k, self.ell) < 0


@dataclass(frozen=True)
class Verdict:
    """Decision plus a replayable witness.

    ``nodes`` counts explored branching leaves (for the diameter solver: the
    maximum over vertex pairs); the brute-force solvers report the number of
    deletion sets tested instead.
    """

    answer: bool
    witness: Optional[tuple[int, ...]] = None
    nodes: int = 0

    def witness_pairs(self, g: Graph) -> Optional[list[list[int]]]:
        if self.witness is None:
            return None
        return [[g.edges[i].u, g.edges[i].v] for i in self.witness]


# -- reference predicate (replay grade, no cleverness) ---------------------


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


def _girth_directed(g: Graph, dead: frozenset[int]) -> float:
    """Length of the shortest directed cycle; inf when acyclic."""
    best = UNREACHABLE
    for idx, e in enumerate(g.edges):
        if idx not in dead:
            best = min(best, distances(g, e.v, dead)[e.u] + 1)
    return best


def _connected_after(g: Graph, dead: frozenset[int]) -> bool:
    """(Strong, if directed) connectivity once the dead edges are gone."""
    if g.n <= 1:
        return True
    return (UNREACHABLE not in distances(g, 0, dead)
            and (not g.directed
                 or UNREACHABLE not in distances(g, 0, dead, reverse=True)))


def instance_predicate(inst: ProblemInstance, deleted: Iterable[int]) -> bool:
    """Does deleting these edge indices satisfy the instance's question?

    Every question is asked in hops, so edge lengths other than 1 are
    refused rather than read as 1.
    """
    g = inst.graph
    if not g._unit and any(e.length != 1 for e in g.edges):
        raise InputError("instance_predicate requires unit edge lengths")
    dead = frozenset(deleted)
    if inst.kind == "lbec":
        return bfs_distance(g, inst.s, inst.t, dead) >= inst.ell
    if inst.kind == "mded":
        # _connected_after already means strong connectivity for directed
        # graphs; _diameter would report infinity in that case anyway.
        if not _connected_after(g, dead):
            return False
        return _diameter(g, dead) >= inst.ell
    return _girth_directed(g, dead) > inst.ell


def check_witness(inst: ProblemInstance, edges: Iterable[int]) -> bool:
    """Replay a witness: cost within budget and predicate satisfied."""
    edges = tuple(edges)
    if inst.graph.total_cost(edges) > inst.k:
        return False
    return instance_predicate(inst, edges)


# -- shared support -----------------------------------------------------------


def _group_pairs(g: Graph) -> tuple[list[tuple[int, int]], list[tuple[int, ...]]]:
    """The graph's adjacency pairs, ordered by their first edge index, and
    for each pair the ascending indices of its parallel edges.

    Both the branchers' slots and the cost-aware search's severance units
    are these pairs, so their ids, and with them every witness and count,
    are deterministic.
    """
    by_pair: dict[tuple[int, int], list[int]] = {}
    for idx, e in enumerate(g.edges):
        by_pair.setdefault((e.u, e.v), []).append(idx)
    # Dicts keep insertion order and the indices arrive ascending.
    return list(by_pair), [tuple(idxs) for idxs in by_pair.values()]


def _bits(x: int):
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


class _Support:
    """The adjacency pairs that survive, as bitmasks and as lists.

    ``pairs[pid]`` is a (u, v) pair of ``_group_pairs`` and ``pair_id`` maps
    it back.  Bit v of ``out_masks[u]`` and bit u of ``in_masks[v]`` are set,
    and ``alive[pid]`` is true, while the pair survives; an undirected
    graph's in-masks are its out-masks.  ``sever`` takes a surviving pair
    out and ``restore`` puts a severed one back; each touches only the
    pair's own bits and flag.  ``adj[u]`` lists u's (neighbour, pid) pairs,
    severed or not, in ascending order for the s-t path search.
    """

    def __init__(self, g: Graph):
        self.n = g.n
        self.directed = g.directed
        self.pairs, self.pair_edges = _group_pairs(g)
        self.pair_id = {p: i for i, p in enumerate(self.pairs)}
        self.alive = [True] * len(self.pairs)
        self.out_masks = [0] * g.n
        self.in_masks = [0] * g.n if g.directed else self.out_masks
        for u, v in self.pairs:
            self.out_masks[u] |= 1 << v
            self.in_masks[v] |= 1 << u
        self.full_mask = (1 << g.n) - 1

    @cached_property
    def adj(self) -> list[list[tuple[int, int]]]:
        adj = [[] for _ in range(self.n)]
        for pid, (u, v) in enumerate(self.pairs):
            adj[u].append((v, pid))
            if not self.directed:
                adj[v].append((u, pid))
        for lst in adj:
            lst.sort()
        return adj

    def sever(self, pid: int) -> None:
        u, v = self.pairs[pid]
        self.alive[pid] = False
        self.out_masks[u] &= ~(1 << v)
        self.in_masks[v] &= ~(1 << u)

    def restore(self, pid: int) -> None:
        u, v = self.pairs[pid]
        self.alive[pid] = True
        self.out_masks[u] |= 1 << v
        self.in_masks[v] |= 1 << u

    def connected_without(self, pid: int) -> bool:
        """Is the support still (strongly, if directed) connected once the
        surviving pair pid is severed?"""
        u, v = self.pairs[pid]
        if self.out_masks[u] == 1 << v or self.in_masks[v] == 1 << u:
            return False  # the pair is u's only way out or v's only way in
        self.sever(pid)
        full = self.full_mask
        connected = self._sweep(self.out_masks, 0) == full and (
            not self.directed or self._sweep(self.in_masks, 0) == full)
        self.restore(pid)
        return connected

    def _sweep(self, masks, start: int) -> int:
        """The mask of the vertices reachable from start along masks.
        Corridors keep most frontiers one vertex wide, hence the single-bit
        fast path."""
        seen = frontier = 1 << start
        while frontier:
            if frontier & (frontier - 1):
                nxt = 0
                while frontier:
                    b = frontier & -frontier
                    nxt |= masks[b.bit_length() - 1]
                    frontier ^= b
            else:
                nxt = masks[frontier.bit_length() - 1]
            frontier = nxt & ~seen
            seen |= nxt
        return seen

    def shortest_path_slots(self, s: int, t: int, limit: int):
        """Pair ids of a shortest surviving s-t path if its length is
        <= limit, else None.

        Ties are broken toward smaller vertex ids (adjacency is sorted), so
        branching order is reproducible.  The BFS stays on lists: it visits
        almost every vertex, where walking masks bit by bit is slower.  A
        mask BFS with the same tie-break kept every pinned count, but on
        perfbench at seed 59 it took fpt-branch from 0.86 to 1.50 s of
        wall time and gave compose-cut only 1.24 to 1.18 s.
        """
        if s == t:
            return []
        adj, alive = self.adj, self.alive
        par_slot = [-1] * self.n
        par_vert = [-1] * self.n
        dist = [-1] * self.n
        dist[s] = 0
        frontier = [s]
        d = 0
        while frontier and d < limit:
            nxt = []
            for u in frontier:
                for v, sid in adj[u]:
                    if not alive[sid] or dist[v] >= 0:
                        continue
                    dist[v] = d + 1
                    par_slot[v] = sid
                    par_vert[v] = u
                    if v == t:
                        path = []
                        cur = t
                        while cur != s:
                            path.append(par_slot[cur])
                            cur = par_vert[cur]
                        path.reverse()
                        return path
                    nxt.append(v)
            frontier = nxt
            d += 1
        return None

    def shortest_cycle_slots(self, limit: int):
        """Pair ids of a shortest directed cycle of length <= limit, else None.

        Takes each vertex's cycle from ``_cycle_through`` in id order, and
        only a strictly shorter cycle replaces an earlier one.
        """
        best = None
        for v in range(self.n):
            cycle = self._cycle_through(v, limit)
            if cycle is not None:
                best = cycle
                limit = len(cycle) - 1
        return best

    def _cycle_through(self, v: int, cap: int):
        """Pair ids of the least shortest directed cycle through v, if it
        has at most cap arcs, else None.

        A BFS out of v that never re-enters v grows level masks until one
        holds an in-neighbour of v; a cycle through v is a path into that
        level closed by the arc back into v.  Of those paths the one with
        the least vertex sequence is taken: a backward pass keeps, on each
        level, the vertices with a successor kept on the next, and the
        forward walk takes the lowest one.  That is the path a BFS over
        ascending neighbour lists records as parents, so ties break toward
        smaller vertex ids.
        """
        if cap < 2:
            return None
        out_masks, in_masks = self.out_masks, self.in_masks
        into = in_masks[v]
        seen = 1 << v
        level = out_masks[v] if into else 0
        levels = []
        while level:
            levels.append(level)
            if level & into or len(levels) == cap - 1:
                break
            seen |= level
            nxt = 0
            for x in _bits(level):
                nxt |= out_masks[x]
            level = nxt & ~seen
        if not levels or not levels[-1] & into:
            return None
        keep = levels[-1] = levels[-1] & into
        for j in range(len(levels) - 2, -1, -1):
            back = 0
            for x in _bits(keep):
                back |= in_masks[x]
            keep = levels[j] = levels[j] & back
        pair_id = self.pair_id
        cycle = []
        u = v
        for level in levels:
            ahead = out_masks[u] & level
            w = (ahead & -ahead).bit_length() - 1
            cycle.append(pair_id[u, w])
            u = w
        cycle.append(pair_id[u, v])
        return cycle


class _SlotState(_Support):
    """The support with parallel-edge multiplicities, for the branchers.

    A slot is one adjacency pair; ``mult[pid]`` counts its surviving copies,
    and the pair is severed when the last copy goes.  Deleting a copy only
    changes distances once the slot is empty, which is what makes the
    multiplicity-versus-budget prune sound.
    """

    def __init__(self, g: Graph):
        super().__init__(g)
        self.mult = [len(idxs) for idxs in self.pair_edges]

    def delete_copy(self, pid: int) -> int:
        """Remove one copy, returning the concrete edge index it stands for."""
        self.mult[pid] -= 1
        if not self.mult[pid]:
            self.sever(pid)
        copies = self.pair_edges[pid]
        return copies[len(copies) - 1 - self.mult[pid]]

    def restore_copy(self, pid: int) -> None:
        if not self.mult[pid]:
            self.restore(pid)
        self.mult[pid] += 1


# -- branching solvers -------------------------------------------------------


def _require_solvable(inst: ProblemInstance, kind: str) -> None:
    if inst.kind != kind:
        raise InputError(f"expected a {kind} instance, got {inst.kind}")
    if inst.is_bad:
        raise InputError("instance is bad: parameters exceed the edge count "
                         "or are negative")
    if not inst.graph.is_unit:
        raise InputError("branching solvers take unit-cost graphs; use the "
                         "cost-aware brute force for weighted instances")


def _branch(state: _SlotState, find: Callable[[], Optional[list[int]]],
            budget: int, keep_connected: bool = False):
    """Core brancher: destroy every obstruction with <= budget deletions.

    ``find()`` returns the slot ids of an obstruction on the surviving
    support (a too-short s-t path, a too-short directed cycle) or None when
    none is left.  At each node the brancher deletes one surviving copy of
    each of the obstruction's slots in turn, skipping slots whose
    multiplicity exceeds the remaining budget: they cannot be emptied, and a
    partial deletion changes no distance.  With connectivity enforcement, a
    branch that would disconnect the surviving support is skipped, which is
    exactly the diameter problem's requirement.

    Returns (witness edge list or None, leaves explored).
    """
    leaves = 0
    deleted: list[int] = []

    def rec(budget_left: int):
        nonlocal leaves
        obstruction = find()
        if obstruction is None:
            leaves += 1
            return list(deleted)
        if budget_left == 0:
            leaves += 1
            return None
        branched = False
        for sid in obstruction:
            if state.mult[sid] > budget_left:
                continue
            if keep_connected and state.mult[sid] == 1 and \
                    not state.connected_without(sid):
                continue
            branched = True
            deleted.append(state.delete_copy(sid))
            res = rec(budget_left - 1)
            state.restore_copy(sid)
            deleted.pop()
            if res is not None:
                return res
        if not branched:
            leaves += 1
        return None

    return rec(budget), leaves


def solve_lbec_fpt(inst: ProblemInstance) -> Verdict:
    """Branching decider for the length-bounded cut question.

    Explores at most (ell-1)**k leaves.  When the budget covers a minimum
    s-t cut the answer is immediately yes with that cut as witness (cutting
    makes the distance infinite).
    """
    _require_solvable(inst, "lbec")
    if inst.ell <= 1:
        return Verdict(True, (), 0)  # s != t, so the distance is always >= 1
    cert = min_cut(inst.graph, inst.s, inst.t)
    if cert.total_cost <= inst.k:
        return Verdict(True, cert.edges, 0)
    state = _SlotState(inst.graph)
    find = partial(state.shortest_path_slots, inst.s, inst.t, inst.ell - 1)
    witness, leaves = _branch(state, find, inst.k)
    if witness is None:
        return Verdict(False, None, leaves)
    return Verdict(True, tuple(sorted(witness)), leaves)


def solve_mded_fpt(inst: ProblemInstance) -> Verdict:
    """Branching decider for the diameter question.

    Some vertex pair must end up at distance >= ell, so the brancher runs
    once per pair (ordered pairs for directed graphs, unordered otherwise)
    with connectivity-preserving deletions only.  ``nodes`` reports the
    per-pair maximum of explored leaves, which is bounded by (ell-1)**k.
    """
    _require_solvable(inst, "mded")
    g = inst.graph
    if g.directed:
        if not is_strongly_connected(g):
            raise InputError("directed diameter instance must be strongly connected")
    elif not is_connected(g):
        raise InputError("diameter instance must be connected")
    if inst.ell <= 0:
        return Verdict(True, (), 0)
    if inst.ell == 1:
        return Verdict(g.n >= 2, () if g.n >= 2 else None, 0)
    state = _SlotState(g)
    if g.directed:
        pairs = [(v, w) for v in range(g.n) for w in range(g.n) if v != w]
    else:
        pairs = [(v, w) for v in range(g.n) for w in range(v + 1, g.n)]
    worst = 0
    for v, w in pairs:
        find = partial(state.shortest_path_slots, v, w, inst.ell - 1)
        witness, leaves = _branch(state, find, inst.k, keep_connected=True)
        worst = max(worst, leaves)
        if witness is not None:
            return Verdict(True, tuple(sorted(witness)), worst)
    return Verdict(False, None, worst)


def solve_dsct_fpt(inst: ProblemInstance) -> Verdict:
    """Branching decider for the short-cycle transversal question.

    Finds a shortest directed cycle via the vertex-split search; while one of
    length <= ell exists, branches over deleting each of its <= ell arcs.
    Explores at most ell**k leaves.
    """
    _require_solvable(inst, "dsct")
    if inst.ell <= 0:
        return Verdict(True, (), 0)
    state = _SlotState(inst.graph)
    find = partial(state.shortest_cycle_slots, inst.ell)
    witness, leaves = _branch(state, find, inst.k)
    if witness is None:
        return Verdict(False, None, leaves)
    return Verdict(True, tuple(sorted(witness)), leaves)


def solve_fpt(inst: ProblemInstance) -> Verdict:
    """Dispatch to the matching branching solver."""
    if inst.kind == "lbec":
        return solve_lbec_fpt(inst)
    if inst.kind == "mded":
        return solve_mded_fpt(inst)
    return solve_dsct_fpt(inst)


# -- brute force -------------------------------------------------------------


def solve_bruteforce(inst: ProblemInstance, max_subsets: int = 10_000_000) -> Verdict:
    """Exhaustive oracle: test every edge subset of size <= k.

    Subsets are enumerated by ascending size, lexicographically within each
    size, and the first satisfying subset is returned, which makes the
    witness canonical.  ``nodes`` reports how many subsets were tested.
    Raises ResourceBudgetError instead of ever guessing.
    """
    if not inst.graph.is_unit:
        raise InputError("solve_bruteforce enumerates by cardinality and "
                         "requires unit costs; use solve_bruteforce_costaware")
    m = len(inst.graph.edges)
    tested = 0
    for size in range(0, min(inst.k, m) + 1):
        for combo in itertools.combinations(range(m), size):
            tested += 1
            if tested > max_subsets:
                raise ResourceBudgetError(
                    f"brute force exceeded {max_subsets} subsets")
            if instance_predicate(inst, combo):
                return Verdict(True, combo, tested)
    return Verdict(False, None, tested)


# -- cost-aware brute force --------------------------------------------------


class _CostAwareSearch(_Support):
    """Exhaustive decision over deletion sets of bounded total cost.

    The enumeration unit is the *severance*: removing every parallel copy
    joining one vertex pair.  This is exhaustive because all three problem
    predicates depend only on which adjacencies survive (unit hop lengths),
    so a deletion set that leaves some copy of a pair alive decides exactly
    like the same set with those wasted copies returned; hence only full
    severances matter, and a severance costs the summed cost of the pair.

    With ``symmetry`` enabled, three further verdict-preserving reductions
    shrink the universe:

    * exclusions -- pairs that can never appear usefully in a deletion set:
      support bridges for the undirected diameter problem (removing one
      disconnects, and any superset stays disconnected), strong bridges for
      the directed diameter problem, and arcs on no directed cycle for the
      transversal problem (they bound no cycle, so severing them never
      removes one);
    * chain quotient (distance and transversal problems only) -- along a
      maximal corridor of degree-2 interior vertices (terminals excluded),
      severing any one pair kills exactly the through-traffic and leaves
      dead-end stubs no simple s-t path or cycle can use, so one canonical
      cheapest severance per corridor suffices and two severances in one
      corridor are never both useful;
    * parallel-corridor bundles -- corridors with identical endpoints,
      length and cost are interchangeable under a graph automorphism fixing
      everything else, so only how many of them are severed matters.

    The diameter problem keeps every non-bridge pair individually: corridor
    stubs change eccentricities, so the chain quotient does not apply to it.

    The diameter predicate is incremental, with or without ``symmetry``.

    * Diameter sources.  Only vertices whose eccentricities can realize the
      diameter are searched from (after Takes and Kosters, CIKM 2011).
      Undirected: a diametral endpoint inside a pendant tree can be pushed
      to one of the tree's leaves, so the 2-core plus all degree-1 vertices
      suffice.  Directed (strongly connected): if some in-neighbour u of v
      has out-degree one, every path out of u starts u -> v, so
      dist(u, y) = 1 + dist(v, y) for y != u, and for y = u the predecessor
      w of u on a shortest path from v gives dist(u, w) = dist(v, u); so
      ecc(u) >= ecc(v) and v is dropped.  Following such dominators from a
      dropped vertex ends at a kept one, unless they close a cycle of
      out-degree-one vertices; strong connectivity makes that cycle the
      whole graph, where any single source suffices.
    * Fixed sources.  The sources are taken once, on the full support.  A
      connected state's own source set is a subset of them, so the maximum
      eccentricity over the fixed set is still the state's diameter.
      Undirected: the 2-core only shrinks as pairs are severed, and a
      vertex outside the root's 2-core has only bridges as edges, which a
      connected state keeps, so its degree is unchanged and it is a source
      of the state only if it is a degree-1 source of the root.  Directed:
      if u has out-degree one at the root, a strongly connected state
      keeps u's only arc u -> v, so u still has out-degree one and v is
      still dropped.
    * Reused arrays.  The search expands a state only when the predicate
      failed there, so a connected parent hands its children, for each
      source x, the complete distance array d, every entry below ell (else
      it would have passed), and the masks reach[j] of the vertices within
      j hops of x.  Severing pairs only lengthens distances.  Call a pair
      (u, v) *tight* in d when d(v) == d(u) + 1 (undirected: either
      orientation), and the head v of a severed tight pair *orphaned* when
      no surviving in-neighbour of v lies in reach[d(v) - 1].  One that
      does lies at distance exactly d(v) - 1, since every in-neighbour w of
      v has d(w) >= d(v) - 1.  Let L + 1 be the lowest level of an orphaned
      head.  Every vertex y at distance j with 0 < j <= L keeps a surviving
      in-neighbour at distance j - 1: y had one in the parent, and if all
      of them were severed, y is the head of a severed tight pair that is
      not orphaned.  By induction on j no distance up to L changes, so
      reach[0..L] and the entries of d on reach[L] hold in the child, and a
      BFS resumed from level L finishes the child's array.  With no
      orphaned head, d is the child's array as it stands, again with
      eccentricity below ell.  So a source needs BFS work only from its
      lowest orphaned head on, or from scratch when the parent handed down
      no arrays.
    * Reverse array.  Directed, the distances *to* sources[0] are the
      distances from it in the reversed support, where the arc (u, v)
      reads v -> u and the in-neighbours of u are its out-neighbours.  So
      the rule above, read backwards, reuses a handed-down reverse array
      (rdist, rreach): a severed pair (u, v) is tight when rdist(u) ==
      rdist(v) + 1, its tail u is orphaned when out_masks[u] has no bit
      in rreach[rdist(u) - 1], and the BFS along the in-masks resumes from
      the lowest orphaned level.  This BFS has no ell cutoff: it runs
      until its frontier runs out.
    * Connectivity from the arrays.  A reused or completed array shows
      that its source reaches every vertex (reverse: is reached from every
      vertex), and a BFS whose frontier runs out first shows that it does
      not.  Undirected, the forward array of the first source decides
      connectivity; directed, the reverse array comes first, and a state
      where some vertex does not reach sources[0] fails at once.  Only a
      forward BFS that stops early, at ell hops, leaves it open, and then
      one sweep decides it.  Severing more pairs never reconnects a
      support, so the children of a disconnected state fail without any of
      this.

    For LBEC and DSCT one predicate hands obstructions down.  An LBEC
    state fails exactly when some s-t path of fewer than ell hops
    survives, a DSCT state exactly when some directed cycle of at most ell
    arcs survives, and then the predicate hands its children the pair ids
    of one such path or cycle, P.  A child's support is the parent's with
    the child's severed pairs taken out: severing only removes pairs and
    never adds one.  If none of the severed pairs is on P, every pair of P
    survives in the child, so P is still an obstruction there and the
    child fails; it hands P on unchanged.  Only a child that severed a
    pair of P searches again.  Which obstruction is handed down changes
    no verdict, witness or state count: a state passes or fails whatever
    P is, the units alone fix the enumeration order, and ``tested`` counts
    every state.  So the DSCT finder need not find a shortest cycle.  It
    returns the shortest cycle through the first vertex, in id order, that
    lies on a cycle of at most ell arcs; that one is within ell arcs too,
    since no cycle through a vertex is shorter than its shortest one.
    """

    def __init__(self, inst: ProblemInstance, symmetry: bool = True):
        g = inst.graph
        if any(e.length != 1 for e in g.edges):
            raise InputError("cost-aware search requires unit hop lengths")
        super().__init__(g)
        self.inst = inst
        self.pair_cost = [sum(g.edges[i].cost for i in idxs)
                          for idxs in self.pair_edges]
        if inst.kind == "mded":
            self.sources = self._diameter_sources()
            # The BFS of each array _mded_holds hands down: (source, masks
            # walked, masks read back, cutoff, reverse).  Directed, the
            # first is the reverse one of sources[0], with no cutoff.
            self.walks = [(src, self.out_masks, self.in_masks, inst.ell, False)
                          for src in self.sources]
            if self.directed:
                self.walks.insert(0, (self.sources[0], self.in_masks,
                                      self.out_masks, self.n, True))

        excluded = self._excluded_pairs() if symmetry else set()
        if symmetry and inst.kind in ("lbec", "dsct"):
            chains = self._find_chains(excluded)
        else:
            chains = []
        in_chain = {pid for ch, _, _ in chains for pid in ch}

        # Units: (cost, effect pair ids, witness edge indices, symmetry key).
        units = []
        for ch, head, tail in chains:
            costs = [self.pair_cost[p] for p in ch]
            best = min(range(len(ch)), key=lambda i: (costs[i], ch[i]))
            if not self.directed:
                head, tail = min(head, tail), max(head, tail)
            key = ("chain", head, tail, len(ch), costs[best])
            units.append((costs[best], tuple(ch),
                          self.pair_edges[ch[best]], key))
        for pid in range(len(self.pairs)):
            if pid in in_chain or pid in excluded:
                continue
            units.append((self.pair_cost[pid], (pid,),
                          self.pair_edges[pid], ("pair", pid)))

        # Merge identical parallel corridors into one all-or-nothing unit:
        # severing some but not all of them leaves the endpoint adjacency
        # intact through the survivors, so every distance is unchanged and
        # the partial severance is wasted.  Only the full severance (total
        # cost) matters, which also retires over-budget parallel bundles
        # (for example a back arc realized as budget+1 parallel paths).
        merged: dict = {}
        order = []
        for cost, pids, wit, key in units:
            if key not in merged:
                merged[key] = [0, [], []]
                order.append(key)
            merged[key][0] += cost
            merged[key][1].extend(pids)
            merged[key][2].extend(wit)
        self.units = []
        for key in order:
            cost, pids, wit = merged[key]
            self.units.append((cost, tuple(pids), tuple(sorted(wit))))
        self.units.sort(key=lambda u: u[2][0])

    # ---- structural preprocessing

    def _excluded_pairs(self) -> set[int]:
        kind = self.inst.kind
        excluded = set()
        if kind == "mded":
            for pid in range(len(self.pairs)):
                if not self.connected_without(pid):
                    excluded.add(pid)
        elif kind == "dsct":
            # An arc lies on a cycle iff both ends share a strongly connected
            # component, which is what v reaches and is reached by, for the
            # lowest vertex v of the component.
            comp = [-1] * self.n
            for v in range(self.n):
                if comp[v] < 0:
                    scc = (self._sweep(self.out_masks, v)
                           & self._sweep(self.in_masks, v))
                    for w in _bits(scc):
                        comp[w] = v
            for pid, (u, v) in enumerate(self.pairs):
                if comp[u] != comp[v]:
                    excluded.add(pid)
        return excluded

    def _find_chains(self, excluded: set[int]):
        """Maximal corridors of degree-2 interiors (terminals protected).

        Returns (pair ids along the corridor, head vertex, tail vertex); the
        termini are the walk's stopping points, which is what identifies two
        corridors as parallel.
        """
        protected = set()
        if self.inst.kind == "lbec":
            protected = {self.inst.s, self.inst.t}
        if self.directed:
            def interior(v):
                return (v not in protected
                        and self.in_masks[v].bit_count() == 1
                        and self.out_masks[v].bit_count() == 1)
        else:
            def interior(v):
                return v not in protected and self.out_masks[v].bit_count() == 2

        out_masks = self.out_masks
        chains = []
        used_pairs: set[int] = set()

        def walk(pid, prev, cur, masks):
            """Follow the corridor from the pair (prev, cur) of pid through
            interior vertices along masks: out-masks walk forward, in-masks
            backward.  Returns the pair ids met, claimed in used_pairs, and
            the vertex where the walk stops."""
            met = []
            while interior(cur):
                if self.directed:
                    nxt = masks[cur].bit_length() - 1
                    pair = (cur, nxt) if masks is out_masks else (nxt, cur)
                else:
                    nxt = (masks[cur] & ~(1 << prev)).bit_length() - 1
                    pair = (min(cur, nxt), max(cur, nxt))
                np = self.pair_id.get(pair)
                if np is None or np in used_pairs or np == pid or np in excluded:
                    break
                met.append(np)
                used_pairs.add(np)
                prev, cur = cur, nxt
            return met, cur

        for pid, (u, v) in enumerate(self.pairs):
            if pid in used_pairs or pid in excluded:
                continue
            ahead, tail = walk(pid, u, v, out_masks)
            behind, head = walk(pid, v, u, self.in_masks)
            if ahead or behind:
                used_pairs.add(pid)
                chains.append((behind[::-1] + [pid] + ahead, head, tail))
        return chains

    # ---- predicates on the current masks
    #
    # Each predicate takes what the parent state handed down and the pair ids
    # severed to reach the current state.  It returns True when the current
    # state answers the question, and otherwise what the state's children
    # inherit.

    def _obstruction_holds(self, parent, severed):
        """No obstruction survives: for LBEC an s-t path of fewer than ell
        hops, for DSCT a directed cycle of at most ell arcs.  A failing
        state hands down the pair ids of the one it found, and a child that
        severed none of them fails with it (see the class docstring)."""
        if parent and not any(pid in parent for pid in severed):
            return parent
        # Picked here, not stored as a bound method in __init__: a search
        # that refers to itself waits for a collection of an older GC
        # generation, which raised compose-cut's peak RSS by 2%.
        inst = self.inst
        if inst.kind == "lbec":
            found = self.shortest_path_slots(inst.s, inst.t, inst.ell - 1)
        else:
            found = self._first_cycle(inst.ell)
        return True if found is None else found

    def _first_cycle(self, limit: int):
        """Pair ids of the shortest cycle through the first vertex that
        lies on a directed cycle of at most limit arcs, else None."""
        for v in range(self.n):
            cycle = self._cycle_through(v, limit)
            if cycle is not None:
                return cycle
        return None

    def _mded_holds(self, parent, severed):
        """Connected (strongly, if directed) with diameter >= ell.

        A connected state that fails hands down, for each fixed source, its
        distance array and reach masks, and, directed, first the reverse
        array of sources[0]; a disconnected one hands down False.  A
        handed-down array is reused as it stands, or its BFS resumed below
        the lowest orphaned head (see the class docstring).
        """
        if parent is False:
            return False
        ell = self.inst.ell
        if self.n <= 1:
            return ell <= 0
        cut = [self.pairs[pid] for pid in severed]
        back = [(v, u) for u, v in cut]
        ahead = cut if self.directed else cut + back
        arrays = []
        for i, (src, masks, into, limit, reverse) in enumerate(self.walks):
            if parent:
                dist, reach = parent[i]
                # The lowest level of an orphaned head, with the severed
                # pairs read the way the BFS walks them.
                redo = len(reach)
                for u, v in back if reverse else ahead:
                    du = dist[u]
                    if dist[v] - du == 1 and not into[v] & reach[du]:
                        redo = min(redo, du + 1)
                if redo == len(reach):
                    arrays.append(parent[i])
                    continue
                got = self._distances_below(masks, limit, dist[:], reach[:redo])
            else:
                got = self._distances_below(masks, limit, [0] * self.n,
                                            [1 << src])
            if got is None:
                # Some vertex is ell or more hops away: the state passes if
                # connected, which an earlier forward array shows (the
                # first forward walk is walks[self.directed]).
                return (i > self.directed
                        or self._sweep(self.out_masks, src) == self.full_mask)
            if not got:
                return False
            arrays.append(got)
        return arrays

    def _distances_below(self, masks, ell: int, dist: list[int],
                         reach: list[int]):
        """Finish a BFS along masks on the surviving support, given the
        masks reach[j] of the vertices within j hops of its source for
        j < len(reach) and a dist array that is right on those vertices.

        Returns (dist, reach) when every vertex lies within ell - 1 hops,
        None as soon as some vertex lies ell or more hops away, and False
        when the frontier runs out before reaching every vertex.
        """
        d = len(reach) - 1
        seen = reach[d]
        frontier = seen & ~reach[d - 1] if d else seen
        while True:
            if frontier & (frontier - 1):
                nxt = 0
                while frontier:
                    b = frontier & -frontier
                    i = b.bit_length() - 1
                    dist[i] = d
                    nxt |= masks[i]
                    frontier ^= b
            else:
                i = frontier.bit_length() - 1
                dist[i] = d
                nxt = masks[i]
            frontier = nxt & ~seen
            if not frontier:
                return (dist, reach) if seen == self.full_mask else False
            d += 1
            if d >= ell:
                return None
            seen |= frontier
            reach.append(seen)

    def _diameter_sources(self) -> list[int]:
        """Sources whose eccentricities realize the diameter of the
        current support when it is (strongly) connected; see the class
        docstring."""
        n = self.n
        if self.directed:
            dominated = 0
            for out in self.out_masks:
                if out and not out & (out - 1):
                    dominated |= out
            return [v for v in range(n) if not dominated >> v & 1] or [0]
        deg = [self.out_masks[v].bit_count() for v in range(n)]
        removed = bytearray(n)
        stack = [v for v in range(n) if deg[v] == 1]
        work = deg[:]
        while stack:
            v = stack.pop()
            if removed[v] or work[v] > 1:
                continue
            removed[v] = 1
            for u in _bits(self.out_masks[v]):
                if not removed[u]:
                    work[u] -= 1
                    if work[u] == 1:
                        stack.append(u)
        return [v for v in range(n) if not removed[v] or deg[v] == 1]

    # ---- enumeration

    def solve(self, budget: int, max_states: int) -> Verdict:
        tested = 0
        chosen: list[int] = []
        units = [u for u in self.units if u[0] <= budget]
        result: Optional[tuple[int, ...]] = None
        holds = (self._mded_holds if self.inst.kind == "mded"
                 else self._obstruction_holds)

        def rec(start: int, budget_left: int, parent, severed) -> bool:
            nonlocal tested, result
            tested += 1
            if tested > max_states:
                raise ResourceBudgetError(
                    f"cost-aware search exceeded {max_states} states")
            inherited = holds(parent, severed)
            if inherited is True:
                out = []
                for ui in chosen:
                    out.extend(units[ui][2])
                result = tuple(sorted(out))
                return True
            for ui in range(start, len(units)):
                cost, pids, _ = units[ui]
                if cost > budget_left:
                    continue
                for pid in pids:
                    self.sever(pid)
                chosen.append(ui)
                ok = rec(ui + 1, budget_left - cost, inherited, pids)
                chosen.pop()
                for pid in pids:
                    self.restore(pid)
                if ok:
                    return True
            return False

        found = rec(0, budget, None, ())
        if found:
            return Verdict(True, result, tested)
        return Verdict(False, None, tested)


def solve_bruteforce_costaware(inst: ProblemInstance, *, symmetry: bool = True,
                               max_states: int = 50_000_000) -> Verdict:
    """Exhaustive decision over deletion sets of total cost <= k.

    This is the composer-verification oracle: it works on cost-annotated
    graphs and counts the budget in deletion cost.  ``symmetry=False``
    disables every reduction except the severance quotient itself and is
    used to cross-check the reductions on small instances.
    """
    return _CostAwareSearch(inst, symmetry=symmetry).solve(inst.k, max_states)
