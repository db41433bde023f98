"""Deciders for the three length-bounded deletion problems.

LBEC: delete at most k edges so the s-t distance becomes at least ell.
MDED: delete at most k edges keeping the graph (strongly) connected while
      raising the diameter to at least ell.
DSCT: delete at most k arcs so no directed cycle of length at most ell
      remains (shortest directed cycles are chordless, so checking all
      cycles and checking induced cycles decide the same instances).

Each problem gets a fixed-parameter branching solver, and the cost-aware
exhaustive oracle that checks the composers.  Both search the adjacency
bitmasks of ``_Support``.  The oracle applies a few symmetry quotients and
exclusions that are proved in its docstring and cross-checked against the
raw enumeration in the test suite; they never change a verdict, only the
amount of enumeration.  The ground truth they are checked against, the
instance types, ``instance_predicate``, ``check_witness`` and the plain
brute force ``solve_bruteforce``, lives in ``reference``, which imports
nothing from here; this module re-exports it.

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

from functools import partial
from heapq import heappop, heappush
from operator import add
from typing import Callable

from .errors import InputError, ResourceBudgetError
from .graph import Graph, UNREACHABLE, is_strongly_connected, min_cut
# check_witness, instance_predicate and solve_bruteforce are re-exported
# for the callers that import them from here, the benchmark among them.
from .reference import (ProblemInstance, Verdict, check_witness,
                        instance_predicate, solve_bruteforce)

MAX_SEARCHES = 50_000
"""Obstruction searches one branching search may make (see ``_branch``)."""


# -- shared support -----------------------------------------------------------


def _bits(x: int):
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


class _Support:
    """The adjacency pairs that survive, as bitmasks.

    ``pairs`` lists the (u, v) pairs in the order of their first edges,
    ``pair_id`` maps each back, ``pair_edges[pid]`` lists its parallel edges,
    ascending, and ``pair_cost[pid]`` sums their costs; the branchers' slots
    and the oracle's units are these pairs, so every witness and count is
    deterministic.  Bit v of ``out_masks[u]`` and bit u of ``in_masks[v]``
    are set, and ``alive[pid]`` is true, while the pair survives; an
    undirected graph's in-masks are its out-masks.  ``sever`` takes a
    surviving pair out and ``restore`` puts a severed one back; each touches
    only the pair's own bits and flag.  Every search walks the masks but the
    LBEC brancher's, which reads the lists ``adj`` of its ``_SlotState``;
    the DSCT brancher and the oracle share one cycle finder,
    ``shortest_cycle``.
    """

    def __init__(self, g: Graph):
        self.n = g.n
        self.directed = g.directed
        pair_id = self.pair_id = {}
        pair_edges = []
        pair_cost = self.pair_cost = []
        out_masks = self.out_masks = [0] * g.n
        in_masks = self.in_masks = [0] * g.n if g.directed else out_masks
        for idx, (u, v, cost, _) in enumerate(g.edges):
            pid = pair_id.setdefault((u, v), len(pair_edges))
            if pid < len(pair_edges):
                pair_edges[pid].append(idx)
                pair_cost[pid] += cost
            else:
                pair_edges.append([idx])
                pair_cost.append(cost)
                out_masks[u] |= 1 << v
                in_masks[v] |= 1 << u
        self.pairs = list(pair_id)  # dicts keep insertion order
        self.pair_edges = list(map(tuple, pair_edges))
        self.alive = [True] * len(pair_edges)
        self.full_mask = (1 << g.n) - 1

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
        """Is the support, which must be (strongly, if directed) connected,
        still so once the surviving pair (u, v) = pid is severed?  Exactly
        when u still reaches v: a walk through u -> v takes that detour."""
        u, v = self.pairs[pid]
        if self.out_masks[u] == 1 << v or self.in_masks[v] == 1 << u:
            return False  # the pair is u's only way out or v's only way in
        if self.out_masks[u] & self.in_masks[v]:
            return True  # a common neighbour, never u or v: no self-loops
        self.sever(pid)
        connected = self._sweep(self.out_masks, u) >> v & 1
        self.restore(pid)
        return bool(connected)

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

    def _cycle_through(self, v: int, cap: int):
        """Pair ids of the least shortest directed cycle through v, if it
        has at most cap arcs, else None: the path from v into v's
        in-neighbours within cap - 1 arcs, closed by the arc back into v."""
        found = self._path_into(v, self.in_masks[v], cap - 1)
        if found is None:
            return None
        cycle, u = found
        cycle.append(self.pair_id[u, v])
        return cycle

    def shortest_cycle(self, limit: int):
        """Pair ids of a shortest directed cycle of length <= limit, else None.

        Takes the cycle of each vertex of ``feedback``, the root's feedback
        vertex set F (``_feedback_vertices``, set by the DSCT brancher's
        ``_SlotState`` and the oracle), from ``_cycle_through`` in id order,
        and only a strictly shorter cycle replaces an earlier one: the
        cycle a scan over every vertex returns.  Let v* be the lowest
        vertex on a shortest cycle C.  It is C's lowest vertex, so it is in
        F, and no lower vertex of F lies on a cycle as short, so the scan
        keeps v*'s cycle; ``_cycle_through(v*, cap)`` returns the same one
        for every cap at or above C's length.
        """
        best = None
        for v in self.feedback:
            cycle = self._cycle_through(v, limit)
            if cycle is not None:
                best = cycle
                limit = len(cycle) - 1
        return best

    def _path_into(self, s: int, into: int, cap: int):
        """(pair ids, end) of the least shortest path from s to a vertex of
        the mask into, if it has at most cap arcs, else None.

        A BFS out of s that never re-enters s grows level masks until one
        meets into.  Of the shortest paths into that level the one with the
        least vertex sequence is taken: a backward pass keeps, on each
        level, the vertices with a successor kept on the next, and the
        forward walk takes the lowest one.  That is the path a BFS over
        ascending neighbour lists records as parents, so ties break toward
        smaller vertex ids.
        """
        out_masks, in_masks = self.out_masks, self.in_masks
        seen = 1 << s
        level = out_masks[s] if into and cap > 0 else 0
        levels = []
        while level:
            levels.append(level)
            if level & into or len(levels) == cap:
                break
            seen |= level
            nxt = 0
            # _bits inlined: this loop is most of a search that finds nothing.
            while level:
                b = level & -level
                nxt |= out_masks[b.bit_length() - 1]
                level ^= b
            level = nxt & ~seen
        if not levels or not levels[-1] & into:
            return None
        keep = levels[-1] = levels[-1] & into
        for j in range(len(levels) - 2, -1, -1):
            back = 0
            while keep:
                b = keep & -keep
                back |= in_masks[b.bit_length() - 1]
                keep ^= b
            keep = levels[j] = levels[j] & back
        pair_id, directed = self.pair_id, self.directed
        path = []
        u = s
        for level in levels:
            ahead = out_masks[u] & level
            w = (ahead & -ahead).bit_length() - 1
            path.append(pair_id[u, w] if directed or u < w else pair_id[w, u])
            u = w
        return path, u

    def _feedback_vertices(self) -> list[int]:
        """The feedback vertex set F of the support, ascending (see the
        ``_CostAwareSearch`` docstring), peeled without recursion: ``ins``
        and ``outs`` count each vertex's in- and out-arcs among the vertices
        left.  The root's F serves every state: its cycles are the root's."""
        out_masks, in_masks = self.out_masks, self.in_masks
        left = self.full_mask
        ins = [m.bit_count() for m in in_masks]
        outs = [m.bit_count() for m in out_masks]
        feedback = []
        stack = [v for v in range(self.n) if not ins[v] or not outs[v]]
        while left:
            if not stack:
                v = (left & -left).bit_length() - 1
                feedback.append(v)
                stack.append(v)
            v = stack.pop()
            if not left >> v & 1:
                continue  # pushed once for each side
            left ^= 1 << v
            for masks, degree in ((out_masks, ins), (in_masks, outs)):
                rest = masks[v] & left
                while rest:
                    b = rest & -rest
                    w = b.bit_length() - 1
                    rest ^= b
                    degree[w] -= 1
                    if not degree[w]:
                        stack.append(w)
        return feedback


class _SlotState(_Support):
    """The support with parallel-edge multiplicities, for the branchers.

    A slot is one adjacency pair; ``mult[pid]`` counts its surviving copies,
    and the pair is severed when the last copy goes.  Deleting a copy only
    changes distances once the slot is empty, which is what makes the
    multiplicity-versus-budget prune sound.

    Each brancher builds only what its search reads.  For LBEC, ``adj[u]``
    lists u's (neighbour, pid, (pid, u)) triples, severed or not, in
    ascending order; the last item is what the s-t search records as the
    neighbour's parent.  For DSCT, ``feedback`` is the root's feedback
    vertex set, which ``shortest_cycle`` scans.
    """

    def __init__(self, g: Graph, kind: str):
        super().__init__(g)
        self.mult = [len(idxs) for idxs in self.pair_edges]
        if kind == "lbec":
            adj = self.adj = [[] for _ in range(g.n)]
            for pid, (u, v) in enumerate(self.pairs):
                adj[u].append((v, pid, (pid, u)))
                if not g.directed:
                    adj[v].append((u, pid, (pid, v)))
            for lst in adj:
                lst.sort()
        elif kind == "dsct":
            self.feedback = self._feedback_vertices()

    def shortest_path_slots(self, s: int, t: int, limit: int, tree=None,
                            cut: int = 0):
        """Pair ids of a shortest surviving s-t path if its length is
        <= limit, else None; and, with a path, the BFS tree that found it.

        Ties are broken toward smaller vertex ids (adjacency is sorted), so
        branching order is reproducible.  Only the LBEC brancher asks it;
        the other searches ask ``_path_into``, which returns the same path
        from masks.  This BFS stays on lists: it visits almost every vertex
        of a VC reduction, where walking masks bit by bit is slower, and it
        resumes its tree.  A mask BFS kept every pinned count, but on
        perfbench at seed 59, measured before the branchers resumed this
        search, it took fpt-branch from 0.86 to 1.50 s of wall time.

        The tree is (path, par, levels).  levels[j] lists the vertices at
        distance j in the order the BFS discovered them, the last level
        ending at t, and par[v] is (pid, parent) for each of them but s.
        The branchers hand a tree back with the index cut of the path pair
        whose slot lost a copy since.  If the pair survives, the support
        is unchanged, and the search returns the path and tree as they
        are.  If it is gone, the support has lost only that pair, and the
        search resumes the tree from level cut.  Either way it returns
        what a search from scratch would; for the resume:

        * The BFS builds level j + 1 by scanning, in level order, the
          ascending pair lists of the vertices on level j, so levels
          0..cut, their order and their parents are fixed by the pairs of
          the vertices on levels 0..cut - 1.
        * path[cut] joins path vertex cut, on level cut, to path vertex
          cut + 1, on level cut + 1.  Neither lies on levels 0..cut - 1,
          so the pair is in none of their lists (directed, an arc is
          listed at its tail only), and a search without it builds the
          same levels 0..cut with the same parents.
        * Those levels are complete in the tree: the search stopped while
          building level len(path) > cut.
        * So resetting every vertex past level cut and running the loop
          on from levels[cut] is the search from scratch at the moment it
          finishes level cut.  Its tie-break and its path are the same.

        A resume copies par, n entries, and builds its own levels past
        cut, at most n more, leaving the handed tree as it was for the
        parent's next child; so a brancher at depth j holds at most
        2n(j + 1) entries.  An undo log on one shared par, rolled back as
        each child returns, holds nearly as many when the tail past cut is
        most of the graph, and walks each tail three more times; on the VC
        reductions it gave back most of the time that resuming saves.
        """
        if s == t:
            return [], None
        adj, alive = self.adj, self.alive
        if tree is None:
            par = [None] * self.n
            par[s] = ()
            levels = [[s]]
        else:
            path, par, levels = tree
            if alive[path[cut]]:
                return path, tree
            par = par[:]
            for level in levels[cut + 1:]:
                for v in level:
                    par[v] = None
            levels = levels[:cut + 1]
        d = len(levels) - 1
        frontier = levels[d]
        while frontier and d < limit:
            nxt = []
            levels.append(nxt)
            for u in frontier:
                for v, sid, back in adj[u]:
                    if not alive[sid] or par[v] is not None:
                        continue
                    par[v] = back
                    nxt.append(v)
                    if v == t:
                        path = []
                        while v != s:
                            sid, v = par[v]
                            path.append(sid)
                        path.reverse()
                        return path, (path, par, levels)
            frontier = nxt
            d += 1
        return None, None

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


def _branch(state: _SlotState, find: Callable, budget: int,
            keep_connected: bool = False):
    """Core brancher: destroy every obstruction with <= budget deletions.

    ``find(tree, cut)`` returns (obstruction, tree): the slot ids of an
    obstruction on the surviving support (a too-short s-t path, a
    too-short directed cycle) or None when none is left, and what the
    search hands down with it.  At each node the brancher deletes one
    surviving copy of each of the obstruction's slots in turn, skipping
    slots whose multiplicity exceeds the remaining budget: they cannot be
    emptied, and a partial deletion changes no distance.  With connectivity
    enforcement, a branch that would disconnect the surviving support is
    skipped, which is exactly the diameter problem's requirement.

    The root's obstruction comes from ``find(None, 0)``, and the child that
    deletes a copy of slot obstruction[i] gets its own from ``find(tree,
    i)``, with its parent's tree.  The LBEC s-t search reuses or resumes
    that tree (see ``_SlotState.shortest_path_slots``); the MDED pair search
    and the cycle search hand none down.

    One loop walks the tree.  ``path`` holds a frame per ancestor of the
    node searched: its remaining children, tree and mask, and its child in
    flight (the slot, the child's mask, the leaf count before it).  Past
    ``MAX_SEARCHES`` calls of ``find`` it raises ResourceBudgetError.

    Failed subtrees are replayed, not searched again.  A node's mask has
    bit e set for each edge index e deleted on the way to it; the witness
    lists the bits of the first node's mask with no obstruction left.
    ``failed`` maps the mask of every subtree that returned None to its
    leaf count, and a child whose mask is there adds that count and is
    skipped.  This changes no witness or leaf count:

    * The mask fixes ``state.mult``: ``delete_copy`` takes a slot's copies
      from the last index down, so a slot has lost exactly its copies
      whose bits are set.  ``mult`` fixes the support (a slot survives
      while it keeps a copy), every multiplicity prune, the edge index
      the next deletion from each slot stands for, and the budget left,
      which is the budget less the number of bits set.
    * ``find`` returns what a search from scratch on the support would
      (the LBEC search proves this for its resumed trees), and the other
      searches and ``connected_without`` read only the masks.  So the
      obstruction at a node, and the order its children are tried in,
      are a function of the mask.
    * By induction on the budget left, the subtree below a node, its
      result and its leaf count are a function of the mask too, with the
      replays inside it counted as the subtrees they stand for.
    * A success ends the search, and no lookup follows.  So only failed
      subtrees are stored, and a replay adds what searching that subtree
      again would add.

    On the VC reductions most slots are bundles of 2k + 1 copies, which
    no budget empties, and orders of the same deletions meet at one mask:
    vc/prism at k = 3 visits 20,195 nodes but searches only 592 masks.

    Returns (witness edge list or None, leaves explored).
    """
    leaves = finds = 0
    failed: dict[int, int] = {}
    mult, cap = state.mult, MAX_SEARCHES
    path = []  # per ancestor: (children, tree, mask, slot, child, before)
    tree, i, child, left = None, 0, 0, budget
    while True:
        finds += 1
        if finds > cap:
            raise ResourceBudgetError(f"branching solver exceeded {cap} searches")
        obstruction, tree = find(tree, i)
        mask = child
        if obstruction is None:
            for _, _, _, sid, _, _ in reversed(path):
                state.restore_copy(sid)
            return list(_bits(mask)), leaves + 1
        children, branched = enumerate(obstruction if left else ()), False
        while True:  # enter the next child, leaving each node that has none
            for i, sid in children:
                if mult[sid] > left:
                    continue
                if keep_connected and mult[sid] == 1 and \
                        not state.connected_without(sid):
                    continue
                branched = True
                child = mask | 1 << state.delete_copy(sid)
                if child not in failed:
                    break
                leaves += failed[child]
                state.restore_copy(sid)
            else:
                if not branched:
                    leaves += 1
                if not path:
                    return None, leaves
                children, tree, mask, sid, child, before = path.pop()
                state.restore_copy(sid)
                failed[child] = leaves - before
                branched, left = True, left + 1
                continue
            path.append((children, tree, mask, sid, child, leaves))
            left -= 1
            break


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
    state = _SlotState(inst.graph, "lbec")
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
    Pair paths come from ``_Support._path_into``, and every state is
    (strongly) connected, as ``connected_without`` requires.
    """
    _require_solvable(inst, "mded")
    g = inst.graph
    if not is_strongly_connected(g):
        raise InputError("directed diameter instance must be strongly connected"
                         if g.directed else "diameter instance must be connected")
    if inst.ell <= 0:
        return Verdict(True, (), 0)
    if inst.ell == 1:
        return Verdict(g.n >= 2, () if g.n >= 2 else None, 0)
    state = _SlotState(g, "mded")
    if g.directed:
        pairs = [(v, w) for v in range(g.n) for w in range(g.n) if v != w]
    else:
        pairs = [(v, w) for v in range(g.n) for w in range(v + 1, g.n)]
    worst = 0
    for v, w in pairs:
        def find(tree, cut):
            found = state._path_into(v, 1 << w, inst.ell - 1)
            return found and found[0], None
        witness, leaves = _branch(state, find, inst.k, keep_connected=True)
        worst = max(worst, leaves)
        if witness is not None:
            return Verdict(True, tuple(sorted(witness)), worst)
    return Verdict(False, None, worst)


def solve_dsct_fpt(inst: ProblemInstance) -> Verdict:
    """Branching decider for the short-cycle transversal question.

    Finds a shortest directed cycle with the mask search over the root's
    feedback vertex set (``_Support.shortest_cycle``); while one of
    length <= ell exists, branches over deleting each of its <= ell arcs.
    Explores at most ell**k leaves.
    """
    _require_solvable(inst, "dsct")
    if inst.ell <= 0:
        return Verdict(True, (), 0)
    state = _SlotState(inst.graph, "dsct")

    def find(tree, cut):
        return state.shortest_cycle(inst.ell), None

    witness, leaves = _branch(state, find, inst.k)
    if witness is None:
        return Verdict(False, None, leaves)
    return Verdict(True, tuple(sorted(witness)), leaves)


def solve_fpt(inst: ProblemInstance) -> Verdict:
    """Dispatch to the matching branching solver.

    Raises ResourceBudgetError when one branching search passes
    ``MAX_SEARCHES`` obstruction searches, one per node searched; the MDED
    solver runs one such search per vertex pair, each on its own count.
    """
    if inst.kind == "lbec":
        return solve_lbec_fpt(inst)
    if inst.kind == "mded":
        return solve_mded_fpt(inst)
    return solve_dsct_fpt(inst)


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
      removes one).  One test per corridor (``_corridors``) decides all of
      its pairs: severing any of them leaves the corridor's vertices
      hanging off its termini, so the support loses (strong) connectivity,
      or the corridor's arcs lie on no cycle, exactly when severing the
      first does.  Loops and cycles of interior vertices behave the same;
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

    Undirected, the diameter predicate works on the root's 2-core, with or
    without ``symmetry``.

    * Pendant forests, after Takes and Kosters (CIKM 2011).  Peeling
      degree-1 vertices off the root support leaves its 2-core, the
      *core*; a tree peels away entirely and keeps its last vertex.  Every
      other vertex hangs in the forest of one core vertex c and reaches the
      rest only through c, so no shortest path between core vertices leaves
      the core.  With h(c) the height of c's forest and D the distance on
      the core, a connected state's diameter is the larger of h(c) + D(c,
      c') + h(c') over core vertices c != c' and the *pendant constant*,
      the largest diameter inside one forest, c included.  The pairs with
      an end off the core are bridges: ``symmetry`` excludes them, so the
      forests, taken once at the root, never change, and without it a
      state that severs one fails.  One sweep decides the root's
      connectivity, and a connected root passes at once if the pendant
      constant reaches ell.  The rest is a fresh BFS over the core from
      each core vertex x, which passes once it reaches some c' at level d
      with d + h(c') + h(x) >= ell.
    * Connectivity from the BFS.  The root needs its sweep: a tree
      component peels away entirely, so reaching every core vertex does not
      show a root connected.  Past the root the pendant pairs are intact,
      so a BFS that reaches every core vertex shows that its source reaches
      every vertex, and one whose frontier runs out first shows that it
      does not.  So the first source's BFS decides connectivity, unless it
      passes early, and then one sweep decides it.  Severing more pairs
      never reconnects a support, so the children of a disconnected state
      fail without any of this; a connected state that fails hands down
      (), which tells its children only that they are not the root.
      Handing down each source's distance array, to be resumed below the
      lowest level a severance touched, saved less than its bookkeeping
      cost on cores of 5 to 8 vertices.

    Directed, states hand distance rows down the corridors.  A *branch
    vertex* has in- or out-degree other than one at the root, or is the
    one vertex taken from a cycle of the others (see below); the rest are
    interior.  A corridor is a maximal path x -> i_1 -> ... -> i_a -> y
    from a branch vertex through a >= 0 interior vertices to a branch
    vertex (x == y for a loop).

    * Interior pairs are never units.  Severing a pair with an interior
      end leaves that vertex no way in or out: the pair is a strong
      bridge, which ``symmetry`` excludes, and without it the state fails.
      So a state that gets further has lost only one-arc corridors.
    * Distances.  The live corridors contract to arcs of weight a + 1, and
      Dijkstra from each branch vertex gives the distances D[x][y]; the
      state is strongly connected iff all are finite.  The only way out of
      i_j leads on to y and the only way in comes from x, so dist(i_j, t)
      = a + 1 - j + dist(y, t) and dist(s, i_j) = dist(s, x) + j, unless t
      lies ahead of s on one corridor, which is nearer.
    * Top two.  So the diameter is the maximum over x, y of D[x][y] + a +
      b: a is the interior count of a corridor ending at x, or 0, b that
      of one starting at y, or 0, and the two are not one corridor y -> x,
      whose own vertices lie at most D[y][x] + a apart, as b = 0 counts.
      Hence the two longest at each end suffice: max(a1 + b2, a2 + b1)
      when a1 and b1 are one corridor.  Taking a1 + b1 overstates: on the
      arcs (0, 1), (1, 2), (2, 0), (0, 3), (3, 0), (0, 4), (4, 0) it gives
      4, but the diameter is 3.  These sums are fixed at the root
      (``extra``), as the corridors with an interior vertex never change.
    * Cycles of interior vertices.  The corridor walk returns a cycle of
      vertices of in- and out-degree one as a loop that starts and ends at
      one of them, and that vertex is taken as a branch vertex.  It still
      has one way in and one way out, so the rules above hold for it.  A
      lone cycle of n vertices has no other corridor, so its loop vertex's
      top-two sum is n - 1, the cycle's diameter.  Beside branch vertices
      or another cycle, it has no pair in or out, so Dijkstra leaves some
      branch vertex unreached and the state fails.
    * Reused rows, after Even and Shiloach (JACM 1981).  A failing,
      strongly connected state hands down its rows D[x], all finite and,
      with the top-two sums, below ell.  A child that gets further has
      severed one unit, so one one-arc corridor u -> v.  That only
      lengthens distances, and an arc not *tight* in D[x], D[x][v] !=
      D[x][u] + 1, lies on no shortest path from x: D[x] holds as it
      stands.  Dijkstra reruns only for the rows with the arc tight.

    A directed state that is not strongly connected hands down False, so
    its children fail unsevered; any other failing one hands down its rows.

    For LBEC and DSCT one predicate hands obstructions down.  An LBEC
    state fails exactly when some s-t path of fewer than ell hops
    survives, a DSCT state exactly when some directed cycle of at most ell
    arcs survives, and then the predicate hands its children one such
    path or cycle, P, as the int mask with bit pid set for each pair of P.
    Each unit carries the same kind of mask of its own pairs.  A child's
    support is the parent's with the child's unit taken out: severing
    only removes pairs and never adds one.  If the unit's mask and P's
    share no bit, every pair of P survives in the child, so P is still an
    obstruction there and the child fails; it hands P on unchanged.  Only
    a child whose unit meets P searches again.  Which obstruction is
    handed down changes no verdict, witness or state count: a state
    passes or fails whatever P is, the units alone fix the enumeration
    order, and ``tested`` counts every state.  Both searches walk the
    masks (``_path_into``), and the DSCT one looks only at a feedback
    vertex set F of the root support.  Set-up peels every vertex with no
    in-arc or no out-arc among those left, takes the lowest vertex left
    into F, and repeats (``_feedback_vertices``).  The first vertex of a
    cycle C to go still had its two arcs on C, so it was not peeled: it
    went into F as the lowest vertex left.  So F holds the lowest vertex
    f of every cycle C of the root, and of every state, whose support is
    a subgraph of the root's; and the shortest cycle through f is no
    longer than C.  The finder, ``shortest_cycle``, which the DSCT
    brancher shares, returns a shortest cycle if it has at most ell arcs,
    so it finds one exactly when one survives.  On every DSCT composition
    of the compose-cut pool F is one vertex: the selector's back arc
    meets every cycle.

    Severance is deferred to the states that search.  The enumeration
    keeps the chosen units on the stack ``chosen``, and the masks lack the
    pairs of the first ``synced`` of them.  A predicate that reads the
    masks first severs the rest (``_sever_chosen``), so at every state
    that searches the masks are the full support less the pairs of every
    chosen unit, as if each unit had been severed when it was chosen.
    Every search therefore returns what it would under eager severance.
    Leaving a state pops its unit and puts it back only if it is severed,
    when ``synced`` exceeds ``len(chosen)``: a unit stays severed until
    its own state is left, and none is severed twice.  An inherited
    state's verdict and hand-down depend only on the parent's obstruction
    and the unit's mask, so they never read the masks and the state
    severs nothing: for LBEC and DSCT that is every state whose unit
    misses the handed-down mask, and for MDED every child of a
    disconnected state, which hands down False.  Every other MDED state
    reads the masks, for its BFS or to find the live one-arc corridors,
    so it severs its unit.  The witness is read off ``chosen``, and a
    success puts the severed units back.
    """

    def __init__(self, inst: ProblemInstance, symmetry: bool = True):
        g = inst.graph
        if not g._unit and any(e.length != 1 for e in g.edges):
            raise InputError("cost-aware search requires unit hop lengths")
        super().__init__(g)
        self.inst = inst
        pair_edges, pair_cost = self.pair_edges, self.pair_cost
        corridors = self._corridors()
        if inst.kind == "mded":
            if self.directed:
                self._contract_corridors(corridors)
            else:
                self._pendant_forests()
        elif inst.kind == "dsct":
            self.feedback = self._feedback_vertices()
        excluded = (self._excluded_pairs(corridors)
                    if symmetry and inst.kind != "lbec" else ())
        quotient = symmetry and inst.kind != "mded"

        # Units: (cost, pair ids, witness edge indices, mask of the pair ids),
        # in the order of their witnesses' first edges.  Identical parallel
        # corridors merge into one all-or-nothing unit: severing some but
        # not all of them leaves the endpoint adjacency intact through the
        # survivors, so every distance is unchanged and the partial
        # severance is wasted.  Only the full severance (total cost)
        # matters, which also retires over-budget parallel bundles (for
        # example a back arc realized as budget+1 parallel paths).
        merged: dict = {}
        units = []
        for ch, head, tail in corridors:
            if ch[0] in excluded:
                continue
            if not quotient or len(ch) == 1:
                for pid in ch:
                    units.append((pair_cost[pid], (pid,), pair_edges[pid],
                                  1 << pid))
                continue
            # The corridor's cheapest pair, the lowest id among equals.
            cost, best, mask = pair_cost[ch[0]], ch[0], 0
            for pid in ch:
                mask |= 1 << pid
                if (pair_cost[pid], pid) < (cost, best):
                    cost, best = pair_cost[pid], pid
            if not self.directed and head > tail:
                head, tail = tail, head
            unit = merged.setdefault((head, tail, len(ch), cost),
                                     [0, [], [], 0])
            unit[0] += cost
            unit[1] += ch
            unit[2] += pair_edges[best]
            unit[3] |= mask
        for cost, pids, wit, mask in merged.values():
            wit.sort()
            units.append((cost, tuple(pids), tuple(wit), mask))
        units.sort(key=lambda u: u[2][0])
        self.units = units

    # ---- structural preprocessing

    def _corridors(self):
        """Every pair's corridor, each once, as (pair ids in order, head,
        tail).  A corridor is a maximal path of pairs through interior
        vertices: in- and out-degree one if directed, degree two if not,
        and never an LBEC terminal.  A pair with no interior end is a
        one-pair corridor between its own ends, and a cycle of interior
        vertices comes back as a loop at one of them.  The termini are what
        identifies two corridors as parallel.
        """
        pairs, n = self.pairs, self.n
        out_masks, in_masks = self.out_masks, self.in_masks
        inner = 0  # the mask of the interior vertices
        for v in range(n):
            if (out_masks[v].bit_count() == 1 and in_masks[v].bit_count() == 1
                    if self.directed else out_masks[v].bit_count() == 2):
                inner |= 1 << v
        if self.inst.kind == "lbec":
            inner &= ~(1 << self.inst.s | 1 << self.inst.t)
        # An interior vertex v meets two pairs (one in, one out if directed):
        # a walk leaves v by their id sum, links[v], less the pair it came by,
        # and a pair's far end is its ends' sum less the near one.
        links = [0] * n
        for pid, (u, v) in enumerate(pairs):
            links[u] += pid
            links[v] += pid
        used = [False] * len(pairs)
        corridors = []
        for pid, (u, v) in enumerate(pairs):
            if used[pid]:
                continue
            used[pid] = True
            # Walk on from v, then back from u, claiming the pairs met; a
            # walk that meets a claimed pair closed the corridor into a loop.
            ahead, at, tail = [], pid, v
            while inner >> tail & 1 and not used[links[tail] - at]:
                at = links[tail] - at
                used[at] = True
                ahead.append(at)
                tail = sum(pairs[at]) - tail
            behind, at, head = [], pid, u
            while inner >> head & 1 and not used[links[head] - at]:
                at = links[head] - at
                used[at] = True
                behind.append(at)
                head = sum(pairs[at]) - head
            corridors.append((behind[::-1] + [pid] + ahead, head, tail))
        return corridors

    def _excluded_pairs(self, corridors) -> set[int]:
        """The excluded pairs, decided by one test per corridor (see the
        class docstring).  MDED and DSCT only: LBEC excludes none."""
        kind = self.inst.kind
        connected = self.connected_without
        if kind == "mded" and self.directed:
            # As a child of the root's rows, with no diameter to meet, a
            # severance fails exactly when it breaks strong connectivity.
            rows = self._corridors_hold(None, 0, UNREACHABLE)

            def connected(pid):
                if rows is False:
                    return False
                self.sever(pid)
                kept = self._corridors_hold(rows, 1 << pid, UNREACHABLE)
                self.restore(pid)
                return kept is not False
        elif kind == "mded" and self.n and \
                self._sweep(self.out_masks, 0) != self.full_mask:
            # connected_without needs connectivity; no severance adds it.
            return set(range(len(self.pairs)))
        elif kind == "dsct":
            # An arc lies on a cycle iff both ends share a strongly
            # connected component.
            comp = self._strong_components()
        excluded = set()
        for ch, _, _ in corridors:
            u, v = self.pairs[ch[0]]
            if (not connected(ch[0]) if kind == "mded"
                    else comp[u] != comp[v]):
                excluded.update(ch)
        return excluded

    def _strong_components(self) -> list[int]:
        """Each vertex's strongly connected component, named by one of its
        vertices: Kosaraju's two passes, without recursion, which read at
        most 2n out-masks (one per push and one per pop) and n in-masks."""
        out_masks, in_masks = self.out_masks, self.in_masks
        order, stack, left = [], [], self.full_mask
        while left or stack:
            ahead = out_masks[stack[-1]] & left if stack else left
            if ahead:
                b = ahead & -ahead
                left ^= b
                stack.append(b.bit_length() - 1)
            else:
                order.append(stack.pop())
        comp, left = [0] * self.n, self.full_mask
        for v in reversed(order):
            frontier = left & 1 << v
            left ^= frontier
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                w = b.bit_length() - 1
                comp[w] = v
                reached = in_masks[w] & left
                left ^= reached
                frontier |= reached
        return comp

    def _contract_corridors(self, corridors) -> None:
        """Contract the directed support's corridors (see the class
        docstring).  ``interior_pairs`` masks the pairs of the corridors
        with an interior vertex, ``branch_index`` maps each branch vertex to
        its index, ``branch_arcs[x]`` lists the (weight, head, pair) arcs out
        of the x-th, and ``extra[x][y]`` is the top-two sum of the x-th and
        the y-th."""
        out_masks, in_masks = self.out_masks, self.in_masks
        # A cycle of interior vertices comes back as a loop at one of them.
        branch = sorted({v for v in range(self.n)
                         if out_masks[v].bit_count() != 1
                         or in_masks[v].bit_count() != 1}
                        | {head for _, head, _ in corridors})
        at = self.branch_index = {v: i for i, v in enumerate(branch)}
        self.interior_pairs = sum(1 << pid for ch, _, _ in corridors
                                  if len(ch) > 1 for pid in ch)
        self.branch_arcs = [[] for _ in branch]
        # The corridors ending and starting at each branch vertex, by
        # interior count, and the vertex itself under ids no corridor has.
        ends = [[(0, -1)] for _ in branch]
        starts = [[(0, -2)] for _ in branch]
        for c, (ch, head, tail) in enumerate(corridors):
            if head != tail:
                self.branch_arcs[at[head]].append((len(ch), at[tail], ch[0]))
            ends[at[tail]].append((len(ch) - 1, c))
            starts[at[head]].append((len(ch) - 1, c))
        # Of two pairings, at most one meets a corridor twice.
        ends = [sorted(e)[-2:] for e in ends]
        starts = [sorted(s)[-2:] for s in starts]
        self.extra = [[max(a + b for a, ca in e for b, cb in s if ca != cb)
                       for s in starts] for e in ends]

    # ---- predicates on the current masks
    #
    # Each predicate takes what the parent state handed down and the pair
    # mask of the unit chosen to reach the current state (0 at the root).
    # It returns True when the current state answers the question, and
    # otherwise what the state's children inherit.  Only a predicate that
    # reads the masks calls _sever_chosen first.

    def _obstruction_holds(self, parent, mask: int):
        """No obstruction survives: for LBEC an s-t path of fewer than ell
        hops, for DSCT a directed cycle of at most ell arcs.  A failing
        state hands down the mask of the pairs of the one it found, and a
        child whose unit misses them fails with it, unsevered (see the
        class docstring)."""
        if parent and not parent & mask:
            return parent
        self._sever_chosen()
        # Picked here, not stored as a bound method in __init__: a search
        # that refers to itself waits for a collection of an older GC
        # generation, which raised compose-cut's peak RSS by 2%.
        inst = self.inst
        if inst.kind == "lbec":
            found = self._path_into(inst.s, 1 << inst.t, inst.ell - 1)
            found = found and found[0]
        else:
            found = self.shortest_cycle(inst.ell)
        if found is None:
            return True
        blocked = 0
        for pid in found:
            blocked |= 1 << pid
        return blocked

    def _sever_chosen(self) -> None:
        """Sever the pairs of the chosen units that are not severed yet."""
        chosen = self.chosen
        for unit in chosen[self.synced:]:
            for pid in unit[1]:
                self.sever(pid)
        self.synced = len(chosen)

    def _mded_holds(self, parent, mask: int):
        """Connected (strongly, if directed) with diameter >= ell.

        A disconnected state hands down False.  Directed, any other failing
        state hands down its corridor rows, and a child reruns only those
        with its severed arc tight.  Undirected, a connected state that
        fails hands down (), and each state that searches runs a fresh BFS
        over the core from each core vertex (see the class docstring).
        """
        if parent is False:
            return False
        self._sever_chosen()
        ell = self.inst.ell
        if self.n <= 1:
            return ell <= 0
        if self.directed:
            return self._corridors_hold(parent, mask, ell)
        if mask & self.pendant_pairs:
            return False  # a bridge
        masks, core, tall = self.out_masks, self.core, self.tall
        if parent is None:
            if self._sweep(masks, 0) != self.full_mask:
                return False
            if self.pendant >= ell:
                return True
        for i, src in enumerate(self.sources):
            goal = ell - self.height[src]
            seen = frontier = 1 << src
            d = 0
            while True:
                if frontier & (frontier - 1):
                    nxt = 0
                    while frontier:
                        b = frontier & -frontier
                        nxt |= masks[b.bit_length() - 1]
                        frontier ^= b
                else:
                    nxt = masks[frontier.bit_length() - 1]
                frontier = nxt & core & ~seen
                if not frontier:
                    break
                d += 1
                # goal - d stays >= 0: tall[0] is the core, and a root passes
                # before any BFS when some h(x) >= ell.
                if goal - d < len(tall) and frontier & tall[goal - d]:
                    # Two vertices lie ell or more hops apart: the state
                    # passes if connected, which an earlier BFS, or at the
                    # root the sweep above, shows.
                    return (i > 0 or parent is None
                            or self._sweep(masks, src) == self.full_mask)
                seen |= frontier
            if seen != core:
                return False
        return ()

    def _corridors_hold(self, parent, mask: int, ell: int):
        """The directed predicate on the contracted corridors: True, or
        False when the support is not strongly connected, else the rows of
        the branch vertices' distances: the parent's (None at the root), run
        again where the severed arc is tight (see the class docstring)."""
        if mask & self.interior_pairs:
            return False
        branch_arcs, alive = self.branch_arcs, self.alive
        rows = parent[:] if parent else [None] * len(self.extra)
        if parent:
            u, v = map(self.branch_index.get,
                       self.pairs[mask.bit_length() - 1])
        worst = 0
        for x, extra in enumerate(self.extra):
            if parent and rows[x][v] != rows[x][u] + 1:
                continue
            dist = [UNREACHABLE] * len(extra)
            dist[x] = 0
            heap = [(0, x)]
            while heap:
                d, y = heappop(heap)
                if d > dist[y]:
                    continue
                for w, z, pid in branch_arcs[y]:
                    if d + w < dist[z] and alive[pid]:
                        dist[z] = d + w
                        heappush(heap, (d + w, z))
            if UNREACHABLE in dist:
                return False
            rows[x] = dist
            worst = max(worst, max(map(add, dist, extra)))
        return worst >= ell or rows

    def _pendant_forests(self) -> None:
        """Peel the undirected support down to its core (see the class
        docstring), without recursion.  Sets the ``core`` mask and its
        vertices as ``sources``, the forest heights ``height``, the
        ``pendant`` constant, the mask ``pendant_pairs`` of the pairs with an
        end off the core and ``tall[t]``, the mask of the core vertices c
        with h(c) >= t, for t up to the largest height."""
        n, masks = self.n, self.out_masks
        work = [m.bit_count() for m in masks]
        height = self.height = [0] * n
        core, last, pendant = self.full_mask, 0, 0
        stack = [v for v in range(n) if work[v] == 1]
        while stack:
            last = v = stack.pop()
            core ^= 1 << v
            for p in _bits(masks[v] & core):  # v's one unpeeled neighbour
                pendant = max(pendant, height[p] + height[v] + 1)
                height[p] = max(height[p], height[v] + 1)
                work[p] -= 1
                if work[p] == 1:
                    stack.append(p)
        # A tree peels away entirely and keeps its last vertex as its core.
        core = self.core = core or self.full_mask & 1 << last
        self.pendant = pendant
        sources = self.sources = list(_bits(core))
        self.pendant_pairs = sum(1 << pid
                                 for pid, (u, v) in enumerate(self.pairs)
                                 if not core >> u & core >> v & 1)
        tall = self.tall = [0] * (1 + max(height, default=0))
        for c in sources:
            for t in range(height[c] + 1):
                tall[t] |= 1 << c

    # ---- enumeration

    def solve(self, budget: int, max_states: int) -> Verdict:
        if budget < 0:
            return Verdict(False, None, 0)  # no deletion set fits
        tested = 0
        chosen = self.chosen = []
        self.synced = 0
        units = [u for u in self.units if u[0] <= budget]
        holds = (self._mded_holds if self.inst.kind == "mded"
                 else self._obstruction_holds)
        path = []  # per state on it: (unit index in units or -1, hand-down)
        ui, left, parent, mask = -1, budget, None, 0
        while True:
            tested += 1
            if tested > max_states:
                raise ResourceBudgetError(
                    f"cost-aware search exceeded {max_states} states")
            inherited = holds(parent, mask)
            if inherited is True:
                break
            path.append((ui, inherited))
            ui += 1
            while ui == len(units) or units[ui][0] > left:
                if ui == len(units):  # no unit left: leave the state
                    ui = path.pop()[0]
                    if not path:
                        return Verdict(False, None, tested)
                    unit = chosen.pop()
                    left += unit[0]
                    if self.synced > len(chosen):
                        self.synced -= 1
                        for pid in unit[1]:
                            self.restore(pid)
                ui += 1
            unit = units[ui]
            chosen.append(unit)
            left -= unit[0]
            parent, mask = path[-1][1], unit[3]
        witness = tuple(sorted(i for unit in chosen for i in unit[2]))
        for unit in chosen[:self.synced]:
            for pid in unit[1]:
                self.restore(pid)
        self.synced = 0
        return Verdict(True, witness, tested)


def solve_bruteforce_costaware(inst: ProblemInstance, *, symmetry: bool = True,
                               max_states: int = 50_000_000) -> Verdict:
    """Exhaustive decision over deletion sets of total cost <= k.

    This is the composer-verification oracle: it works on cost-annotated
    graphs and counts the budget in deletion cost.  ``symmetry=False``
    disables every reduction except the severance quotient itself and is
    used to cross-check the reductions on small instances.  Raises
    ResourceBudgetError when it would test more than ``max_states`` states.
    """
    return _CostAwareSearch(inst, symmetry=symmetry).solve(inst.k, max_states)
