"""Graph substrate shared by every other module.

Graphs are labeled multigraphs with vertex ids 0..n-1, and an edge's
endpoints are ints proper (not bools or floats).  Every edge carries a
deletion cost, an int proper of at least 1, and is one hop long: lengths
are counted in edges, as in the paper, and the constructor refuses any
other edge length, so no distance routine checks for one.  "Simple mode"
graphs (no parallel edges, every cost equal to 1) are what the solvers
consume, while cost-annotated graphs only appear as composer
intermediates.  Undirected edges are stored canonically with u < v;
self-loops are rejected.

All operations here are pure functions of their inputs.  Graph objects are
immutable by convention: nothing in this package mutates a graph after
construction, so values can be shared freely between threads.  The one
piece of state a graph fills in later is its per-vertex adjacency, which is
derived from the edge tuple on the first neighbour query (most graphs, the
fractals among them, are built, cut and written without one).  That stays
thread-safe because the build is idempotent: racing builders produce equal
lists, and either result may be kept.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import InputError

UNREACHABLE = math.inf


class Edge(NamedTuple):
    """An edge from u to v with a deletion cost.  ``length`` is always 1:
    the field stays because edges are hashed and written as
    [u, v, cost, length] rows, and those bytes are pinned."""

    u: int
    v: int
    cost: int = 1
    length: int = 1


class Graph:
    """A labeled (multi)graph, optionally directed.

    ``edges`` is an ordered multiset; other modules reference edges by their
    index in this tuple, so construction order is part of the canonical form.
    The constructor validates and canonicalizes the edges, whose endpoints
    must be ints proper in range(n); the neighbour lists behind
    ``out_neighbors``, the degrees and the BFS routines are derived on the
    first such query and then kept.
    """

    __slots__ = ("directed", "n", "edges", "labels", "_adj", "_radj", "_unit")

    def __init__(self, directed: bool, n: int,
                 edges: Iterable[Sequence[int]],
                 labels: Optional[dict[int, str]] = None):
        if n < 0:
            raise InputError(f"vertex count must be non-negative, got {n}")
        self.directed = directed = bool(directed)
        self.n = n
        # tuple.__new__ skips the namedtuple's Python-level __new__; every
        # edge is still checked before it is stored.
        make = tuple.__new__
        canon = []
        append = canon.append
        unit = True
        for e in edges:
            u = e[0]
            v = e[1]
            # Not the cheaper operator.index, which reads True as vertex 1.
            if type(u) is not int or type(v) is not int:
                raise InputError(f"edge ({u!r},{v!r}) needs int endpoints, got "
                                 f"{type(v if type(u) is int else u).__name__}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) references unknown vertex (n={n})")
            if u == v:
                raise InputError(f"self-loop at vertex {u} is not allowed")
            # A bare (u, v) pair, such as a fractal edge, is a unit edge.
            if len(e) == 2:
                cost = 1
            else:
                cost = e[2]
                if type(cost) is not int or cost < 1:
                    raise InputError(
                        f"edge ({u},{v}) needs a positive int cost, got {cost!r}")
                if len(e) > 3 and e[3] != 1:
                    raise InputError(
                        f"edge ({u},{v}) has length {e[3]}; every edge is one hop")
                if cost != 1:
                    unit = False
            if not directed and u > v:
                u, v = v, u
            append(make(Edge, (u, v, cost, 1)))
        self.edges = tuple(canon)
        if labels is not None:
            for vid in labels:
                if not (0 <= vid < n):
                    raise InputError(f"label references unknown vertex {vid}")
        self.labels = dict(labels) if labels else None
        self._unit = unit
        self._adj = None
        self._radj = None

    def _adjacency(self) -> tuple[list, list]:
        """(out-lists, in-lists) of (neighbor, edge index) pairs, sorted,
        built on the first call and kept; an undirected graph's in-lists
        are its out-lists.

        Two threads may both build them; the lists they build are equal,
        and the in-lists are stored before the out-lists that gate the
        build, so a reader never sees one without the other.
        """
        adj = self._adj
        if adj is not None:
            return adj, self._radj
        adj = [[] for _ in range(self.n)]
        radj = [[] for _ in range(self.n)] if self.directed else adj
        for idx, e in enumerate(self.edges):
            adj[e.u].append((e.v, idx))
            if self.directed:
                radj[e.v].append((e.u, idx))
            else:
                adj[e.v].append((e.u, idx))
        for lst in adj:
            lst.sort()
        if self.directed:
            for lst in radj:
                lst.sort()
        self._radj = radj
        self._adj = adj
        return adj, radj

    # -- queries ---------------------------------------------------------

    @property
    def is_simple(self) -> bool:
        """Simple mode: no parallel edges and all costs 1."""
        if not self._unit:
            return False
        pairs = {(e.u, e.v) for e in self.edges}
        return len(pairs) == len(self.edges)

    @property
    def is_unit(self) -> bool:
        """All costs 1 (parallel edges permitted)."""
        return self._unit

    def out_neighbors(self, u: int) -> list[tuple[int, int]]:
        """(neighbor, edge index) pairs, sorted by neighbor id."""
        return self._adjacency()[0][u]

    def degree(self, u: int) -> int:
        return len(self._adjacency()[0][u])

    def in_degree(self, u: int) -> int:
        return len(self._adjacency()[1][u])

    def total_cost(self, indices: Iterable[int]) -> int:
        return sum(self.edges[i].cost for i in indices)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph)
                and self.directed == other.directed
                and self.n == other.n
                and self.edges == other.edges
                and self.labels == other.labels)

    def __hash__(self):
        return hash((self.directed, self.n, self.edges))

    def __repr__(self):
        kind = "digraph" if self.directed else "graph"
        return f"<{kind} n={self.n} m={len(self.edges)}>"


@dataclass(frozen=True)
class CutCertificate:
    """A set of edge indices whose removal separates a designated terminal pair.

    ``total_cost`` is the summed deletion cost.  Certificates produced by
    :func:`min_cut` are minimal: no proper subset disconnects the pair.
    """

    edges: tuple[int, ...]
    total_cost: int


# -- elementary algorithms ------------------------------------------------


def _require_vertex(g: Graph, v: int) -> None:
    if not (0 <= v < g.n):
        raise InputError(f"vertex {v} out of range (n={g.n})")


def bfs_distance(g: Graph, source: int, target: int,
                 dead_edges: frozenset[int] = frozenset()) -> float:
    """Exact hop distance from source to target, or UNREACHABLE.
    ``dead_edges`` are treated as deleted."""
    _require_vertex(g, source)
    _require_vertex(g, target)
    if source == target:
        return 0
    adj = g._adjacency()[0]
    dist = [UNREACHABLE] * g.n
    dist[source] = 0
    queue = [source]
    for u in queue:
        d = dist[u] + 1
        for v, idx in adj[u]:
            if dist[v] == UNREACHABLE and idx not in dead_edges:
                if v == target:
                    return d
                dist[v] = d
                queue.append(v)
    return UNREACHABLE


def distances(g: Graph, source: int, dead_edges: frozenset[int] = frozenset(),
              reverse: bool = False) -> list:
    """Hop distance from source to every vertex, UNREACHABLE where there is
    no path; with ``reverse``, the distance from every vertex to source.
    ``dead_edges`` are treated as deleted."""
    _require_vertex(g, source)
    adj = g._adjacency()[1 if reverse else 0]
    dist = [UNREACHABLE] * g.n
    dist[source] = 0
    queue = [source]
    for u in queue:
        d = dist[u] + 1
        for v, idx in adj[u]:
            if dist[v] == UNREACHABLE and idx not in dead_edges:
                dist[v] = d
                queue.append(v)
    return dist


def is_connected(g: Graph) -> bool:
    """Connectivity of the underlying undirected graph."""
    if g.n <= 1:
        return True
    if g.directed:
        g = Graph(False, g.n, g.edges)
    return UNREACHABLE not in distances(g, 0)


def is_strongly_connected(g: Graph,
                          dead_edges: frozenset[int] = frozenset()) -> bool:
    """Every vertex reaches every other along directed edges; on an
    undirected graph, plain connectivity.  ``dead_edges`` are treated as
    deleted."""
    if g.n <= 1:
        return True
    return (UNREACHABLE not in distances(g, 0, dead_edges)
            and (not g.directed
                 or UNREACHABLE not in distances(g, 0, dead_edges, reverse=True)))


def is_edge_cut(g: Graph, s: int, t: int, edge_indices: Iterable[int]) -> bool:
    """True iff deleting the given edges separates s from t."""
    return bfs_distance(g, s, t, frozenset(edge_indices)) == UNREACHABLE


def is_minimal_edge_cut(g: Graph, s: int, t: int, edge_indices: Iterable[int]) -> bool:
    """A cut none of whose proper subsets is still a cut."""
    cut = frozenset(edge_indices)
    if not is_edge_cut(g, s, t, cut):
        return False
    return all(not is_edge_cut(g, s, t, cut - {i}) for i in cut)


def min_cut(g: Graph, s: int, t: int) -> CutCertificate:
    """Minimum-cost s-t edge cut via max-flow with capacities = deletion costs.

    The returned certificate is minimal (all costs are positive) and its
    total cost equals the max-flow value.
    """
    _require_vertex(g, s)
    _require_vertex(g, t)
    if s == t:
        raise InputError("min_cut requires distinct terminals")

    # Residual network: arc pairs (i, i^1).  Undirected edges get capacity
    # on both directions, directed edges only forward.
    head: list[int] = []
    cap: list[int] = []
    nxt: list[list[int]] = [[] for _ in range(g.n)]

    def add_arc(u, v, c_fwd, c_bwd):
        nxt[u].append(len(head))
        head.append(v)
        cap.append(c_fwd)
        nxt[v].append(len(head))
        head.append(u)
        cap.append(c_bwd)

    for e in g.edges:
        if g.directed:
            add_arc(e.u, e.v, e.cost, 0)
        else:
            add_arc(e.u, e.v, e.cost, e.cost)

    flow = 0
    while True:
        # BFS for an augmenting path in the residual graph.
        pred_arc = [-1] * g.n
        pred_arc[s] = -2
        queue = deque([s])
        while queue and pred_arc[t] == -1:
            u = queue.popleft()
            for a in nxt[u]:
                v = head[a]
                if cap[a] > 0 and pred_arc[v] == -1:
                    pred_arc[v] = a
                    queue.append(v)
        if pred_arc[t] == -1:
            break
        bottleneck = None
        v = t
        while v != s:
            a = pred_arc[v]
            bottleneck = cap[a] if bottleneck is None else min(bottleneck, cap[a])
            v = head[a ^ 1]
        v = t
        while v != s:
            a = pred_arc[v]
            cap[a] -= bottleneck
            cap[a ^ 1] += bottleneck
            v = head[a ^ 1]
        flow += bottleneck

    # The last search emptied its queue without reaching t, so the vertices
    # it labelled are exactly the source side of the residual network.
    side = [a != -1 for a in pred_arc]
    cut = []
    for idx, e in enumerate(g.edges):
        if g.directed:
            if side[e.u] and not side[e.v]:
                cut.append(idx)
        else:
            if side[e.u] != side[e.v]:
                cut.append(idx)
    cert = CutCertificate(tuple(sorted(cut)), sum(g.edges[i].cost for i in cut))
    if cert.total_cost != flow:
        raise RuntimeError(f"max-flow/min-cut mismatch: {flow} vs {cert.total_cost}")
    return cert
