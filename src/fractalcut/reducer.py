"""Vertex cover on planar cubic graphs, reduced to planar length-bounded cut.

The input is a vertex-cover instance on a connected planar graph of maximum
degree three together with a two-page book embedding (vertices on a spine,
every edge on one of two half-planes, no same-page crossings; such an
embedding always exists for these graphs and is supplied by the caller, not
computed here).

Each spine vertex becomes a gadget of three internally disjoint paths
between fresh terminals: two paths with 2k vertices each (length 2k-1) and
one with 2k+1 vertices (length 2k), one short path per page and the longer
one on the spine.  Consecutive gadgets share terminals.  An input edge
between spine positions i < j becomes a connector path of length
(2k-1)(j-i) - 2 on its page, joining the later middle vertex of gadget i to
the earlier middle vertex of gadget j.  Deleting the two middle edges of a
gadget (the only profitable deletions) forces traffic onto its length-2k
spine path, and with budget k' = 2k a cover of size k raises the end-to-end
distance to ell' = k*2k + (n-k)*(2k-1).

Every edge other than the two middle edges of each gadget is laid down in
k'+1 parallel copies.  That makes those edges useless to delete (a bundle
can never be emptied within budget, and partial deletions change no
distance) without touching planarity or any distance, which is what keeps
the equivalence two-sided: otherwise three deletions, one per gadget strand,
would cut the terminals outright and every instance would be a yes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InputError, ResourceBudgetError, UnsupportedParameterError
from .graph import Graph
from .solvers import ProblemInstance

PAGES = ("upper", "lower")


@dataclass(frozen=True)
class TwoPageEmbedding:
    """Spine order plus a page assignment for every edge.

    ``order[j]`` is the vertex at spine position j; ``pages`` maps each
    canonical edge pair (u < v) to "upper" or "lower".  ``to_json_obj`` is
    read back by ``serialize.parse_embedding``.
    """

    order: tuple[int, ...]
    pages: dict

    def to_json_obj(self) -> dict:
        return {
            "order": list(self.order),
            "pages": {f"{u}-{v}": page
                      for (u, v), page in sorted(self.pages.items())},
        }


def validate_embedding(g: Graph, emb: TwoPageEmbedding) -> bool:
    """Order must be a permutation of the vertices, every edge must carry a
    page, and no two same-page edges may interleave along the spine."""
    if sorted(emb.order) != list(range(g.n)):
        return False
    pos = {v: i for i, v in enumerate(emb.order)}
    spans = []
    for e in g.edges:
        key = (min(e.u, e.v), max(e.u, e.v))
        page = emb.pages.get(key)
        if page not in PAGES:
            return False
        a, b = sorted((pos[e.u], pos[e.v]))
        spans.append((a, b, page))
    for (a, b, p1), (c, d, p2) in itertools.combinations(spans, 2):
        if p1 != p2:
            continue
        if a < c < b < d or c < a < d < b:
            return False
    return True


@dataclass(frozen=True)
class VcInstance:
    """Vertex cover question on a planar graph of maximum degree three.

    Planarity itself is asserted by the caller; only the Euler bound and the
    degree bound are checked here, page validity is checked by the reduction.
    """

    graph: Graph
    k: int

    def __post_init__(self):
        g = self.graph
        if g.directed:
            raise InputError("vertex cover instance must be undirected")
        if not g.is_simple:
            raise InputError("vertex cover instance must be a simple graph")
        if any(g.degree(v) > 3 for v in range(g.n)):
            raise InputError("maximum degree three required")
        if g.n >= 3 and len(g.edges) > 3 * g.n - 6:
            raise InputError("edge count violates the planar Euler bound")
        if self.k < 0:
            raise InputError("cover budget must be non-negative")


def solve_vc_bruteforce(inst: VcInstance) -> bool:
    """Exhaustive test for a vertex cover of size at most k."""
    g = inst.graph
    if g.n > 20:
        raise ResourceBudgetError("brute-force vertex cover is capped at n <= 20")
    pairs = [(e.u, e.v) for e in g.edges]
    for size in range(0, min(inst.k, g.n) + 1):
        for cover in itertools.combinations(range(g.n), size):
            chosen = set(cover)
            if all(u in chosen or v in chosen for u, v in pairs):
                return True
    return False


def reduce_vc_to_planar_lbec(inst: VcInstance, emb: TwoPageEmbedding,
                             directed: bool = False) -> ProblemInstance:
    """Build the length-bounded cut instance described in the module docstring.

    ``directed=True`` orients every edge from left to right along the spine,
    which yields an acyclic instance with the same answer.  Vertex labels
    mark the terminals (t0..tn) and the gadget middle vertices (x/y, with a
    u/l page suffix); the middle edges are exactly the edges with a single
    copy, everything else appears in k'+1 parallel copies.
    """
    k = inst.k
    if k < 2:
        raise UnsupportedParameterError(
            "the reduction needs k >= 2 (connector lengths would vanish)")
    if not validate_embedding(inst.graph, emb):
        raise InputError("invalid two-page embedding")

    n = inst.graph.n
    pos = {v: i for i, v in enumerate(emb.order)}
    copies = 2 * k + 1  # budget is 2k, so these bundles can never be emptied

    edges: list[tuple[int, int, int, int]] = []
    labels = {i: f"t{i}" for i in range(n + 1)}
    next_id = n + 1

    def fresh() -> int:
        nonlocal next_id
        next_id += 1
        return next_id - 1

    def lay_path(stops: list[int], multiplicity: int) -> None:
        for a, b in zip(stops, stops[1:]):
            for _ in range(multiplicity):
                edges.append((a, b, 1, 1))

    def interior_path(a: int, b: int, length: int, multiplicity: int) -> list[int]:
        inner = [fresh() for _ in range(length - 1)]
        lay_path([a] + inner + [b], multiplicity)
        return inner

    # Middle vertices of the two short strands, per gadget and page.
    mid_x = {}
    mid_y = {}
    for i in range(1, n + 1):
        s_i, t_i = i - 1, i
        for page, tag in (("upper", "u"), ("lower", "l")):
            inner = [fresh() for _ in range(2 * k - 2)]
            x, y = inner[k - 2], inner[k - 1]
            labels[x] = f"x{i}{tag}"
            labels[y] = f"y{i}{tag}"
            mid_x[(i, page)] = x
            mid_y[(i, page)] = y
            stops = [s_i] + inner + [t_i]
            # Everything except the single middle edge is duplicated.
            for a, b in zip(stops, stops[1:]):
                mult = 1 if (a, b) == (x, y) else copies
                for _ in range(mult):
                    edges.append((a, b, 1, 1))
        interior_path(s_i, t_i, 2 * k, copies)  # spine strand, length 2k

    for e in inst.graph.edges:
        a, b = sorted((pos[e.u], pos[e.v]))
        i, j = a + 1, b + 1
        page = emb.pages[(min(e.u, e.v), max(e.u, e.v))]
        length = (2 * k - 1) * (j - i) - 2
        interior_path(mid_y[(i, page)], mid_x[(j, page)], length, copies)

    graph = Graph(directed, next_id, edges, labels)
    k_prime = 2 * k
    ell_prime = k * (2 * k) + (n - k) * (2 * k - 1)
    return ProblemInstance("lbec", graph, s=0, t=n, k=k_prime, ell=ell_prime)
