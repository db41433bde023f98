"""Triangle-fractal selector graphs, their boundaries, and their dual tree.

A depth-q fractal starts from the single marked edge {sigma, tau} and, for q
rounds, erects a triangle on every currently marked edge; the two fresh edges
of each triangle become the next round's marked edges.  Round i contributes
the boundary ``B_i`` (2**i edges), and each boundary forms an edge-disjoint
sigma-tau path.  The graph has 2**q + 1 vertices and 2**(q+1) - 1 edges.

Canonical labeling: vertex ids are the positions 0..2**q along the deepest
boundary path, left to right, so sigma = 0 and tau = 2**q.  Under this
labeling the boundary ``B_i`` consists of the edges joining consecutive
multiples of 2**(q-i), and the whole edge set is

    { (j*2**(q-i), (j+1)*2**(q-i)) : 0 <= i <= q, 0 <= j < 2**i }.

Edges are stored boundary by boundary, so the edge with index
``2**i - 1 + (j - 1)`` is the j-th edge (1-indexed) of boundary i.

The dual tree encodes the minimum sigma-tau cuts: its root-leaf paths are in
bijection with them, there are exactly 2**q, each has q+1 edges with exactly
one edge per boundary, and the cut through leaf i separates deepest-boundary
vertices i-1 and i.  Under the position labeling that cut takes from each
boundary L the edge whose span contains gap i, its (((i-1) >> (q-L)) + 1)-th
edge, so a cut is looked up in O(q) arithmetic.  The tree itself (2**(q+1)
nodes) is built only when ``TFractal.dual`` is first read; nothing on the
construction, cut or serialization path needs it.

Construction runs the marked-edge rounds and cross-checks their edge set
against the recursive form (the top edge plus two half-depth fractals).
The two sets are compared as integer keys ``a << (q+1) | b``, one-to-one on
the position pairs 0 <= a < b <= 2**q, so the check allocates no tuple or
other container per edge.  The builder then hands its position pairs to
``Graph`` as they are.

Depths above ``MAX_DEPTH`` are refused before anything is allocated: a
depth-q fractal has 2**(q+1) - 1 edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import InputError
from .graph import CutCertificate, Graph

MAX_DEPTH = 20
"""Largest accepted fractal depth: 2**21 - 1 edges, well above the
benchmark's q=16 and the paper's desk-scale checks."""


@dataclass(frozen=True)
class DualTree:
    """Rooted binary tree whose edges biject with fractal edges.

    Node 0 is the root (the split vertex next to the {sigma, tau} edge); the
    internal nodes are the triangles, preorder left to right; the leaves are
    the remaining split vertices.  ``edge_map[(parent, child)]`` is the
    fractal edge index dual to that tree edge.  ``leaf_gap[leaf]`` is the
    index i such that the cut through that leaf separates deepest-boundary
    vertices i-1 and i.
    """

    parent: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    edge_map: dict[tuple[int, int], int] = field(compare=False)
    leaf_order: tuple[int, ...] = ()
    leaf_gap: dict[int, int] = field(default_factory=dict, compare=False)

    @property
    def node_count(self) -> int:
        return len(self.parent)

    def root_leaf_edges(self, leaf: int) -> list[int]:
        """Fractal edge indices along the root-leaf path, root end first."""
        out = []
        node = leaf
        while node != 0:
            out.append(self.edge_map[(self.parent[node], node)])
            node = self.parent[node]
        out.reverse()
        return out


@dataclass(frozen=True)
class TFractal:
    """A fractal graph plus its terminals, boundary partition, and dual tree."""

    graph: Graph
    sigma: int
    tau: int
    depth: int
    edge_cost: int
    boundaries: tuple[tuple[int, ...], ...]

    @property
    def leaf_count(self) -> int:
        return 1 << self.depth

    @cached_property
    def dual(self) -> DualTree:
        """The dual tree, built on first read and kept (not a field, so it
        takes no part in equality)."""
        return _build_dual(self.depth)


def _edge_index(level: int, j: int) -> int:
    """Index of the j-th (1-indexed) edge of boundary ``level``."""
    return (1 << level) - 1 + (j - 1)


def _iterative_edges(q: int) -> list[list[tuple[int, int]]]:
    """Marked-edge construction: one boundary per round."""
    p = 1 << q
    boundaries = [[(0, p)]]
    marked = boundaries[0]
    for _ in range(q):
        fresh = []
        for a, b in marked:
            m = (a + b) // 2
            fresh.append((a, m))
            fresh.append((m, b))
        boundaries.append(fresh)
        marked = fresh
    return boundaries


def _recursive_edges(q: int, lo: int, hi: int) -> set[int]:
    """Recursive construction: the top edge plus two half-depth fractals.

    Each edge (a, b) is stored as the integer key ``a << shift | b`` with
    ``shift = hi.bit_length()``, which is one-to-one on the pairs
    lo <= a < b <= hi.  Every level adds into one shared set instead of
    merging its children's sets, so the construction makes one insertion
    per edge.
    """
    edges: set[int] = set()
    add = edges.add
    shift = hi.bit_length()

    def grow(q: int, lo: int, hi: int) -> None:
        add(lo << shift | hi)
        if q:
            mid = (lo + hi) // 2
            grow(q - 1, lo, mid)
            grow(q - 1, mid, hi)

    grow(q, lo, hi)
    return edges


def _build_dual(q: int) -> DualTree:
    parent = [0]
    children: list[list[int]] = [[]]
    edge_map: dict[tuple[int, int], int] = {}
    leaf_order: list[int] = []
    leaf_gap: dict[int, int] = {}

    # Depth-first, left child before right, so leaves come out left to right.
    # stack holds (level, j, parent_node): the tree node below the j-th edge
    # of boundary ``level``.
    stack = [(0, 1, 0)]
    while stack:
        level, j, par = stack.pop()
        node = len(parent)
        parent.append(par)
        children.append([])
        children[par].append(node)
        edge_map[(par, node)] = _edge_index(level, j)
        if level == q:
            leaf_order.append(node)
            leaf_gap[node] = j
        else:
            # Right pushed first so the left branch is explored first.
            stack.append((level + 1, 2 * j, node))
            stack.append((level + 1, 2 * j - 1, node))

    return DualTree(
        parent=tuple(parent),
        children=tuple(tuple(c) for c in children),
        edge_map=edge_map,
        leaf_order=tuple(leaf_order),
        leaf_gap=leaf_gap,
    )


def build_fractal(q: int, directed: bool = False, cost: int = 1) -> TFractal:
    """Construct the depth-q fractal, cross-checked against the recursive form.

    The directed variant orients every boundary path from sigma to tau, which
    under the position labeling means every arc points from the smaller to
    the larger endpoint; the result is acyclic, sigma has in-degree 0 and
    out-degree q+1, tau has out-degree 0 and in-degree q+1.
    """
    if not (0 <= q <= MAX_DEPTH):
        raise InputError(f"fractal depth must be in 0..{MAX_DEPTH}, got {q}")
    if cost < 1:
        raise InputError(f"edge cost must be positive, got {cost}")

    p = 1 << q
    boundaries_pos = _iterative_edges(q)

    flat = [pair for boundary in boundaries_pos for pair in boundary]
    shift = p.bit_length()
    if {a << shift | b for a, b in flat} != _recursive_edges(q, 0, p):
        raise RuntimeError("iterative and recursive fractal constructions disagree")

    graph = Graph(
        directed,
        p + 1,
        flat if cost == 1 else ((a, b, cost) for a, b in flat),
        labels={0: "sigma", p: "tau"},
    )

    boundaries = []
    offset = 0
    for boundary in boundaries_pos:
        boundaries.append(tuple(range(offset, offset + len(boundary))))
        offset += len(boundary)

    return TFractal(
        graph=graph,
        sigma=0,
        tau=p,
        depth=q,
        edge_cost=cost,
        boundaries=tuple(boundaries),
    )


def cut_for_instance(f: TFractal, i: int) -> CutCertificate:
    """The unique minimum sigma-tau cut selecting gap i.

    Removing it leaves deepest-boundary vertex i-1 in sigma's component and
    vertex i in tau's component.  It is the root-leaf path of the dual tree's
    leaf with gap i, read off the position labels: one edge per boundary,
    so the indices come out ascending.
    """
    if not (1 <= i <= f.leaf_count):
        raise InputError(f"instance index {i} out of range 1..{f.leaf_count}")
    q, gap = f.depth, i - 1
    # _edge_index(level, (gap >> (q - level)) + 1), inlined: this runs for
    # every cut enumerated.
    edges = tuple([(1 << level) - 1 + (gap >> (q - level))
                   for level in range(q + 1)])
    return CutCertificate(edges, f.edge_cost * (q + 1))


def selected_instance(f: TFractal, cut: CutCertificate) -> int:
    """The gap index selected by a minimum cut; inverse of cut_for_instance."""
    deepest = f.boundaries[-1]
    lo, hi = deepest[0], deepest[-1]
    in_deepest = [e for e in cut.edges if lo <= e <= hi]
    if len(in_deepest) != 1:
        raise InputError("cut does not contain exactly one deepest-boundary edge")
    i = in_deepest[0] - lo + 1
    if tuple(cut.edges) != cut_for_instance(f, i).edges:
        raise InputError("edge set is not one of the canonical minimum cuts")
    return i


def enumerate_min_cuts(f: TFractal) -> list[CutCertificate]:
    """All 2**q minimum sigma-tau cuts, ordered by the gap they select."""
    return [cut_for_instance(f, i) for i in range(1, f.leaf_count + 1)]
