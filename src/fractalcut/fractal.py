"""Triangle-fractal selector graphs and their boundaries.

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
``2**i - 1 + (j - 1)`` is the j-th edge (1-indexed) of boundary i.  The one
source of these rows is ``boundary_columns``: boundary i's endpoint columns
``ids[0:p:s]`` and ``ids[s::s]``, s = p >> i, p = 2**q.  ``build_fractal``
reads them over one list of the 2**q + 1 vertex ids and feeds ``Graph`` one
row at a time, so no per-edge pair container is ever built and the edges
share one int object per vertex; ``serialize`` reads them over
``range(2**q + 1)``, where the slices stay ranges, and so writes and checks
a fractal document from (q, directed, cost) alone, with no ``Graph``.
``verify.check_fractal_formulas`` holds the build, in index order, to the
marked-edge rounds.

The minimum sigma-tau cuts are the root-leaf paths of the dual tree: there
are exactly 2**q, each has q+1 edges with exactly one edge per boundary, and
the cut through gap i separates deepest-boundary vertices i-1 and i.  Under
the position labeling that cut takes from each boundary L the edge whose
span contains gap i, its (((i-1) >> (q-L)) + 1)-th edge, so a cut is looked
up in O(q) arithmetic.

Depths above ``MAX_DEPTH`` are refused by ``check_fractal_params``, which
the builder, the writer and the parser call before anything is allocated:
a depth-q fractal has 2**(q+1) - 1 edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat, starmap
from operator import add

from .errors import InputError
from .graph import CutCertificate, Graph

MAX_DEPTH = 20
"""Largest accepted fractal depth: 2**21 - 1 edges, well above the
benchmark's q=16 and the paper's desk-scale checks."""


@dataclass(frozen=True)
class TFractal:
    """A fractal graph plus its terminals and boundary partition."""

    graph: Graph
    sigma: int
    tau: int
    depth: int
    edge_cost: int
    boundaries: tuple[tuple[int, ...], ...]

    @property
    def leaf_count(self) -> int:
        return 1 << self.depth


def check_fractal_params(q: int, cost: int) -> None:
    """Refuse a depth outside 0..MAX_DEPTH or a cost that is not a
    positive int proper, before anything is allocated."""
    if not (0 <= q <= MAX_DEPTH):
        raise InputError(f"fractal depth must be in 0..{MAX_DEPTH}, got {q}")
    if type(cost) is not int or cost < 1:
        raise InputError(f"edge cost must be a positive int, got {cost!r}")


def boundary_columns(ids, q: int):
    """Boundary i's endpoint columns for i = 0..q, one boundary at a time:
    ``ids[0:p:s]`` and ``ids[s::s]``, s = p >> i, with ``ids`` the 2**q + 1
    vertex ids (a list, or a range whose slices stay ranges)."""
    p = 1 << q
    for i in range(q + 1):
        s = p >> i
        yield ids[0:p:s], ids[s::s]


def boundary_ranges(q: int) -> list[range]:
    """Boundary i's edge indices, 2**i - 1 .. 2**(i+1) - 2, for i = 0..q."""
    return [range((1 << i) - 1, (2 << i) - 1) for i in range(q + 1)]


def build_fractal(q: int, directed: bool = False, cost: int = 1) -> TFractal:
    """Construct the depth-q fractal.

    The directed variant orients every boundary path from sigma to tau, which
    under the position labeling means every arc points from the smaller to
    the larger endpoint; the result is acyclic, sigma has in-degree 0 and
    out-degree q+1, tau has out-degree 0 and in-degree q+1.
    """
    check_fractal_params(q, cost)
    p = 1 << q
    # The columns are slices of one list of the vertex ids, so every edge
    # at a vertex holds the same int object; a range would make a fresh
    # one per edge end (only ints up to 256 are cached).  The rows are made
    # one at a time as Graph reads them: bare pairs at unit cost, else
    # (u, v, cost) rows, each boundary's pair of columns extended by a
    # column that repeats the cost.
    columns = boundary_columns(list(range(p + 1)), q)
    if cost != 1:
        columns = map(add, columns, repeat((repeat(cost),)))
    rows = chain.from_iterable(starmap(zip, columns))
    graph = Graph(directed, p + 1, rows, labels={0: "sigma", p: "tau"})
    return TFractal(
        graph=graph,
        sigma=0,
        tau=p,
        depth=q,
        edge_cost=cost,
        boundaries=tuple(map(tuple, boundary_ranges(q))),
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
    # Boundary level's ((gap >> (q - level)) + 1)-th edge.
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
