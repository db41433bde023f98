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
``ids[0:p:s]`` and ``ids[s::s]``, s = p >> i, p = 2**q.  ``TFractal``
holds (q, directed, cost) alone; its ``rows`` read the columns over one
list of the vertex ids, for its graph and the composer's selector rows.
``serialize`` reads them over ``range(2**q + 1)``, where the slices stay
ranges, and so writes and checks a fractal document with no ``Graph``.
``verify.check_fractal_formulas`` holds the build, in index order, to the
marked-edge rounds.

The minimum sigma-tau cuts are the root-leaf paths of the dual tree: there
are exactly 2**q, each has q+1 edges with exactly one edge per boundary, and
the cut through gap i separates deepest-boundary vertices i-1 and i.  Under
the position labeling that cut takes from each boundary L the edge whose
span contains gap i, its (((i-1) >> (q-L)) + 1)-th edge, so a cut is looked
up in O(q) arithmetic.

Depths above ``MAX_DEPTH`` are refused when a ``TFractal`` is made, before
anything is allocated: a depth-q fractal has 2**(q+1) - 1 edges.
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


class _lazy:
    """An attribute derived on its first read and then stored on the
    instance, where later reads find it first; racing first reads store
    equal values.  ``cached_property`` stores through ``__dict__``, which
    costs CPython its compact attribute storage: 100k reads of a fractal's
    (graph, sigma, tau) then took 8.3 ms, against 4.0 ms this way and
    2.6 ms as fields (Python 3.11, x86-64)."""

    def __init__(self, derive):
        self.derive, self.name = derive, derive.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.derive(obj)
        object.__setattr__(obj, self.name, value)
        return value


@dataclass(frozen=True)
class TFractal:
    """The depth-q fractal as its closed form: the depth, the orientation
    and the edge cost fix the rest.  Making one checks the depth and the
    cost; ``sigma`` is 0, ``tau`` and ``leaf_count`` 2**q, ``boundaries``
    boundary i's edge indices 2**i - 1 .. 2**(i+1) - 2 as a range for
    i = 0..q, and ``graph`` is made on its first read."""

    depth: int
    directed: bool
    edge_cost: int

    def __post_init__(self) -> None:
        q, cost = self.depth, self.edge_cost
        if not (0 <= q <= MAX_DEPTH):
            raise InputError(f"fractal depth must be in 0..{MAX_DEPTH}, got {q}")
        if type(cost) is not int or cost < 1:
            raise InputError(f"edge cost must be a positive int, got {cost!r}")
        object.__setattr__(self, "directed", bool(self.directed))
        object.__setattr__(self, "sigma", 0)
        object.__setattr__(self, "tau", 1 << q)
        object.__setattr__(self, "leaf_count", 1 << q)
        object.__setattr__(self, "boundaries", tuple(
            range((1 << i) - 1, (2 << i) - 1) for i in range(q + 1)))

    def rows(self):
        """The edge rows in index order, made as they are read: bare
        (u, v) pairs at unit cost, else (u, v, cost) triples.  The columns
        are slices of one list of the vertex ids, so the edges at a vertex
        share one int object (a range makes one per edge end)."""
        q, cost = self.depth, self.edge_cost
        columns = boundary_columns(list(range((1 << q) + 1)), q)
        if cost != 1:
            columns = map(add, columns, repeat((repeat(cost),)))
        return chain.from_iterable(starmap(zip, columns))

    @_lazy
    def graph(self) -> Graph:
        """Directed, every arc points from the smaller to the larger
        position: every boundary path runs from sigma to tau, the graph is
        acyclic, and sigma has out-degree q+1 and tau in-degree q+1."""
        return Graph(self.directed, self.tau + 1, self.rows(),
                     labels={0: "sigma", self.tau: "tau"})


def boundary_columns(ids, q: int):
    """Boundary i's endpoint columns for i = 0..q, one boundary at a time:
    ``ids[0:p:s]`` and ``ids[s::s]``, s = p >> i, with ``ids`` the 2**q + 1
    vertex ids (a list, or a range whose slices stay ranges)."""
    p = 1 << q
    for i in range(q + 1):
        s = p >> i
        yield ids[0:p:s], ids[s::s]


def build_fractal(q: int, directed: bool = False, cost: int = 1) -> TFractal:
    """The depth-q fractal with its graph built, so callers pay for the
    build here rather than at a first read."""
    f = TFractal(q, directed, cost)
    f.graph
    return f


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
    # The deepest boundary's edge indices, 2**q - 1 .. 2**(q+1) - 2.
    lo = f.leaf_count - 1
    hi = 2 * lo
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
