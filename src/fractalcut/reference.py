"""The ground truth for the three length-bounded deletion problems.

The instance type, the verdict type, the predicate that replays a deletion
set, the witness check and the plain brute force over edge subsets.  They
decide each question in the form it is asked, on the graph's BFS alone, so
the searches in ``solvers`` can be checked against them.  This module
imports only ``graph`` and ``errors``, and a test pins that: nothing here
may share code with the searches it checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import InputError, ResourceBudgetError
from .graph import (Graph, UNREACHABLE, bfs_distance, distances,
                    is_strongly_connected)

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
        # bool is an int subclass, and a float passes every range check
        if type(self.k) is not int or type(self.ell) is not int:
            raise InputError(f"k and ell must be ints, got {self.k!r}, {self.ell!r}")
        if self.kind == "lbec":
            if self.s is None or self.t is None:
                raise InputError("lbec instance needs terminals s and t")
            for v in (self.s, self.t):
                if type(v) is not int or not (0 <= v < self.graph.n):
                    raise InputError(f"terminal {v!r} is not a vertex")
            if self.s == self.t:
                raise InputError("lbec terminals must be distinct")
        elif self.s is not None or self.t is not None:
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

    ``nodes`` counts the leaves of the branching tree (for the diameter
    solver: the maximum over vertex pairs), the leaves of failed subtrees
    that the brancher replays instead of searching again included; the
    brute-force solvers report the number of deletion sets tested instead,
    which the cost-aware oracle walks or, below a settled state, counts.
    """

    answer: bool
    witness: Optional[tuple[int, ...]] = None
    nodes: int = 0

    def witness_pairs(self, g: Graph) -> Optional[list[list[int]]]:
        if self.witness is None:
            return None
        return [[g.edges[i].u, g.edges[i].v] for i in self.witness]


def _girth_directed(g: Graph, dead: frozenset[int]) -> float:
    """Length of the shortest directed cycle; inf when acyclic.

    A live arc u -> v closes a cycle of dist(v, u) + 1 arcs, so one BFS
    per distinct arc head serves all of that head's in-arcs.
    """
    tails: dict[int, list[int]] = {}
    for idx, e in enumerate(g.edges):
        if idx not in dead:
            tails.setdefault(e.v, []).append(e.u)
    best = UNREACHABLE
    for v, us in tails.items():
        dist = distances(g, v, dead)
        best = min(best, min(dist[u] for u in us) + 1)
    return best


def instance_predicate(inst: ProblemInstance, deleted: Iterable[int]) -> bool:
    """Does deleting these edge indices satisfy the instance's question?

    Each question is decided in the form it is asked:

    - LBEC: the s-t hop distance is at least ell;
    - MDED: the graph stays (strongly) connected, and some vertex lies ell
      or more hops from another.  The sources are scanned in ascending id
      order and the first such source ends the scan;
    - DSCT: the girth exceeds ell.
    """
    g = inst.graph
    dead = frozenset(deleted)
    if inst.kind == "lbec":
        return bfs_distance(g, inst.s, inst.t, dead) >= inst.ell
    if inst.kind == "mded":
        # Every diameter, an empty graph's 0 included, is at least 0.
        return is_strongly_connected(g, dead) and (inst.ell <= 0 or any(
            max(distances(g, v, dead)) >= inst.ell for v in range(g.n)))
    return _girth_directed(g, dead) > inst.ell


def check_witness(inst: ProblemInstance, edges: Iterable[int]) -> bool:
    """Replay a witness: cost within budget and predicate satisfied."""
    edges = tuple(edges)
    m = len(inst.graph.edges)
    if len(set(edges)) < len(edges) or not all(
            type(i) is int and 0 <= i < m for i in edges):
        raise InputError("witness edges must be ints, distinct and in range")
    if inst.graph.total_cost(edges) > inst.k:
        return False
    return instance_predicate(inst, edges)


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
