"""Seeded random instance generators for differential testing.

Everything here is deterministic given the Random object, which is what the
verification suites and the acceptance tests rely on.
"""

from __future__ import annotations

import random

from .graph import Graph, is_strongly_connected
from .reference import ProblemInstance


def _fill(edges: set, pool, m: int) -> set:
    """Add ``pool``'s items to ``edges``, in pool order, until it holds m.
    It draws nothing: the caller shuffles the pool."""
    for item in pool:
        if len(edges) >= m:
            break
        edges.add(item)
    return edges


def _random_edge_pool(rnd: random.Random, n: int) -> list[tuple[int, int]]:
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rnd.shuffle(pool)
    return pool


def random_lbec_input(rnd: random.Random, *, n: int, m: int, k: int,
                      ell: int) -> ProblemInstance:
    """Undirected simple LBEC instance with terminals 0 and n-1.

    Always contains an s-t path so the composed checks are not vacuous.
    The caller must leave room for max(k, ell) edges, or the instance would
    land in the bad parameter class.
    """
    m = max(m, max(k, ell))  # keep the instance out of the bad class
    if m > n * (n - 1) // 2:
        raise ValueError(f"n={n} cannot carry {m} simple edges")
    edges = set()
    # backbone s-t path through a random permutation
    inner = list(range(1, n - 1))
    rnd.shuffle(inner)
    chain = [0] + inner + [n - 1]
    for a, b in zip(chain, chain[1:]):
        edges.add((min(a, b), max(a, b)))
    _fill(edges, _random_edge_pool(rnd, n), m)
    g = Graph(False, n, sorted(edges))
    return ProblemInstance("lbec", g, s=0, t=n - 1, k=k, ell=ell)


def random_uncuttable_lbec_input(rnd: random.Random, *, n: int, m: int,
                                 k: int, ell: int) -> ProblemInstance:
    """Connected LBEC instance whose terminal min-cut exceeds k.

    Starts from k+1 internally disjoint s-t paths (one direct edge plus
    two-hop paths through distinct interiors), attaches any leftover
    vertices, then fills with random edges.  Needs n >= k + 2.
    """
    if n < k + 2:
        raise ValueError(f"n={n} too small for min-cut > k={k}")
    s, t = 0, n - 1
    edges = {(s, t)}
    interiors = list(range(1, n - 1))
    for v in interiors[:k]:
        edges.add((s, v))
        edges.add((v, t))
    for v in interiors[k:]:
        anchor = rnd.choice([s, t] + interiors[:k])
        edges.add((min(v, anchor), max(v, anchor)))
    m = max(m, max(k, ell), len(edges))
    if m > n * (n - 1) // 2:
        raise ValueError(f"n={n} cannot carry {m} simple edges")
    _fill(edges, _random_edge_pool(rnd, n), m)
    g = Graph(False, n, sorted(edges))
    return ProblemInstance("lbec", g, s=s, t=t, k=k, ell=ell)


def random_dag_lbec_input(rnd: random.Random, *, n: int, m: int, k: int,
                          ell: int) -> ProblemInstance:
    """Planar-by-construction DAG with source 0 and sink n-1.

    Arcs go forward along the vertex order and skip at most two positions
    (a path drawn on a line with short non-nested hops stays planar); the
    source reaches every vertex and every vertex reaches the sink.
    """
    m = max(m, max(k, ell))
    if m > 2 * n - 3:
        raise ValueError(f"n={n} cannot carry {m} short forward arcs")
    edges = {(i, i + 1) for i in range(n - 1)}
    pool = [(i, i + 2) for i in range(n - 2)]
    rnd.shuffle(pool)
    _fill(edges, pool, m)
    g = Graph(True, n, sorted(edges))
    return ProblemInstance("lbec", g, s=0, t=n - 1, k=k, ell=ell)


def random_solver_instance(rnd: random.Random, kind: str,
                           n_max: int = 8, k_max: int = 3,
                           ell_max: int = 5) -> ProblemInstance:
    """Random non-bad instance for solver/oracle agreement checks."""
    n = rnd.randint(3, n_max)
    k = rnd.randint(0, k_max)
    ell = rnd.randint(0, ell_max)

    def pick_m(lo: int, cap: int) -> int:
        lo = min(max(lo, 1), cap)
        return rnd.randint(lo, max(lo, min(cap, 2 * n)))

    if kind == "lbec":
        directed = rnd.random() < 0.5
        lo = max(k, ell, n - 1)
        if directed:
            cap = n * (n - 1)
            while cap < max(k, ell):
                n += 1
                cap = n * (n - 1)
            arcs = {(i, i + 1) for i in range(n - 1)}
            pool = [(u, v) for u in range(n) for v in range(n) if u != v]
            rnd.shuffle(pool)
            _fill(arcs, pool, pick_m(lo, cap))
            g = Graph(True, n, sorted(arcs))
        else:
            while n * (n - 1) // 2 < max(k, ell):
                n += 1
            inst = random_lbec_input(
                rnd, n=n, m=pick_m(max(k, ell, n - 1), n * (n - 1) // 2),
                k=k, ell=ell)
            g = inst.graph
        return ProblemInstance(kind, g, s=0, t=n - 1, k=k, ell=ell)

    if kind == "mded":
        directed = rnd.random() < 0.5
        if directed:
            # cycle backbone keeps it strongly connected
            while n * (n - 1) < max(k, ell, n):
                n += 1
            arcs = {(i, (i + 1) % n) for i in range(n)}
            pool = [(u, v) for u in range(n) for v in range(n) if u != v]
            rnd.shuffle(pool)
            _fill(arcs, pool, pick_m(max(k, ell, n), n * (n - 1)))
            g = Graph(True, n, sorted(arcs))
            assert is_strongly_connected(g)
        else:
            while n * (n - 1) // 2 < max(k, ell, n - 1):
                n += 1
            # The backbone path touches every vertex, so it is connected.
            inst = random_lbec_input(
                rnd, n=n, m=pick_m(max(k, ell, n - 1), n * (n - 1) // 2),
                k=k, ell=ell)
            g = inst.graph
        return ProblemInstance(kind, g, k=k, ell=ell)

    if kind == "dsct":
        while n * (n - 1) < max(k, ell, n):
            n += 1
        # 2- and 3-cycles sprinkled over random arcs keep girth interesting
        pool = [(u, v) for u in range(n) for v in range(n) if u != v]
        rnd.shuffle(pool)
        arcs = _fill(set(), pool, pick_m(max(k, ell, n), n * (n - 1)))
        g = Graph(True, n, sorted(arcs))
        return ProblemInstance(kind, g, k=k, ell=ell)

    raise ValueError(f"unknown kind {kind}")
