"""Property suites: machine checks for the structural facts the package
builds on, for solver/oracle agreement, and for composition/reduction
soundness.  Each check returns a CheckResult; the CLI prints them as a
table and the acceptance tests assert them at their full regimes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .composer import compose
from .fixtures import VC_FIXTURES
from .fractal import build_fractal, cut_for_instance, enumerate_min_cuts, selected_instance
from .generators import (random_dag_lbec_input, random_lbec_input,
                         random_solver_instance, random_uncuttable_lbec_input)
from .graph import (UNREACHABLE, bfs_distance, distances, is_edge_cut,
                    is_minimal_edge_cut, is_strongly_connected, min_cut)
from .reducer import reduce_vc_to_planar_lbec, solve_vc_bruteforce
from .solvers import (check_witness, solve_bruteforce,
                      solve_bruteforce_costaware, solve_fpt)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


def _result(name: str, failures: list[str], detail: str) -> CheckResult:
    if failures:
        return CheckResult(name, False, "; ".join(failures[:5]))
    return CheckResult(name, True, detail)


# -- fractal structure -------------------------------------------------------


def _boundary_is_terminal_path(f, boundary) -> bool:
    """The boundary's edges, in stored order, must walk from sigma to tau."""
    at = f.sigma
    for idx in boundary:
        e = f.graph.edges[idx]
        if e.u == at:
            at = e.v
        elif e.v == at and not f.graph.directed:
            at = e.u
        else:
            return False
    return at == f.tau


def _marked_edge_rounds(q: int) -> list[tuple[int, int]]:
    """The paper's construction of the depth-q fractal, as the reference for
    ``build_fractal``: from the marked edge (sigma, tau), q rounds that each
    erect a triangle on every marked edge, whose two fresh edges are the
    next round's marked edges.  The edges come out round by round, each
    round left to right, which is the library's index order."""
    marked = [(0, 1 << q)]
    edges = list(marked)
    for _ in range(q):
        marked = [half for a, b in marked
                  for half in ((a, (a + b) // 2), ((a + b) // 2, b))]
        edges += marked
    return edges


def check_fractal_formulas(q_max: int = 10) -> CheckResult:
    failures = []
    for q in range(q_max + 1):
        for directed in (False, True):
            f = build_fractal(q, directed=directed)
            g = f.graph
            p = 1 << q
            if g.n != p + 1:
                failures.append(f"q={q}: vertex count {g.n} != {p + 1}")
            if len(g.edges) != 2 * p - 1:
                failures.append(f"q={q}: edge count {len(g.edges)} != {2 * p - 1}")
            # The graph is built from the closed form; the rounds are a
            # reference independent of it.  Edge indices are part of the
            # canonical form, so the order is compared too.
            if [(e.u, e.v) for e in g.edges] != _marked_edge_rounds(q):
                failures.append(f"q={q}: edge list differs from the marked-edge rounds")
            sizes = [len(b) for b in f.boundaries]
            if sizes != [1 << i for i in range(q + 1)]:
                failures.append(f"q={q}: boundary sizes {sizes}")
            if sorted(i for b in f.boundaries for i in b) != list(range(len(g.edges))):
                failures.append(f"q={q}: boundaries do not partition the edges")
                continue  # the path checks below would index past the edges
            for i, b in enumerate(f.boundaries):
                if not _boundary_is_terminal_path(f, b):
                    failures.append(f"q={q}: boundary {i} is not a sigma-tau path")
            if not directed:
                degs = [g.degree(v) for v in range(g.n)]
                want = 2 * q if q > 0 else 1
                if max(degs) != want:
                    failures.append(f"q={q}: max degree {max(degs)} != {want}")
            else:
                if g.in_degree(f.sigma) != 0 or len(g.out_neighbors(f.sigma)) != q + 1:
                    failures.append(f"q={q}: sigma degrees wrong in directed fractal")
                if len(g.out_neighbors(f.tau)) != 0 or g.in_degree(f.tau) != q + 1:
                    failures.append(f"q={q}: tau degrees wrong in directed fractal")
    return _result("fractal counting formulas", failures,
                   f"q = 0..{q_max}, undirected and directed")


def check_directed_fractal_acyclic(q_max: int = 8) -> CheckResult:
    failures = []
    for q in range(q_max + 1):
        f = build_fractal(q, directed=True)
        # position labeling orients every arc upward, so a topological order
        # is the identity; verify rather than assume.
        if any(e.u >= e.v for e in f.graph.edges):
            failures.append(f"q={q}: arc against the position order")
        if q >= 1 and is_strongly_connected(f.graph):
            failures.append(f"q={q}: directed fractal must not be strongly connected")
    return _result("directed fractal acyclic", failures, f"q = 0..{q_max}")


def check_min_cut_suite(q_max: int = 7, exhaustive_q_max: int = 4) -> CheckResult:
    failures = []
    for q in range(q_max + 1):
        f = build_fractal(q)
        g, s, t = f.graph, f.sigma, f.tau
        cuts = enumerate_min_cuts(f)
        if len(cuts) != 1 << q:
            failures.append(f"q={q}: {len(cuts)} cuts != {1 << q}")
        seen = set()
        for i, cert in enumerate(cuts, start=1):
            if len(cert.edges) != q + 1:
                failures.append(f"q={q}: cut {i} has {len(cert.edges)} edges")
            for b in f.boundaries:
                if len(set(cert.edges) & set(b)) != 1:
                    failures.append(f"q={q}: cut {i} misses a boundary")
            if cert.edges in seen:
                failures.append(f"q={q}: duplicate cut {i}")
            seen.add(cert.edges)
            if not is_minimal_edge_cut(g, s, t, cert.edges):
                failures.append(f"q={q}: cut {i} not a minimal disconnecting set")
            if selected_instance(f, cert) != i:
                failures.append(f"q={q}: selector round-trip failed at {i}")
        flow = min_cut(g, s, t)
        if flow.total_cost != q + 1:
            failures.append(f"q={q}: max-flow value {flow.total_cost} != {q + 1}")
        if q <= exhaustive_q_max:
            # The minimum cut has q+1 edges, so the minimal cuts of that size
            # are exactly the disconnecting (q+1)-subsets.
            m = len(g.edges)
            found = {c for c in itertools.combinations(range(m), q + 1)
                     if is_edge_cut(g, s, t, c)}
            if found != seen:
                failures.append(f"q={q}: exhaustive cut enumeration differs")
    return _result("minimum cut enumeration", failures,
                   f"q = 0..{q_max}, exhaustive to q = {exhaustive_q_max}")


def check_distance_split(q_max: int = 6) -> CheckResult:
    failures = []
    for q in range(q_max + 1):
        for directed in (False, True):
            f = build_fractal(q, directed=directed)
            g = f.graph
            deepest = set(f.boundaries[-1])
            for i, cert in enumerate(enumerate_min_cuts(f), start=1):
                dead = frozenset(cert.edges)
                (bq,) = [e for e in cert.edges if e in deepest]
                x, y = g.edges[bq].u, g.edges[bq].v  # x = i-1 < y = i
                dx = bfs_distance(g, f.sigma, x, dead)
                dy = bfs_distance(g, y, f.tau, dead)
                if dx + dy != q:
                    failures.append(
                        f"q={q} dir={directed} cut {i}: {dx}+{dy} != {q}")
    return _result("distance split at minimum cuts", failures,
                   f"q = 0..{q_max}, undirected and directed")


def check_short_path(exhaustive_q: int = 3, d_max: int = 4,
                     random_q: int = 4, samples: int = 100_000,
                     seed: int = 20240801) -> CheckResult:
    failures = []

    def verify(f, dead) -> bool:
        dist = bfs_distance(f.graph, f.sigma, f.tau, frozenset(dead))
        return dist == UNREACHABLE or dist <= len(dead) + 1

    for q in range(exhaustive_q + 1):
        for directed in (False, True):
            f = build_fractal(q, directed=directed)
            m = len(f.graph.edges)
            for size in range(0, min(d_max, m) + 1):
                for dead in itertools.combinations(range(m), size):
                    if not verify(f, dead):
                        failures.append(f"q={q} dir={directed} D={dead}")
    rnd = random.Random(seed)
    for directed in (False, True):
        f = build_fractal(random_q, directed=directed)
        m = len(f.graph.edges)
        for _ in range(samples):
            size = rnd.randint(0, min(8, m))
            dead = rnd.sample(range(m), size)
            if not verify(f, dead):
                failures.append(f"q={random_q} dir={directed} D={sorted(dead)}")
    return _result("short-path bound |D|+1", failures,
                   f"exhaustive q <= {exhaustive_q} |D| <= {d_max}, "
                   f"{samples} random per variant at q = {random_q}")


def check_connectivity_bounds(q_max: int = 4, d_max: int = 3) -> CheckResult:
    failures = []
    for q in range(q_max + 1):
        f = build_fractal(q)
        g = f.graph
        m = len(g.edges)
        for size in range(0, min(d_max, m) + 1):
            for dead in itertools.combinations(range(m), size):
                frozen = frozenset(dead)
                from_sigma = distances(g, f.sigma, frozen)
                if UNREACHABLE not in from_sigma:
                    bound = q + size + 1
                    if any(d > bound for d in from_sigma):
                        failures.append(f"(A) q={q} D={dead}")
                    continue
                if from_sigma[f.tau] == UNREACHABLE:
                    # With sigma and tau apart, there are exactly two
                    # components when every vertex is reached from one.
                    bound = q + size - 1
                    nearest = [min(a, b) for a, b in
                               zip(from_sigma, distances(g, f.tau, frozen))]
                    if UNREACHABLE not in nearest and max(nearest) > bound:
                        failures.append(f"(B) q={q} D={dead}")
    return _result("connectivity distance bounds", failures,
                   f"exhaustive q <= {q_max}, |D| <= {d_max}")


def check_directed_reachability(q_max: int = 4, d_max: int = 3) -> CheckResult:
    failures = []
    for q in range(q_max + 1):
        f = build_fractal(q, directed=True)
        g = f.graph
        m = len(g.edges)
        for size in range(0, min(d_max, m) + 1):
            for dead in itertools.combinations(range(m), size):
                frozen = frozenset(dead)
                bound = q + size + 1
                for x, d in enumerate(distances(g, f.sigma, frozen)):
                    if d != UNREACHABLE and d > bound:
                        failures.append(f"q={q} D={dead} x={x}")
    return _result("directed reachability bound", failures,
                   f"exhaustive q <= {q_max}, |D| <= {d_max}")


def lemma_suite(q_max: int = 6, samples: int = 100_000) -> list[CheckResult]:
    return [
        check_fractal_formulas(max(q_max, 10)),
        check_directed_fractal_acyclic(8),
        check_min_cut_suite(min(q_max + 1, 7), exhaustive_q_max=4),
        check_distance_split(q_max),
        check_short_path(3, 4, 4, samples),
        check_connectivity_bounds(4, 3),
        check_directed_reachability(4, 3),
    ]


# -- solvers ------------------------------------------------------------------


def check_solver_agreement(kind: str, trials: int = 200,
                           seed: int = 7011) -> CheckResult:
    rnd = random.Random(seed)
    failures = []
    for trial in range(trials):
        inst = random_solver_instance(rnd, kind)
        fpt = solve_fpt(inst)
        brute = solve_bruteforce(inst)
        if fpt.answer != brute.answer:
            failures.append(f"{kind} trial {trial}: fpt={fpt.answer} "
                            f"brute={brute.answer}")
            continue
        for verdict, tag in ((fpt, "fpt"), (brute, "brute")):
            if verdict.answer and not check_witness(inst, verdict.witness):
                failures.append(f"{kind} trial {trial}: {tag} witness replay failed")
        limit = _branch_limit(kind, inst.k, inst.ell)
        if fpt.nodes > limit:
            failures.append(f"{kind} trial {trial}: {fpt.nodes} nodes > {limit}")
    return _result(f"solver agreement [{kind}]", failures,
                   f"{trials} seeded instances, witnesses replayed")


def _branch_limit(kind: str, k: int, ell: int) -> int:
    if kind == "dsct":
        return ell ** k if ell >= 1 else 0
    return (ell - 1) ** k if ell >= 2 else 0


# -- compositions -------------------------------------------------------------


def _make_inputs(rnd, p: int, k: int, ell: int, flavor: str, n_hi: int,
                 m_slack: int = 2):
    # n = 3 has room for only three simple edges (or short forward arcs),
    # so ell = 4 classes need n >= 4 to stay out of the bad class.
    n_lo = 3 if max(k, ell) <= 3 else 4
    if flavor == "uncuttable":
        n_lo = max(n_lo, k + 2)
    out = []
    for _ in range(p):
        n = rnd.randint(n_lo, max(n_lo, n_hi))
        cap = 2 * n - 3 if flavor == "dag" else n * (n - 1) // 2
        lo = max(k, ell, n - 1)
        if flavor == "uncuttable":
            lo = max(lo, 2 * k + 1)
        m = rnd.randint(lo, max(min(n + m_slack, cap), lo))
        if flavor == "undirected":
            out.append(random_lbec_input(rnd, n=n, m=m, k=k, ell=ell))
        elif flavor == "uncuttable":
            out.append(random_uncuttable_lbec_input(rnd, n=n, m=m, k=k, ell=ell))
        elif flavor == "dag":
            out.append(random_dag_lbec_input(rnd, n=n, m=m, k=k, ell=ell))
        else:
            raise ValueError(flavor)
    return out


_INPUT_FLAVOR = {"lbec-und": "undirected", "lbec-dag": "dag", "dsct": "dag",
                 "mded-und": "uncuttable", "mded-dir": "dag"}


def or_composition_trial(rnd, flavor: str, p: int, k: int, ell: int,
                         n_hi: int, check_simple: bool, m_slack: int = 2):
    """One seeded trial: composed verdict must equal the OR of input verdicts,
    and a yes must come with a witness that replays on the composed instance.

    Returns a failure string or None.
    """
    inputs = _make_inputs(rnd, p, k, ell, _INPUT_FLAVOR[flavor], n_hi, m_slack)
    expected = any(solve_bruteforce(i).answer for i in inputs)
    problem = flavor.split("-")[0]
    for mode in ("weighted", "simple") if check_simple else ("weighted",):
        art = compose(problem, inputs, mode)
        got = solve_bruteforce_costaware(art.composed)
        if got.answer != expected:
            return (f"{flavor} p={p} k={k} ell={ell}: {mode} verdict "
                    f"{got.answer} != OR {expected}")
        if got.answer and not check_witness(art.composed, got.witness):
            return f"{flavor} p={p} k={k} ell={ell}: {mode} witness replay failed"
    return None


def check_or_composition(flavor: str, trials: int, seed: int) -> CheckResult:
    """Seeded OR-correctness trials for one composer.

    Trial shapes stay inside the regime n <= 5, k <= 2, ell in {3, 4}; the
    exhaustive oracle dictates where the larger parameters can run: p = 4
    pairs with k = 1, because at k = 2 the only inputs small enough to keep
    the budget-14 enumeration under about 10**6 states are ones whose
    terminal cut is within budget, which makes every input trivially yes.
    Simple mode is checked on k = 1 trials plus periodic k = 2 trials at
    p = 2 for the cut problems.
    """
    rnd = random.Random(seed)
    failures = []
    for trial in range(trials):
        ell = rnd.choice((3, 4))
        if flavor in ("lbec-und", "lbec-dag", "dsct"):
            p = 2 if trial % 2 == 0 else 4
            k = rnd.choice((1, 2)) if p == 2 else 1
            # p = 4 quadruples the instance edges in the exhaustive oracle's
            # universe, so those trials sample leaner inputs (m <= n).
            n_hi, m_slack = 5, 2 if p == 2 else 0
            check_simple = k == 1 or (p == 2 and trial % 10 == 1)
        elif flavor == "mded-und":
            p = 2
            k = 2 if trial % 10 < 3 else 1
            n_hi = 5 if k == 1 else 4
            m_slack = 2 if k == 1 else 0
            check_simple = k == 1
        else:  # mded-dir
            p, k = 2, 1
            n_hi, m_slack = 4, 1
            check_simple = trial % 5 == 0
        fail = or_composition_trial(rnd, flavor, p, k, ell, n_hi, check_simple,
                                    m_slack)
        if fail:
            failures.append(f"trial {trial}: {fail}")
    return _result(f"or-composition [{flavor}]", failures,
                   f"{trials} seeded trials, weighted + simple spot checks")


def check_selector_soundness(q_max: int = 4) -> CheckResult:
    """Deleting the cut that selects gap i must route every surviving
    sigma-tau connection through input i's embedded subgraph."""
    failures = []
    for q in range(q_max + 1):
        p = 1 << q
        rnd = random.Random(1000 + q)
        inputs = _make_inputs(rnd, p, 1, 3, "undirected", 4)
        art = compose("lbec", inputs)
        g = art.composed.graph
        for i in range(1, p + 1):
            cert = cut_for_instance(art.fractal, i)
            dead = frozenset(cert.edges)  # fractal indices are composed indices
            if bfs_distance(g, 0, p, dead) == UNREACHABLE:
                failures.append(f"q={q} gap {i}: terminals fully cut")
                continue
            lo, hi = art.edge_ranges[i - 1]
            without_i = dead | frozenset(range(lo, hi))
            if bfs_distance(g, 0, p, without_i) != UNREACHABLE:
                failures.append(f"q={q} gap {i}: a path avoids input {i}")
            # the cut's deepest edge separates i-1 (sigma side) from i
            if bfs_distance(g, 0, i - 1, dead) == UNREACHABLE:
                failures.append(f"q={q} gap {i}: vertex {i - 1} not on sigma side")
            if bfs_distance(g, i, p, dead) == UNREACHABLE:
                failures.append(f"q={q} gap {i}: vertex {i} not on tau side")
    return _result("selector soundness", failures, f"q = 0..{q_max}, all gaps")


def composition_suite(trials: int = 50, seed: int = 424242) -> list[CheckResult]:
    return [
        check_or_composition("lbec-und", trials, seed),
        check_or_composition("lbec-dag", trials, seed + 1),
        check_or_composition("dsct", trials, seed + 2),
        check_or_composition("mded-und", trials, seed + 3),
        check_or_composition("mded-dir", trials, seed + 4),
        check_selector_soundness(4),
    ]


# -- reductions ---------------------------------------------------------------


def check_reductions(ks=(2, 3)) -> CheckResult:
    failures = []
    for fx in VC_FIXTURES:
        for k in ks:
            inst = fx.instance(k)
            expected = solve_vc_bruteforce(inst)
            if expected != (fx.min_cover <= k):
                failures.append(f"{fx.name} k={k}: frozen cover size wrong")
            reduced = reduce_vc_to_planar_lbec(inst, fx.embedding())
            n = fx.n
            if reduced.k != 2 * k:
                failures.append(f"{fx.name} k={k}: budget {reduced.k} != {2 * k}")
            if reduced.ell != k * 2 * k + (n - k) * (2 * k - 1):
                failures.append(f"{fx.name} k={k}: threshold {reduced.ell} wrong")
            got = solve_fpt(reduced)
            if got.answer != expected:
                failures.append(f"{fx.name} k={k}: reduced verdict {got.answer} "
                                f"!= cover verdict {expected}")
            if got.answer and not check_witness(reduced, got.witness):
                failures.append(f"{fx.name} k={k}: witness replay failed")
    return _result("vertex-cover reduction soundness", failures,
                   f"{len(VC_FIXTURES)} fixtures, k in {tuple(ks)}")


def reduction_suite() -> list[CheckResult]:
    return [check_reductions()]
