"""The four benchmark workloads.

Each workload has a fixed *pool* of item keys.  A key names one item
completely: ``build`` turns it into ready inputs during set-up, and ``run``
executes it against the library's public API through a tracer and returns
``(ok, outcome)``.  ``ok`` is the item's own correctness check; ``outcome``
is the (answer, witness, nodes)-style tuple whose hash is compared with the
fingerprint recorded in ``pool.json``.  The run's seed only chooses which
pool items make up the item list (see ``run.select``), so every item a seed
can pick has a recorded fingerprint.

``flip`` negates the item's benchmark-side expected answer; the self-test
uses it to show that a wrong expectation is caught.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import random
from dataclasses import dataclass
from math import comb
from typing import Callable, Optional

from fractalcut import cli
from fractalcut.composer import compose_dsct, compose_lbec, compose_mded
from fractalcut.fixtures import VC_FIXTURES
from fractalcut.fractal import build_fractal, enumerate_min_cuts, selected_instance
from fractalcut.graph import Graph, is_connected, min_cut
from fractalcut.reducer import reduce_vc_to_planar_lbec
from fractalcut.serialize import fractal_to_dot, parse, to_dimacs, to_json
from fractalcut.solvers import (ProblemInstance, check_witness,
                                solve_bruteforce, solve_bruteforce_costaware,
                                solve_fpt)
from fractalcut import verify

# The brute force's default subset budget; the benchmark never passes a
# budget of its own, and generated items above it are not re-decided.
MAX_SUBSETS = inspect.signature(solve_bruteforce).parameters["max_subsets"].default


@dataclass(frozen=True)
class Workload:
    name: str
    pool: Callable[[], list[str]]
    picks: object   # items per list, or "class": one item of every work class
    build: Callable[[str], object]
    run: Callable[[object, object, bool], tuple[bool, tuple]]
    # Post-pass ground truth: (items by key, outcomes by key, flipped key)
    # -> keys that failed it.  Runs outside the timed passes.
    ground_truth: Optional[Callable[[dict, dict, Optional[str]], list[str]]] = None
    # (key, outcome) -> work class; with picks "class" the list takes one item
    # of every class, so each seed does the same kind of work on other inputs.
    # Items without a class are never picked.
    work_class: Optional[Callable[[str, tuple], Optional[str]]] = None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _verdict(v) -> tuple:
    return (v.answer, v.witness, v.nodes)


def _states(v) -> dict:
    return {"states": v.nodes}


def _subsets(v) -> dict:
    return {"subsets": v.nodes}


def _edges_out(art) -> dict:
    return {"edges_out": len(art.composed.graph.edges)}


# -- OR-composition trials ----------------------------------------------------
#
# The acceptance suite's criterion-5 trial shapes (the per-trial table of
# ``verify.check_or_composition``), one pool item per trial index, each drawn
# from its own Random so any subset can be rebuilt alone; inputs come from
# the suite's own generator.


def _trial_shape(flavor: str, i: int, rnd: random.Random):
    ell = rnd.choice((3, 4))
    if flavor in ("lbec-und", "lbec-dag", "dsct"):
        p = 2 if i % 2 == 0 else 4
        k = rnd.choice((1, 2)) if p == 2 else 1
        n_hi, m_slack = 5, (2 if p == 2 else 0)
        simple = k == 1 or (p == 2 and i % 10 == 1)
    elif flavor == "mded-und":
        p, k = 2, (2 if i % 10 < 3 else 1)
        n_hi, m_slack = (5, 2) if k == 1 else (4, 0)
        simple = k == 1
    else:  # mded-dir
        p, k, n_hi, m_slack = 2, 1, 4, 1
        simple = i % 5 == 0
    return p, k, ell, n_hi, m_slack, simple


def _compose_pool(flavors, size):
    def pool():
        return [f"{fl}/{i}" for fl in flavors for i in range(size)]
    return pool


def _compose_build(key: str):
    flavor, i = key.split("/")
    rnd = random.Random(f"compose/{key}")
    p, k, ell, n_hi, m_slack, simple = _trial_shape(flavor, int(i), rnd)
    inputs = verify._make_inputs(rnd, p, k, ell, verify._INPUT_FLAVOR[flavor],
                                 n_hi, m_slack)
    return flavor, inputs, simple


def _compose_run(item, tr, flip):
    flavor, inputs, simple = item
    problem = flavor.split("-")[0]
    verdicts = [tr.call("solvers.solve_bruteforce", _subsets,
                        solve_bruteforce, x) for x in inputs]
    expected = any(v.answer for v in verdicts) != flip
    ok = True
    outcome = [tuple(_verdict(v) for v in verdicts)]
    for mode in ("weighted", "simple") if simple else ("weighted",):
        if problem == "lbec":
            art = tr.call("composer.compose_lbec", _edges_out,
                          compose_lbec, inputs, mode=mode)
        elif problem == "dsct":
            art = tr.call("composer.compose_dsct", _edges_out,
                          compose_dsct, inputs, mode=mode)
        else:
            art = tr.call("composer.compose_mded", _edges_out, compose_mded,
                          inputs, directed=flavor == "mded-dir", mode=mode)
        got = tr.call(f"solvers.solve_bruteforce_costaware.{problem}", _states,
                      solve_bruteforce_costaware, art.composed)
        ok = ok and got.answer == expected
        if got.answer:
            ok = ok and tr.call("solvers.check_witness", None, check_witness,
                                art.composed, got.witness)
        outcome.append((mode,) + _verdict(got))
    return ok, tuple(outcome)


def _oracle_states(key: str, outcome: tuple) -> Optional[str]:
    """Class of a trial: its flavour and oracle state counts per mode.  The
    simple-mode spot check of a trial whose weighted search passes 1,000
    states gets no class and stays out of the lists: it would double the
    list's heaviest item, and so halve the passes a run can repeat, while
    the trial's weighted-only twins keep the seconds-long search in."""
    states = [o[3] for o in outcome[1:]]
    if len(states) > 1 and states[0] >= 1000:
        return None
    return key.split("/")[0] + ":" + "/".join(map(str, states))


# -- branching solvers --------------------------------------------------------


def _leaf_bound(inst: ProblemInstance) -> int:
    """Golovach-Thilikos branching bounds: ell**k for DSCT, (ell-1)**k else."""
    return verify._branch_limit(inst.kind, inst.k, inst.ell)


def _leaves(inst):
    bound = _leaf_bound(inst)

    def measure(v):
        return {"leaves": v.nodes,
                "leaf_bound_ratio": v.nodes / bound if bound else 0.0}
    return measure


def _subset_count(inst: ProblemInstance) -> int:
    m = len(inst.graph.edges)
    return sum(comb(m, i) for i in range(min(inst.k, m) + 1))


def _layered_lbec(k, w, layers, extra):
    """s, then ``layers`` layers of width w with complete bipartite joins,
    then t: dist(s, t) = layers + 1 and the s-t min cut is w."""
    n = 2 + layers * w
    s, t = 0, n - 1
    layer = [list(range(1 + j * w, 1 + (j + 1) * w)) for j in range(layers)]
    edges = [(s, v) for v in layer[0]] + [(v, t) for v in layer[-1]]
    for a, b in zip(layer, layer[1:]):
        edges += [(u, v) for u in a for v in b]
    return ProblemInstance("lbec", Graph(False, n, sorted(edges)), s=s, t=t,
                           k=k, ell=layers + 1 + extra)


def _dense_instance(kind: str, heavy: bool, rnd: random.Random) -> ProblemInstance:
    """Seeded dense instance.  Light ones keep the brute force's subset count
    in the thousands; heavy ones push it past the default budget and give
    the brancher thousands of leaves.  Either mixes yes-instances (often
    decided by the min-cut shortcut) with no-instances that exhaust the
    branching tree."""
    if kind == "lbec":
        if heavy:
            k = 7
            return _layered_lbec(k, rnd.randint(k, k + 2), 2,
                                 rnd.randint(1, 2))
        k = rnd.randint(2, 4)
        w, length = rnd.randint(k, k + 2), rnd.randint(3, 4)
        n = 2 + w * (length - 1)
        edges, nxt = [], 1
        for _ in range(w):
            chain = [0] + list(range(nxt, nxt + length - 1)) + [n - 1]
            nxt += length - 1
            edges += [tuple(sorted(e)) for e in zip(chain, chain[1:])]
        return ProblemInstance("lbec", Graph(False, n, sorted(edges)), s=0,
                               t=n - 1, k=k, ell=length + 2)
    if kind == "mded":
        n, k = (11, 6) if heavy else (rnd.randint(5, 6), rnd.randint(2, 4))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        while True:
            edges = sorted(rnd.sample(pairs, len(pairs) - rnd.randint(0, 2)))
            g = Graph(False, n, edges)
            if is_connected(g):
                break
        return ProblemInstance("mded", g, k=k, ell=3 if heavy else rnd.randint(3, 4))
    if heavy:
        # a random tournament: no 2-cycles, so every branching step
        # splits over the arcs of a cycle of length 3 or more
        n = 10
        edges = sorted((u, v) if rnd.random() < 0.5 else (v, u)
                       for u in range(n) for v in range(u + 1, n))
        return ProblemInstance("dsct", Graph(True, n, edges), k=7,
                               ell=rnd.randint(3, 4))
    n, k = rnd.randint(4, 5), rnd.randint(2, 4)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = sorted(rnd.sample(pairs, len(pairs) - rnd.randint(0, 3)))
    return ProblemInstance("dsct", Graph(True, n, edges), k=k,
                           ell=rnd.randint(2, 3))


_FPT_GEN_POOL = {"light": 20, "heavy": 10}


def _fpt_pool():
    keys = [f"vc/{fx.name}/{k}" for fx in VC_FIXTURES for k in (2, 3)]
    for kind in ("lbec", "mded", "dsct"):
        for size, count in _FPT_GEN_POOL.items():
            keys += [f"gen/{kind}/{size}/{i}" for i in range(count)]
    return keys


def _fpt_build(key: str):
    parts = key.split("/")
    if parts[0] == "vc":
        fx = next(f for f in VC_FIXTURES if f.name == parts[1])
        k = int(parts[2])
        return ("vc", fx, k, fx.instance(k), fx.embedding())
    _, kind, size, _ = parts
    return ("gen", _dense_instance(kind, size == "heavy",
                                   random.Random(f"fpt/{key}")))


def _fpt_run(item, tr, flip):
    if item[0] == "vc":
        _, fx, k, vc, emb = item
        inst = tr.call("reducer.reduce_vc_to_planar_lbec",
                       lambda r: {"edges_out": len(r.graph.edges)},
                       reduce_vc_to_planar_lbec, vc, emb)
        expected = (fx.min_cover <= k) != flip
    else:
        inst, expected = item[1], None
    v = tr.call(f"solvers.solve_fpt.{inst.kind}", _leaves(inst), solve_fpt, inst)
    ok = v.nodes <= _leaf_bound(inst)
    if expected is not None:
        ok = ok and v.answer == expected
    if v.answer:
        ok = ok and tr.call("solvers.check_witness", None, check_witness,
                            inst, v.witness)
    return ok, _verdict(v)


def _fpt_class(key: str, outcome: tuple) -> str:
    """Fixture items are classes of their own; generated ones are classed by
    kind, size and leaves explored."""
    if key.startswith("vc/"):
        return key
    return f"{key.rsplit('/', 1)[0]}:{outcome[2]}"


def _fpt_ground_truth(items, outcomes, flipped):
    """Generated items whose subset count fits the brute force's default
    budget are decided again by it; the answers must agree."""
    failed = []
    for key, item in items.items():
        if item[0] != "gen" or key not in outcomes:
            continue
        inst = item[1]
        if _subset_count(inst) > MAX_SUBSETS:
            continue
        expected = solve_bruteforce(inst).answer != (key == flipped)
        if outcomes[key][0] != expected:
            failed.append(key)
    return failed


# -- selector: fractals, cuts, serialization, CLI, lemma checks ---------------

# Lemma checks at desk-scale regimes; only the short-path check samples,
# so only its pool varies (by sampling seed).
_VERIFY_CHECKS = {
    "check_short_path": (6, lambda s: verify.check_short_path(3, 4, 4, 4000, seed=s)),
    "check_distance_split": (1, lambda s: verify.check_distance_split(6)),
    "check_connectivity_bounds": (1, lambda s: verify.check_connectivity_bounds(3, 3)),
    "check_directed_reachability": (1, lambda s: verify.check_directed_reachability(4, 2)),
    "check_min_cut_suite": (1, lambda s: verify.check_min_cut_suite(6, 3)),
}


def _selector_pool():
    """Keys are CLASS/VARIANT; the variants of a class (orientation, cost,
    sampling seed) do the same amount of work."""
    keys = ["build/16/0.1", "gen/16/json/0"]
    keys += [f"build/{q}/{d}.{c}" for q in (6, 8, 10, 12, 14)
             for d in (0, 1) for c in (1, 2)]
    keys += [f"mincut/{q}/{d}" for q in (6, 9, 12) for d in (0, 1)]
    keys += [f"cuts/{q}/{d}" for q in (4, 7, 10) for d in (0, 1)]
    keys += [f"serialize/{q}/{d}" for q in (8, 11, 13) for d in (0, 1)]
    keys += [f"gen/{q}/{fmt}/{d}" for q in (6, 9, 12)
             for fmt in ("json", "dot", "dimacs") for d in (0, 1)]
    keys += [f"verify/{name}/{s}" for name, (n, _) in _VERIFY_CHECKS.items()
             for s in range(n)]
    return keys


def _selector_class(key: str, outcome: tuple) -> str:
    return key.rsplit("/", 1)[0]


def _selector_build(key: str):
    parts = key.split("/")
    kind = parts[0]
    if kind in ("mincut", "cuts", "serialize"):
        return (kind, build_fractal(int(parts[1]), directed=parts[2] == "1"))
    return tuple(parts)


def _selector_run(item, tr, flip):
    kind = item[0]
    if kind == "build":
        d, c = item[2].split(".")
        q, directed, cost = int(item[1]), d == "1", int(c)
        f = tr.call("fractal.build_fractal", None, build_fractal, q,
                    directed=directed, cost=cost)
        g = f.graph
        ok = (g.n == (1 << q) + 1 and len(g.edges) == (2 << q) - 1) != flip
        return ok, (g.n, len(g.edges), g.edges[-1], f.boundaries[-1][-1])
    if kind == "mincut":
        f = item[1]
        cert = tr.call("graph.min_cut", None, min_cut, f.graph, f.sigma, f.tau)
        ok = (cert.total_cost == f.depth + 1) != flip
        return ok, (cert.edges, cert.total_cost)
    if kind == "cuts":
        f = item[1]
        cuts = tr.call("fractal.enumerate_min_cuts", None, enumerate_min_cuts, f)
        picked = [tr.call("fractal.selected_instance", None, selected_instance,
                          f, c) for c in cuts]
        ok = (picked == list(range(1, (1 << f.depth) + 1))) != flip
        return ok, (len(cuts), digest(repr([c.edges for c in cuts])))
    if kind == "serialize":
        f = item[1]
        text = tr.call("serialize.to_json", lambda s: {"bytes": len(s)}, to_json, f)
        back = tr.call("serialize.parse", lambda _: {"bytes": len(text)}, parse, text)
        dot = tr.call("serialize.fractal_to_dot", lambda s: {"bytes": len(s)},
                      fractal_to_dot, f)
        dimacs = tr.call("serialize.to_dimacs", lambda s: {"bytes": len(s)},
                         to_dimacs, f.graph)
        same = (back.graph.edges == f.graph.edges and back.graph.n == f.graph.n
                and back.boundaries == f.boundaries)
        header = f"p edge {f.graph.n} {len(f.graph.edges)}"
        ok = (same and header in dimacs) != flip
        return ok, (digest(text), digest(dot), digest(dimacs))
    if kind == "gen":
        q, fmt, directed = item[1], item[2], item[3] == "1"
        argv = ["gen", "--q", q, "--format", fmt] + (["--directed"] if directed else [])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = tr.call("cli.main.gen", lambda _: {"bytes_out": len(out.getvalue())},
                           cli.main, argv)
        text = out.getvalue()
        ok = (code == 0 and len(text) > 0) != flip
        return ok, (code, len(text), digest(text))
    # verify
    name, s = item[1], int(item[2])
    res = tr.call(f"verify.{name}", None, _VERIFY_CHECKS[name][1], s)
    return res.ok != flip, (res.name, res.ok, res.detail)


WORKLOADS = {
    w.name: w for w in (
        Workload("compose-mded", _compose_pool(("mded-und", "mded-dir"), 40),
                 "class", _compose_build, _compose_run, work_class=_oracle_states),
        Workload("compose-cut", _compose_pool(("lbec-und", "lbec-dag", "dsct"), 800),
                 1200, _compose_build, _compose_run),
        Workload("fpt-branch", _fpt_pool, "class", _fpt_build, _fpt_run,
                 _fpt_ground_truth, _fpt_class),
        Workload("selector", _selector_pool, "class", _selector_build,
                 _selector_run, work_class=_selector_class),
    )
}
