"""Command-line front end: gen, compose, solve, reduce, verify.

Every run is deterministic given identical inputs and flags; artifacts carry
no timestamps.  Exit codes: 0 success, 1 verification failure, 2 usage or
input error.  Diagnostics go to stderr only.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .composer import compose, pad_to_power_of_two
from .errors import FractalcutError
from .fractal import MAX_DEPTH, build_fractal
from .reducer import reduce_vc_to_planar_lbec
from .serialize import (fractal_to_dot, parse, parse_embedding, parse_vc,
                        pretty_json, to_dimacs, to_json, write_json)
from .solvers import ProblemInstance, solve_bruteforce, solve_bruteforce_costaware, solve_fpt
from . import verify as verify_mod

# The lemma suite's distance-split check walks every minimum cut of every
# fractal up to --q-max, about four times as many at each depth.  On one
# core of an Intel Xeon it took 0.9 s up to depth 10, 3.4 s up to 11, 12 s
# up to 12 and 66 s up to 13; each further depth multiplies that again.
LEMMA_Q_MAX = 12


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fractalcut",
        description="fractal instance selectors and length-bounded cut tools")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a fractal")
    gen.add_argument("--q", type=int, required=True,
                     help=f"fractal depth, 0..{MAX_DEPTH}")
    gen.add_argument("--directed", action="store_true")
    gen.add_argument("--cost", type=int, default=1, help="edge deletion cost")
    gen.add_argument("--format", choices=("json", "dot", "dimacs"),
                     default="json")

    comp = sub.add_parser("compose", help="OR-compose instances")
    comp.add_argument("--problem", choices=("lbec", "mded", "dsct"),
                      required=True)
    comp.add_argument("--mode", choices=("weighted", "simple"),
                      default="weighted")
    comp.add_argument("--inputs", nargs="+", required=True, metavar="FILE")
    comp.add_argument("--out", metavar="PREFIX",
                      help="write PREFIX.instance.json and PREFIX.sidecar.json")

    sol = sub.add_parser("solve", help="decide an instance")
    sol.add_argument("--method", choices=("fpt", "brute"), required=True)
    sol.add_argument("--input", required=True, metavar="FILE")

    red = sub.add_parser("reduce", help="vertex cover to planar length-bounded cut")
    red.add_argument("--vc", required=True, metavar="FILE")
    red.add_argument("--embedding", required=True, metavar="FILE")
    red.add_argument("--directed", action="store_true",
                     help="orient the output left to right")

    ver = sub.add_parser("verify", help="run a property suite")
    ver.add_argument("--suite", choices=("lemmas", "compositions", "reductions"),
                     required=True)
    ver.add_argument("--q-max", type=int, default=6,
                     help=f"fractal depth the lemma checks run to, "
                          f"0..{LEMMA_Q_MAX}")
    ver.add_argument("--trials", type=int, default=10)
    ver.add_argument("--samples", type=int, default=20_000,
                     help="random samples for the short-path check")
    return parser


def _load_instance(path: str) -> ProblemInstance:
    obj = parse(Path(path).read_text())
    if not isinstance(obj, ProblemInstance):
        raise FractalcutError(f"{path} does not contain a problem instance")
    return obj


def _cmd_gen(args) -> int:
    f = build_fractal(args.q, directed=args.directed, cost=args.cost)
    if args.format == "json":
        # Written in fragments, never joined: the q=16 document is 6.7 MB
        # and each further depth doubles it.
        write_json(f, sys.stdout.write)
    elif args.format == "dot":
        sys.stdout.write(fractal_to_dot(f))
    else:
        sys.stdout.write(to_dimacs(f.graph))
    return 0


def _cmd_compose(args) -> int:
    instances = [_load_instance(path) for path in args.inputs]
    art = compose(args.problem, pad_to_power_of_two(instances), args.mode)
    instance_text = to_json(art.composed)
    sidecar = {
        "selector": {str(i): j for i, j in sorted(art.selector.items())},
        "params": {key: art.params[key] for key in sorted(art.params)},
        "mode": art.mode,
    }
    sidecar_text = pretty_json(sidecar)
    sys.stdout.write(instance_text)
    if args.out:
        Path(f"{args.out}.instance.json").write_text(instance_text)
        Path(f"{args.out}.sidecar.json").write_text(sidecar_text)
    else:
        sys.stderr.write(sidecar_text)
    return 0


def _cmd_solve(args) -> int:
    inst = _load_instance(args.input)
    if args.method == "fpt":
        verdict = solve_fpt(inst)
    elif inst.graph.is_unit:
        verdict = solve_bruteforce(inst)
    else:
        verdict = solve_bruteforce_costaware(inst)
    payload = {
        "answer": verdict.answer,
        "witness": verdict.witness_pairs(inst.graph),
        "nodes": verdict.nodes,
    }
    sys.stdout.write(pretty_json(payload))
    return 0


def _cmd_reduce(args) -> int:
    inst = parse_vc(Path(args.vc).read_text())
    emb = parse_embedding(Path(args.embedding).read_text())
    reduced = reduce_vc_to_planar_lbec(inst, emb, directed=args.directed)
    sys.stdout.write(to_json(reduced))
    return 0


def _cmd_verify(args) -> int:
    # Refused up front: out of range, these would check nothing and pass,
    # or run for minutes to days before printing a line.
    if not 0 <= args.q_max <= LEMMA_Q_MAX:
        raise FractalcutError(f"--q-max must be in 0..{LEMMA_Q_MAX}, got {args.q_max}")
    if args.samples < 0:
        raise FractalcutError(f"--samples must be non-negative, got {args.samples}")
    if args.trials < 1:
        raise FractalcutError(f"--trials must be at least 1, got {args.trials}")
    if args.suite == "lemmas":
        results = verify_mod.lemma_suite(q_max=args.q_max, samples=args.samples)
    elif args.suite == "compositions":
        results = verify_mod.composition_suite(trials=args.trials)
    else:
        results = verify_mod.reduction_suite()
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        sys.stdout.write(f"{r.name:<{width}}  {status}  {r.detail}\n")
    return 0 if all(r.ok for r in results) else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "compose": _cmd_compose,
        "solve": _cmd_solve,
        "reduce": _cmd_reduce,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (FractalcutError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (KeyError, TypeError, ValueError) as exc:
        sys.stderr.write(f"error: malformed input: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
