#!/usr/bin/env python3
"""Self-test of the benchmark: ``python3 perfbench/selftest.py``.

Runs every workload at a tiny size (its three lightest pool items, one
pass), untraced and traced, and checks that every metric named in
``BENCHMARK.json`` appears with its unit, that the seed code passes every
check, and that negating one expected answer on the benchmark side drives
``fail_ratio`` above 0.  Also checks that ``rationale.json`` names only
declared workloads and metrics.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import sys

import run


def check_rationale(spec: dict) -> list[str]:
    rationale = json.loads((run.HERE / "rationale.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    problems = [f"rationale: unknown workload {w}"
                for w in set(rationale["workloads"]) ^ workloads]
    for entry in rationale["layer_moves"]:
        problems += [f"rationale: unknown layer metric {m}"
                     for m in entry["layer_metrics"] if m not in layer]
        for move in entry["moves"]:
            if move["workload"] not in workloads or not set(move["metrics"]) <= e2e:
                problems.append(f"rationale: bad move {move}")
        problems += [f"rationale: unknown workload {w}"
                     for w in entry["no_change"] if w not in workloads]
    return problems


def main() -> int:
    spec = run.load_spec()
    problems = check_rationale(spec)
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (False, True):
            rec = run.run_workload(name, 0, 0, trace, tiny=True)
            try:
                res = run.result(spec, rec, trace)
            except KeyError as exc:
                problems.append(f"{name} trace={trace}: metric {exc} missing")
                continue
            group = spec["per_layer" if trace else "end_to_end"]
            if [(m["name"], m["unit"]) for m in group] != \
                    [(k, v["unit"]) for k, v in res["metrics"].items()]:
                problems.append(f"{name} trace={trace}: metrics or units differ")
            if not res["correct"] or rec["fail_ratio"] != 0:
                problems.append(f"{name} trace={trace}: seed code fails "
                                f"{rec['failures']}")
        bad = run.run_workload(name, 0, 0, False, tiny=True, corrupt=True)
        if not bad["fail_ratio"] > 0:
            problems.append(f"{name}: a corrupted expected answer went unnoticed")
        print(f"{name}: checked", flush=True)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
