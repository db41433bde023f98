#!/usr/bin/env python3
"""Record the benchmark pools: ``python3 perfbench/record.py [WORKLOAD ...]``.

Runs every pool item of the named workloads (default: all) untraced, in
ROUNDS passes over the pool, and writes ``perfbench/pool.json``: per item
key, the fingerprint of its outcome (answer, witness, nodes or the
workload's equivalent), its fastest time over the passes and its work
class, which only serve to stratify the pool when a seed picks its item
list; the fastest of several passes keeps that order from following the
host's load while the pool was recorded.  An item that fails its own check or its
ground truth is not recorded; the script stops instead.  Re-record only when the workloads'
definition changes, never to absorb a change in the library's outputs.
"""

from __future__ import annotations

import json
import sys
import time

import run

ROUNDS = 5


def main(argv: list[str]) -> int:
    wmod = run.load_library()
    path = run.HERE / "pool.json"
    pools = json.loads(path.read_text()) if path.is_file() else {}
    for name in argv or list(wmod.WORKLOADS):
        wl = wmod.WORKLOADS[name]
        keys = wl.pool()
        items = {key: wl.build(key) for key in keys}
        outcomes, work = {}, {}
        t_all = time.perf_counter()
        for _ in range(ROUNDS):
            for key in keys:
                t0 = time.perf_counter()
                ok, outcome = wl.run(items[key], run.NullTracer(), False)
                work[key] = min(work.get(key, float("inf")),
                                time.perf_counter() - t0)
                if not ok or outcomes.setdefault(key, outcome) != outcome:
                    sys.exit(f"{name} item {key} fails its check or varies: "
                             f"{outcome}")
        rec = {key: [wmod.digest(repr(outcomes[key])), round(work[key], 6),
                     wl.work_class(key, outcomes[key]) if wl.work_class else None]
               for key in keys}
        if wl.ground_truth is not None:
            wrong = wl.ground_truth(items, outcomes, None)
            if wrong:
                sys.exit(f"{name}: ground truth disagrees on {wrong}")
        pools[name] = rec
        print(f"{name}: {len(rec)} items, {time.perf_counter() - t_all:.1f} s",
              flush=True)
    path.write_text(json.dumps(pools, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
