#!/usr/bin/env python3
"""fractalcut benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  One process, one thread, closed loop: each item starts after the
previous one returns.  Set-up imports the library, picks the seed's item
list from the workload's recorded pool (``pool.json``), builds every input
of that list, loads fixtures and runs one untimed warm-up item; it is
repeated, import included, and its median reported.  The timed part then
repeats passes over the item list for at least ``--seconds`` seconds (and
at least MIN_PASSES passes), running light items up to MAX_REPS times in
a row in a pass, and checks every run of an item: its verdict, its witness replay, its branching-leaf bound and
its recorded output fingerprint.  Any exception, ``ResourceBudgetError``
included, fails the run.  Every time is built from each item's median
run: the pass time is their sum.  Between runs the benchmark also times a
fixed reference computation that calls no library code, and every run
(and set-up) time is scaled by REF_SECONDS over the reference's median
time around it (see ``normalise``): work on a host that happens to be
slowed down (other tenants' load on a shared machine) then reads as the
same work.  The unscaled times are printed and kept in the run record.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced passes; the traced ones wrap a
span around every library call the workload makes, and the per-layer
metrics come from those spans, plus the tracing overhead (traced over
untraced pass time).  Spans and a record of the run, with its environment,
are written under ``perfbench/out/``.  The last line of stdout is the
result as one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import inspect
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 7
MIN_PASSES = 3
CLASS_TOLERANCE = 0.05  # share of a class's middle time its picks may differ by
MAX_REPS = 10         # most runs of one item in a row in a pass
REF_EVERY = 0.05      # seconds of item work between reference samples
REF_SAMPLES = 3       # reference timings per sample
REF_LOCAL = 0.5       # seconds from which a run is scaled by a window of timings
REF_SECONDS = 0.0005  # about the reference's time on a 2-core Xeon VM; fixes the unit


def _reference_graph(n: int = 300, m: int = 900) -> list[list[int]]:
    rnd = random.Random(0)
    adj: list[list[int]] = [[] for _ in range(n)]
    for _ in range(m):
        u, v = rnd.randrange(n), rnd.randrange(n)
        adj[u].append(v)
        adj[v].append(u)
    return adj


_REF_GRAPH = _reference_graph()


def reference() -> int:
    """Fixed pure-Python work that calls no library code: breadth-first
    searches over a fixed random graph, the kind of interpreter work the
    library does.  Its timings over a run gauge the host's speed."""
    total = 0
    for s in range(0, len(_REF_GRAPH), 60):
        dist = {s: 0}
        queue = [s]
        for u in queue:
            for v in _REF_GRAPH[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        total += sum(dist.values())
    return total


def sample_reference(ref: list[tuple[float, float]]) -> None:
    """Append REF_SAMPLES (end time, seconds) timings of the reference."""
    for _ in range(REF_SAMPLES):
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        ref.append((t1, t1 - t0))


def normalise(runs, ref) -> list[tuple[float, float]]:
    """(wall, cpu) of each (start, end, cpu) run at the reference's speed:
    scaled by REF_SECONDS over the median of the reference timings taken
    around the run, the host's speed while it ran.  Around a run shorter
    than REF_LOCAL seconds are the REF_SAMPLES timings right before and
    right after it; around a longer one, which outlasts changes of the
    host's speed, all timings within one run length of it."""
    at = [t for t, _ in ref]
    out = []
    for t0, t1, cpu in runs:
        i, j = bisect.bisect_left(at, t0), bisect.bisect_right(at, t1)
        if t1 - t0 < REF_LOCAL:
            near = ref[max(0, i - REF_SAMPLES):i] + ref[j:j + REF_SAMPLES]
        else:
            near = ref[bisect.bisect_left(at, 2 * t0 - t1):
                       bisect.bisect_right(at, 2 * t1 - t0)]
        factor = REF_SECONDS / statistics.median(s for _, s in near)
        out.append(((t1 - t0) * factor, cpu * factor))
    return out


def load_library():
    """Import, afresh, fractalcut from this checkout's src/ and the
    workloads; returns the workloads module."""
    src = ROOT / "src"
    if not (src / "fractalcut" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fractalcut sources under {src}; run from "
                 "the root of a source checkout")
    for path in (str(HERE), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    for mod in [m for m in sys.modules
                if m in ("workloads", "fractalcut") or m.startswith("fractalcut.")]:
        del sys.modules[mod]
    return importlib.import_module("workloads")


class NullTracer:
    item = None

    def call(self, name, measure, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Spans held in memory: [name, start, end, parent index, item, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.item = None

    def call(self, name, measure, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else -1
        span = [name, time.perf_counter(), 0.0, parent, self.item, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span[5] = {"error": type(exc).__name__}
            raise
        finally:
            span[2] = time.perf_counter()
            self._open.pop()
        if measure is not None:
            span[5] = measure(result)
        return result


def select(wl, pool_rec: dict, seed: int, tiny: bool = False) -> list[str]:
    """The seed's item list, stratified so every seed gets the same mix of
    light and heavy work: one item of every recorded work class, drawn from
    the members whose recorded time is within CLASS_TOLERANCE of the
    class's middle member, or one item out of each of ``picks`` equal
    consecutive chunks of the pool sorted by recorded time.  ``tiny`` takes
    the three lightest items."""
    pool = wl.pool()
    missing = [k for k in pool if k not in pool_rec]
    if missing:
        sys.exit(f"perfbench: {wl.name} items {missing[:3]} have no recorded "
                 "fingerprint; run perfbench/record.py")
    pool.sort(key=lambda k: (pool_rec[k][1], k))
    rnd = random.Random(f"{wl.name}/{seed}")
    if tiny:
        keys = pool[:3]
    elif wl.picks == "class":
        classes: dict[str, list[str]] = {}
        for k in pool:
            if pool_rec[k][2] is not None:
                classes.setdefault(pool_rec[k][2], []).append(k)
        keys = []
        for c in sorted(classes):
            mid = pool_rec[classes[c][len(classes[c]) // 2]][1]
            keys.append(rnd.choice([k for k in classes[c] if abs(
                pool_rec[k][1] - mid) <= CLASS_TOLERANCE * mid]))
    else:
        n, take = len(pool), wl.picks
        keys = [pool[rnd.randrange(j * n // take, (j + 1) * n // take)]
                for j in range(take)]
    rnd.shuffle(keys)
    return keys


def run_pass(wl, items, keys, reps, tracer, flip_key, expect, digest, ref):
    """One closed-loop pass, ``reps[key]`` runs of each item in a row;
    returns per-item lists of (start, end, cpu) times, the last outcome of
    every item and one key for every run that failed its own check or its
    recorded fingerprint ``expect[key]``.  Reference timings are appended
    to ``ref`` before the first run, then between runs at most every
    REF_EVERY seconds, and after the last run."""
    times, outcomes, bad = {}, {}, []
    last_ref = 0.0
    for key in keys:
        times[key] = []
        for _ in range(reps[key]):
            if time.perf_counter() - last_ref >= REF_EVERY:
                sample_reference(ref)
                last_ref = time.perf_counter()
            tracer.item = key
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                ok, outcome = tracer.call("item", None, wl.run, items[key],
                                          tracer, key == flip_key)
            except Exception as exc:  # any failure, budget errors included
                ok, outcome = False, ("error", type(exc).__name__, str(exc))
            times[key].append((t0, time.perf_counter(),
                               time.process_time() - c0))
            outcomes[key] = outcome
            if not ok or digest(repr(outcome)) != expect[key]:
                bad.append(key)
    sample_reference(ref)
    return times, outcomes, bad


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least 10
    samples beyond it: the 11th slowest sample.  Under 20 samples that
    would fall below the median, so the slowest sample is taken instead."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def layer_stats(spans: list[list], offset: int) -> dict:
    """Per span name over one pass (``spans`` starts at tracer index
    ``offset``): calls, self time, budget errors and summed counts;
    leaf_bound_ratio is the maximum."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent - offset] += end - start
    agg: dict[str, dict] = {}
    for i, (name, start, end, _, _, counts) in enumerate(spans):
        a = agg.setdefault(name, {"calls": 0, "busy_s": 0.0, "budget_errors": 0})
        a["calls"] += 1
        a["busy_s"] += end - start - child[i]
        for stat, value in (counts or {}).items():
            if stat == "error":
                a["budget_errors"] += value == "ResourceBudgetError"
            elif stat == "leaf_bound_ratio":
                a[stat] = max(a.get(stat, 0.0), value)
            else:
                a[stat] = a.get(stat, 0) + value
    return agg


def layer_metric(stat: str, per_pass: list[dict]):
    """One per-layer stat over the traced passes: times and rates are the
    median over passes, counts come from one pass (they repeat exactly)."""
    if stat.endswith("_per_s"):
        base = stat[:-len("_per_s")]
        return statistics.median(a.get(base, 0) / a["busy_s"] if a.get("busy_s")
                                 else 0.0 for a in per_pass)
    if stat == "busy_s":
        return statistics.median(a.get("busy_s", 0.0) for a in per_pass)
    return per_pass[0].get(stat, 0)


def _counts(agg: dict) -> dict:
    return {name: {k: v for k, v in a.items() if k != "busy_s"}
            for name, a in agg.items()}


def environment(seed: int) -> dict:
    import fractalcut.solvers as solvers
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "seed": seed,
        "budgets": {
            "max_states": inspect.signature(solvers.solve_bruteforce_costaware)
            .parameters["max_states"].default,
            "max_subsets": inspect.signature(solvers.solve_bruteforce)
            .parameters["max_subsets"].default,
        },
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, corrupt: bool = False) -> dict:
    """Set up, time and check one workload; returns the full record."""
    setups, setup_ref, ref = [], [], []
    sample_reference(setup_ref)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wmod = load_library()
        wl = wmod.WORKLOADS[name]
        pool_rec = json.loads((HERE / "pool.json").read_text())[name]
        keys = select(wl, pool_rec, seed, tiny)
        items = {k: wl.build(k) for k in keys}
        warm = min(keys, key=lambda k: (pool_rec[k][1], k))
        wl.run(items[warm], NullTracer(), False)
        setups.append((t0, time.perf_counter(), 0.0))
        sample_reference(setup_ref)
    # In an untraced pass an item lighter than the list's mean runs in a row
    # for about the mean's recorded time: on short, heavy-tailed lists the
    # items near the median then get many more timings than passes alone
    # would give them, and a pass takes at most twice as long.
    mean = sum(pool_rec[k][1] for k in keys) / len(keys)
    reps = {k: max(1, min(MAX_REPS, int(mean / pool_rec[k][1]))) for k in keys}
    expect = {k: pool_rec[k][0] for k in keys}

    # Corruption negates the expected answer of the list's first item in
    # pool order; every pool starts with items whose expected answer the
    # benchmark derives itself.
    flip_key = None
    if corrupt:
        flip_key = next(k for k in wl.pool() if k in items)
    # Set-up data stays alive for the whole run; freezing it keeps the
    # cyclic collector's cost, and so item times, independent of its size.
    gc.collect()
    gc.freeze()
    tracer = Tracer()
    untraced, traced = [], []   # item times / (item times, layer stats)
    failed = attempted = 0
    failures: list[str] = []
    outcomes: dict = {}
    min_passes = 1 if tiny else MIN_PASSES
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or len(untraced) < min_passes
           or (trace and not traced)):
        use_trace = trace and len(traced) < len(untraced)
        gc.collect()  # every pass starts from the same collector state
        offset = len(tracer.spans)
        # Traced passes run every item once, so that per-layer counts are
        # those of one pass over the list.
        times, outcomes, bad = run_pass(
            wl, items, keys, dict.fromkeys(keys, 1) if use_trace else reps,
            tracer if use_trace else NullTracer(), flip_key, expect,
            wmod.digest, ref)
        attempted += sum(len(t) for t in times.values())
        failed += len(bad)
        failures += [k for k in bad if k not in failures]
        if use_trace:
            traced.append((times, layer_stats(tracer.spans[offset:], offset)))
        else:
            untraced.append(times)
    gc.unfreeze()
    if wl.ground_truth is not None:
        wrong = wl.ground_truth(items, outcomes, flip_key)
        failed += len(wrong)
        failures += [k for k in wrong if k not in failures]

    # Other work on a shared host slows runs down, for milliseconds to
    # whole runs, so every run is scaled by the reference timed around it,
    # each item reports its median run and pass times are the sum of those.
    def median_run(runs, i):
        return statistics.median(r[i] for r in runs)

    item_runs = {k: [r for u in untraced for r in u[k]] for k in keys}
    scaled = {k: normalise(runs, ref) for k, runs in item_runs.items()}
    unscaled = {k: [(r[1] - r[0], r[2]) for r in runs]
                for k, runs in item_runs.items()}
    samples = [median_run(scaled[k], 0) for k in keys]
    e2e, raw = {}, {}
    for times, out in ((scaled, e2e), (unscaled, raw)):
        walls = sorted(median_run(times[k], 0) for k in keys)
        out["wall_s"] = sum(walls)
        out["cpu_s"] = sum(median_run(times[k], 1) for k in keys)
        out["item_p50_ms"] = 1000 * statistics.median(walls)
        tail_p, tail_s = tail(walls)
        out["item_tail_ms"] = 1000 * tail_s
    raw["setup_s"] = statistics.median(t1 - t0 for t0, t1, _ in setups)
    e2e["setup_s"] = median_run(normalise(setups, setup_ref), 0)
    e2e["items_per_s"] = len(keys) / e2e["wall_s"]
    ref_s = statistics.median(s for _, s in ref)
    setup_ref_s = statistics.median(s for _, s in setup_ref)
    scale = REF_SECONDS / ref_s   # per-layer times: the run's overall factor
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers: dict = {}
    counts_repeat = True
    if trace:
        per_pass = [t[1] for t in traced]
        counts_repeat = all(_counts(a) == _counts(per_pass[0]) for a in per_pass)
        for m in load_spec()["per_layer"]:
            if m["name"] == "tracing.overhead_pct":
                traced_wall = statistics.median(
                    sum(w for runs in t[0].values() for w, _ in normalise(runs, ref))
                    for t in traced)
                layers[m["name"]] = 100.0 * (traced_wall / e2e["wall_s"] - 1.0)
            else:
                prefix, stat = m["name"].rsplit(".", 1)
                value = layer_metric(stat, [a.get(prefix, {}) for a in per_pass])
                if stat == "busy_s":
                    value *= scale
                elif stat.endswith("_per_s"):
                    value /= scale
                layers[m["name"]] = value
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{name}-seed{seed}.json"
        spans_file.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "item", "counts"],
             "spans": tracer.spans}, separators=(",", ":")))
    return {
        "workload": name, "env": environment(seed), "items": keys,
        "passes": len(untraced), "traced_passes": len(traced),
        "item_runs": {k: len(untraced) * reps[k] for k in keys},
        "item_ms": {k: round(1000 * t, 4) for k, t in zip(keys, samples)},
        "tail_percentile": tail_p, "reference_s": ref_s,
        "setup_reference_s": setup_ref_s,
        "reference_samples": len(ref), "unscaled": raw,
        "reference_ms_p5_to_p95": [1000 * q for q in statistics.quantiles(
            [s for _, s in ref], n=20)],
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "failures": failures[:20],
        "counts_repeat": counts_repeat, "end_to_end": e2e, "per_layer": layers,
    }


def result(spec: dict, rec: dict, trace: bool) -> dict:
    """The result line: every end-to-end metric, or with tracing every
    per-layer metric, by name with its unit."""
    group = "per_layer" if trace else "end_to_end"
    return {"correct": rec["failed"] == 0 and rec["counts_repeat"],
            "attempted": rec["attempted"], "failed": rec["failed"],
            "metrics": {m["name"]: {"value": rec[group][m["name"]],
                                    "unit": m["unit"]} for m in spec[group]}}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")

    rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(rec, indent=1, sort_keys=True) + "\n")

    print(f"workload {rec['workload']}  seed {args.seed}  items/pass "
          f"{len(rec['items'])}  passes {rec['passes']} untraced, "
          f"{rec['traced_passes']} traced")
    print("env " + json.dumps(rec["env"], sort_keys=True))
    n = len(rec["items"])
    tail_rank = ("slowest" if rec["tail_percentile"] == 100
                 else f"p{rec['tail_percentile']:.4g}")
    print(f"reference {1e3 * rec['reference_s']:.4f} ms (median of "
          f"{rec['reference_samples']} timings; set-up: "
          f"{1e3 * rec['setup_reference_s']:.4f} ms): each run's time is "
          f"scaled by {1e3 * REF_SECONDS:g} ms over the reference's median "
          f"time around it")
    runs = sorted(set(rec["item_runs"].values()))
    each = f"each its median of {runs[0]}-{runs[-1]} runs"
    notes = {"setup_s": f"median of {SETUP_REPEATS} set-ups",
             "wall_s": f"sum over {n} items, {each}",
             "cpu_s": f"sum over {n} items, {each}",
             "items_per_s": f"{n} items per pass",
             "item_p50_ms": f"of {n} items, {each}",
             "item_tail_ms": f"{tail_rank} of {n} items, {each}"}
    for name, value in rec["unscaled"].items():
        notes[name] = f"{notes[name]}; unscaled {value:.6g}"
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            if m["name"] in rec[group]:
                print(f"{m['name']:<58} {rec[group][m['name']]:>14.6g} "
                      f"{m['unit']:<6} {notes.get(m['name'], '')}".rstrip())
    print(f"fail_ratio {rec['fail_ratio']:g} ({rec['failed']} failed of "
          f"{rec['attempted']} attempted)"
          + (f"; first failures: {rec['failures']}" if rec["failures"] else ""))
    if not rec["counts_repeat"]:
        print("per-layer counters differ between traced passes")
    print(json.dumps(result(spec, rec, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
