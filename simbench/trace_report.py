"""Span arithmetic for simbench's traced runs.

A trace file (written by `simbench --trace 1 --trace-out <file>`) holds:

  counters    the counter names, in the order of every delta list
  run_totals  {sweep: [counter totals over every RunUntil / RunScenario call]}
  spans       [name, sweep, cell, parent, start_s, end_s, [counter deltas]]

`parent` is the index of the enclosing span (-1 for a root). Spans nest
strictly: the benchmark is single-threaded.
"""

import json

# The layer each span's self time is charged to. Spans are recorded around
# calls from the benchmark into the program, so a span's layer is the layer
# the call enters; "bench" is the benchmark's own work between calls
# (collecting results, tearing environments down).
LAYER_OF = {
    "cell": "bench",
    "setup.env": "workload",       # ScenarioEnv: machine, device, stack
    "setup.tenants": "workload",   # OpenLoopJob / FioJob / KvStore clients
    "setup.kv_load": "apps",       # KvStore::Load + WarmCache
    "run.slice": "sim",            # Simulator::RunUntil, 1 simulated ms
    "run.scenario": "sim+stats",   # RunScenario with every observer on
    "run.twin": "sim",             # RunScenario with observers off
    "collect": "bench",
    "stats.to_json": "stats",
    "stats.fingerprint": "stats",
}

# Spans whose counter deltas add up to a sweep's run_totals.
RUN_SPANS = ("run.slice", "run.scenario")

NAME, SWEEP, CELL, PARENT, START, END, DELTA = range(7)


def load(path):
    with open(path) as f:
        return json.load(f)


def self_times(spans):
    """Self time of every span: its duration minus its children's."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def self_time_by(spans, key):
    """Sums self time per key(span)."""
    totals = {}
    for s, t in zip(spans, self_times(spans)):
        k = key(s)
        totals[k] = totals.get(k, 0.0) + t
    return totals


def layer_of(name):
    return LAYER_OF.get(name, "other")


def run_sums(spans, counters):
    """{sweep: summed counter deltas of the run spans of that sweep}."""
    sums = {}
    for s in spans:
        if s[NAME] in RUN_SPANS:
            acc = sums.setdefault(s[SWEEP], [0] * len(counters))
            for i, d in enumerate(s[DELTA]):
                acc[i] += d
    return sums


def problems(trace):
    """Inconsistencies between spans and the totals the benchmark measured
    directly. Empty when the trace adds up."""
    counters = trace["counters"]
    spans = trace["spans"]
    out = []
    sums = run_sums(spans, counters)
    for sweep, totals in trace["run_totals"].items():
        got = sums.get(int(sweep), [0] * len(counters))
        for name, want, have in zip(counters, totals, got):
            if want != have:
                out.append(f"sweep {sweep}: run spans sum {name}={have}, "
                           f"run total {want}")
    children = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append(i)
    for p, kids in children.items():
        parent = spans[p]
        for i, name in enumerate(counters):
            inner = sum(spans[k][DELTA][i] for k in kids)
            if inner > parent[DELTA][i]:
                out.append(f"span {p} ({parent[NAME]}): children {name}="
                           f"{inner} exceed the span's {parent[DELTA][i]}")
        for k in kids:
            if spans[k][START] < parent[START] or spans[k][END] > parent[END]:
                out.append(f"span {k} ({spans[k][NAME]}) outside its parent")
    return out


def report(trace):
    """Human-readable self time per layer and per span, plus the run-phase
    counter totals of the traced sweeps."""
    spans = trace["spans"]
    counters = trace["counters"]
    total = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    lines = [f"traced {len(spans)} spans, {total:.3f} s in root spans"]
    lines.append("self time per layer:")
    by_layer = self_time_by(spans, lambda s: layer_of(s[NAME]))
    for layer, t in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        share = t / total if total > 0 else 0.0
        lines.append(f"  {layer:<10} {t:9.4f} s  {100 * share:5.1f}%")
    lines.append("self time per span:")
    by_name = self_time_by(spans, lambda s: s[NAME])
    for name, t in sorted(by_name.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:<18} {t:9.4f} s")
    sums = run_sums(spans, counters)
    if sums:
        first = min(sums)
        lines.append(f"run-phase counters, sweep {first}:")
        for name, v in zip(counters, sums[first]):
            lines.append(f"  {name:<22} {v}")
    return lines
