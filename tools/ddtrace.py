#!/usr/bin/env python3
"""ddtrace: validate and summarize Daredevil Chrome-trace exports.

The simulator's trace exporter (src/stats/trace_export.cc, enabled via
ScenarioConfig::export_trace or DD_TRACE_JSON on supporting benches) writes a
Chrome Trace Event Format JSON that loads in ui.perfetto.dev. This tool works
on that file without a browser:

  --check    Structural validation: JSON parses, required top-level keys
             exist, metadata ('M') events come first and data timestamps
             never decrease, async and flow events carry an id, every async
             'b' has a matching later 'e' (per pid/cat/id/name), every flow
             's' has an 'f' with the same id and cat no earlier than it,
             'X' slices never overlap within a (pid, tid) track, timestamps
             are non-negative and durations monotone. Exit 1 on any failure.
  --summary  Event/track counts and the simulated time span.

The HOL-blocking attribution is not recomputed here: the exporter's holb and
slo report sections (src/stats/holb.cc) are its one derivation.

Usage
  tools/ddtrace.py --check trace.json
  tools/ddtrace.py --check --summary trace.json
"""

import argparse
import json
import sys
from collections import Counter, defaultdict


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def check(doc):
    """Returns a list of problem strings (empty = valid)."""
    problems = []
    for key in ("traceEvents", "displayTimeUnit", "otherData"):
        if key not in doc:
            problems.append(f"missing top-level key: {key}")
    events = doc.get("traceEvents", [])
    if not isinstance(events, list):
        return problems + ["traceEvents is not a list"]

    async_balance = Counter()
    x_tracks = defaultdict(list)
    flows = {"s": defaultdict(list), "f": defaultdict(list)}  # (id, cat) -> ts
    seen_data = False
    last_ts = 0
    for i, e in enumerate(events):
        ph = e.get("ph")
        if ph is None or "pid" not in e or "name" not in e:
            problems.append(f"event {i}: missing ph/pid/name")
            continue
        ts = e.get("ts")
        if ph == "M":
            if seen_data:
                problems.append(f"event {i}: metadata after data events")
            continue
        if ts is None or ts < 0:
            problems.append(f"event {i}: bad ts {ts!r}")
            continue
        if seen_data and ts < last_ts:
            problems.append(f"event {i}: ts {ts} before the previous {last_ts}")
        seen_data = True
        last_ts = ts
        if ph in "besf" and "id" not in e:
            problems.append(f"event {i}: '{ph}' event without id")
        if ph == "b":
            async_balance[(e["pid"], e.get("cat"), e.get("id"), e["name"])] += 1
        elif ph == "e":
            key = (e["pid"], e.get("cat"), e.get("id"), e["name"])
            async_balance[key] -= 1
            if async_balance[key] < 0:
                problems.append(f"event {i}: async 'e' before its 'b'")
        elif ph == "X":
            dur = e.get("dur", 0)
            if dur < 0:
                problems.append(f"event {i}: negative dur {dur}")
            x_tracks[(e["pid"], e.get("tid", 0))].append((ts, ts + dur, i))
        elif ph in flows:
            flows[ph][(e.get("id"), e.get("cat"))].append(ts)

    unbalanced = [k for k, v in async_balance.items() if v != 0]
    for key in unbalanced[:10]:
        problems.append(f"unbalanced async b/e: pid={key[0]} cat={key[1]} "
                        f"id={key[2]} name={key[3]}")
    if len(unbalanced) > 10:
        problems.append(f"... and {len(unbalanced) - 10} more unbalanced pairs")

    # Flows pair in time order per (id, cat): the k-th 's' with the k-th 'f'.
    for key in sorted(flows["s"].keys() | flows["f"].keys(), key=str):
        starts = sorted(flows["s"].get(key, []))
        finishes = sorted(flows["f"].get(key, []))
        if len(starts) != len(finishes):
            problems.append(f"unpaired flow: id={key[0]} cat={key[1]} has "
                            f"{len(starts)} s and {len(finishes)} f")
        elif any(s > f for s, f in zip(starts, finishes)):
            problems.append(f"flow f before its s: id={key[0]} cat={key[1]}")

    for (pid, tid), slices in x_tracks.items():
        slices.sort()
        for (a_begin, a_end, a_i), (b_begin, _b_end, b_i) in zip(
                slices, slices[1:]):
            # Allow exact adjacency; reject real overlap (float-safe slack of
            # half the 1ns resolution the exporter serializes at).
            if b_begin < a_end - 0.0005:
                problems.append(
                    f"overlapping X slices on pid={pid} tid={tid}: "
                    f"events {a_i} and {b_i} "
                    f"([{a_begin}, {a_end}) vs start {b_begin})")
    return problems


def summary(doc):
    events = doc.get("traceEvents", [])
    other = doc.get("otherData", {})
    phases = Counter(e.get("ph") for e in events)
    tracks = {(e.get("pid"), e.get("tid", 0))
              for e in events if e.get("ph") != "M"}
    ts = [e["ts"] for e in events if e.get("ph") != "M" and "ts" in e]
    print(f"stack: {other.get('stack', '?')}  cores: {other.get('num_cores')}"
          f"  nr_nsq: {other.get('nr_nsq')}  nr_ncq: {other.get('nr_ncq')}")
    print(f"events: {len(events)}  tracks: {len(tracks)}")
    print("phases:", dict(sorted(phases.items())))
    if ts:
        print(f"time span: {min(ts):.3f}us .. {max(ts):.3f}us "
              f"({(max(ts) - min(ts)) / 1000.0:.3f}ms)")
    reqs = doc.get("ddRequests", [])
    print(f"request records: {len(reqs)}")
    sampler = doc.get("ddSampler")
    if sampler:
        print(f"sampler: {sampler.get('samples', 0)} samples x "
              f"{len(sampler.get('series', {}))} series @ "
              f"{sampler.get('interval_ns', 0)}ns")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="exported Chrome-trace JSON file")
    parser.add_argument("--check", action="store_true",
                        help="validate structure; exit 1 on problems")
    parser.add_argument("--summary", action="store_true",
                        help="print event/track counts and the time span")
    args = parser.parse_args()
    if not (args.check or args.summary):
        args.check = True

    try:
        doc = load(args.trace)
    except (OSError, json.JSONDecodeError) as e:
        print(f"FAIL: {args.trace}: {e}", file=sys.stderr)
        return 1

    status = 0
    if args.check:
        problems = check(doc)
        if problems:
            print(f"FAIL: {args.trace}: {len(problems)} problem(s)",
                  file=sys.stderr)
            for p in problems[:40]:
                print(f"  {p}", file=sys.stderr)
            status = 1
        else:
            print(f"OK: {args.trace}: "
                  f"{len(doc.get('traceEvents', []))} events valid")
    if args.summary:
        summary(doc)
    return status


if __name__ == "__main__":
    sys.exit(main())
