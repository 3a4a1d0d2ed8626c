#!/usr/bin/env python3
"""ddperf: same-runner A/B of the simulator benchmark between two checkouts.

  python3 tools/ddperf.py ab --base DIR --head DIR

Runs each checkout's own BENCHMARK.json command PAIRS times per workload,
for the head's `run_seconds`, alternating which side goes first so runner
drift lands on both alike. Only workloads and end-to-end metrics both files
declare are gated, with the base's bound, so a change cannot loosen its own
gate. Prints a markdown table and exits 1 when any run is not "correct" or a
head median is worse than the base median by more than the bound. Both sides
run on one machine, so a red result is a difference between the checkouts.
See EXPERIMENTS.md "Perf A/B".
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# Pairs per workload, chosen from same-code A/Bs on a shared 4-core VM
# (EXPERIMENTS.md "Perf A/B"): at 10 pairs of 30 s runs no median gap
# crossed a bound (the largest was 11%); at 5 pairs, some did.
PAIRS = 10


def load_benchmark(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, command, workload, seconds):
    """One benchmark run in `checkout`; returns its result object."""
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each checkout builds its own tree
    proc = subprocess.run(
        command + ["--workload", workload, "--seconds", str(seconds)],
        cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return {"correct": False, "metrics": {},
                "error": f"exited with {proc.returncode}"}
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def split_by_name(base_items, head_items):
    """Returns (shared, head_only, base_only) of two lists of {name, ...}.

    `shared` keeps the base's entries, in the head's order.
    """
    base_by_name = {item["name"]: item for item in base_items}
    head_names = {item["name"] for item in head_items}
    shared = [base_by_name[item["name"]] for item in head_items
              if item["name"] in base_by_name]
    head_only = [item["name"] for item in head_items
                 if item["name"] not in base_by_name]
    base_only = [item["name"] for item in base_items
                 if item["name"] not in head_names]
    return shared, head_only, base_only


def relative_change(base, head, better):
    """How much worse head is than base, as a fraction of base (<0: better)."""
    worse_by = head - base if better == "lower" else base - head
    if base == 0:
        return 0.0 if worse_by <= 0 else float("inf")
    return worse_by / abs(base)


def spread(values):
    """Interquartile range over median (0 for fewer than two values)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / abs(median)


def compare(base_runs, head_runs, end_to_end):
    """Compares the runs of one workload.

    `base_runs`/`head_runs` are run.py result objects; `end_to_end` is the
    list of gated {name, better, bound}. Returns (rows, failures): one row
    dict per metric (metric, base, head, base_spread, head_spread, worse_by,
    bound, verdict; numbers None when missing) and a message per failure.
    """
    failures = []
    for side, runs in (("base", base_runs), ("head", head_runs)):
        bad = [r for r in runs if not r.get("correct")]
        if bad:
            failures.append(f"{len(bad)} of {len(runs)} {side} run(s) not "
                            "correct")
    rows = []
    for metric in end_to_end:
        name = metric["name"]
        row = {"metric": name, "base": None, "head": None,
               "base_spread": None, "head_spread": None, "worse_by": None,
               "bound": metric["bound"], "verdict": "MISSING"}
        rows.append(row)
        base_values = [r["metrics"][name]["value"] for r in base_runs
                       if name in r.get("metrics", {})]
        head_values = [r["metrics"][name]["value"] for r in head_runs
                       if name in r.get("metrics", {})]
        if not base_values or not head_values:
            failures.append(f"{name}: no value reported")
            continue
        base = statistics.median(base_values)
        head = statistics.median(head_values)
        worse_by = relative_change(base, head, metric["better"])
        row.update(base=base, head=head, base_spread=spread(base_values),
                   head_spread=spread(head_values), worse_by=worse_by,
                   verdict="ok")
        if worse_by > metric["bound"]:
            row["verdict"] = "WORSE"
            failures.append(f"{name}: head median {head:.6g} is "
                            f"{worse_by:.1%} worse than base {base:.6g} "
                            f"(bound {metric['bound']:.0%})")
        elif max(row["base_spread"], row["head_spread"]) > metric["bound"]:
            # Runs spread wider than the bound cannot show "no change".
            row["verdict"] = "unresolved"
    return rows, failures


def table_row(workload, row):
    if row["base"] is None:
        return (f"| {workload} | `{row['metric']}` | - | - | - | - | - | "
                f"{row['bound']:.0%} | {row['verdict']} |")
    return (f"| {workload} | `{row['metric']}` | {row['base']:.6g} | "
            f"{row['base_spread']:.2f} | {row['head']:.6g} | "
            f"{row['head_spread']:.2f} | {row['worse_by']:+.1%} | "
            f"{row['bound']:.0%} | {row['verdict']} |")


def ungated_row(workload, metric, verdict):
    return f"| {workload} | {metric} | - | - | - | - | - | - | {verdict} |"


def cmd_ab(args):
    base_bench = load_benchmark(args.base)
    head_bench = load_benchmark(args.head)
    seconds = head_bench["run_seconds"]
    workloads, new_workloads, dropped_workloads = split_by_name(
        base_bench["workloads"], head_bench["workloads"])
    metrics, new_metrics, dropped_metrics = split_by_name(
        base_bench["end_to_end"], head_bench["end_to_end"])
    print(f"### simbench A/B: median of {PAIRS} alternating pairs, "
          f"{seconds} s per run\n")
    print("| workload | metric | base | base IQR/med | head | head IQR/med "
          "| worse by | bound | verdict |")
    print("|---|---|---:|---:|---:|---:|---:|---:|---|")
    failures = []
    for workload in workloads:
        name = workload["name"]
        runs = {"base": [], "head": []}
        for pair in range(PAIRS):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                checkout = args.base if side == "base" else args.head
                bench = base_bench if side == "base" else head_bench
                runs[side].append(
                    run_once(checkout, bench["command"], name, seconds))
                print(f"ddperf: {name} pair {pair + 1}/{PAIRS} {side} done",
                      file=sys.stderr)
        rows, wl_failures = compare(runs["base"], runs["head"], metrics)
        for row in rows:
            print(table_row(name, row))
        for metric in new_metrics:
            print(ungated_row(name, f"`{metric}`", "new, ungated"))
        for metric in dropped_metrics:
            print(ungated_row(name, f"`{metric}`", "dropped, ungated"))
        failures += [f"{name}: {msg}" for msg in wl_failures]
    for name in new_workloads:
        print(ungated_row(name, "all", "new, ungated"))
    for name in dropped_workloads:
        print(ungated_row(name, "all", "dropped, ungated"))
    print()
    if failures:
        print("**FAIL**\n")
        for msg in failures:
            print(f"- {msg}")
        return 1
    print("**OK**: every run correct, no head median worse than its bound")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        prog="ddperf", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    ab = sub.add_parser("ab", help="same-runner A/B of two checkouts")
    ab.add_argument("--base", required=True, help="base checkout directory")
    ab.add_argument("--head", required=True, help="head checkout directory")
    ab.set_defaults(func=cmd_ab)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
