#!/usr/bin/env python3
"""ddslo: fleet SLO conformance report from scenario result JSONs.

Input files are either DD_BENCH_JSON sink files (as written by the bench
binaries: {"bench": ..., "results": [{"label": ..., "result": {...}}]}) or
raw ScenarioResult::ToJson() documents. Every result that carries an "slo"
section contributes its per-tenant conformance verdicts; results without one
are skipped.

The report has two views:

  per-tenant   one row per (source, run, tenant): the objective, conformance,
               budget burn, violation episodes and the dominant blocker of
               the worst episode (as attributed by the HOL-blocking pass).
               A tenant with no delivery in the window shows "starved" and
               counts as missed.
  per-stack    a rollup keyed by the run label's stack prefix ("vanilla" in
               "vanilla/nt=16"): how many tenant-runs met their objective,
               the worst conformance and budget burn, and how many episodes
               were attributed to a named culprit.

Usage:
    ddslo.py out.json                          # text report to stdout
    ddslo.py --format=md --out conformance.md a.json b.json
    ddslo.py --format=json fleet/*.json        # machine-readable rollup

Exit status: 0 on success, 2 when no input file contributed an SLO section
(catches a mis-wired pipeline early); --require-met additionally exits 1
when any tenant-run missed its objective.
"""

import argparse
import json
import os
import sys


def fmt_us(ns):
    return f"{ns / 1000.0:.1f}us"


def fmt_pct(x):
    return f"{x:.1f}%"


def iter_results(path, doc):
    """Yields (source, label, scenario_result_dict) from one input file."""
    name = os.path.basename(path)
    if isinstance(doc, dict) and "results" in doc:
        source = doc.get("bench", name)
        for entry in doc.get("results", []):
            result = entry.get("result")
            if isinstance(result, dict):
                yield source, entry.get("label", "?"), result
    elif isinstance(doc, dict):
        yield name, os.path.splitext(name)[0], doc


def stack_of(label):
    """The rollup key: "vanilla/nt=16" -> "vanilla"."""
    return label.split("/", 1)[0]


def collect(paths):
    """Flattens the inputs into per-tenant rows."""
    rows = []
    for path in paths:
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as err:
            raise SystemExit(f"ddslo: {path}: {err}")
        for source, label, result in iter_results(path, doc):
            slo = result.get("slo")
            if not isinstance(slo, dict):
                continue
            for tenant, rep in sorted(slo.get("tenants", {}).items()):
                worst = rep.get("worst_episode") or {}
                rows.append({
                    "source": source,
                    "label": label,
                    "stack": stack_of(label),
                    "tenant": tenant,
                    "objective": (f"p{rep['target_percentile']:g} < "
                                  f"{fmt_us(rep['threshold_ns'])}"),
                    "good": rep["good"],
                    "bad": rep["bad"],
                    "conformance_pct": rep["conformance_pct"],
                    "met": bool(rep["met"]) and not rep.get("starved"),
                    "starved": bool(rep.get("starved")),
                    "budget_burned": rep["budget_burned"],
                    "episodes": len(rep.get("episodes", [])),
                    "attributed": sum(1 for ep in rep.get("episodes", [])
                                      if ep.get("blame")),
                    "worst_blame": worst.get("blame", ""),
                    "worst_mechanism": worst.get("mechanism", ""),
                })
    return rows


def rollup(rows):
    """Per-stack aggregate over the tenant rows."""
    stacks = {}
    for row in rows:
        agg = stacks.setdefault(row["stack"], {
            "stack": row["stack"], "tenant_runs": 0, "met": 0,
            "worst_conformance_pct": 100.0, "max_budget_burned": 0.0,
            "episodes": 0, "attributed": 0,
        })
        agg["tenant_runs"] += 1
        agg["met"] += 1 if row["met"] else 0
        agg["worst_conformance_pct"] = min(agg["worst_conformance_pct"],
                                           row["conformance_pct"])
        agg["max_budget_burned"] = max(agg["max_budget_burned"],
                                       row["budget_burned"])
        agg["episodes"] += row["episodes"]
        agg["attributed"] += row["attributed"]
    return [stacks[key] for key in sorted(stacks)]


TENANT_HEADER = ("source", "run", "tenant", "objective", "conformance",
                 "met", "budget burn", "episodes", "dominant blocker")
STACK_HEADER = ("stack", "tenant-runs", "met", "worst conf", "max burn",
                "episodes", "attributed")


def tenant_cells(row):
    blocker = "-"
    if row["worst_blame"]:
        blocker = f"{row['worst_blame']} ({row['worst_mechanism']})"
    return (row["source"], row["label"], row["tenant"], row["objective"],
            fmt_pct(row["conformance_pct"]),
            "starved" if row["starved"] else "yes" if row["met"] else "NO",
            f"{row['budget_burned']:.2f}x", str(row["episodes"]), blocker)


def stack_cells(agg):
    return (agg["stack"], str(agg["tenant_runs"]),
            f"{agg['met']}/{agg['tenant_runs']}",
            fmt_pct(agg["worst_conformance_pct"]),
            f"{agg['max_budget_burned']:.2f}x", str(agg["episodes"]),
            str(agg["attributed"]))


def render_table(header, cell_rows):
    widths = [len(h) for h in header]
    for cells in cell_rows:
        widths = [max(w, len(c)) for w, c in zip(widths, cells)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("-" * len(lines[0]))
    for cells in cell_rows:
        lines.append(
            "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip())
    return "\n".join(lines)


def render_md_table(header, cell_rows):
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    for cells in cell_rows:
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def render(rows, fmt):
    aggs = rollup(rows)
    if fmt == "json":
        return json.dumps({"schema": "ddslo-v1", "tenants": rows,
                           "stacks": aggs}, indent=2, sort_keys=True) + "\n"
    table = render_md_table if fmt == "md" else render_table
    heading = (lambda s: f"## {s}") if fmt == "md" else (lambda s: f"=== {s} ===")
    parts = [
        heading("Per-tenant SLO conformance"),
        table(TENANT_HEADER, [tenant_cells(r) for r in rows]),
        "",
        heading("Per-stack rollup"),
        table(STACK_HEADER, [stack_cells(a) for a in aggs]),
    ]
    missed = [r for r in rows if not r["met"]]
    parts.append("")
    parts.append(f"{len(rows)} tenant-run(s), {len(missed)} missed their "
                 "objective.")
    return "\n".join(parts) + "\n"


def main(argv):
    parser = argparse.ArgumentParser(
        prog="ddslo", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="+",
                        help="DD_BENCH_JSON sink files or raw result JSONs")
    parser.add_argument("--format", choices=("text", "md", "json"),
                        default="text")
    parser.add_argument("--out", help="write the report here (default stdout)")
    parser.add_argument("--require-met", action="store_true",
                        help="exit 1 when any tenant-run missed its objective")
    args = parser.parse_args(argv)

    rows = collect(args.files)
    if not rows:
        print("ddslo: no input carried an \"slo\" section (configure "
              "ScenarioConfig::slos and re-run with DD_BENCH_JSON)",
              file=sys.stderr)
        return 2
    report = render(rows, args.format)
    if args.out:
        with open(args.out, "w") as f:
            f.write(report)
        print(f"ddslo: wrote {args.out} ({len(rows)} tenant-run(s))",
              file=sys.stderr)
    else:
        sys.stdout.write(report)
    if args.require_met and any(not r["met"] for r in rows):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
