#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

  python3 simbench/run.py --workload openloop_sweep --seed 1 --seconds 20 \
      --trace 0 [--holdout-seed N] [--default-seed N]

Run it from the repository root. The build goes to $CARGO_TARGET_DIR if set,
else .bench_build (CMake + Ninja or Make, Release, invariants off). Build
output goes to stderr; stdout carries the benchmark's report and, as its last
line, one JSON object with the keys correct, attempted, failed and metrics.
With --trace 1 the spans are written to <build dir>/trace_<workload>.json and
summarised here (self time per layer), and the span arithmetic is checked
against the totals the benchmark measured directly.

Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import trace_report  # noqa: E402


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("simbench: simulator sources (src/) not found")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "2"], check=True,
                   stdout=sys.stderr)
    return os.path.join(build_dir, "simbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="openloop_sweep, ycsb_kv or observed_closed")
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: --default-seed)")
    ap.add_argument("--default-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--holdout-seed", type=int, default=None,
                    help="also run the output checks on this seed")
    args = ap.parse_args()
    if args.seed is None:
        args.seed = args.default_seed

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"simbench: build failed: {e}")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.holdout_seed is not None:
        cmd += ["--holdout-seed", str(args.holdout_seed)]
    trace_path = os.path.join(build_dir, f"trace_{args.workload}.json")
    if args.trace:
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds * 2 + 100)
    except subprocess.TimeoutExpired:
        sys.exit("simbench: run timed out")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.exit(f"simbench: exited with {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    if args.trace:
        trace = trace_report.load(trace_path)
        for line in trace_report.report(trace):
            print(line)
        bad = trace_report.problems(trace)
        for p in bad:
            print(f"TRACE CHECK FAILED: {p}")
        result["attempted"] += 1
        if bad:
            result["failed"] += 1
            result["correct"] = False
        result["metrics"]["error_ratio"]["value"] = (
            result["failed"] / result["attempted"])
        print(f"trace written to {trace_path}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
