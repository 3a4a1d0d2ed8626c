#!/usr/bin/env python3
"""Tests for ddperf's A/B verdict on canned simbench results.

A head median worse than the base median by more than the metric's bound
fails, one inside the bound passes, and a run reporting correct: false fails
whatever its numbers. Workloads and metrics that only one side's
BENCHMARK.json declares are listed but neither run nor gated.
"""

import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

_DDPERF_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "ddperf.py")
_spec = importlib.util.spec_from_file_location("ddperf", _DDPERF_PATH)
ddperf = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ddperf)

END_TO_END = [
    {"name": "sim_ios_per_s", "better": "higher", "bound": 0.25},
    {"name": "sim_l_p99_us", "better": "lower", "bound": 0.25},
]


def _run(ios, p99, correct=True):
    return {"correct": correct,
            "metrics": {"sim_ios_per_s": {"value": ios},
                        "sim_l_p99_us": {"value": p99}}}


def _runs(values, correct=True):
    return [_run(ios, p99, correct) for ios, p99 in values]


BASE = _runs([(100.0, 50.0), (90.0, 60.0), (110.0, 40.0)])  # medians 100, 50


class CompareTest(unittest.TestCase):
    def verdicts(self, rows):
        return {row["metric"]: row["verdict"] for row in rows}

    def test_identical_runs_pass(self):
        rows, failures = ddperf.compare(BASE, BASE, END_TO_END)
        self.assertEqual(failures, [])
        self.assertEqual(self.verdicts(rows),
                         {"sim_ios_per_s": "ok", "sim_l_p99_us": "ok"})

    def test_worse_inside_the_bound_passes(self):
        # 20% fewer I/Os per second and a 20% higher p99: both inside 25%.
        head = _runs([(80.0, 60.0), (70.0, 70.0), (90.0, 50.0)])
        rows, failures = ddperf.compare(BASE, head, END_TO_END)
        self.assertEqual(failures, [])
        self.assertAlmostEqual(rows[0]["worse_by"], 0.20)
        self.assertAlmostEqual(rows[1]["worse_by"], 0.20)

    def test_higher_is_better_metric_worse_than_the_bound_fails(self):
        head = _runs([(70.0, 50.0), (60.0, 50.0), (80.0, 50.0)])  # -30%
        rows, failures = ddperf.compare(BASE, head, END_TO_END)
        self.assertEqual(len(failures), 1)
        self.assertIn("sim_ios_per_s", failures[0])
        self.assertEqual(self.verdicts(rows)["sim_ios_per_s"], "WORSE")

    def test_lower_is_better_metric_worse_than_the_bound_fails(self):
        head = _runs([(100.0, 70.0), (100.0, 65.0), (100.0, 75.0)])  # +40%
        rows, failures = ddperf.compare(BASE, head, END_TO_END)
        self.assertEqual(len(failures), 1)
        self.assertIn("sim_l_p99_us", failures[0])
        self.assertEqual(self.verdicts(rows)["sim_l_p99_us"], "WORSE")

    def test_better_by_any_amount_passes(self):
        head = _runs([(300.0, 5.0), (300.0, 5.0), (300.0, 5.0)])
        rows, failures = ddperf.compare(BASE, head, END_TO_END)
        self.assertEqual(failures, [])
        self.assertLess(rows[0]["worse_by"], 0)
        self.assertLess(rows[1]["worse_by"], 0)

    def test_a_run_that_is_not_correct_fails(self):
        head = BASE[:2] + [_run(100.0, 50.0, correct=False)]
        _, failures = ddperf.compare(BASE, head, END_TO_END)
        self.assertEqual(len(failures), 1)
        self.assertIn("head", failures[0])
        _, failures = ddperf.compare(head, BASE, END_TO_END)
        self.assertEqual(len(failures), 1)
        self.assertIn("base", failures[0])

    def test_a_failed_run_fails(self):
        failed = {"correct": False, "metrics": {}, "error": "exited with 1"}
        _, failures = ddperf.compare(BASE, BASE[:2] + [failed], END_TO_END)
        self.assertEqual(len(failures), 1)

    def test_zero_base_only_fails_when_head_is_worse(self):
        self.assertEqual(ddperf.relative_change(0.0, 0.0, "lower"), 0.0)
        self.assertEqual(ddperf.relative_change(0.0, 1.0, "lower"),
                         float("inf"))
        self.assertEqual(ddperf.relative_change(0.0, 1.0, "higher"), 0.0)

    def test_spread_wider_than_the_bound_is_unresolved_not_failed(self):
        wide = _runs([(100.0, 50.0), (40.0, 50.0), (160.0, 50.0),
                      (100.0, 50.0)])  # IQR/median 0.3 > 0.25
        rows, failures = ddperf.compare(wide, BASE, END_TO_END)
        self.assertEqual(failures, [])
        self.assertEqual(self.verdicts(rows),
                         {"sim_ios_per_s": "unresolved", "sim_l_p99_us": "ok"})

    def test_spread_is_the_interquartile_range_over_the_median(self):
        self.assertAlmostEqual(ddperf.spread([90.0, 100.0, 110.0]), 0.10)
        self.assertEqual(ddperf.spread([5.0]), 0.0)


def _benchmark(command, workloads, metrics, bound=0.25):
    return {"command": command, "run_seconds": 30,
            "workloads": [{"name": w} for w in workloads],
            "end_to_end": [{"name": m, "better": "higher", "bound": bound}
                           for m in metrics]}


class AbTest(unittest.TestCase):
    """cmd_ab over two BENCHMARK.json files, with run_once stubbed out."""

    def run_ab(self, base_bench, head_bench, ios_by_side):
        """Returns (exit code, stdout, [(side, command, workload, seconds)])."""
        calls = []
        with tempfile.TemporaryDirectory() as base, \
                tempfile.TemporaryDirectory() as head:
            for checkout, bench in ((base, base_bench), (head, head_bench)):
                with open(os.path.join(checkout, "BENCHMARK.json"), "w") as f:
                    json.dump(bench, f)

            def fake_run_once(checkout, command, workload, seconds):
                side = "base" if checkout == base else "head"
                calls.append((side, command[0], workload, seconds))
                return {"correct": True,
                        "metrics": {"ios": {"value": ios_by_side[side]}}}

            saved = ddperf.run_once
            ddperf.run_once = fake_run_once
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = ddperf.main(["ab", "--base", base, "--head", head])
            finally:
                ddperf.run_once = saved
        return code, out.getvalue(), calls

    def test_one_sided_workloads_and_metrics_are_listed_not_gated(self):
        base_bench = _benchmark(["base-run"], ["kept", "gone"],
                                ["ios", "gone_m"])
        head_bench = _benchmark(["head-run"], ["kept", "added"],
                                ["ios", "added_m"])
        # No run reports added_m or gone_m: an ungated metric cannot fail.
        code, out, calls = self.run_ab(base_bench, head_bench,
                                       {"base": 1.0, "head": 1.0})
        self.assertEqual(code, 0, out)
        ungated = "| - | - | - | - | - | - | "
        for row in (f"| kept | `added_m` {ungated}new, ungated |",
                    f"| kept | `gone_m` {ungated}dropped, ungated |",
                    f"| added | all {ungated}new, ungated |",
                    f"| gone | all {ungated}dropped, ungated |"):
            self.assertIn(row, out)
        # Only the shared workload runs; each side uses its own command and
        # the head's run length; the order alternates pair by pair.
        self.assertEqual(len(calls), 2 * ddperf.PAIRS)
        self.assertEqual({(cmd, w, sec) for side, cmd, w, sec in calls
                          if side == "base"}, {("base-run", "kept", 30)})
        self.assertEqual({(cmd, w, sec) for side, cmd, w, sec in calls
                          if side == "head"}, {("head-run", "kept", 30)})
        self.assertEqual([side for side, _, _, _ in calls[:4]],
                         ["base", "head", "head", "base"])

    def test_the_bound_comes_from_the_base(self):
        # Head is 50% slower and loosens its own bound to 1000%.
        base_bench = _benchmark(["run"], ["w"], ["ios"])
        head_bench = _benchmark(["run"], ["w"], ["ios"], bound=10.0)
        code, out, _ = self.run_ab(base_bench, head_bench,
                                   {"base": 100.0, "head": 50.0})
        self.assertEqual(code, 1, out)
        self.assertIn("| w | `ios` | 100 | 0.00 | 50 | 0.00 | +50.0% | 25% | "
                      "WORSE |", out)


if __name__ == "__main__":
    sys.exit(unittest.main())
