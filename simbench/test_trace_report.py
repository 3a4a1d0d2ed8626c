"""Tests for the span self-time and counter-delta arithmetic.

  python3 simbench/test_trace_report.py
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import trace_report  # noqa: E402

COUNTERS = ["events", "heap_allocs"]


def span(name, parent, start, end, delta, sweep=1, cell=0):
    return [name, sweep, cell, parent, start, end, delta]


def sample_trace():
    # cell [0, 10] holds setup.env [0, 1], two run slices [1, 4] and [4, 8],
    # and collect [8, 9]; the remaining second is the cell's own.
    spans = [
        span("cell", -1, 0.0, 10.0, [100, 60]),
        span("setup.env", 0, 0.0, 1.0, [0, 20]),
        span("run.slice", 0, 1.0, 4.0, [40, 10]),
        span("run.slice", 0, 4.0, 8.0, [60, 15]),
        span("collect", 0, 8.0, 9.0, [0, 5]),
    ]
    return {"counters": COUNTERS, "run_totals": {"1": [100, 25]},
            "spans": spans}


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        spans = [
            span("cell", -1, 0.0, 10.0, [0, 0]),
            span("setup.tenants", 0, 1.0, 5.0, [0, 0]),
            span("setup.kv_load", 1, 2.0, 4.5, [0, 0]),
        ]
        self.assertEqual(trace_report.self_times(spans), [6.0, 1.5, 2.5])

    def test_self_time_by_layer_sums_spans(self):
        by_layer = trace_report.self_time_by(
            sample_trace()["spans"],
            lambda s: trace_report.layer_of(s[trace_report.NAME]))
        self.assertEqual(by_layer, {"bench": 2.0, "workload": 1.0, "sim": 7.0})

    def test_self_times_add_up_to_root_duration(self):
        spans = sample_trace()["spans"]
        self.assertAlmostEqual(sum(trace_report.self_times(spans)), 10.0)

    def test_unknown_span_names_are_other(self):
        self.assertEqual(trace_report.layer_of("mystery"), "other")


class CounterDeltaTest(unittest.TestCase):
    def test_run_sums_add_run_spans_per_sweep(self):
        trace = sample_trace()
        trace["spans"].append(span("run.slice", -1, 20.0, 21.0, [7, 1],
                                   sweep=3))
        sums = trace_report.run_sums(trace["spans"], COUNTERS)
        self.assertEqual(sums, {1: [100, 25], 3: [7, 1]})

    def test_consistent_trace_has_no_problems(self):
        self.assertEqual(trace_report.problems(sample_trace()), [])

    def test_run_total_mismatch_is_reported(self):
        trace = sample_trace()
        trace["run_totals"]["1"] = [100, 26]
        bad = trace_report.problems(trace)
        self.assertEqual(len(bad), 1)
        self.assertIn("heap_allocs=25", bad[0])

    def test_children_exceeding_parent_is_reported(self):
        trace = sample_trace()
        trace["spans"][0][trace_report.DELTA] = [99, 60]
        bad = trace_report.problems(trace)
        self.assertEqual(len(bad), 1)
        self.assertIn("children events=100", bad[0])

    def test_child_outside_parent_interval_is_reported(self):
        trace = sample_trace()
        trace["spans"][4][trace_report.END] = 11.0
        bad = trace_report.problems(trace)
        self.assertEqual(len(bad), 1)
        self.assertIn("outside its parent", bad[0])

    def test_report_lists_layers_by_self_time(self):
        lines = trace_report.report(sample_trace())
        self.assertTrue(lines[0].startswith("traced 5 spans"))
        self.assertIn("sim", lines[2])
        self.assertIn("70.0%", lines[2])


if __name__ == "__main__":
    unittest.main()
