#!/usr/bin/env python3
"""Regression tests for ddlint's waiver and ratchet plumbing.

Covers the file-waiver trailing-`*` prefix match (a bare path must match
exactly; `dir/*` must match the prefix and nothing else) and the shared
baseline format used by both ddlint and ddanalyze.
"""

import importlib.util
import os
import sys
import tempfile
import unittest

_DDLINT_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "ddlint.py")
_spec = importlib.util.spec_from_file_location("ddlint", _DDLINT_PATH)
ddlint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ddlint)


def _finding(path, rule="unordered-iter"):
    return ddlint.Finding(path, 1, rule, "test finding")


class FileWaiverPrefixTest(unittest.TestCase):
    def test_exact_path_matches_only_itself(self):
        hit = _finding("src/apps/kvstore.h")
        miss = _finding("src/apps/kvstore.h.bak")
        ddlint.apply_file_waivers(
            [hit, miss], [("unordered-iter", "src/apps/kvstore.h", "reason")])
        self.assertTrue(hit.waived)
        self.assertFalse(miss.waived)

    def test_trailing_star_is_a_prefix_match(self):
        inside = _finding("src/apps/kvstore.h")
        nested = _finding("src/apps/deep/nested.h")
        outside = _finding("src/stack/kvstore.h")
        ddlint.apply_file_waivers(
            [inside, nested, outside],
            [("unordered-iter", "src/apps/*", "reason")])
        self.assertTrue(inside.waived)
        self.assertTrue(nested.waived)
        self.assertFalse(outside.waived)

    def test_star_does_not_cross_rule_boundaries(self):
        finding = _finding("src/apps/kvstore.h", rule="page-literal")
        ddlint.apply_file_waivers(
            [finding], [("unordered-iter", "src/apps/*", "reason")])
        self.assertFalse(finding.waived)

    def test_bare_star_waives_everything_for_the_rule(self):
        finding = _finding("tests/foo_test.cc")
        ddlint.apply_file_waivers([finding], [("unordered-iter", "*", "r")])
        self.assertTrue(finding.waived)

    def test_already_waived_inline_keeps_its_reason(self):
        finding = _finding("src/apps/kvstore.h")
        finding.waived = True
        finding.waiver_reason = "inline reason"
        ddlint.apply_file_waivers(
            [finding], [("unordered-iter", "src/apps/*", "file reason")])
        self.assertEqual(finding.waiver_reason, "inline reason")


class EngineAllocRuleTest(unittest.TestCase):
    """The engine-alloc rule guards src/sim/engine/'s zero-allocation core."""

    def _check(self, source, rel="src/sim/engine/fake.cc"):
        findings = []
        with tempfile.NamedTemporaryFile("w", suffix=".cc",
                                         delete=False) as f:
            f.write(source)
            path = f.name
        try:
            ddlint.check_file(path, rel, findings)
        finally:
            os.unlink(path)
        return [x for x in findings if x.rule == "engine-alloc"]

    def test_std_function_is_flagged(self):
        hits = self._check("std::function<void()> cb;\n")
        self.assertEqual(len(hits), 1)
        self.assertFalse(hits[0].waived)

    def test_heap_helpers_and_malloc_are_flagged(self):
        source = ("auto p = std::make_unique<int>(1);\n"
                  "auto q = std::make_shared<int>(2);\n"
                  "void* r = malloc(16);\n")
        self.assertEqual(len(self._check(source)), 3)

    def test_non_placement_new_is_flagged_but_placement_new_is_not(self):
        self.assertEqual(len(self._check("int* p = new int;\n")), 1)
        self.assertEqual(
            self._check("::new (static_cast<void*>(buf)) D(std::move(f));\n"),
            [])

    def test_include_new_header_is_not_an_allocation(self):
        self.assertEqual(self._check("#include <new>\n"), [])

    def test_inline_waiver_token_applies(self):
        hits = self._check(
            "slabs_.push_back(std::make_unique<EventRecord[]>(kSlabSize));"
            "  // ddlint: enginealloc-ok(slab growth)\n")
        self.assertEqual(len(hits), 1)
        self.assertTrue(hits[0].waived)

    def test_rule_is_scoped_to_the_engine_dir(self):
        self.assertEqual(
            self._check("std::function<void()> cb;\n", rel="src/sim/cpu.cc"),
            [])


class RatchetBaselineTest(unittest.TestCase):
    def test_waived_counts_group_by_rule(self):
        findings = [_finding("a.h"), _finding("b.h"),
                    _finding("c.h", rule="page-literal")]
        for f in findings:
            f.waived = True
        findings.append(_finding("d.h"))  # active: not counted
        self.assertEqual(ddlint.waived_counts(findings),
                         {"waived.unordered-iter": 2, "waived.page-literal": 1})

    def test_baseline_round_trips_through_the_shared_format(self):
        counts = {"waived.unordered-iter": 2, "waived.page-literal": 1}
        text = ddlint.format_baseline(counts)
        with tempfile.NamedTemporaryFile("w", suffix=".txt",
                                         delete=False) as f:
            f.write(text)
            path = f.name
        try:
            self.assertEqual(ddlint.read_baseline(path), counts)
        finally:
            os.unlink(path)

    def test_missing_baseline_reads_as_none(self):
        self.assertIsNone(ddlint.read_baseline("/nonexistent/baseline.txt"))

    def test_compare_flags_increases_only(self):
        baseline = {"waived.unordered-iter": 2}
        self.assertEqual(
            ddlint.compare_to_baseline({"waived.unordered-iter": 2}, baseline),
            [])
        self.assertEqual(
            ddlint.compare_to_baseline({"waived.unordered-iter": 1}, baseline),
            [])
        self.assertEqual(
            len(ddlint.compare_to_baseline({"waived.unordered-iter": 3},
                                           baseline)), 1)
        self.assertEqual(
            len(ddlint.compare_to_baseline({"waived.bare-assert": 1},
                                           baseline)),
            1)


if __name__ == "__main__":
    sys.exit(unittest.main())
