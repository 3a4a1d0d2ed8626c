#!/usr/bin/env python3
"""ddlint: simulator-specific static checks for the Daredevil repository.

A discrete-event simulator has correctness rules a generic linter cannot
know. This pass enforces the ones no other checker owns over src/, bench/,
and tests/. Each rule has exactly one owner: wall-clock reads, ambient RNGs
and mutable statics belong to ddanalyze (rng-discipline, global-state), and
the trace-category tables to the static_asserts in src/sim/trace.h.

  bare-assert     No bare assert() in src/. Use DD_CHECK and friends
                  (src/core/invariant.h) so violations report request id,
                  tick, and stage context, and compile in/out as one unit.
  unordered-iter  No range-for over a std::unordered_map/unordered_set:
                  iteration order depends on hashing/libstdc++ internals, the
                  canonical source of seed-independent nondeterminism in a
                  DES. Use an ordered container, iterate a sorted key copy,
                  or waive the site.
  include-guard   Headers carry the canonical DAREDEVIL_<PATH>_H_ guard.
  page-literal    No raw 4096 page-size arithmetic in src/; derive byte
                  quantities from kPageBytes (src/stack/request.h) so unit
                  bugs stay grep-able.
  engine-alloc    src/sim/engine/ is the zero-allocation core: no
                  std::function (type-erased heap captures), no
                  make_unique/make_shared, no malloc family, and no
                  non-placement `new`. The arena's slab-growth line is the
                  one sanctioned (waived) allocation site; everything else
                  must use the arena or inline storage.

Waivers
  Inline, on the offending line (preferred for one-off sites):
      ... // ddlint: ordered-ok(stats dump, order does not reach the sim)
  The token is <rule-token>-ok where the tokens are: assert, ordered, guard,
  units, enginealloc. A reason inside the parentheses is mandatory.

  File-level, in tools/ddlint-waivers.txt (one per line):
      <rule> <path> <reason...>
  Paths are repo-relative; a trailing * makes a prefix match.

Usage
  tools/ddlint.py [--root DIR] [--json] [--list-waived]
                  [--baseline FILE] [--write-baseline] [--no-ratchet]

Ratchet
  Waivers are debt. The baseline file (tools/ddlint-baseline.txt, same
  "<key> <count>" format as tools/ddanalyze-baseline.txt) records how many
  waived findings each rule is allowed; the count may only decrease. Use
  --write-baseline after burning down waivers to lock in the lower number.

Exit status is 1 when any unwaived finding exists or the ratchet regressed,
else 0.
"""

import argparse
import json
import os
import re
import sys

SCAN_DIRS = ("src", "bench", "tests")
# ddanalyze's fixture corpus is deliberately rule-breaking analyzer *input*,
# not simulator code; linting it would just accumulate waiver debt.
SKIP_DIRS = ("tests/ddanalyze_fixtures",)
SOURCE_EXTS = (".h", ".cc")
WAIVER_FILE = os.path.join("tools", "ddlint-waivers.txt")
BASELINE_FILE = os.path.join("tools", "ddlint-baseline.txt")

# rule name -> inline waiver token (used as "// ddlint: <token>-ok(reason)").
RULE_TOKENS = {
    "bare-assert": "assert",
    "unordered-iter": "ordered",
    "include-guard": "guard",
    "page-literal": "units",
    "engine-alloc": "enginealloc",
}

# Directory the engine-alloc rule guards (the zero-allocation event core).
ENGINE_DIR = "src/sim/engine/"

ENGINE_ALLOC_PATTERNS = [
    (re.compile(r"\bstd::function\b"), "std::function (type-erased heap "
     "captures): use EventFn's inline storage"),
    (re.compile(r"\bstd::make_(unique|shared)\b|\bmake_(unique|shared)\s*<"),
     "heap allocation helper"),
    (re.compile(r"\b(malloc|calloc|realloc)\s*\("), "C heap allocation"),
    # Placement new is written `::new (ptr) T(...)`; anything else is a heap
    # allocation. The lookbehind excludes the qualified placement form.
    (re.compile(r"(?<!:)\bnew\b(?!\s*\()"), "non-placement new"),
]

BARE_ASSERT_RE = re.compile(r"(?<![_\w])assert\s*\(")
STATIC_ASSERT_RE = re.compile(r"\bstatic_assert\s*\(")
CASSERT_RE = re.compile(r"#\s*include\s*<(cassert|assert\.h)>")

UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<.*>\s+(\w+)\s*(?:;|=|\{|\))")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;]*?):([^;]*)\)")

PAGE_LITERAL_RE = re.compile(r"\b4096\b")

INLINE_WAIVER_RE = re.compile(r"//\s*ddlint:\s*([a-z]+)-ok\(([^)]*)\)")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message
        self.waived = False
        self.waiver_reason = None

    def as_dict(self):
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
            "waived": self.waived,
            "waiver_reason": self.waiver_reason,
        }


def strip_comments_and_strings(lines):
    """Returns lines with comments, string and char literals blanked out.

    Line structure is preserved so findings keep their line numbers. Inline
    waivers must be extracted *before* calling this (they live in comments).
    """
    out = []
    in_block = False
    for line in lines:
        buf = []
        i = 0
        n = len(line)
        while i < n:
            c = line[i]
            if in_block:
                if line.startswith("*/", i):
                    in_block = False
                    i += 2
                else:
                    i += 1
                continue
            if line.startswith("//", i):
                break
            if line.startswith("/*", i):
                in_block = True
                i += 2
                continue
            if c == '"' or c == "'":
                quote = c
                i += 1
                while i < n:
                    if line[i] == "\\":
                        i += 2
                        continue
                    if line[i] == quote:
                        i += 1
                        break
                    i += 1
                buf.append(quote + quote)
                continue
            buf.append(c)
            i += 1
        out.append("".join(buf))
    return out


def expected_guard(path):
    stem = re.sub(r"[./-]", "_", path).upper()
    return "DAREDEVIL_{}_".format(stem)


def check_file(path, rel, findings):
    with open(path, encoding="utf-8") as f:
        raw_lines = f.read().splitlines()

    # line number -> list of (token, reason) inline waivers.
    inline_waivers = {}
    for lineno, line in enumerate(raw_lines, 1):
        for m in INLINE_WAIVER_RE.finditer(line):
            inline_waivers.setdefault(lineno, []).append((m.group(1), m.group(2)))

    lines = strip_comments_and_strings(raw_lines)
    in_src = rel.startswith("src/")
    is_header = rel.endswith(".h")

    def emit(lineno, rule, message):
        finding = Finding(rel, lineno, rule, message)
        token = RULE_TOKENS[rule]
        for wtoken, reason in inline_waivers.get(lineno, []):
            if wtoken == token:
                finding.waived = True
                finding.waiver_reason = reason or "(no reason given)"
        findings.append(finding)

    # --- rules scoped to src/ (the simulation model itself) ---------------
    if in_src:
        for lineno, line in enumerate(lines, 1):
            no_static = STATIC_ASSERT_RE.sub("", line)
            if BARE_ASSERT_RE.search(no_static) or CASSERT_RE.search(line):
                emit(lineno, "bare-assert",
                     "bare assert(): use DD_CHECK/DD_CHECK_LE/DD_FAIL "
                     "(src/core/invariant.h) so the failure carries request "
                     "id, tick, and stage context")
            if PAGE_LITERAL_RE.search(line):
                emit(lineno, "page-literal",
                     "raw 4096 literal: derive byte quantities from "
                     "kPageBytes (src/stack/request.h), or waive if this is "
                     "not a page-size quantity")

    # --- engine-alloc: the zero-allocation event core ----------------------
    if rel.startswith(ENGINE_DIR):
        for lineno, line in enumerate(lines, 1):
            if re.match(r"\s*#\s*include\b", line):
                continue  # `#include <new>` is not an allocation
            for pattern, what in ENGINE_ALLOC_PATTERNS:
                if pattern.search(line):
                    emit(lineno, "engine-alloc",
                         "{}: src/sim/engine/ schedules events without "
                         "allocating (arena slots + inline EventFn storage "
                         "only)".format(what))

    # --- unordered-iter: everywhere (tests copying the idiom spread it) ---
    unordered_names = set()
    for line in lines:
        for m in UNORDERED_DECL_RE.finditer(line):
            unordered_names.add(m.group(1))
    if unordered_names:
        name_res = {
            name: re.compile(r"\b{}\b".format(re.escape(name)))
            for name in unordered_names
        }
        for lineno, line in enumerate(lines, 1):
            m = RANGE_FOR_RE.search(line)
            if not m:
                continue
            range_expr = m.group(2)
            for name, name_re in name_res.items():
                if name_re.search(range_expr):
                    emit(lineno, "unordered-iter",
                         "range-for over unordered container '{}': iteration "
                         "order is hash-dependent nondeterminism; use an "
                         "ordered container or a sorted copy".format(name))

    # --- include guards ---------------------------------------------------
    if is_header:
        guard = expected_guard(rel)
        text = "\n".join(lines)
        ifndef_re = re.compile(r"#\s*ifndef\s+(\w+)")
        m = ifndef_re.search(text)
        guard_line = 1
        for lineno, line in enumerate(lines, 1):
            if ifndef_re.search(line):
                guard_line = lineno
                break
        if m is None or m.group(1) != guard or \
                "#define {}".format(guard) not in text.replace("# define", "#define"):
            found = m.group(1) if m else "none"
            emit(guard_line, "include-guard",
                 "include guard must be {} (found {})".format(guard, found))


def load_waiver_file(root):
    """Returns a list of (rule, path_pattern, reason)."""
    waivers = []
    path = os.path.join(root, WAIVER_FILE)
    if not os.path.exists(path):
        return waivers
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 2)
            if len(parts) < 3:
                print("{}:{}: malformed waiver (want: <rule> <path> <reason>)"
                      .format(WAIVER_FILE, lineno), file=sys.stderr)
                sys.exit(2)
            rule, pattern, reason = parts
            if rule not in RULE_TOKENS:
                print("{}:{}: unknown rule '{}'".format(WAIVER_FILE, lineno,
                                                        rule), file=sys.stderr)
                sys.exit(2)
            waivers.append((rule, pattern, reason))
    return waivers


def apply_file_waivers(findings, waivers):
    for finding in findings:
        if finding.waived:
            continue
        for rule, pattern, reason in waivers:
            if rule != finding.rule:
                continue
            if pattern.endswith("*"):
                if not finding.path.startswith(pattern[:-1]):
                    continue
            elif finding.path != pattern:
                continue
            finding.waived = True
            finding.waiver_reason = reason


def waived_counts(findings):
    """Ratchet counters: number of waived findings per rule."""
    counts = {}
    for finding in findings:
        if finding.waived:
            key = "waived.{}".format(finding.rule)
            counts[key] = counts.get(key, 0) + 1
    return counts


def read_baseline(path):
    """Parses the shared baseline format: '#' comments, '<key> <count>' lines.

    Returns None when the file does not exist (ratchet silently skipped, so
    fresh checkouts and fixture trees work without one).
    """
    if not os.path.exists(path):
        return None
    counts = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) == 2:
                counts[parts[0]] = int(parts[1])
    return counts


def format_baseline(counts):
    lines = [
        "# ddlint ratchet baseline: waived findings per rule. Counts may",
        "# only decrease; regenerate with `ddlint.py --write-baseline`",
        "# after burning down waivers.",
    ]
    for key in sorted(counts):
        lines.append("{} {}".format(key, counts[key]))
    return "\n".join(lines) + "\n"


def compare_to_baseline(current, baseline):
    """Returns violation messages; a missing baseline key allows zero."""
    violations = []
    for key in sorted(current):
        allowed = baseline.get(key, 0)
        if current[key] > allowed:
            violations.append(
                "{}: {} waived site(s), baseline allows {} (burn down "
                "waivers instead of adding them)".format(
                    key, current[key], allowed))
    return violations


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repository root (default: parent of this script)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    parser.add_argument("--list-waived", action="store_true",
                        help="also print waived findings in human output")
    parser.add_argument("--baseline", default=None,
                        help="ratchet baseline file (default: {})".format(
                            BASELINE_FILE))
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite the baseline from the current counts")
    parser.add_argument("--no-ratchet", action="store_true",
                        help="skip the waiver-count ratchet")
    args = parser.parse_args()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    baseline_path = args.baseline or os.path.join(root, BASELINE_FILE)

    findings = []
    for scan_dir in SCAN_DIRS:
        top = os.path.join(root, scan_dir)
        for dirpath, _, filenames in os.walk(top):
            for filename in sorted(filenames):
                if not filename.endswith(SOURCE_EXTS):
                    continue
                path = os.path.join(dirpath, filename)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                if any(rel.startswith(skip + "/") for skip in SKIP_DIRS):
                    continue
                check_file(path, rel, findings)

    apply_file_waivers(findings, load_waiver_file(root))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    active = [f for f in findings if not f.waived]
    waived = [f for f in findings if f.waived]

    counts = waived_counts(findings)
    if args.write_baseline:
        with open(baseline_path, "w", encoding="utf-8") as f:
            f.write(format_baseline(counts))
        print("ddlint: wrote {} ratchet counter(s) to {}".format(
            len(counts), baseline_path))
    violations = []
    if not args.no_ratchet and not args.write_baseline:
        baseline = read_baseline(baseline_path)
        if baseline is not None:
            violations = compare_to_baseline(counts, baseline)

    if args.json:
        print(json.dumps({
            "findings": [f.as_dict() for f in findings],
            "active": len(active),
            "waived": len(waived),
            "ratchet": counts,
            "ratchet_violations": violations,
        }, indent=2))
    else:
        for f in active:
            print("{}:{}: [{}] {}".format(f.path, f.line, f.rule, f.message))
        if args.list_waived:
            for f in waived:
                print("{}:{}: [{}] waived: {}".format(f.path, f.line, f.rule,
                                                      f.waiver_reason))
        for v in violations:
            print("ratchet regression: {}".format(v))
        print("ddlint: {} finding(s), {} waived, {} ratchet regression(s)"
              .format(len(active), len(waived), len(violations)))
    return 1 if active or violations else 0


if __name__ == "__main__":
    sys.exit(main())
