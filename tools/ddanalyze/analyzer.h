// ddanalyze: token-level static checks for the simulator tree (DESIGN.md
// §7, §10 and §12), the one owner of every code-shape rule the compiler
// cannot check:
//
//   layer-dag     — includes must follow the layer table in layers.cc;
//                   cycles and undeclared (skip) edges are errors, as are
//                   include cycles in the file graph itself.
//   pooled-escape — pooled Request pointers must not outlive delivery:
//                   no Request*/& members in stats (observability copies),
//                   no by-reference lambda captures of Request pointers, no
//                   default captures in scopes holding live Request pointers.
//                   Waive with `// ddanalyze: escape-ok(reason)`.
//   tick-units    — raw integer literals / raw-int locals flowing into
//                   Tick/TickDuration-typed parameters. Not an error: counted
//                   per layer and ratcheted against tools/ddanalyze-baseline.txt
//                   (the count may fall, never rise). Waive a single site with
//                   `// ddanalyze: tick-ok(reason)`.
//
// Shard-safety suite (DESIGN.md §10) — proves the tree is shard-partitionable
// before the sharded parallel simulation lands (ROADMAP item 2):
//
//   global-state  — namespace-scope non-const variables, mutable
//                   function-local statics, thread_local, and non-const class
//                   statics. Any of these is state shared between shards the
//                   moment two simulators run on two threads. const /
//                   constexpr / constinit values are exempt, whatever their
//                   name. Ratcheted per layer like tick-units; waive a
//                   single site with `// ddanalyze: global-ok(reason)`.
//   shard-ownership
//                 — every shard-local root type (Simulator, Machine, CpuCore,
//                   Rng, ShardContext, the engine internals, MetricsRegistry)
//                   has an owning layer and a set of layers allowed to hold a
//                   stored mutable alias (pointer/reference member or local).
//                   Borrowing through a parameter or accessor return is always
//                   fine; *storing* an alias outside the allowed layers (or
//                   any mutable alias in src/stats/, which must observe via
//                   copies and pull gauges) is an error. const-qualified
//                   aliases are shared-immutable views and always allowed.
//                   Waive with `// ddanalyze: shard-ok(reason)`.
//   rng-discipline
//                 — all randomness must flow through the seeded per-shard Rng
//                   (src/sim/rng.h). Bans, at the symbol level, the libc/std
//                   generators (rand, srand, drand48, mt19937, random_device,
//                   ...) and time-derived seed sources (time(), clock(),
//                   gettimeofday, std::chrono), plus angled includes of
//                   <random>, <chrono>, <ctime>, <time.h> and <sys/time.h>.
//                   String literals and comments never match, and only whole
//                   identifiers do. Waive with `// ddanalyze: rng-ok(reason)`.
//
// Observer-neutrality suite (DESIGN.md §12) — call-graph-aware passes
// (tools/ddanalyze/callgraph.h) proving the observability surface cannot
// perturb the simulation:
//
//   observer-purity
//                 — every function under src/stats/ plus every DD_OBSERVER-
//                   annotated function must transitively reach no write to
//                   simulation-owned state (member stores / non-const calls
//                   on Simulator, Machine, Device, the queues, Rng, ...;
//                   stores through pooled Request*; const_cast). Hard
//                   errors; waive with `// ddanalyze: purity-ok(reason)`.
//                   Callees the graph cannot resolve are ratcheted as
//                   "purity-unresolved.<layer>".
//   fingerprint-taint
//                 — observability-only ScenarioConfig fields (export_trace,
//                   sample_interval, analyze_holb, slos, timeline_capacity,
//                   trace_capacity, trace_json_path) must not flow into code
//                   that writes fingerprinted state. Region-scoped taint:
//                   if/while/for conditions taint their controlled blocks,
//                   other reads taint the enclosing statement. Hard errors;
//                   waive with `// ddanalyze: taint-ok(reason)`; unresolved
//                   callees ratchet as "taint-unresolved.<layer>".
//
// Source-hygiene suite (tools/ddanalyze/hygiene.cc) — bare-assert,
// page-literal and engine-alloc over src/, unordered-iter and include-guard
// over src/, bench/ and tests/ (minus this corpus, tests/ddanalyze_fixtures/).
// Every other pass reads src/ only. Waived hygiene sites are ratcheted as
// "waived.<rule>.<layer>", so waivers can only burn down.
#ifndef DAREDEVIL_TOOLS_DDANALYZE_ANALYZER_H_
#define DAREDEVIL_TOOLS_DDANALYZE_ANALYZER_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/ddanalyze/lexer.h"

namespace ddanalyze {

struct Finding {
  // The rule name ("layer-dag", "page-literal", ...); ratchet sites use
  // their counter prefix ("tick-units", "waived.page-literal", ...).
  std::string rule;
  std::string file;  // repo-relative path
  int line = 0;
  std::string message;
};

struct SourceFile {
  std::string rel_path;  // e.g. "src/nvme/device.h"
  LexedFile lex;
};

// --- Individual rules (exposed for unit tests) ----------------------------

// Layer-DAG rule over the whole file set: validates the table, maps files to
// layers, checks every quoted include edge, and reports file-graph cycles.
void CheckLayers(const std::vector<SourceFile>& files,
                 std::vector<Finding>* out);

// Pooled-escape rule for one file. `in_stats` marks src/stats/** files where
// Request*/& member declarations are additionally banned.
void CheckPooledEscapes(const SourceFile& file, bool in_stats,
                        std::vector<Finding>* out);

// Function name -> zero-based indices of Tick/TickDuration parameters,
// harvested from declarations in the scanned headers.
using TickSymbolTable = std::map<std::string, std::set<int>>;

TickSymbolTable BuildTickSymbols(const std::vector<SourceFile>& files);

void CheckTickUnits(const SourceFile& file, const TickSymbolTable& symbols,
                    std::vector<Finding>* out);

// Global-state rule for one file: namespace-scope non-const variables,
// mutable function-local statics, thread_local, non-const class statics.
// Findings are ratcheted per layer ("global-state.<layer>"), not errors.
void CheckGlobalState(const SourceFile& file, std::vector<Finding>* out);

// Shard-ownership rule for one file. `layer` is the file's ddanalyze layer
// (LayerOf); pass "" for unmapped files (every alias store is then flagged).
void CheckShardOwnership(const SourceFile& file, const std::string& layer,
                         std::vector<Finding>* out);

// RNG-stream discipline rule for one file: bans ambient randomness and
// time-derived seed sources at the identifier level.
void CheckRngDiscipline(const SourceFile& file, std::vector<Finding>* out);

// Source-hygiene rules for one file (scoped by the driver). Each emits at
// most one finding per line: an error, or a "waived.<rule>" ratchet site
// when the line carries the rule's waiver token.
void CheckBareAssert(const SourceFile& file, std::vector<Finding>* errors,
                     std::vector<Finding>* ratchet);
void CheckPageLiteral(const SourceFile& file, std::vector<Finding>* errors,
                      std::vector<Finding>* ratchet);
void CheckEngineAlloc(const SourceFile& file, std::vector<Finding>* errors,
                      std::vector<Finding>* ratchet);
void CheckUnorderedIter(const SourceFile& file, std::vector<Finding>* errors,
                        std::vector<Finding>* ratchet);
// Headers only (.h/.hpp); other files are skipped.
void CheckIncludeGuard(const SourceFile& file, std::vector<Finding>* errors,
                       std::vector<Finding>* ratchet);

// --- Driver ---------------------------------------------------------------

// One entry per pass the driver ran, in execution order, with wall time —
// surfaced by `ddanalyze --json` / `--list-passes` so the CI step summary
// shows which pass found what and how long it took.
struct PassStat {
  std::string name;
  double wall_ms = 0.0;
  int findings = 0;       // hard errors this pass emitted
  int ratchet_sites = 0;  // ratcheted (non-error) sites this pass emitted
};

// Names and one-line descriptions of every pass, in execution order
// (includes the "scan" and "callgraph" infrastructure steps).
std::vector<std::pair<std::string, std::string>> ListPasses();

struct AnalysisResult {
  // Hard errors of every rule: must be empty for the tree to pass.
  std::vector<Finding> errors;
  // tick-units + global-state + purity-unresolved + taint-unresolved +
  // waived hygiene sites (not errors, but ratcheted).
  std::vector<Finding> ratchet;
  // "<rule>.<layer>" -> count; layers with zero sites are omitted.
  std::map<std::string, int> ratchet_counts;
  // Per-pass wall time and finding counts, in execution order.
  std::vector<PassStat> passes;
};

// Scans <root>/{src,bench,tests}/**/*.{h,cc,cpp,hpp} (minus
// tests/ddanalyze_fixtures/) and runs all rules.
AnalysisResult Analyze(const std::string& root);

// Baseline file format: '#' comments and "<key> <count>" lines. Returns an
// empty map and sets *err when the file cannot be read.
std::map<std::string, int> ReadBaseline(const std::string& path,
                                        std::string* err);
std::string FormatBaseline(const std::map<std::string, int>& counts);

// Ratchet comparison: every current count must be <= the baseline count
// (missing baseline key = 0). Returns violation messages (empty = pass).
std::vector<std::string> CompareToBaseline(
    const std::map<std::string, int>& current,
    const std::map<std::string, int>& baseline);

// JSON string-body escaping for the CLI's --json output (exposed here so the
// regression tests can drive it). Escapes '"', '\\' and every control
// character below 0x20 (\n, \t, \r get their short forms, the rest \u00XX),
// so findings whose messages quote source text stay valid JSON.
std::string JsonEscape(const std::string& s);

}  // namespace ddanalyze

#endif  // DAREDEVIL_TOOLS_DDANALYZE_ANALYZER_H_
