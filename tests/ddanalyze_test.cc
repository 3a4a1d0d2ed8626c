// Tests for tools/ddanalyze: the layer table itself, and the fixture corpus
// under tests/ddanalyze_fixtures/. Every *_bad tree must produce its known
// findings; every *_good tree must come back clean (waivers included; a
// waived source-hygiene site is a ratchet count, not an error).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "tools/ddanalyze/analyzer.h"
#include "tools/ddanalyze/callgraph.h"
#include "tools/ddanalyze/layers.h"
#include "tools/ddanalyze/lexer.h"

namespace {

using ddanalyze::AnalysisResult;
using ddanalyze::Analyze;
using ddanalyze::Finding;

std::string FixtureRoot(const std::string& name) {
  return std::string(DDANALYZE_FIXTURE_DIR) + "/" + name;
}

bool HasFinding(const std::vector<Finding>& findings, const std::string& rule,
                const std::string& file_substr, const std::string& msg_substr) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.rule == rule && f.file.find(file_substr) != std::string::npos &&
           f.message.find(msg_substr) != std::string::npos;
  });
}

// The lines `rule` flagged in files matching `file_substr`, sorted, one entry
// per finding (a line naming two banned symbols appears twice).
std::vector<int> FlaggedLines(const std::vector<Finding>& findings,
                              const std::string& rule,
                              const std::string& file_substr) {
  std::vector<int> lines;
  for (const Finding& f : findings) {
    if (f.rule == rule && f.file.find(file_substr) != std::string::npos) {
      lines.push_back(f.line);
    }
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(LayerTable, IsAValidDag) {
  EXPECT_TRUE(ddanalyze::ValidateLayerTable().empty());
}

TEST(LayerTable, EdgesFollowTheDeclaredDeps) {
  EXPECT_TRUE(ddanalyze::LayerEdgeAllowed("nvme", "nvme"));
  EXPECT_TRUE(ddanalyze::LayerEdgeAllowed("nvme", "stats"));
  EXPECT_TRUE(ddanalyze::LayerEdgeAllowed("workload", "core"));
  // The engine sits below sim: sim may reach down, never the reverse.
  EXPECT_TRUE(ddanalyze::LayerEdgeAllowed("sim", "sim.engine"));
  EXPECT_TRUE(ddanalyze::LayerEdgeAllowed("stack", "sim.engine"));
  // Skips and reversals are rejected even when a transitive path exists.
  EXPECT_FALSE(ddanalyze::LayerEdgeAllowed("nvme", "core"));
  EXPECT_FALSE(ddanalyze::LayerEdgeAllowed("stats", "nvme"));
  EXPECT_FALSE(ddanalyze::LayerEdgeAllowed("time", "sim"));
  EXPECT_FALSE(ddanalyze::LayerEdgeAllowed("sim.engine", "sim"));
}

TEST(LayerTable, EngineSubdirectoryIsItsOwnLayer) {
  EXPECT_EQ(ddanalyze::LayerOf("src/sim/engine/ladder_queue.h"), "sim.engine");
  EXPECT_EQ(ddanalyze::LayerOf("src/sim/engine/event_fn.h"), "sim.engine");
  EXPECT_EQ(ddanalyze::LayerOf("src/sim/engine/event_arena.h"), "sim.engine");
  // Files directly under src/sim/ still map to the simulator layer.
  EXPECT_EQ(ddanalyze::LayerOf("src/sim/simulator.h"), "sim");
}

TEST(LayerTable, OverridesPinTheVocabularyFiles) {
  EXPECT_EQ(ddanalyze::LayerOf("src/core/types.h"), "vocab");
  EXPECT_EQ(ddanalyze::LayerOf("src/stack/request.h"), "vocab");
  EXPECT_EQ(ddanalyze::LayerOf("src/sim/clock.h"), "time");
  EXPECT_EQ(ddanalyze::LayerOf("src/core/nqreg.h"), "core");
  EXPECT_EQ(ddanalyze::LayerOf("src/nonsense/x.h"), "");
}

TEST(LayerDag, BadFixtureFlagsSkipCycleAndUnknownLayer) {
  const AnalysisResult r = Analyze(FixtureRoot("layer_bad"));
  EXPECT_EQ(r.errors.size(), 3u);
  EXPECT_TRUE(HasFinding(r.errors, "layer-dag", "bad_include.h",
                         "must not include layer 'apps'"));
  EXPECT_TRUE(HasFinding(r.errors, "layer-dag", "widget.h", "maps to no layer"));
  EXPECT_TRUE(HasFinding(r.errors, "layer-dag", "src/sim/", "include cycle"));
}

TEST(LayerDag, GoodFixtureIsCleanIncludingWaivedEdge) {
  const AnalysisResult r = Analyze(FixtureRoot("layer_good"));
  EXPECT_TRUE(r.errors.empty()) << r.errors.size() << " unexpected finding(s), "
                                << "first: "
                                << (r.errors.empty() ? "" : r.errors[0].message);
}

TEST(PooledEscape, BadFixtureFlagsEveryEscape) {
  const AnalysisResult r = Analyze(FixtureRoot("escape_bad"));
  EXPECT_EQ(r.errors.size(), 4u);
  EXPECT_TRUE(HasFinding(r.errors, "pooled-escape", "collector.h",
                         "field 'last_rq_'"));
  EXPECT_TRUE(HasFinding(r.errors, "pooled-escape", "collector.h",
                         "must not store Request pointers"));
  EXPECT_TRUE(HasFinding(r.errors, "pooled-escape", "submit.cc",
                         "capture of Request pointer 'rq' by reference"));
  EXPECT_TRUE(
      HasFinding(r.errors, "pooled-escape", "submit.cc", "default capture [&]"));
}

TEST(PooledEscape, GoodFixtureIsCleanIncludingWaivedStore) {
  const AnalysisResult r = Analyze(FixtureRoot("escape_good"));
  EXPECT_TRUE(r.errors.empty()) << r.errors.size() << " unexpected finding(s), "
                                << "first: "
                                << (r.errors.empty() ? "" : r.errors[0].message);
}

TEST(TickUnits, BadFixtureCountsBothRawSites) {
  const AnalysisResult r = Analyze(FixtureRoot("tick_bad"));
  EXPECT_TRUE(r.errors.empty());
  ASSERT_EQ(r.ratchet.size(), 2u);
  EXPECT_TRUE(HasFinding(r.ratchet, "tick-units", "use.cc",
                         "raw integer literal 1000"));
  EXPECT_TRUE(HasFinding(r.ratchet, "tick-units", "use.cc", "raw integer 'gap'"));
  ASSERT_EQ(r.ratchet_counts.count("tick-units.sim"), 1u);
  EXPECT_EQ(r.ratchet_counts.at("tick-units.sim"), 2);
}

TEST(TickUnits, GoodFixtureIsCleanIncludingWaivedSite) {
  const AnalysisResult r = Analyze(FixtureRoot("tick_good"));
  EXPECT_TRUE(r.errors.empty());
  EXPECT_TRUE(r.ratchet.empty())
      << "first: " << (r.ratchet.empty() ? "" : r.ratchet[0].message);
  EXPECT_TRUE(r.ratchet_counts.empty());
}

TEST(GlobalState, BadFixtureFlagsEveryMutableStaticShape) {
  const AnalysisResult r = Analyze(FixtureRoot("globals_bad"));
  EXPECT_TRUE(r.errors.empty());
  EXPECT_EQ(r.ratchet.size(), 7u);
  EXPECT_TRUE(HasFinding(r.ratchet, "global-state", "state.h",
                         "namespace-scope mutable variable 'g_total'"));
  EXPECT_TRUE(HasFinding(r.ratchet, "global-state", "state.h",
                         "namespace-scope mutable variable 'g_remote'"));
  EXPECT_TRUE(HasFinding(r.ratchet, "global-state", "state.h",
                         "namespace-scope mutable variable 'kRetries'"));
  EXPECT_TRUE(
      HasFinding(r.ratchet, "global-state", "state.h", "thread_local storage"));
  EXPECT_TRUE(HasFinding(r.ratchet, "global-state", "state.h",
                         "non-const class static 'instances_'"));
  EXPECT_TRUE(HasFinding(r.ratchet, "global-state", "state.h",
                         "non-const class static 'kCount'"));
  EXPECT_TRUE(HasFinding(r.ratchet, "global-state", "state.h",
                         "mutable function-local static"));
  // g_total, g_remote, kRetries, thread_local, the two class statics, the
  // local static.
  EXPECT_EQ(FlaggedLines(r.ratchet, "global-state", "state.h"),
            (std::vector<int>{7, 8, 9, 11, 14, 15, 21}));
  ASSERT_EQ(r.ratchet_counts.count("global-state.sim"), 1u);
  EXPECT_EQ(r.ratchet_counts.at("global-state.sim"), 7);
}

TEST(GlobalState, GoodFixtureIsCleanIncludingWaivedKnob) {
  const AnalysisResult r = Analyze(FixtureRoot("globals_good"));
  EXPECT_TRUE(r.errors.empty());
  EXPECT_TRUE(r.ratchet.empty())
      << "first: " << (r.ratchet.empty() ? "" : r.ratchet[0].message);
  EXPECT_TRUE(r.ratchet_counts.empty());
}

TEST(ShardOwnership, BadFixtureFlagsStoredAliasesOutsideOwningLayers) {
  const AnalysisResult r = Analyze(FixtureRoot("shard_bad"));
  EXPECT_EQ(r.errors.size(), 3u);
  EXPECT_TRUE(HasFinding(r.errors, "shard-ownership", "observer.h",
                         "stored mutable alias to shard-local Simulator"));
  EXPECT_TRUE(HasFinding(r.errors, "shard-ownership", "observer.h",
                         "stored mutable alias to shard-local Rng"));
  EXPECT_TRUE(HasFinding(r.errors, "shard-ownership", "hotpath.h",
                         "stored mutable alias to shard-local EventArena"));
}

TEST(ShardOwnership, GoodFixtureAllowsBorrowsConstViewsAndOwningLayers) {
  const AnalysisResult r = Analyze(FixtureRoot("shard_good"));
  EXPECT_TRUE(r.errors.empty()) << r.errors.size() << " unexpected finding(s), "
                                << "first: "
                                << (r.errors.empty() ? "" : r.errors[0].message);
}

TEST(RngDiscipline, BadFixtureFlagsAmbientGeneratorsAndWallClock) {
  const AnalysisResult r = Analyze(FixtureRoot("rng_bad"));
  EXPECT_TRUE(HasFinding(r.errors, "rng-discipline", "gen.cc", "'<random>'"));
  EXPECT_TRUE(HasFinding(r.errors, "rng-discipline", "gen.cc", "'random_device'"));
  EXPECT_TRUE(HasFinding(r.errors, "rng-discipline", "gen.cc", "'mt19937'"));
  EXPECT_TRUE(HasFinding(r.errors, "rng-discipline", "gen.cc", "'time'"));
  EXPECT_TRUE(HasFinding(r.errors, "rng-discipline", "gen.cc", "'srand'"));
  EXPECT_TRUE(HasFinding(r.errors, "rng-discipline", "gen.cc", "'rand'"));
  EXPECT_EQ(FlaggedLines(r.errors, "rng-discipline", "gen.cc"),
            (std::vector<int>{3, 6, 11, 16, 20, 21}));
}

TEST(RngDiscipline, BadFixtureFlagsBannedHeadersChronoAndEveryEngine) {
  const AnalysisResult r = Analyze(FixtureRoot("rng_bad"));
  for (const char* header :
       {"'<chrono>'", "'<ctime>'", "'<random>'", "'<sys/time.h>'",
        "'<time.h>'"}) {
    EXPECT_TRUE(HasFinding(r.errors, "rng-discipline", "wallclock.cc", header))
        << header;
  }
  for (const char* symbol :
       {"'chrono'", "'steady_clock'", "'system_clock'",
        "'high_resolution_clock'", "'gettimeofday'", "'clock_gettime'",
        "'timespec_get'", "'time'", "'clock'", "'mt19937_64'", "'minstd_rand'",
        "'minstd_rand0'", "'default_random_engine'", "'rand'"}) {
    EXPECT_TRUE(HasFinding(r.errors, "rng-discipline", "wallclock.cc", symbol))
        << symbol;
  }
  // Lines 4-8 are the includes; the distribution on line 11 is caught at its
  // include alone; lines 17-19 name both std::chrono and a clock; line 41
  // passes std::rand without calling it.
  EXPECT_EQ(FlaggedLines(r.errors, "rng-discipline", "wallclock.cc"),
            (std::vector<int>{4, 5, 6, 7, 8, 16, 17, 17, 18, 18, 19, 19, 25,
                              27, 28, 29, 29, 33, 34, 35, 36, 37, 41}));
  EXPECT_EQ(r.errors.size(), 29u);
}

TEST(RngDiscipline, GoodFixtureAllowsLookAlikesAndWaivedCall) {
  const AnalysisResult r = Analyze(FixtureRoot("rng_good"));
  EXPECT_TRUE(r.errors.empty()) << r.errors.size() << " unexpected finding(s), "
                                << "first: "
                                << (r.errors.empty() ? "" : r.errors[0].message);
}

// --- Source-hygiene passes ------------------------------------------------

TEST(BareAssert, BadFixtureFlagsCallsMacroBodiesAndBothHeaders) {
  const AnalysisResult r = Analyze(FixtureRoot("assert_bad"));
  EXPECT_EQ(r.errors.size(), 5u);
  // <assert.h>, <cassert>, the macro body, the call, and the call whose
  // waiver names another rule's token.
  EXPECT_EQ(FlaggedLines(r.errors, "bare-assert", "checks.cc"),
            (std::vector<int>{2, 3, 5, 10, 16}));
  EXPECT_TRUE(HasFinding(r.errors, "bare-assert", "checks.cc",
                         "use DD_CHECK/DD_CHECK_LE/DD_FAIL"));
  EXPECT_TRUE(r.ratchet_counts.empty());
}

TEST(BareAssert, GoodFixtureAllowsStaticAssertLookAlikesAndWaivedSite) {
  const AnalysisResult r = Analyze(FixtureRoot("assert_good"));
  EXPECT_TRUE(r.errors.empty()) << "first: "
                                << (r.errors.empty() ? "" : r.errors[0].message);
  EXPECT_EQ(r.ratchet_counts,
            (std::map<std::string, int>{{"waived.bare-assert.core", 1}}));
}

TEST(PageLiteral, BadFixtureFlagsEverySpelling) {
  const AnalysisResult r = Analyze(FixtureRoot("page_bad"));
  EXPECT_EQ(r.errors.size(), 4u);
  // The macro, the plain, suffixed and floating literals.
  EXPECT_EQ(FlaggedLines(r.errors, "page-literal", "geometry.h"),
            (std::vector<int>{7, 9, 10, 11}));
  EXPECT_TRUE(
      HasFinding(r.errors, "page-literal", "geometry.h", "from kPageBytes"));
}

TEST(PageLiteral, GoodFixtureAllowsLookAlikeNumbersAndWaivedDefinition) {
  const AnalysisResult r = Analyze(FixtureRoot("page_good"));
  EXPECT_TRUE(r.errors.empty()) << "first: "
                                << (r.errors.empty() ? "" : r.errors[0].message);
  EXPECT_EQ(r.ratchet_counts,
            (std::map<std::string, int>{{"waived.page-literal.nvme", 1}}));
}

TEST(EngineAlloc, BadFixtureFlagsEveryAllocationShape) {
  const AnalysisResult r = Analyze(FixtureRoot("alloc_bad"));
  EXPECT_EQ(r.errors.size(), 9u);
  // std::function, make_unique, make_shared, malloc, calloc, new, realloc,
  // the new under another rule's waiver token, and the macro body's new.
  EXPECT_EQ(FlaggedLines(r.errors, "engine-alloc", "engine/pool.h"),
            (std::vector<int>{10, 11, 12, 13, 14, 15, 16, 18, 21}));
  for (const char* what : {"std::function (type-erased heap captures)",
                           "heap allocation helper", "C heap allocation",
                           "non-placement new"}) {
    EXPECT_TRUE(HasFinding(r.errors, "engine-alloc", "engine/pool.h", what))
        << what;
  }
  EXPECT_TRUE(r.ratchet_counts.empty());
}

TEST(EngineAlloc, GoodFixtureAllowsPlacementNewTheNewHeaderAndOtherDirs) {
  // Placement new, #include <new>, and std::function / make_unique / new in
  // src/sim/cpu.h (outside the engine directory) are clean; the waived slab
  // growth is a ratchet count.
  const AnalysisResult r = Analyze(FixtureRoot("alloc_good"));
  EXPECT_TRUE(r.errors.empty()) << "first: "
                                << (r.errors.empty() ? "" : r.errors[0].message);
  EXPECT_EQ(r.ratchet_counts, (std::map<std::string, int>{
                                  {"waived.engine-alloc.sim.engine", 1}}));
}

TEST(UnorderedIter, BadFixtureFlagsSrcBenchAndTests) {
  const AnalysisResult r = Analyze(FixtureRoot("unordered_bad"));
  // bench/ and tests/ files get only the tree-wide hygiene passes: no
  // layer-dag "maps to no layer" error for them.
  EXPECT_EQ(r.errors.size(), 5u);
  // A structured binding, a set, and a loop header split over two lines.
  EXPECT_EQ(FlaggedLines(r.errors, "unordered-iter", "src/stats/tally.cc"),
            (std::vector<int>{10, 11, 12}));
  // A const-reference parameter.
  EXPECT_EQ(FlaggedLines(r.errors, "unordered-iter", "bench/bench_tally.cc"),
            (std::vector<int>{6}));
  // Another rule's waiver token does not excuse the loop.
  EXPECT_EQ(FlaggedLines(r.errors, "unordered-iter", "tests/tally_test.cc"),
            (std::vector<int>{7}));
  EXPECT_TRUE(HasFinding(r.errors, "unordered-iter", "src/stats/tally.cc",
                         "unordered container 'seen'"));
}

TEST(UnorderedIter, GoodFixtureAllowsOrderedLoopsLookupsAndWaivedLoop) {
  const AnalysisResult r = Analyze(FixtureRoot("unordered_good"));
  EXPECT_TRUE(r.errors.empty()) << "first: "
                                << (r.errors.empty() ? "" : r.errors[0].message);
  EXPECT_EQ(r.ratchet_counts,
            (std::map<std::string, int>{{"waived.unordered-iter.stats", 1}}));
}

TEST(IncludeGuard, BadFixtureFlagsWrongMissingAndUndefinedGuards) {
  const AnalysisResult r = Analyze(FixtureRoot("guard_bad"));
  EXPECT_EQ(r.errors.size(), 4u);
  EXPECT_EQ(FlaggedLines(r.errors, "include-guard", "src/nvme/queue.h"),
            (std::vector<int>{2}));
  EXPECT_TRUE(HasFinding(r.errors, "include-guard", "src/nvme/queue.h",
                         "must be DAREDEVIL_SRC_NVME_QUEUE_H_ (found "
                         "NVME_QUEUE_H)"));
  // The #ifndef is right but the #define names something else.
  EXPECT_EQ(FlaggedLines(r.errors, "include-guard", "src/nvme/mismatch.h"),
            (std::vector<int>{2}));
  // No #ifndef at all: reported on line 1.
  EXPECT_EQ(FlaggedLines(r.errors, "include-guard", "bench/bench_helpers.h"),
            (std::vector<int>{1}));
  EXPECT_TRUE(HasFinding(r.errors, "include-guard", "bench/bench_helpers.h",
                         "DAREDEVIL_BENCH_BENCH_HELPERS_H_ (found none)"));
  EXPECT_EQ(FlaggedLines(r.errors, "include-guard", "tests/test_helpers.h"),
            (std::vector<int>{2}));
}

TEST(IncludeGuard, GoodFixtureSkipsSourcesTheFixtureCorpusAndWaivedHeader) {
  // guard_good/tests/ddanalyze_fixtures/ holds an unguarded header with an
  // unordered loop: analyzer input, never analyzed as part of the tree.
  const AnalysisResult r = Analyze(FixtureRoot("guard_good"));
  EXPECT_TRUE(r.errors.empty()) << "first: "
                                << (r.errors.empty() ? "" : r.errors[0].message);
  EXPECT_EQ(r.ratchet_counts,
            (std::map<std::string, int>{{"waived.include-guard.nvme", 1}}));
}

TEST(HygieneRatchet, OneMoreWaivedPageLiteralFailsTheTreeBaseline) {
  // A copy of the real src/ and baseline: clean as checked in, and a sixth
  // waived site (a fifth waived 4096) is a ratchet regression.
  namespace fs = std::filesystem;
  const fs::path repo = fs::path(DDANALYZE_FIXTURE_DIR) / ".." / "..";
  const fs::path tmp = fs::path(::testing::TempDir()) /
                       ("ddanalyze_ratchet_" + std::to_string(getpid()));
  fs::remove_all(tmp);
  fs::create_directories(tmp / "tools");
  fs::copy(repo / "src", tmp / "src", fs::copy_options::recursive);
  fs::copy_file(repo / "tools" / "ddanalyze-baseline.txt",
                tmp / "tools" / "ddanalyze-baseline.txt");
  std::string err;
  const std::map<std::string, int> baseline = ddanalyze::ReadBaseline(
      (tmp / "tools" / "ddanalyze-baseline.txt").string(), &err);
  ASSERT_TRUE(err.empty()) << err;

  const AnalysisResult before = Analyze(tmp.string());
  EXPECT_TRUE(before.errors.empty());
  EXPECT_TRUE(
      ddanalyze::CompareToBaseline(before.ratchet_counts, baseline).empty());

  std::ofstream(tmp / "src" / "apps" / "kvstore.h", std::ios::app)
      << "inline constexpr int kSixth = 4096;  // ddanalyze: units-ok(sixth)\n";
  const AnalysisResult after = Analyze(tmp.string());
  EXPECT_TRUE(after.errors.empty());
  const std::vector<std::string> violations =
      ddanalyze::CompareToBaseline(after.ratchet_counts, baseline);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rfind("waived.page-literal.apps: ", 0), 0u)
      << violations[0];
  fs::remove_all(tmp);
}

TEST(JsonEscape, ControlCharactersBecomeValidJsonEscapes) {
  // Regression for the --json output: a finding message quoting source text
  // can carry any control character; raw emission is invalid JSON.
  EXPECT_EQ(ddanalyze::JsonEscape("plain"), "plain");
  EXPECT_EQ(ddanalyze::JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(ddanalyze::JsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(ddanalyze::JsonEscape(std::string("\x01\x1f\x00", 3)),
            "\\u0001\\u001f\\u0000");
  // Bytes >= 0x20 (including UTF-8 continuation bytes) pass through.
  EXPECT_EQ(ddanalyze::JsonEscape("\xc3\xa9"), "\xc3\xa9");
}

TEST(Ratchet, BaselineRoundTripsAndComparesDirectionally) {
  const std::map<std::string, int> counts = {{"tick-units.sim", 2},
                                             {"tick-units.stack", 0}};
  const std::string text = ddanalyze::FormatBaseline(counts);
  EXPECT_NE(text.find("tick-units.sim 2"), std::string::npos);

  // Equal or lower counts pass; any increase (or a brand-new key) fails.
  EXPECT_TRUE(ddanalyze::CompareToBaseline(counts, counts).empty());
  EXPECT_TRUE(
      ddanalyze::CompareToBaseline({{"tick-units.sim", 1}}, counts).empty());
  EXPECT_EQ(
      ddanalyze::CompareToBaseline({{"tick-units.sim", 3}}, counts).size(), 1u);
  EXPECT_EQ(
      ddanalyze::CompareToBaseline({{"tick-units.apps", 1}}, counts).size(),
      1u);
}

TEST(Lexer, WaiversAttachToTheirLineAndRule) {
  const ddanalyze::LexedFile lex = ddanalyze::Lex(
      "int a = 1;  // ddanalyze: tick-ok(reason)\n"
      "int b = 2;\n"
      "int c = 3;  // ddanalyze: escape-ok(reason)\n");
  EXPECT_TRUE(lex.HasWaiver(1, "tick"));
  EXPECT_FALSE(lex.HasWaiver(1, "escape"));
  EXPECT_FALSE(lex.HasWaiver(2, "tick"));
  EXPECT_TRUE(lex.HasWaiver(3, "escape"));
}

TEST(ObserverPurity, BadFixtureFlagsDirectTransitiveAndAnnotatedMutation) {
  const AnalysisResult r = Analyze(FixtureRoot("purity_bad"));
  EXPECT_EQ(r.errors.size(), 3u);
  // A DD_OBSERVER-annotated method that bumps a member of its own
  // simulation-owned class.
  EXPECT_TRUE(HasFinding(r.errors, "observer-purity", "sim.h",
                         "writes member 'peeks_'"));
  // A stats function scheduling work on the simulator directly.
  EXPECT_TRUE(HasFinding(r.errors, "observer-purity", "observer.cc",
                         "non-const call Simulator::ScheduleAt()"));
  // The same mutation two hops away, attributed back to its observer entry.
  EXPECT_TRUE(HasFinding(r.errors, "observer-purity", "helper.h",
                         "reachable from observer entry SampleLater"));
  // The opaque callback is ratcheted, not flagged.
  EXPECT_TRUE(HasFinding(r.ratchet, "purity-unresolved", "observer.cc",
                         "unresolved free call 'cb'"));
  ASSERT_EQ(r.ratchet_counts.count("purity-unresolved.stats"), 1u);
  EXPECT_EQ(r.ratchet_counts.at("purity-unresolved.stats"), 1);
}

TEST(ObserverPurity, GoodFixtureIsCleanIncludingWaivedSites) {
  // Const reads, chained calls on an observer-owned fluent writer, a local
  // lambda, and waived scheduling/callback sites: no errors, no ratchet.
  const AnalysisResult r = Analyze(FixtureRoot("purity_good"));
  EXPECT_TRUE(r.errors.empty()) << r.errors.size() << " unexpected finding(s), "
                                << "first: "
                                << (r.errors.empty() ? "" : r.errors[0].message);
  EXPECT_TRUE(r.ratchet.empty())
      << "first: " << (r.ratchet.empty() ? "" : r.ratchet[0].message);
}

TEST(FingerprintTaint, BadFixtureFlagsObservabilityKnobSteeringTheSim) {
  const AnalysisResult r = Analyze(FixtureRoot("taint_bad"));
  EXPECT_EQ(r.errors.size(), 1u);
  EXPECT_TRUE(HasFinding(r.errors, "fingerprint-taint", "run.cc",
                         "'sample_interval' flows into non-const call "
                         "Simulator::ScheduleAt()"));
  // The opaque callback inside the export_trace-tainted region ratchets.
  EXPECT_TRUE(HasFinding(r.ratchet, "taint-unresolved", "run.cc",
                         "tainted by 'export_trace'"));
  ASSERT_EQ(r.ratchet_counts.count("taint-unresolved.workload"), 1u);
  EXPECT_EQ(r.ratchet_counts.at("taint-unresolved.workload"), 1);
}

TEST(FingerprintTaint, GoodFixtureAllowsSinksWiringAndWaivedSites) {
  // Observer-owned sinks, allowlisted SetTraceLog wiring, and one waived
  // deliberate exception: no errors, no ratchet.
  const AnalysisResult r = Analyze(FixtureRoot("taint_good"));
  EXPECT_TRUE(r.errors.empty()) << r.errors.size() << " unexpected finding(s), "
                                << "first: "
                                << (r.errors.empty() ? "" : r.errors[0].message);
  EXPECT_TRUE(r.ratchet.empty())
      << "first: " << (r.ratchet.empty() ? "" : r.ratchet[0].message);
}

ddanalyze::SourceFile MakeFile(const std::string& path,
                               const std::string& text) {
  ddanalyze::SourceFile f;
  f.rel_path = path;
  f.lex = ddanalyze::Lex(text);
  return f;
}

const ddanalyze::CallSite* FindCall(const ddanalyze::CallGraph& g,
                                    const std::string& name) {
  for (const ddanalyze::CallSite& cs : g.calls) {
    if (cs.name == name) return &cs;
  }
  return nullptr;
}

TEST(CallGraph, ResolvesReceiversAndClassifiesConstness) {
  std::vector<ddanalyze::SourceFile> files;
  files.push_back(MakeFile("src/sim/sim.h",
                           "class Simulator {\n"
                           " public:\n"
                           "  void ScheduleAt(long when);\n"
                           "  long now() const;\n"
                           "};\n"));
  files.push_back(MakeFile("src/stats/obs.cc",
                           "class Simulator;\n"
                           "long Probe(Simulator* sim) {\n"
                           "  sim->ScheduleAt(1);\n"
                           "  return sim->now();\n"
                           "}\n"));
  const ddanalyze::CallGraph g = ddanalyze::BuildCallGraph(files);

  const ddanalyze::CallSite* sched = FindCall(g, "ScheduleAt");
  ASSERT_NE(sched, nullptr);
  EXPECT_EQ(sched->receiver_type, "Simulator");
  EXPECT_EQ(g.Classify(*sched, nullptr),
            ddanalyze::CallClass::kMutatingSimState);

  const ddanalyze::CallSite* now = FindCall(g, "now");
  ASSERT_NE(now, nullptr);
  EXPECT_EQ(g.Classify(*now, nullptr), ddanalyze::CallClass::kConstRead);
}

TEST(CallGraph, HandlesDeclarationsLambdasAndChainedCalls) {
  std::vector<ddanalyze::SourceFile> files;
  files.push_back(MakeFile(
      "src/stats/w.cc",
      "class W {\n"
      " public:\n"
      "  W(int capacity);\n"
      "  W& Key(const char* k) { return *this; }\n"
      "  W& Num(long v) { return *this; }\n"
      "};\n"
      "long Render(long v) {\n"
      "  W w(8);\n"                      // decl: constructor, not a call
      "  w.Key(\"x\").Num(v);\n"         // chained: owner fallback on Num
      "  auto scale = [](long x) { return x * 2; };\n"
      "  return scale(v);\n"             // local lambda: analyzed inline
      "}\n"));
  const ddanalyze::CallGraph g = ddanalyze::BuildCallGraph(files);

  // `W w(8)` resolves to W's constructor rather than a free call to `w`.
  EXPECT_EQ(FindCall(g, "w"), nullptr);
  const ddanalyze::CallSite* ctor = FindCall(g, "W");
  ASSERT_NE(ctor, nullptr);
  EXPECT_TRUE(ctor->resolved);

  // The chained `.Num(...)` receiver is ')' — the unique-owner fallback
  // resolves it to W and recursion proves it harmless.
  const ddanalyze::CallSite* num = FindCall(g, "Num");
  ASSERT_NE(num, nullptr);
  EXPECT_EQ(num->receiver_type, "W");
  EXPECT_EQ(g.Classify(*num, nullptr), ddanalyze::CallClass::kRecurse);

  // A call through a local lambda is safe: its body is part of Render's
  // own token range and is analyzed there.
  const ddanalyze::CallSite* scale = FindCall(g, "scale");
  ASSERT_NE(scale, nullptr);
  EXPECT_EQ(g.Classify(*scale, nullptr), ddanalyze::CallClass::kSafe);
}

TEST(Passes, ListPassesMatchesAnalyzeExecutionOrder) {
  const auto listed = ddanalyze::ListPasses();
  const AnalysisResult r = Analyze(FixtureRoot("layer_good"));
  ASSERT_EQ(r.passes.size(), listed.size());
  for (std::size_t i = 0; i < listed.size(); ++i) {
    EXPECT_EQ(r.passes[i].name, listed[i].first);
    EXPECT_GE(r.passes[i].wall_ms, 0.0);
    EXPECT_FALSE(listed[i].second.empty());
  }
}

TEST(Lexer, RawStringsConsumeTheirBodyAndKeepLineNumbers) {
  // Regression: the old lexer leaked prefixed raw strings token-by-token and
  // swallowed the rest of the file on a malformed `R"ident"` false trigger.
  const ddanalyze::LexedFile lex = ddanalyze::Lex(
      "const char* a = R\"(line one\n"
      "line two)\";\n"
      "int after_plain = 1;\n"
      "const char* b = R\"delim(has )\" inside)delim\";\n"
      "const char* c = u8R\"(utf8 raw)\";\n"
      "int z = R\"abc\";\n"  // not a raw string: R ident + ordinary string
      "int done = 2;\n");
  std::map<std::string, int> line_of;
  for (const ddanalyze::Token& t : lex.tokens) {
    if (t.kind == ddanalyze::TokKind::kIdent) line_of[t.text] = t.line;
    // Raw string bodies must never leak into the token stream.
    EXPECT_NE(t.text, "line");
    EXPECT_NE(t.text, "inside");
    EXPECT_NE(t.text, "utf8");
  }
  EXPECT_EQ(line_of.at("after_plain"), 3);  // the raw string spans lines 1-2
  EXPECT_EQ(line_of.at("b"), 4);
  EXPECT_EQ(line_of.at("c"), 5);
  EXPECT_EQ(line_of.at("z"), 6);
  EXPECT_EQ(line_of.at("R"), 6);  // the false trigger falls back to an ident
  EXPECT_EQ(line_of.at("done"), 7);
}

TEST(Lexer, CommentsStringsAndIncludesAreSeparated) {
  const ddanalyze::LexedFile lex = ddanalyze::Lex(
      "#include \"src/sim/clock.h\"\n"
      "#include <vector>\n"
      "// Request* in a comment is not a token\n"
      "const char* s = \"Request* in a string\";\n");
  ASSERT_EQ(lex.includes.size(), 2u);
  EXPECT_EQ(lex.includes[0].path, "src/sim/clock.h");
  EXPECT_FALSE(lex.includes[0].angled);
  EXPECT_TRUE(lex.includes[1].angled);
  for (const ddanalyze::Token& t : lex.tokens) {
    EXPECT_NE(t.text, "Request");
  }
}

TEST(Lexer, DirectivesKeepTheirNamesAndPhysicalLines) {
  const ddanalyze::LexedFile lex = ddanalyze::Lex(
      "#ifndef GUARD_H_\n"
      "#define GUARD_H_\n"
      "#include <new>\n"
      "#define TWICE(x) \\\n"
      "  ((x) + (x))  // ddanalyze: units-ok(reason)\n"
      "#endif\n");
  ASSERT_EQ(lex.includes.size(), 1u);
  ASSERT_EQ(lex.directives.size(), 4u);  // every directive but the include
  EXPECT_EQ(lex.directives[0].keyword, "ifndef");
  EXPECT_EQ(lex.directives[0].line, 1);
  ASSERT_FALSE(lex.directives[0].tokens.empty());
  EXPECT_EQ(lex.directives[0].tokens[0].text, "GUARD_H_");
  EXPECT_EQ(lex.directives[1].keyword, "define");
  const ddanalyze::Directive& twice = lex.directives[2];
  EXPECT_EQ(twice.keyword, "define");
  EXPECT_EQ(twice.line, 4);
  EXPECT_EQ(twice.tokens.front().line, 4);  // TWICE
  EXPECT_EQ(twice.tokens.back().line, 5);   // the continuation's last ')'
  EXPECT_TRUE(lex.HasWaiver(5, "units"));
  EXPECT_FALSE(lex.HasWaiver(4, "units"));
  EXPECT_EQ(lex.directives[3].keyword, "endif");
  EXPECT_TRUE(lex.tokens.empty());  // directives never reach the code tokens
}

}  // namespace
