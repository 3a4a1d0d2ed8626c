// Per-tenant SLO engine: window math, burn rates, episode derivation and the
// HOL-blocking cross-link must be exact on synthetic inputs, and the
// scenario-level report must stay outside the fingerprinted projection.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/stats/holb.h"
#include "src/stats/metrics.h"
#include "src/stats/slo.h"
#include "src/workload/scenario.h"

namespace daredevil {
namespace {

SloSpec TestSpec(const std::string& selector, Tick threshold, Tick window,
                 double target = 50.0) {
  SloSpec spec;
  spec.selector = selector;
  spec.target_percentile = target;  // budget = 0.5 by default: easy ratios
  spec.threshold = threshold;
  spec.window = window;
  spec.slow_windows = 2;
  spec.burn_alert = 1.0;
  return spec;
}

TEST(SloTrackerTest, WindowMathAndBurnRates) {
  SloTracker tracker({TestSpec("L0", /*threshold=*/10, /*window=*/100)},
                     /*origin=*/0, /*horizon=*/1000);
  SloTenantState* state = tracker.AddTenant("L0", "L", 1);
  ASSERT_NE(state, nullptr);

  // Window 0: one good, one bad -> fast burn (1/2)/0.5 = 1.0, violating.
  state->Record(10, 5, true);
  state->Record(20, 50, true);
  // Window 1: two good -> fast 0; slow over windows {0,1} = (1/4)/0.5 = 0.5.
  state->Record(110, 5, true);
  state->Record(120, 5, true);
  // Window 2: an error completion is bad regardless of latency.
  state->Record(250, 5, false);

  const SloReport report = tracker.Finalize();
  const SloTenantReport* r = report.Find("L0");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->good, 3u);
  EXPECT_EQ(r->bad, 2u);
  EXPECT_DOUBLE_EQ(r->conformance_pct, 60.0);
  EXPECT_TRUE(r->met);  // 60% >= the 50% target
  // budget_burned = bad / (budget * total) = 2 / (0.5 * 5) = 0.8.
  EXPECT_DOUBLE_EQ(r->budget_burned, 0.8);

  ASSERT_EQ(r->windows.size(), 3u);
  EXPECT_DOUBLE_EQ(r->windows[0].fast_burn, 1.0);
  EXPECT_TRUE(r->windows[0].violating);
  EXPECT_DOUBLE_EQ(r->windows[1].fast_burn, 0.0);
  EXPECT_FALSE(r->windows[1].violating);
  EXPECT_DOUBLE_EQ(r->windows[1].slow_burn, 0.5);  // trailing 2 windows
  EXPECT_DOUBLE_EQ(r->windows[2].fast_burn, 2.0);  // 1 bad of 1
  EXPECT_TRUE(r->windows[2].violating);
  // Slow burn over windows {1,2}: (1/3)/0.5.
  EXPECT_DOUBLE_EQ(r->windows[2].slow_burn, (1.0 / 3.0) / 0.5);
  EXPECT_DOUBLE_EQ(r->max_slow_burn, 1.0);  // window 0 (only itself trailing)

  // Two separate episodes: window 0 and window 2.
  ASSERT_EQ(r->episodes.size(), 2u);
  EXPECT_EQ(r->episodes[0].begin, 0);
  EXPECT_EQ(r->episodes[0].end, 100);
  EXPECT_EQ(r->episodes[1].begin, 200);
  EXPECT_EQ(r->episodes[1].end, 300);
  EXPECT_DOUBLE_EQ(r->episodes[1].peak_burn, 2.0);
  // Worst = longest; equal durations tie-break to the earliest.
  EXPECT_EQ(r->WorstEpisode(), &r->episodes[0]);
}

TEST(SloTrackerTest, ConsecutiveViolatingWindowsCoalesce) {
  SloTracker tracker({TestSpec("L0", /*threshold=*/1, /*window=*/100)},
                     /*origin=*/0, /*horizon=*/250);
  SloTenantState* state = tracker.AddTenant("L0", "L", 1);
  ASSERT_NE(state, nullptr);
  state->Record(10, 50, true);
  state->Record(110, 50, true);
  state->Record(210, 50, true);

  const SloReport report = tracker.Finalize();
  const SloTenantReport* r = report.Find("L0");
  ASSERT_NE(r, nullptr);
  ASSERT_EQ(r->episodes.size(), 1u);
  EXPECT_EQ(r->episodes[0].begin, 0);
  // The final window [200, 300) is clamped to the horizon.
  EXPECT_EQ(r->episodes[0].end, 250);
  EXPECT_EQ(r->episodes[0].bad, 3u);
  EXPECT_EQ(r->episodes[0].total, 3u);
  EXPECT_EQ(report.TotalEpisodes(), 1u);
}

TEST(SloTrackerTest, ExactNameSpecWinsOverGroupSpec) {
  SloTracker tracker({TestSpec("L", /*threshold=*/100, /*window=*/100),
                      TestSpec("L0", /*threshold=*/200, /*window=*/100)},
                     0, 1000);
  SloTenantState* named = tracker.AddTenant("L0", "L", 1);
  ASSERT_NE(named, nullptr);
  EXPECT_EQ(named->spec().threshold, 200);  // name match beats group match
  SloTenantState* grouped = tracker.AddTenant("L1", "L", 2);
  ASSERT_NE(grouped, nullptr);
  EXPECT_EQ(grouped->spec().threshold, 100);
  EXPECT_EQ(tracker.AddTenant("T0", "T", 3), nullptr);
}

TEST(SloTrackerTest, OutOfRangeDeliveriesAreCountedAsIgnored) {
  SloTracker tracker({TestSpec("L0", 10, 100)}, /*origin=*/100,
                     /*horizon=*/200);
  SloTenantState* state = tracker.AddTenant("L0", "L", 1);
  ASSERT_NE(state, nullptr);
  state->Record(50, 5, true);    // before the origin
  state->Record(200, 5, true);   // at the horizon
  state->Record(150, 5, true);   // in range
  const SloReport report = tracker.Finalize();
  const SloTenantReport* r = report.Find("L0");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->ignored, 2u);
  EXPECT_EQ(r->total(), 1u);
  EXPECT_DOUBLE_EQ(r->conformance_pct, 100.0);
}

TEST(SloTrackerTest, StarvedTenantMissesItsObjective) {
  // A tenant with no delivery in the evaluated range has no conformance to
  // report: it is starved and misses, while a served tenant still meets.
  SloTracker tracker({TestSpec("L", 10, 100)}, /*origin=*/100,
                     /*horizon=*/200);
  SloTenantState* starved = tracker.AddTenant("L0", "L", 1);
  SloTenantState* served = tracker.AddTenant("L1", "L", 2);
  ASSERT_NE(starved, nullptr);
  ASSERT_NE(served, nullptr);
  starved->Record(50, 5, true);  // before the origin: ignored
  served->Record(150, 5, true);
  const SloReport report = tracker.Finalize();
  const SloTenantReport* r = report.Find("L0");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->total(), 0u);
  EXPECT_FALSE(r->met);
  // No request met the objective: conformance is 0, not a vacuous 100.
  EXPECT_DOUBLE_EQ(r->conformance_pct, 0.0);
  EXPECT_TRUE(report.Find("L1")->met);
  JsonWriter w;
  report.AppendJson(w);
  EXPECT_NE(w.str().find("\"met\":false,\"starved\":true"), std::string::npos)
      << w.str();
  EXPECT_EQ(w.str().find("\"starved\""), w.str().rfind("\"starved\""))
      << "only the starved tenant carries the key";
  EXPECT_NE(report.ToTable().find("starved"), std::string::npos);

  // Every tenant starved: the rollup is 0 as well.
  SloTracker all_starved({TestSpec("L", 10, 100)}, 100, 200);
  ASSERT_NE(all_starved.AddTenant("L0", "L", 1), nullptr);
  EXPECT_DOUBLE_EQ(all_starved.Finalize().AggregateConformancePct(), 0.0);
}

TEST(SloTrackerTest, ExtremeTargetPercentileIsClampedNotDivByZero) {
  SloSpec spec = TestSpec("L0", 10, 100, /*target=*/100.0);
  SloTracker tracker({spec}, 0, 1000);
  SloTenantState* state = tracker.AddTenant("L0", "L", 1);
  ASSERT_NE(state, nullptr);
  state->Record(10, 50, true);  // bad
  const SloReport report = tracker.Finalize();
  const SloTenantReport* r = report.Find("L0");
  ASSERT_NE(r, nullptr);
  // Clamped to 99.999: the budget is tiny but finite, so every burn value
  // must serialize as a real number.
  EXPECT_LE(r->spec.target_percentile, 99.999);
  EXPECT_TRUE(std::isfinite(r->budget_burned));
  JsonWriter w;
  report.AppendJson(w);
  std::string error;
  EXPECT_TRUE(JsonLooksValid(w.str(), &error)) << error;
}

RequestRecord MakeRecord(uint64_t id, uint64_t tenant, int nsq, Tick enqueue,
                         Tick fetch_start, Tick fetch, uint32_t pages,
                         bool latency_sensitive) {
  RequestRecord r;
  r.id = id;
  r.tenant_id = tenant;
  r.pages = pages;
  r.latency_sensitive = latency_sensitive;
  r.nsq = nsq;
  r.ncq = nsq;
  r.nsq_enqueue = enqueue;
  r.doorbell = enqueue;
  r.fetch_start = fetch_start;
  r.fetch = fetch;
  r.flash_start = fetch;
  r.flash_end = fetch + 50;
  r.cqe_post = fetch + 60;
  r.drain = fetch + 70;
  r.complete = fetch + 80;
  return r;
}

// The holb_test worked example, seen from the SLO side: the victim (tenant 1)
// violates its objective inside one window and the episode must name the bulk
// tenant as its dominant blocker via the fetch-slot mechanism (200ns of fetch
// blocking vs 50ns of head blocking).
TEST(SloAttributionTest, EpisodeCarriesDominantBlocker) {
  const std::vector<RequestRecord> records = {
      MakeRecord(/*id=*/1, /*tenant=*/9, /*nsq=*/0, /*enqueue=*/100,
                 /*fetch_start=*/200, /*fetch=*/400, /*pages=*/32, false),
      MakeRecord(/*id=*/2, /*tenant=*/1, /*nsq=*/0, /*enqueue=*/150,
                 /*fetch_start=*/400, /*fetch=*/410, /*pages=*/1, true),
  };

  SloTracker tracker({TestSpec("L0", /*threshold=*/1, /*window=*/1000)}, 0,
                     1000);
  SloTenantState* state = tracker.AddTenant("L0", "L", 1);
  ASSERT_NE(state, nullptr);
  state->Record(/*at=*/490, /*latency=*/250, true);  // bad: 250 > 1
  SloReport report = tracker.Finalize();
  ASSERT_EQ(report.TotalEpisodes(), 1u);

  AttributeSloEpisodes(report, records, {{1, "L0"}, {9, "T9"}});
  const SloTenantReport* r = report.Find("L0");
  ASSERT_NE(r, nullptr);
  const SloEpisode& ep = r->episodes[0];
  EXPECT_EQ(ep.blame, "T9");
  EXPECT_EQ(ep.mechanism, "fetch-slot");
  EXPECT_EQ(ep.blame_ns, 250);
  ASSERT_EQ(r->attribution.size(), 1u);
  EXPECT_EQ(r->attribution[0].key, "T9");
  EXPECT_EQ(r->attribution[0].head_block_ns, 50);
  EXPECT_EQ(r->attribution[0].fetch_slot_ns, 200);
}

TEST(SloAttributionTest, VictimFiltersRestrictTheHolbPass) {
  // An episode's victims are its tenant's requests completing in
  // [begin, end): here the tenant-1 request completing at 490, which the
  // bulk tenant-9 request blocked for 250ns.
  const std::vector<RequestRecord> records = {
      MakeRecord(1, 9, 0, 100, 200, 400, 32, false),
      MakeRecord(2, 1, 0, 150, 400, 410, 1, true),  // completes at 490
  };
  auto blame = [&records](uint64_t tenant_id, Tick begin, Tick end) {
    SloReport report;
    SloTenantReport& r = report.tenants["X"];
    r.tenant = "X";
    r.tenant_id = tenant_id;
    SloEpisode ep;
    ep.begin = begin;
    ep.end = end;
    ep.mechanism = "unattributed";
    r.episodes.push_back(ep);
    AttributeSloEpisodes(report, records, {{1, "L0"}, {9, "T9"}});
    return r.episodes[0];
  };
  EXPECT_EQ(blame(1, 0, 100).blame, "");  // excludes the completion at 490
  EXPECT_EQ(blame(1, 0, 490).blame, "");  // the end is exclusive
  const SloEpisode hit = blame(1, 490, 500);  // the begin is inclusive
  EXPECT_EQ(hit.blame, "T9");
  EXPECT_EQ(hit.blame_ns, 250);
  // The tenant filter also excludes the tenant-1 request from a tenant-9
  // episode; the bulk request itself waited behind nobody.
  EXPECT_EQ(blame(9, 0, 1000).blame, "");
}

TEST(SloAttributionTest, UnattributedEpisodeStaysNamedAsSuch) {
  // No records at all: the episode keeps its "unattributed" mechanism.
  SloTracker tracker({TestSpec("L0", 1, 1000)}, 0, 1000);
  SloTenantState* state = tracker.AddTenant("L0", "L", 1);
  state->Record(490, 250, true);
  SloReport report = tracker.Finalize();
  AttributeSloEpisodes(report, {}, {});
  const SloTenantReport* r = report.Find("L0");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->episodes[0].blame, "");
  EXPECT_EQ(r->episodes[0].mechanism, "unattributed");
}

TEST(SloReportTest, JsonAndTableAreWellFormedAndDeterministic) {
  SloTracker tracker({TestSpec("L", 10, 100)}, 0, 1000);
  SloTenantState* a = tracker.AddTenant("L0", "L", 1);
  SloTenantState* b = tracker.AddTenant("L1", "L", 2);
  a->Record(10, 5, true);
  a->Record(20, 50, true);
  b->Record(150, 5, true);
  const SloReport r1 = tracker.Finalize();
  const SloReport r2 = tracker.Finalize();

  JsonWriter w1;
  r1.AppendJson(w1);
  JsonWriter w2;
  r2.AppendJson(w2);
  std::string error;
  EXPECT_TRUE(JsonLooksValid(w1.str(), &error)) << error;
  EXPECT_EQ(w1.str(), w2.str());
  EXPECT_NE(w1.str().find("\"aggregate\""), std::string::npos);

  const std::string table = r1.ToTable();
  EXPECT_NE(table.find("L0"), std::string::npos);
  EXPECT_NE(table.find("L1"), std::string::npos);

  // Aggregate: L0 has 1/2 good, L1 1/1 -> 2/3.
  EXPECT_DOUBLE_EQ(r1.AggregateConformancePct(), 100.0 * 2.0 / 3.0);
  EXPECT_GT(r1.MaxBudgetBurned(), 0.0);
}

// --- Scenario integration -------------------------------------------------

ScenarioConfig SloScenarioConfig(StackKind kind) {
  ScenarioConfig cfg = MakeSvmConfig(2);
  cfg.stack = kind;
  cfg.warmup = kMillisecond;
  cfg.duration = 8 * kMillisecond;
  cfg.seed = 42;
  AddLTenants(cfg, 1);
  AddTTenants(cfg, 2);
  SloSpec spec;
  spec.selector = "L";
  spec.threshold = 60 * kMicrosecond;
  spec.window = kMillisecond;
  spec.slow_windows = 3;
  cfg.slos.push_back(spec);
  return cfg;
}

TEST(SloScenarioTest, ReportIsPopulatedAndObservabilityGated) {
  const ScenarioResult result = RunScenario(SloScenarioConfig(StackKind::kVanilla));
  ASSERT_FALSE(result.slo.empty());
  const SloTenantReport* l0 = result.slo.Find("L0");
  ASSERT_NE(l0, nullptr);
  EXPECT_GT(l0->total(), 0u);
  EXPECT_FALSE(l0->windows.empty());
  // The HOL pass runs implicitly (the SLO config attaches the timeline).
  EXPECT_FALSE(result.holb.empty());

  const std::string with = result.ToJson(true);
  const std::string without = result.ToJson(false);
  EXPECT_NE(with.find("\"slo\""), std::string::npos);
  EXPECT_EQ(without.find("\"slo\""), std::string::npos);
  std::string error;
  EXPECT_TRUE(JsonLooksValid(with, &error)) << error;
}

TEST(SloScenarioTest, ViolationsUnderVanillaAreAttributedToABulkTenant) {
  // The headline story in miniature: with a tight threshold under blk-mq,
  // the L-tenant violates and the blocker ranking points at a T-tenant.
  ScenarioConfig cfg = SloScenarioConfig(StackKind::kVanilla);
  cfg.slos[0].threshold = 30 * kMicrosecond;
  const ScenarioResult result = RunScenario(cfg);
  const SloTenantReport* l0 = result.slo.Find("L0");
  ASSERT_NE(l0, nullptr);
  ASSERT_FALSE(l0->episodes.empty());
  const SloEpisode* worst = l0->WorstEpisode();
  ASSERT_NE(worst, nullptr);
  EXPECT_FALSE(worst->blame.empty());
  EXPECT_EQ(worst->blame[0], 'T') << "dominant blocker was " << worst->blame;
  EXPECT_NE(worst->mechanism, "unattributed");
  ASSERT_FALSE(l0->attribution.empty());
  EXPECT_EQ(l0->attribution[0].key[0], 'T');
}

TEST(SloScenarioTest, SloTrackIsExportedWithTheTrace) {
  ScenarioConfig cfg = SloScenarioConfig(StackKind::kVanilla);
  cfg.slos[0].threshold = 30 * kMicrosecond;
  cfg.export_trace = true;
  const ScenarioResult result = RunScenario(cfg);
  ASSERT_FALSE(result.trace_json.empty());
  EXPECT_NE(result.trace_json.find("SLO conformance"), std::string::npos);
  EXPECT_NE(result.trace_json.find("SLO violation L0"), std::string::npos);
  EXPECT_NE(result.trace_json.find("burn L0"), std::string::npos);
  std::string error;
  EXPECT_TRUE(JsonLooksValid(result.trace_json, &error)) << error;
}

TEST(SloScenarioTest, UnmatchedSpecYieldsEmptyReport) {
  ScenarioConfig cfg = SloScenarioConfig(StackKind::kVanilla);
  cfg.slos[0].selector = "nonexistent";
  const ScenarioResult result = RunScenario(cfg);
  EXPECT_TRUE(result.slo.empty());
  EXPECT_EQ(result.ToJson(true).find("\"slo\""), std::string::npos);
}

}  // namespace
}  // namespace daredevil
