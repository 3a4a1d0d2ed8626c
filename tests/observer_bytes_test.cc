// Byte pins for the observer outputs: the Chrome-trace export of a fixed
// input, and the trace JSON and ToJson() report (with its holb and slo
// sections) of a short vanilla scenario whose L SLO has violation episodes.
// Refactors of the exporter, the HOL pass or the SLO engine must leave these
// bytes unchanged; a deliberate format change re-pins them and says so.
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "src/workload/scenario.h"
#include "tests/trace_fixture.h"

namespace daredevil {
namespace {

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

TEST(ObserverBytesPin, FixtureTraceExport) {
  const trace_fixture::Fixture fixture;
  const std::string json = SerializeChromeTrace(fixture.input);
  std::string err;
  ASSERT_TRUE(JsonLooksValid(json, &err)) << err;
  EXPECT_EQ(Fnv1a(json), 17310145940469348155ull) << json;
}

TEST(ObserverBytesPin, VanillaScenarioTraceAndReport) {
  ScenarioConfig cfg = MakeSvmConfig(4);
  cfg.stack = StackKind::kVanilla;
  cfg.warmup = 2 * kMillisecond;
  cfg.duration = 20 * kMillisecond;
  cfg.seed = 42;
  cfg.export_trace = true;
  cfg.analyze_holb = true;
  cfg.sample_interval = kMillisecond;
  AddLTenants(cfg, 2);
  AddTTenants(cfg, 3);
  SloSpec spec;
  spec.selector = "L";
  spec.threshold = 50 * kMicrosecond;
  spec.window = kMillisecond;
  cfg.slos.push_back(spec);
  const ScenarioResult r = RunScenario(cfg);
  ASSERT_FALSE(r.holb.empty());
  ASSERT_GT(r.slo.TotalEpisodes(), 0u);
  EXPECT_EQ(Fnv1a(r.trace_json), 8014748823196617698ull);
  EXPECT_EQ(Fnv1a(r.ToJson()), 14704671531311247981ull);
}

}  // namespace
}  // namespace daredevil
