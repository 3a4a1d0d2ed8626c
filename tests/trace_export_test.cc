// Trace export: the Chrome-trace exporter must emit structurally well-formed
// event streams (metadata first, balanced async begin/end per track,
// non-overlapping X slices, flow arrows across the IRQ hop) and
// byte-deterministic JSON that actually parses.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "src/stats/trace_export.h"
#include "src/workload/scenario.h"
#include "tests/trace_fixture.h"

namespace daredevil {
namespace {

// The top-level fields of one serialized trace event; nested values (args)
// are skipped. Times are whole nanoseconds (the export writes exact µs.ns).
struct ParsedEvent {
  std::string ph, name, cat, id;
  bool has_id = false;
  int pid = -1;
  int tid = -1;
  int64_t ts = -1;
  int64_t dur = -1;
};

// Scans the "traceEvents" array of a serialized export. The input must
// already pass JsonLooksValid; this reads only what the tests below assert.
std::vector<ParsedEvent> ParseTraceEvents(std::string_view json) {
  std::vector<ParsedEvent> events;
  size_t i = json.find("\"traceEvents\":[");
  if (i == std::string_view::npos) {
    return events;
  }
  i += 15;
  auto read_string = [&json, &i]() {  // json[i] is the opening quote
    std::string out;
    for (++i; json[i] != '"'; ++i) {
      if (json[i] == '\\') {
        ++i;
      }
      out += json[i];
    }
    ++i;
    return out;
  };
  auto skip_value = [&json, &i, &read_string]() {
    int depth = 0;
    do {
      if (json[i] == '"') {
        read_string();
        continue;
      }
      if (json[i] == '{' || json[i] == '[') {
        ++depth;
      } else if (json[i] == '}' || json[i] == ']') {
        --depth;
      }
      ++i;
    } while (depth > 0);
  };
  auto nanos = [](std::string_view micros) {
    return static_cast<int64_t>(
        std::llround(std::stod(std::string(micros)) * 1000.0));
  };
  while (json[i] == '{') {
    ParsedEvent e;
    ++i;
    while (json[i] != '}') {
      const std::string key = read_string();
      ++i;  // ':'
      if (json[i] == '"') {
        const std::string value = read_string();
        if (key == "ph") e.ph = value;
        if (key == "name") e.name = value;
        if (key == "cat") e.cat = value;
        if (key == "id") {
          e.id = value;
          e.has_id = true;
        }
      } else if (json[i] == '{' || json[i] == '[') {
        skip_value();
      } else {
        const size_t end = json.find_first_of(",}", i);
        const std::string_view number = json.substr(i, end - i);
        if (key == "pid") e.pid = std::stoi(std::string(number));
        if (key == "tid") e.tid = std::stoi(std::string(number));
        if (key == "ts") e.ts = nanos(number);
        if (key == "dur") e.dur = nanos(number);
        i = end;
      }
      if (json[i] == ',') {
        ++i;
      }
    }
    ++i;  // '}'
    events.push_back(std::move(e));
    if (json[i] == ',') {
      ++i;
    }
  }
  return events;
}

// The fixture export, parsed: same-NSQ overlapping lifecycles (NSQ 0 holds
// requests 1-3, request 1 is a 32-page write), the IRQ hop, SLO episodes.
std::vector<ParsedEvent> FixtureEvents() {
  const trace_fixture::Fixture fixture;
  const std::string json = SerializeChromeTrace(fixture.input);
  std::string err;
  EXPECT_TRUE(JsonLooksValid(json, &err)) << err;
  return ParseTraceEvents(json);
}

TEST(JsonLooksValidTest, AcceptsWellFormedDocuments) {
  std::string err;
  EXPECT_TRUE(JsonLooksValid("{}", &err)) << err;
  EXPECT_TRUE(JsonLooksValid("[]", &err)) << err;
  EXPECT_TRUE(JsonLooksValid("[1, -2.5, 1e9, true, false, null]", &err)) << err;
  EXPECT_TRUE(JsonLooksValid(
      R"({"a": {"b": [1, "two", {"c": null}]}, "d": "\"\\\n\u0041"})", &err))
      << err;
  EXPECT_TRUE(JsonLooksValid("  {\"k\"\t:\n[ ]}  ", &err)) << err;
}

TEST(JsonLooksValidTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(JsonLooksValid(""));
  EXPECT_FALSE(JsonLooksValid("{"));
  EXPECT_FALSE(JsonLooksValid("{} trailing"));
  EXPECT_FALSE(JsonLooksValid("{\"a\": }"));
  EXPECT_FALSE(JsonLooksValid("{\"a\" 1}"));
  EXPECT_FALSE(JsonLooksValid("[1, 2,]"));
  EXPECT_FALSE(JsonLooksValid("{'single': 1}"));
  EXPECT_FALSE(JsonLooksValid("[nan]"));
  EXPECT_FALSE(JsonLooksValid("\"bad escape \\x\""));
  EXPECT_FALSE(JsonLooksValid("\"unterminated"));
  std::string err;
  EXPECT_FALSE(JsonLooksValid("[1, 2", &err));
  EXPECT_FALSE(err.empty());
}

// tools/ddtrace.py --check (ctest ddtrace_check_export_fixture) validates
// the same structure on the same fixture export, plus ids and flow pairing.
TEST(TraceExportTest, MetadataEventsComeFirstThenTimestampOrder) {
  const std::vector<ParsedEvent> events = FixtureEvents();
  ASSERT_FALSE(events.empty());
  bool seen_data = false;
  int64_t last_ts = 0;
  for (const ParsedEvent& e : events) {
    if (e.ph == "M") {
      EXPECT_FALSE(seen_data) << "metadata event after data events";
      continue;
    }
    ASSERT_GE(e.ts, 0) << "data event without ts: " << e.name;
    if (seen_data) {
      EXPECT_GE(e.ts, last_ts) << "data events out of timestamp order";
    }
    seen_data = true;
    last_ts = e.ts;
  }
  EXPECT_TRUE(seen_data);
}

TEST(TraceExportTest, AsyncBeginEndBalancedPerTrack) {
  // Async slices pair by (pid, cat, id, name); every 'b' needs its 'e' and
  // the end must not precede the begin.
  using Key = std::tuple<int, std::string, std::string, std::string>;
  std::map<Key, int> balance;
  std::map<Key, int64_t> begin_ts;
  int async_begins = 0;
  for (const ParsedEvent& e : FixtureEvents()) {
    if (e.ph != "b" && e.ph != "e") {
      continue;
    }
    EXPECT_TRUE(e.has_id) << "async event without id: " << e.name;
    const Key key{e.pid, e.cat, e.id, e.name};
    if (e.ph == "b") {
      ++async_begins;
      balance[key] += 1;
      begin_ts[key] = e.ts;
    } else {
      balance[key] -= 1;
      ASSERT_TRUE(begin_ts.count(key)) << "async end without begin: " << e.name;
      EXPECT_GE(e.ts, begin_ts[key]) << "async end before begin: " << e.name;
    }
  }
  EXPECT_GT(async_begins, 0);
  for (const auto& [key, count] : balance) {
    EXPECT_EQ(count, 0) << "unbalanced async pair: pid=" << std::get<0>(key)
                        << " cat=" << std::get<1>(key)
                        << " name=" << std::get<3>(key);
  }
}

TEST(TraceExportTest, CompleteSlicesNeverOverlapWithinATrack) {
  // Three same-NSQ requests with overlapping lifecycles: the head-occupancy
  // and fetch-engine X slices must still be disjoint per (pid, tid) track.
  std::map<std::pair<int, int>, std::vector<std::pair<int64_t, int64_t>>>
      tracks;
  for (const ParsedEvent& e : FixtureEvents()) {
    if (e.ph == "X") {
      EXPECT_GE(e.dur, 0) << e.name;
      tracks[{e.pid, e.tid}].emplace_back(e.ts, e.ts + e.dur);
    }
  }
  EXPECT_FALSE(tracks.empty());
  EXPECT_GE((tracks[{2, 0}].size()), 3u) << "NSQ 0 head-occupancy slices";
  for (auto& [track, slices] : tracks) {
    std::sort(slices.begin(), slices.end());
    for (size_t i = 1; i < slices.size(); ++i) {
      EXPECT_GE(slices[i].first, slices[i - 1].second)
          << "overlapping X slices on pid=" << track.first
          << " tid=" << track.second;
    }
  }
}

// This pins the fixture's one IRQ hop.
TEST(TraceExportTest, IrqHopEmitsFlowArrows) {
  // Request 7 is drained on core 1 but delivered on core 3: the cross-core
  // hop must be drawn as a flow (s on the IRQ core, f on the delivery core);
  // every other fixture request completes on its IRQ core.
  const trace_fixture::Fixture fixture;
  const std::string json = SerializeChromeTrace(fixture.input);
  auto only_event = [&json](const std::string& ph) {
    const std::string head = "{\"ph\":\"" + ph + "\"";
    const size_t at = json.find(head);
    EXPECT_NE(at, std::string::npos) << "no '" << ph << "' event";
    EXPECT_EQ(json.find(head, at + 1), std::string::npos)
        << "more than one '" << ph << "' event";
    return at == std::string::npos ? std::string()
                                   : json.substr(at, json.find('}', at) - at);
  };
  const std::string s = only_event("s");
  const std::string f = only_event("f");
  EXPECT_NE(s.find("\"pid\":1,\"tid\":1,"), std::string::npos) << s;
  EXPECT_NE(f.find("\"pid\":1,\"tid\":3,"), std::string::npos) << f;
  for (const std::string& flow : {s, f}) {
    EXPECT_NE(flow.find("\"cat\":\"irq-hop\",\"id\":\"7\""), std::string::npos)
        << flow;
  }
  auto ts = [](const std::string& event) {
    const size_t at = event.find("\"ts\":");
    return at == std::string::npos ? -1.0 : std::stod(event.substr(at + 5));
  };
  EXPECT_GE(ts(s), 0.0);
  EXPECT_LE(ts(s), ts(f));
}

TEST(TraceExportTest, SerializationIsDeterministicAndParses) {
  const trace_fixture::Fixture fixture;
  const std::string a = SerializeChromeTrace(fixture.input);
  const std::string b = SerializeChromeTrace(fixture.input);
  EXPECT_EQ(a, b) << "same input must serialize to identical bytes";
  std::string err;
  EXPECT_TRUE(JsonLooksValid(a, &err)) << err;
  EXPECT_NE(a.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(a.find("\"ddRequests\""), std::string::npos);
  EXPECT_NE(a.find("\"displayTimeUnit\""), std::string::npos);
}

TEST(TraceExportTest, TimelineLogDropsOldestWhenFull) {
  RequestTimelineLog log(/*capacity=*/2);
  Request rq;
  Tenant tenant;
  tenant.id = TenantId{1};
  rq.tenant = &tenant;
  for (uint64_t i = 1; i <= 3; ++i) {
    rq.id = i;
    rq.routed_nsq = 0;
    rq.nsq_enqueue_time = 10 * i;
    rq.fetch_start_time = 10 * i + 1;
    rq.fetch_time = 10 * i + 2;
    rq.flash_start_time = 10 * i + 3;
    rq.flash_end_time = 10 * i + 4;
    rq.cqe_post_time = 10 * i + 5;
    rq.drain_time = 10 * i + 6;
    rq.complete_time = 10 * i + 7;
    log.Append(rq, /*irq_core=*/0, /*ncq=*/0);
  }
  EXPECT_EQ(log.total_recorded(), 3u);
  EXPECT_EQ(log.dropped(), 1u);
  const auto records = log.Records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].id, 2u);  // oldest (id 1) was evicted
  EXPECT_EQ(records[1].id, 3u);
}

TEST(TraceExportTest, ScenarioExportIsPerfettoShaped) {
  ScenarioConfig cfg = MakeSvmConfig(4);
  cfg.stack = StackKind::kVanilla;
  cfg.warmup = kMillisecond;
  cfg.duration = 10 * kMillisecond;
  cfg.export_trace = true;
  cfg.sample_interval = kMillisecond;
  AddLTenants(cfg, 2);
  AddTTenants(cfg, 2);
  const ScenarioResult r = RunScenario(cfg);
  ASSERT_FALSE(r.trace_json.empty());
  std::string err;
  EXPECT_TRUE(JsonLooksValid(r.trace_json, &err)) << err;
  EXPECT_GT(r.timeline_total, 0u);
  EXPECT_NE(r.trace_json.find("\"ddSampler\""), std::string::npos);
  EXPECT_NE(r.trace_json.find("\"process_name\""), std::string::npos);
}

TEST(TraceExportTest, JobNamesWithControlCharactersStayValidJson) {
  ScenarioConfig cfg = MakeSvmConfig(4);
  cfg.stack = StackKind::kVanilla;
  cfg.warmup = kMillisecond;
  cfg.duration = 5 * kMillisecond;
  cfg.export_trace = true;
  AddLTenants(cfg, 1);
  AddTTenants(cfg, 1);
  cfg.jobs[0].name = "L\t0";  // a raw tab is invalid inside a JSON string
  const ScenarioResult r = RunScenario(cfg);
  ASSERT_FALSE(r.trace_json.empty());
  std::string err;
  EXPECT_TRUE(JsonLooksValid(r.trace_json, &err)) << err;
  EXPECT_NE(r.trace_json.find("\"L\\t0\""), std::string::npos);
}

}  // namespace
}  // namespace daredevil
