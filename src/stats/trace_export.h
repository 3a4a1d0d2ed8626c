// Timeline observability: per-request lifecycle capture and a Chrome Trace
// Event Format / Perfetto-compatible JSON exporter.
//
// The paper's argument is about *where* time hides inside the stack (a 4KB
// L-request stuck behind a 128KB bulk command at an NSQ head, fetch/decompose
// serialization, completion batching). Aggregate histograms cannot show that
// per-request; a timeline can. This module turns the TraceLog event stream
// plus per-request stage timelines into a trace that loads directly in
// ui.perfetto.dev / chrome://tracing:
//
//   * per-NSQ tracks with non-overlapping head-occupancy slices (who sat at
//     the queue head, for how long - HOL blocking made visible),
//   * a device fetch-engine track (fetch/decompose serialization),
//   * per-request nested async slices covering the full lifecycle
//     (submit / nsq-wait / fetch / flash / completion-wait / delivery),
//   * flow arrows across the cross-core IRQ hop,
//   * counter tracks from the periodic StateSampler (queue depths, chip
//     occupancy, run-queue lengths),
//   * instant events for doorbells, IRQs, NQ-scheduling and migrations.
//
// The NSQ and fetch-engine tracks draw the intervals of the run's one
// RequestTimeline (holb.h), the same ones the HOL and SLO passes read. The
// exporter renders each event once, in emission order, into one buffer and
// keeps a (ts, byte range) key per event; it then sorts the keys and splices
// the ranges into the document, metadata first. Equal timestamps keep
// emission order, which keeps each request's nested begin/end pairs
// balanced.
//
// Everything here is post-processing: building and serializing the trace
// reads simulation state but never schedules events or mutates it, so an
// export-enabled run is simulated-time identical to a disabled one.
#ifndef DAREDEVIL_SRC_STATS_TRACE_EXPORT_H_
#define DAREDEVIL_SRC_STATS_TRACE_EXPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/bounded_ring.h"
#include "src/sim/trace.h"
#include "src/stack/request.h"
#include "src/stats/holb.h"

namespace daredevil {

class StateSampler;  // src/stats/state_sampler.h
struct SloReport;    // src/stats/slo.h

// --- Per-request lifecycle capture ---------------------------------------

// Bounded log of completed-request records (a BoundedRing, like TraceLog),
// fed by the storage stack's completion delivery path.
class RequestTimelineLog {
 public:
  explicit RequestTimelineLog(size_t capacity = 1 << 20) : ring_(capacity) {}

  // Copies the request's timeline. Requests without a full device timeline
  // (split parents, which complete via their children) are skipped.
  void Append(const Request& rq, int irq_core, int ncq);

  // Records in completion order (chronological by `complete`).
  std::vector<RequestRecord> Records() const { return ring_.Items(); }
  uint64_t total_recorded() const { return ring_.total_pushed(); }
  uint64_t dropped() const { return ring_.dropped(); }

 private:
  BoundedRing<RequestRecord> ring_;
};

// --- Chrome Trace Event Format export -------------------------------------

// Synthetic process ids grouping the tracks.
inline constexpr int kTracePidHost = 1;      // per-core tracks
inline constexpr int kTracePidNsq = 2;       // per-NSQ head-occupancy tracks
inline constexpr int kTracePidDevice = 3;    // fetch engine + flash service
inline constexpr int kTracePidNcq = 4;       // completion-queue residency
inline constexpr int kTracePidRequests = 5;  // per-request nested lifecycles
inline constexpr int kTracePidCounters = 6;  // StateSampler counter tracks
inline constexpr int kTracePidControl = 7;   // scheduling / migration events
inline constexpr int kTracePidSlo = 8;       // per-tenant SLO violation tracks

struct TraceExportInput {
  std::string stack_name;
  int num_cores = 0;
  int nr_nsq = 0;
  int nr_ncq = 0;
  std::vector<TraceEvent> events;  // TraceLog::Events(), may be empty
  // Completed-request records (RequestTimelineLog::Records()) with their
  // derived head and fetch intervals; may be empty.
  RequestTimeline requests;
  const StateSampler* sampler = nullptr;      // optional counter tracks
  // Optional finalized SLO report: renders violation episodes as slices and
  // per-window burn rates as counters on per-tenant SLO tracks.
  const SloReport* slo = nullptr;
  std::map<uint64_t, std::string> tenant_names;  // id -> display name
  std::map<int, std::string> nsq_labels;      // per-stack track naming
};

// Full JSON document: {"traceEvents":[...],"displayTimeUnit":"ns",
// "otherData":{...},"ddRequests":[...],"ddSampler":{...}}. The ddRequests /
// ddSampler side-channels carry the raw records for tools/ddtrace.py.
// Deterministic: identical inputs serialize to identical bytes.
std::string SerializeChromeTrace(const TraceExportInput& input);

// Minimal recursive-descent JSON validator (no external deps). Used by the
// export tests and tools to guarantee the emitted trace parses.
bool JsonLooksValid(std::string_view json, std::string* error = nullptr);

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_STATS_TRACE_EXPORT_H_
