// Head-of-line blocking attribution (the quantitative half of §3.1).
//
// For every latency-sensitive victim request, its NSQ wait
// [nsq_enqueue, fetch_start] is attributed to the concrete requests that
// delayed it:
//
//   * head blocking - requests of the same NSQ that occupied the queue head
//     (their head-occupancy interval, see RequestTimeline) while the victim
//     was waiting behind them;
//   * fetch-slot blocking - the controller's fetch/decompose engine is
//     serialized across NSQs, so once the victim reaches its own NSQ head it
//     can still wait for other queues' commands to clear the engine;
//   * residual - whatever remains (doorbell batching before the command is
//     visible, capacity stalls, ...).
//
// Rankings by tenant and by size class show *who* blocks L-requests - on
// blk-mq the bulk 128KB commands dominate; on Daredevil's split NSQ groups
// they cannot, because they never share a queue with the victims.
#ifndef DAREDEVIL_SRC_STATS_HOLB_H_
#define DAREDEVIL_SRC_STATS_HOLB_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/clock.h"

namespace daredevil {

class JsonWriter;  // src/stats/metrics.h

// Compact snapshot of one completed request's stage timeline, captured on
// delivery by RequestTimelineLog (src/stats/trace_export.h): requests are
// pooled and reused by the workload layer, so the stamps are copied out
// before recycling.
struct RequestRecord {
  uint64_t id = 0;
  uint64_t tenant_id = 0;
  uint32_t pages = 1;
  bool is_write = false;
  bool latency_sensitive = false;  // realtime ionice (L-tenant) at delivery
  int nsq = -1;                    // NSQ the request was routed to
  int ncq = -1;                    // NCQ the completion came back on
  int submit_core = 0;
  int irq_core = 0;       // core that drained the CQE
  int complete_core = 0;  // tenant core the completion was delivered on

  // The monotonic stage chain (see Request in src/stack/request.h).
  Tick issue = 0;
  Tick submit = 0;
  Tick nsq_enqueue = 0;
  Tick doorbell = 0;
  Tick fetch_start = 0;
  Tick fetch = 0;
  Tick flash_start = 0;
  Tick flash_end = 0;
  Tick cqe_post = 0;
  Tick drain = 0;
  Tick complete = 0;
};

// A head-occupancy or fetch-engine interval of records()[record].
struct TimelineInterval {
  Tick begin = 0;
  Tick end = 0;
  uint32_t record = 0;
};

// Completed-request records and the one derivation of the queue picture
// behind them, shared by the HOL attribution, the SLO episode blame (slo.h)
// and the trace export's NSQ and fetch-engine tracks:
//
//   * head occupancy, per NSQ: the controller fetches each NSQ in FIFO
//     order, so a request holds its NSQ head from max(its visibility, the
//     previous head's departure) until its own fetch start. These intervals
//     are disjoint within an NSQ;
//   * the fetch engine: [fetch_start, fetch) of every request. The engine is
//     serialized across NSQs, so these are globally disjoint.
//
// Both lists are ordered by (fetch_start, id). The derivation runs once, in
// the constructor.
class RequestTimeline {
 public:
  RequestTimeline() = default;
  // Implicit on purpose: a record vector converts to its timeline.
  RequestTimeline(  // NOLINT(google-explicit-constructor)
      std::vector<RequestRecord> records);

  const std::vector<RequestRecord>& records() const { return records_; }
  // NSQ -> its head-occupancy intervals.
  const std::map<int, std::vector<TimelineInterval>>& heads() const {
    return heads_;
  }
  const std::vector<TimelineInterval>& fetches() const { return fetches_; }
  // When records()[i] reached the head of its own NSQ.
  Tick head_start(size_t i) const { return head_start_[i]; }

 private:
  std::vector<RequestRecord> records_;
  std::map<int, std::vector<TimelineInterval>> heads_;
  std::vector<TimelineInterval> fetches_;
  std::vector<Tick> head_start_;  // indexed like records_
};

struct HolbOptions {
  // Attribute blocking only for latency-sensitive victims (the paper's
  // L-apps). When false every request is a victim.
  bool victims_latency_sensitive_only = true;
  // Blockers with >= this many pages count as "bulk" in the size-class
  // rollup (128KB = 32 pages by default).
  uint32_t bulk_threshold_pages = 32;
  // Rows kept in the ranked blocker tables.
  size_t top_n = 10;
  // Optional tenant display names ("L0", "T1", ...); ids otherwise.
  std::map<uint64_t, std::string> tenant_names;
};

// One row of a blocker ranking (key = tenant name or size class).
struct HolbRow {
  std::string key;
  uint64_t blocking_events = 0;  // victim/blocker pairs with overlap > 0
  Tick head_block_ns = 0;        // same-NSQ head-occupancy overlap
  Tick fetch_slot_ns = 0;        // cross-NSQ fetch-engine overlap
  Tick total_ns() const { return head_block_ns + fetch_slot_ns; }
};

struct HolbReport {
  uint64_t victims = 0;            // requests whose wait was attributed
  Tick total_wait_ns = 0;          // sum of victim [nsq_enqueue, fetch_start]
  Tick attributed_head_ns = 0;     // portion blamed on same-NSQ heads
  Tick attributed_fetch_ns = 0;    // portion blamed on the fetch engine
  Tick residual_ns = 0;            // unattributed remainder
  std::vector<HolbRow> by_tenant;  // descending by total_ns
  std::vector<HolbRow> by_size;    // "bulk(>=Np)" / "small(<Np)"

  bool empty() const { return victims == 0; }
  // Head-blocking nanoseconds charged to bulk-sized blockers; the fig02
  // acceptance check compares this share across stacks.
  Tick BulkHeadBlockNs() const;
  Tick SmallHeadBlockNs() const;

  void AppendJson(JsonWriter& w) const;
  // Human-readable ranking table for bench output.
  std::string ToTable() const;
};

// Accumulates the blocking attribution of a caller-chosen set of victims
// over one timeline. AnalyzeHolBlocking picks the L-requests; the SLO blame
// picks one tenant's requests per violation episode.
class HolbAttribution {
 public:
  HolbAttribution(const RequestTimeline& timeline, const HolbOptions& opts);

  // Charges the NSQ wait of timeline.records()[i] to the requests whose
  // head-occupancy and fetch-engine intervals overlap it.
  void AddVictim(size_t i);
  HolbReport Report() const;

 private:
  void Charge(const RequestRecord& blocker, Tick head_ns, Tick fetch_ns);

  const RequestTimeline* timeline_;
  const HolbOptions* opts_;
  HolbReport totals_;  // victims and wait sums; rows are built by Report()
  std::map<uint64_t, HolbRow> by_tenant_id_;
  HolbRow bulk_;
  HolbRow small_;
};

// Runs the attribution pass over the timeline's victims. Pure function of
// the records: deterministic, no simulation access.
HolbReport AnalyzeHolBlocking(const RequestTimeline& timeline,
                              const HolbOptions& opts = HolbOptions());

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_STATS_HOLB_H_
