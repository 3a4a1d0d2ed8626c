// A fixed Chrome-trace export input: request records with same-NSQ
// overlapping lifecycles and a cross-core IRQ hop, trace-log instants of
// every exported category, a sampler with a live and an all-zero probe, and
// SLO episodes (one blamed, one unattributed). Shared by the byte-pin test
// and the fixture writer that tools/ddtrace.py --check validates.
#ifndef DAREDEVIL_TESTS_TRACE_FIXTURE_H_
#define DAREDEVIL_TESTS_TRACE_FIXTURE_H_

#include <cstdint>
#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/trace.h"
#include "src/stats/slo.h"
#include "src/stats/state_sampler.h"
#include "src/stats/trace_export.h"

namespace daredevil {
namespace trace_fixture {

// A completed request with a monotone stage chain. Fetch intervals of the
// fixture's records are disjoint (the engine is serialized); lifecycles
// within an NSQ overlap.
inline RequestRecord Record(uint64_t id, int nsq, Tick enqueue,
                            Tick fetch_start, Tick fetch, uint32_t pages = 1,
                            bool latency_sensitive = true) {
  RequestRecord r;
  r.id = id;
  r.tenant_id = id % 3;
  r.pages = pages;
  r.is_write = pages >= 32;
  r.latency_sensitive = latency_sensitive;
  r.nsq = nsq;
  r.ncq = nsq;
  r.submit_core = nsq;
  r.irq_core = nsq;
  r.complete_core = nsq;
  r.issue = enqueue - 10;
  r.submit = enqueue - 5;
  r.nsq_enqueue = enqueue;
  r.doorbell = enqueue + 2;
  r.fetch_start = fetch_start;
  r.fetch = fetch;
  r.flash_start = fetch;
  r.flash_end = fetch + 100;
  r.cqe_post = fetch + 110;
  r.drain = fetch + 130;
  r.complete = fetch + 150;
  return r;
}

inline std::vector<RequestRecord> Records() {
  RequestRecord hop = Record(7, 2, 100, 470, 480);
  hop.irq_core = 1;  // drained on core 1, delivered on core 3
  hop.complete_core = 3;
  RequestRecord unrung = Record(8, 3, 100, 480, 490, 1, false);
  unrung.doorbell = 0;  // visible from its enqueue
  return {
      Record(1, 0, 100, 200, 400, /*pages=*/32, /*latency_sensitive=*/false),
      Record(2, 0, 110, 400, 450),
      Record(3, 0, 120, 450, 460),
      Record(4, 1, 105, 460, 470),
      hop,
      unrung,
  };
}

inline std::vector<TraceEvent> Events() {
  return {
      {100, TraceCategory::kRoute, 1, 0, 0},
      {102, TraceCategory::kDoorbell, 0, 0, 2},
      {105, TraceCategory::kSubmit, 4, 1, 0},  // records exist: skipped
      {200, TraceCategory::kFetchStart, 1, 0, 0},  // not exported
      {250, TraceCategory::kSchedule, 3, 1, 2},
      {300, TraceCategory::kMigrate, 2, 0, 3},
      {400, TraceCategory::kFaultInject, 5, 1, 4},
      {450, TraceCategory::kTimeout, 2, 0, 1},
      {450, TraceCategory::kRetry, 2, 0, 2},
      {460, TraceCategory::kAbort, 3, 0, 3},
      {612, TraceCategory::kIrq, 0, 2, 1},
      {630, TraceCategory::kDeliver, 7, 3, 0},  // records exist: skipped
  };
}

// Owns everything the export input points at.
struct Fixture {
  Simulator sim;
  StateSampler sampler{100};
  SloReport slo;
  TraceExportInput input;

  Fixture() {
    sampler.AddProbe("nsq0.depth", [this]() {
      return static_cast<double>(sim.now() % 300) / 7.0;
    });
    sampler.AddProbe("idle", []() { return 0.0; });
    sampler.Attach(&sim, 0, 500);
    sim.RunUntil(600);

    SloSpec spec;
    spec.selector = "L";
    spec.threshold = 100;
    spec.window = 200;
    SloTracker tracker({spec}, 0, 900);
    SloTenantState* l0 = tracker.AddTenant("L0", "L", 0);
    SloTenantState* l1 = tracker.AddTenant("L1", "L", 3);
    l0->Record(150, 40, true);
    l0->Record(250, 260, true);
    l0->Record(300, 20, true);
    l0->Record(450, 300, true);
    l1->Record(620, 500, false);
    l1->Record(820, 30, true);
    slo = tracker.Finalize();
    SloEpisode& blamed = slo.tenants.at("L0").episodes.at(0);
    blamed.blame = "T0";
    blamed.mechanism = "same-queue-head";
    blamed.blame_ns = 42;

    input.stack_name = "fixture \"stack\"";
    input.num_cores = 4;
    input.nr_nsq = 4;
    input.nr_ncq = 4;
    input.events = Events();
    input.requests = Records();
    input.sampler = &sampler;
    input.slo = &slo;
    input.tenant_names[0] = "L0";
    input.tenant_names[1] = "T0";
    input.tenant_names[2] = "T\t1";
    input.nsq_labels[0] = "NSQ 0 (shared)";
  }
};

}  // namespace trace_fixture
}  // namespace daredevil

#endif  // DAREDEVIL_TESTS_TRACE_FIXTURE_H_
