// One tenant's user end of the I/O service routine (Fig. 1): the pooled
// requests it has in flight, the issue step (a syscall on the tenant's core
// hands the request to the block layer) and the completion sink that
// accounts every delivery. FioJob, OpenLoopJob and AppIoContext are thin
// policies on top of it: closed-loop reissue, open-loop arrivals and
// per-op callbacks.
#ifndef DAREDEVIL_SRC_STACK_TENANT_IO_H_
#define DAREDEVIL_SRC_STACK_TENANT_IO_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/sim/rng.h"
#include "src/stack/storage_stack.h"
#include "src/stats/histogram.h"
#include "src/stats/metrics.h"
#include "src/stats/time_series.h"

namespace daredevil {

class SloTenantState;  // src/stats/slo.h

class TenantIo {
 public:
  // A pooled request plus the issuer's per-op callback (AppIoContext only).
  struct Slot {
    Request rq;
    std::function<void()> done;
  };
  // The source's completion policy, run once the sink accounted a delivery
  // and freed its slot (a plain function pointer: no allocation).
  using OnDelivered = void (*)(void* owner, Slot& slot);

  // Every I/O targets `nsid`; deliveries completing in
  // [measure_start, measure_end) feed the latency histogram and stages.
  TenantIo(Machine* machine, StorageStack* stack, Tenant* tenant,
           uint32_t nsid, Tick measure_start, Tick measure_end,
           OnDelivered on_delivered = nullptr, void* owner = nullptr);
  TenantIo(const TenantIo&) = delete;
  TenantIo& operator=(const TenantIo&) = delete;

  // Pre-builds `slots` free slots (closed-loop sources never grow past it).
  void Reserve(int slots);
  bool HasFree() const { return !free_list_.empty(); }
  // Pops a free slot, growing the pool when none is left.
  Slot* Acquire();

  // The issue step, once the caller filled lba, pages and flags: assigns the
  // id, checks the I/O fits the namespace, clears the recycled stamps and
  // charges the syscall plus per-page buffer prep on the tenant's core
  // before the stack takes over. Returns the request id.
  uint64_t Issue(Request* rq);
  // Uniform start page for a `pages`-page I/O within the namespace (an
  // oversized I/O draws 0, so the issue step's bounds check reports it).
  Lba RandomLba(Rng& rng, uint32_t pages) const;
  const Tenant& tenant() const { return *tenant_; }
  uint32_t nsid() const { return nsid_; }
  uint64_t namespace_pages() const {
    return stack_->device().NamespacePages(nsid_);
  }

  // Completion sink: latency, stages, I/Os and bytes count deliveries in the
  // measurement window only.
  const Histogram& latency() const { return latency_; }
  const StageBreakdown& stages() const { return stages_; }
  uint64_t measured_ios() const { return ios_; }
  uint64_t measured_bytes() const { return bytes_; }
  uint64_t issued() const { return issued_; }
  uint64_t completed() const { return completed_; }
  // Deliveries with status != kOk (fault-injection runs only).
  uint64_t errored() const { return errored_; }
  int inflight() const { return inflight_; }

  // Optional whole-run series (shared per group; owned by the scenario).
  void AttachSeries(TimeSeries* latency_series, TimeSeries* bytes_series) {
    latency_series_ = latency_series;
    bytes_series_ = bytes_series;
  }
  // Optional SLO observer (owned by the scenario's SloTracker; null means
  // the tenant matched no spec). Fed one call per delivery.
  void AttachSlo(SloTenantState* slo) { slo_ = slo; }
  // Group-aggregated counters "workload.<group>.issued" / ".completed";
  // tenants of one group share the cells by name.
  void AttachMetrics(MetricsRegistry* registry);

 private:
  Slot* Grow();
  void Complete(Slot* slot);

  Machine* machine_;
  StorageStack* stack_;
  Tenant* tenant_;
  uint32_t nsid_;
  Tick measure_start_;
  Tick measure_end_;
  OnDelivered on_delivered_;
  void* owner_;
  uint64_t next_rq_id_;

  // Pooled and recycled across the whole run: keep the request compact so a
  // deep pool stays cache-resident (growth here is a hot-path regression).
  static_assert(sizeof(Request) <= 256,
                "Request outgrew its pooled-allocation budget");
  std::vector<std::unique_ptr<Slot>> pool_;
  std::vector<Slot*> free_list_;

  Histogram latency_;
  StageBreakdown stages_;
  uint64_t ios_ = 0;
  uint64_t bytes_ = 0;
  uint64_t issued_ = 0;
  uint64_t completed_ = 0;
  uint64_t errored_ = 0;
  int inflight_ = 0;
  uint64_t* issued_cell_ = nullptr;
  uint64_t* completed_cell_ = nullptr;
  TimeSeries* latency_series_ = nullptr;
  TimeSeries* bytes_series_ = nullptr;
  SloTenantState* slo_ = nullptr;
};

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_STACK_TENANT_IO_H_
