#include "src/stack/tenant_io.h"

#include <string>

#include "src/core/invariant.h"
#include "src/stats/slo.h"

namespace daredevil {

TenantIo::TenantIo(Machine* machine, StorageStack* stack, Tenant* tenant,
                   uint32_t nsid, Tick measure_start, Tick measure_end,
                   OnDelivered on_delivered, void* owner)
    : machine_(machine),
      stack_(stack),
      tenant_(tenant),
      nsid_(nsid),
      measure_start_(measure_start),
      measure_end_(measure_end),
      on_delivered_(on_delivered),
      owner_(owner),
      next_rq_id_(tenant->id.value() << 32) {}

TenantIo::Slot* TenantIo::Grow() {
  auto owned = std::make_unique<Slot>();
  Slot* slot = owned.get();
  slot->rq.tenant = tenant_;
  slot->rq.on_complete = [this, slot](Request*) { Complete(slot); };
  pool_.push_back(std::move(owned));
  return slot;
}

void TenantIo::Reserve(int slots) {
  pool_.reserve(static_cast<size_t>(slots));
  free_list_.reserve(static_cast<size_t>(slots));
  for (int i = 0; i < slots; ++i) {
    free_list_.push_back(Grow());
  }
}

TenantIo::Slot* TenantIo::Acquire() {
  if (free_list_.empty()) {
    return Grow();
  }
  Slot* slot = free_list_.back();
  free_list_.pop_back();
  return slot;
}

Lba TenantIo::RandomLba(Rng& rng, uint32_t pages) const {
  const uint64_t ns_pages = namespace_pages();
  return Lba{rng.NextBelow(ns_pages >= pages ? ns_pages - pages + 1 : 1)};
}

uint64_t TenantIo::Issue(Request* rq) {
  DD_CHECK(rq->pages >= 1) << "tenant " << tenant_->id << " issued an empty I/O";
  DD_CHECK(rq->lba.value() + rq->pages <= namespace_pages())
      << "tenant " << tenant_->id << " I/O [" << rq->lba.value() << ", "
      << rq->lba.value() + rq->pages << ") overruns namespace " << nsid_
      << " (" << namespace_pages() << " pages)";
  rq->id = ++next_rq_id_;
  rq->nsid = nsid_;
  rq->ResetTimeline();  // pooled request: clear the previous run's stamps
  rq->issue_time = machine_->now();
  rq->routed_nsq = -1;
  rq->submit_core = tenant_->core;
  ++issued_;
  ++inflight_;
  if (issued_cell_ != nullptr) {
    ++*issued_cell_;
  }

  // The syscall runs in user context on the tenant's current core, then the
  // stack takes over in kernel context.
  const TickDuration issue_cost =
      stack_->costs().syscall +
      static_cast<Tick>(rq->pages) * stack_->costs().per_page_user;
  machine_->Post(tenant_->core, WorkLevel::kUser, issue_cost,
                 [this, rq]() {
                   rq->submit_core = tenant_->core;
                   stack_->SubmitAsync(rq);
                 },
                 tenant_->id);
  return rq->id;
}

void TenantIo::Complete(Slot* slot) {
  const Request& rq = slot->rq;
  --inflight_;
  ++completed_;
  if (rq.status != IoStatus::kOk) {
    // Fault runs only: the stack exhausted its retries and delivered the
    // failure. The request still counts as completed (it left the stack).
    ++errored_;
  }
  if (completed_cell_ != nullptr) {
    ++*completed_cell_;
  }
  const Tick latency = rq.complete_time - rq.issue_time;
  const Tick now = machine_->now();
  if (now >= measure_start_ && now < measure_end_) {
    latency_.Record(latency);
    stages_.Record(rq);
    ++ios_;
    bytes_ += rq.bytes();
  }
  if (latency_series_ != nullptr) {
    latency_series_->Record(now, latency);
  }
  if (bytes_series_ != nullptr) {
    bytes_series_->Record(now, static_cast<int64_t>(rq.bytes()));
  }
  if (slo_ != nullptr) {
    slo_->Record(now, latency, rq.status == IoStatus::kOk);
  }
  free_list_.push_back(slot);
  if (on_delivered_ != nullptr) {
    on_delivered_(owner_, *slot);
  }
}

void TenantIo::AttachMetrics(MetricsRegistry* registry) {
  issued_cell_ = registry->Counter("workload." + tenant_->group + ".issued");
  completed_cell_ =
      registry->Counter("workload." + tenant_->group + ".completed");
}

}  // namespace daredevil
