#include "src/workload/open_loop.h"

#include "src/core/invariant.h"

namespace daredevil {

OpenLoopJob::OpenLoopJob(Machine* machine, StorageStack* stack,
                         const OpenLoopSpec& spec, uint64_t tenant_id, Rng rng,
                         Tick measure_start, Tick measure_end)
    : machine_(machine),
      stack_(stack),
      spec_(spec),
      tenant_{.id = TenantId{tenant_id},
              .name = spec.name,
              .group = spec.group,
              .ionice = spec.ionice,
              .core = spec.core,
              .primary_nsid = spec.nsid},
      rng_(rng),
      measure_end_(measure_end),
      io_(machine, stack, &tenant_, spec.nsid, measure_start, measure_end) {
  DD_CHECK(spec_.iops > 0) << "open-loop job " << spec_.name
                           << " needs a positive arrival rate";
}

void OpenLoopJob::Start() {
  machine_->sim().At(spec_.start_time, [this]() {
    stack_->OnTenantStart(&tenant_);
    ScheduleNextArrival();
  });
}

void OpenLoopJob::ScheduleNextArrival() {
  if (machine_->now() >= measure_end_) {
    return;
  }
  // Poisson arrivals: exponential inter-arrival gap for the mean rate. When
  // bursting, the whole burst shares one arrival slot.
  const double mean_gap_ns = 1e9 / spec_.iops;
  const TickDuration gap{static_cast<Tick>(rng_.NextExponential(mean_gap_ns))};
  machine_->sim().After(gap, [this]() {
    const bool burst = spec_.burst_prob > 0 && rng_.NextBool(spec_.burst_prob);
    Arrive(burst ? spec_.burst_len : 1);
    ScheduleNextArrival();
  });
}

void OpenLoopJob::Arrive(int burst_remaining) {
  for (int i = 0; i < burst_remaining; ++i) {
    ++arrivals_;
    if (io_.inflight() >= spec_.max_outstanding) {
      ++dropped_;
      continue;
    }
    Request& rq = io_.Acquire()->rq;
    rq.pages = spec_.pages;
    rq.lba = io_.RandomLba(rng_, spec_.pages);
    io_.Issue(&rq);
  }
}

}  // namespace daredevil
