#include "src/workload/fio_job.h"

namespace daredevil {

FioJob::FioJob(Machine* machine, StorageStack* stack, const FioJobSpec& spec,
               uint64_t tenant_id, int core, Rng rng, Tick measure_start,
               Tick measure_end)
    : machine_(machine),
      stack_(stack),
      spec_(spec),
      tenant_{.id = TenantId{tenant_id},
              .name = spec.name,
              .group = spec.group,
              .ionice = spec.ionice,
              .core = core,
              .primary_nsid = spec.nsid},
      rng_(rng),
      measure_end_(measure_end),
      io_(machine, stack, &tenant_, spec.nsid, measure_start, measure_end,
          &FioJob::OnDelivered, this) {
  io_.Reserve(spec_.iodepth);
  // Streaming jobs start at a random aligned offset so concurrent T-tenants
  // do not all hammer the same flash chips. Every job draws it, so the RNG
  // stream does not depend on the access pattern.
  const uint64_t offsets = io_.namespace_pages() / spec_.pages;
  seq_lba_ = rng_.NextBelow(offsets > 0 ? offsets : 1) * spec_.pages;
}

bool FioJob::Stopped() const {
  return spec_.stop_time >= 0 && machine_->now() >= spec_.stop_time;
}

void FioJob::Start() {
  machine_->sim().At(spec_.start_time, [this]() {
    stack_->OnTenantStart(&tenant_);
    for (int i = 0; i < spec_.iodepth; ++i) {
      IssueOne();
    }
  });
  if (spec_.ionice_update_interval > kZeroDuration) {
    ArmIoniceUpdate();
  }
  if (spec_.migrate_interval > kZeroDuration) {
    ArmMigration();
  }
}

void FioJob::IssueOne() {
  if (!io_.HasFree() || Stopped()) {
    return;
  }
  Request& rq = io_.Acquire()->rq;
  rq.pages = spec_.pages;
  rq.is_write = spec_.is_write;
  rq.is_sync = spec_.sync_prob > 0.0 && rng_.NextBool(spec_.sync_prob);
  rq.is_meta = spec_.meta_prob > 0.0 && rng_.NextBool(spec_.meta_prob);
  if (spec_.random) {
    rq.lba = io_.RandomLba(rng_, spec_.pages);
  } else {
    rq.lba = Lba{seq_lba_};
    seq_lba_ += spec_.pages;
    if (seq_lba_ + spec_.pages > io_.namespace_pages()) {
      seq_lba_ = 0;
    }
  }
  io_.Issue(&rq);
}

void FioJob::OnDelivered(void* self, TenantIo::Slot& /*slot*/) {
  static_cast<FioJob*>(self)->ScheduleNextIssue();
}

void FioJob::ScheduleNextIssue() {
  if (Stopped()) {
    return;
  }
  if (spec_.think_time > kZeroDuration) {
    machine_->sim().After(spec_.think_time, [this]() { IssueOne(); });
  } else {
    IssueOne();
  }
}

void FioJob::ArmIoniceUpdate() {
  machine_->sim().After(spec_.ionice_update_interval, [this]() {
    if (machine_->now() >= measure_end_) {
      return;
    }
    // Re-applying the (unchanged) ionice value runs the kernel update path,
    // which re-schedules the tenant's default NSQ in Daredevil (§7.5). The
    // updater is a userspace syscall loop: the next update is armed only
    // after this one's syscall ran, so it self-throttles under CPU
    // saturation like the paper's updater.
    machine_->Post(tenant_.core, WorkLevel::kUser, stack_->costs().syscall,
                   [this]() {
                     stack_->OnIoniceChange(&tenant_);
                     ArmIoniceUpdate();
                   },
                   tenant_.id);
  });
}

void FioJob::ArmMigration() {
  machine_->sim().After(spec_.migrate_interval, [this]() {
    if (machine_->now() >= measure_end_) {
      return;
    }
    const int old_core = tenant_.core;
    const int new_core =
        static_cast<int>(rng_.NextBelow(static_cast<uint64_t>(machine_->num_cores())));
    if (new_core != old_core) {
      tenant_.core = new_core;
      stack_->OnTenantMigrated(&tenant_, old_core);
    }
    ArmMigration();
  });
}

}  // namespace daredevil
