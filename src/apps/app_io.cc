#include "src/apps/app_io.h"

#include <limits>

namespace daredevil {

AppIoContext::AppIoContext(Machine* machine, StorageStack* stack, Tenant* tenant,
                           uint32_t nsid)
    : machine_(machine),
      tenant_(tenant),
      io_(machine, stack, tenant, nsid, /*measure_start=*/0,
          /*measure_end=*/std::numeric_limits<Tick>::max(),
          &AppIoContext::OnDelivered) {}

void AppIoContext::OnDelivered(void* /*self*/, TenantIo::Slot& slot) {
  // The slot is already free: move the callback out first, since it may
  // issue the next op into this very slot.
  Callback done = std::move(slot.done);
  if (done) {
    done();
  }
}

uint64_t AppIoContext::Issue(uint64_t lba, uint32_t pages, bool is_write,
                             bool sync, bool meta, bool flush, bool fua,
                             Callback done) {
  TenantIo::Slot* slot = io_.Acquire();
  Request& rq = slot->rq;
  rq.lba = Lba{lba};
  rq.pages = pages;
  rq.is_write = is_write;
  rq.is_sync = sync;
  rq.is_meta = meta;
  rq.is_flush = flush;
  rq.is_fua = fua;
  slot->done = std::move(done);
  if (flush) {
    ++flushes_;  // barriers move no data: not a write, no pages transferred
  } else {
    (is_write ? writes_ : reads_) += 1;
    pages_ += pages;
  }
  return io_.Issue(&rq);
}

uint64_t AppIoContext::Read(uint64_t lba, uint32_t pages, Callback done) {
  return Issue(lba, pages, /*is_write=*/false, /*sync=*/false, /*meta=*/false,
               /*flush=*/false, /*fua=*/false, std::move(done));
}

uint64_t AppIoContext::Write(uint64_t lba, uint32_t pages, bool sync, bool meta,
                             Callback done) {
  return Issue(lba, pages, /*is_write=*/true, sync, meta, /*flush=*/false,
               /*fua=*/false, std::move(done));
}

uint64_t AppIoContext::WriteFua(uint64_t lba, uint32_t pages, bool meta,
                                Callback done) {
  return Issue(lba, pages, /*is_write=*/true, /*sync=*/true, meta,
               /*flush=*/false, /*fua=*/true, std::move(done));
}

uint64_t AppIoContext::Flush(Callback done) {
  // A barrier targets no LBA; page 0 with pages=1 keeps queue-capacity
  // accounting honest without touching flash (the device never schedules a
  // flash page for a flush command).
  return Issue(/*lba=*/0, /*pages=*/1, /*is_write=*/false, /*sync=*/true,
               /*meta=*/false, /*flush=*/true, /*fua=*/false, std::move(done));
}

void AppIoContext::Compute(TickDuration duration, Callback done) {
  machine_->Post(tenant_->core, WorkLevel::kUser, duration,
                 [done = std::move(done)]() {
                   if (done) {
                     done();
                   }
                 },
                 tenant_->id);
}

}  // namespace daredevil
