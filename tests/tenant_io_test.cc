// Conservation over the shared tenant I/O path (src/stack/tenant_io.h): the
// closed-loop FioJob, the open-loop OpenLoopJob and AppIoContext all pool,
// issue and account their requests through one TenantIo, and each must
// account every request exactly once, with and without injected faults.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <tuple>

#include "src/apps/app_io.h"
#include "src/workload/fio_job.h"
#include "src/workload/open_loop.h"
#include "src/workload/scenario.h"

namespace daredevil {
namespace {

enum class Source { kFio, kOpenLoop, kApp };

constexpr uint64_t kTenantId = 1;
constexpr Tick kWarmup = 2 * kMillisecond;
constexpr Tick kStop = 30 * kMillisecond;      // sources stop issuing here
constexpr Tick kDrained = 300 * kMillisecond;  // > timeout * (retries + 1)

// One source's accounting at an instant.
struct Snapshot {
  uint64_t issued = 0;  // arrivals, for the open-loop source
  uint64_t completed = 0;
  uint64_t dropped = 0;
  uint64_t errored = 0;
  uint64_t measured = 0;
  uint64_t histogram = 0;  // the latency histogram's sample count
  int inflight = 0;
};

// An AppIoContext driven like an application: `chains` independent
// closed-loop op sequences cycling read / write / FUA write / flush.
class AppDriver {
 public:
  AppDriver(ScenarioEnv* env, int chains) : env_(env) {
    tenant_.id = TenantId{kTenantId};
    tenant_.name = "app";
    tenant_.group = "APP";
    tenant_.ionice = IoniceClass::kRealtime;
    env->stack().OnTenantStart(&tenant_);
    io_ = std::make_unique<AppIoContext>(&env->machine(), &env->stack(),
                                         &tenant_, /*nsid=*/0);
    for (int c = 0; c < chains; ++c) {
      Next(static_cast<uint64_t>(c) * 1024);
    }
  }

  AppIoContext& io() { return *io_; }

 private:
  void Next(uint64_t lba) {
    if (env_->sim().now() >= kStop) {
      return;
    }
    auto again = [this, lba]() { Next(lba + 8); };
    switch (ops_++ % 4) {
      case 0:
        io_->Read(lba, 1, again);
        break;
      case 1:
        io_->Write(lba, 4, /*sync=*/false, /*meta=*/true, again);
        break;
      case 2:
        io_->WriteFua(lba, 2, /*meta=*/false, again);
        break;
      default:
        io_->Flush(again);
        break;
    }
  }

  ScenarioEnv* env_;
  Tenant tenant_;
  std::unique_ptr<AppIoContext> io_;
  uint64_t ops_ = 0;
};

class TenantIoConservationTest
    : public ::testing::TestWithParam<std::tuple<Source, bool>> {};

TEST_P(TenantIoConservationTest, EveryRequestAccountedOnce) {
  const auto [source, faulty] = GetParam();
  ScenarioConfig cfg = MakeSvmConfig(2);
  cfg.device.nr_nsq = 8;
  cfg.device.nr_ncq = 8;
  cfg.warmup = kWarmup;
  cfg.duration = kStop - kWarmup;
  cfg.analyze_holb = true;  // captures every delivery's stage stamps
  if (faulty) {
    cfg.faults = MakeDenseFaultPlan(0.02);
    cfg.fault_recovery.max_retries = 0;  // deliver every error CQE
  }
  ScenarioEnv env(cfg);

  std::unique_ptr<FioJob> fio;
  std::unique_ptr<OpenLoopJob> open_loop;
  std::unique_ptr<AppDriver> app;
  std::function<Snapshot()> snapshot;
  switch (source) {
    case Source::kFio: {
      FioJobSpec spec = TTenantSpec(0);
      spec.pages = 4;
      spec.iodepth = 8;
      spec.random = true;
      spec.sync_prob = 0.5;
      spec.stop_time = kStop;
      fio = std::make_unique<FioJob>(&env.machine(), &env.stack(), spec,
                                     kTenantId, /*core=*/0, Rng(7), kWarmup,
                                     kStop);
      fio->Start();
      snapshot = [&fio]() {
        return Snapshot{fio->total_issued(),  fio->total_completed(), 0,
                        fio->total_errored(), fio->measured_ios(),
                        fio->latency().count(), fio->inflight()};
      };
      break;
    }
    case Source::kOpenLoop: {
      OpenLoopSpec spec;
      spec.name = "ol";
      spec.group = "L";
      spec.pages = 2;
      spec.iops = 200000;  // beyond max_outstanding: some arrivals drop
      spec.burst_prob = 0.2;
      spec.max_outstanding = 8;
      open_loop = std::make_unique<OpenLoopJob>(&env.machine(), &env.stack(),
                                                spec, kTenantId, Rng(7),
                                                kWarmup, kStop);
      open_loop->Start();
      snapshot = [&open_loop]() {
        return Snapshot{open_loop->total_arrivals(),
                        open_loop->total_completed(),
                        open_loop->dropped_arrivals(),
                        open_loop->total_errored(),
                        open_loop->measured_ios(),
                        open_loop->latency().count(),
                        open_loop->outstanding()};
      };
      break;
    }
    case Source::kApp: {
      app = std::make_unique<AppDriver>(&env, /*chains=*/4);
      snapshot = [&app]() {
        const TenantIo& io = app->io().io();
        return Snapshot{io.issued(),       io.completed(),
                        0,                 io.errored(),
                        io.measured_ios(), io.latency().count(),
                        io.inflight()};
      };
      break;
    }
  }

  auto check = [&](const char* when) {
    const Snapshot s = snapshot();
    SCOPED_TRACE(when);
    EXPECT_EQ(s.issued,
              s.completed + static_cast<uint64_t>(s.inflight) + s.dropped);
    EXPECT_EQ(s.measured, s.histogram);
    EXPECT_LE(s.measured, s.completed);
    return s;
  };

  env.sim().RunUntil(kStop);
  const Snapshot mid = check("at stop");
  EXPECT_GT(mid.completed, 0u);
  if (source == Source::kOpenLoop) {
    EXPECT_GT(mid.dropped, 0u);
  }

  env.sim().RunUntil(kDrained);
  const Snapshot end = check("drained");
  EXPECT_EQ(end.inflight, 0);
  // The stack counts each non-OK delivery per tenant as it posts it; the sink
  // must have seen exactly those.
  const auto& errors = env.stack().tenant_errors();
  const auto it = errors.find(TenantId{kTenantId});
  const uint64_t delivered_errors = it == errors.end() ? 0 : it->second.errors;
  EXPECT_EQ(end.errored, delivered_errors);
  if (faulty) {
    EXPECT_GT(env.fault_plan()->total_injections(), 0u);
    EXPECT_GT(end.errored, 0u);
  } else {
    EXPECT_EQ(end.errored, 0u);
  }

  // Recycled slots: every stamp a delivery carries lies within its own
  // [issue, complete]; one left over from the slot's previous request would
  // predate the new issue time. (TenantIoTest below checks the reset itself.)
  const std::vector<RequestRecord> records = env.timeline_log()->Records();
  ASSERT_FALSE(records.empty());
  for (const RequestRecord& r : records) {
    for (const Tick stamp :
         {r.submit, r.nsq_enqueue, r.doorbell, r.fetch_start, r.fetch,
          r.flash_start, r.flash_end, r.cqe_post, r.drain}) {
      if (stamp == 0) {
        continue;  // stage not stamped on this request's path
      }
      EXPECT_GE(stamp, r.issue) << "rq " << r.id;
      EXPECT_LE(stamp, r.complete) << "rq " << r.id;
    }
  }
}

// The issue step itself: a recycled slot arrives carrying its previous
// request's stamps, status and routing, and Issue must clear all of them.
// (At delivery the stack has re-stamped every stage it reached, so only the
// issue step can show that nothing stale survives into the block layer.)
TEST(TenantIoTest, IssueClearsTheRecycledSlot) {
  ScenarioConfig cfg = MakeSvmConfig(2);
  ScenarioEnv env(cfg);
  Tenant tenant;
  tenant.id = TenantId{kTenantId};
  env.stack().OnTenantStart(&tenant);
  TenantIo io(&env.machine(), &env.stack(), &tenant, /*nsid=*/0, 0,
              kStop);
  TenantIo::Slot* slot = io.Acquire();
  Request& rq = slot->rq;
  rq.submit_time = rq.nsq_enqueue_time = rq.doorbell_time = 11;
  rq.fetch_start_time = rq.fetch_time = rq.flash_start_time = 12;
  rq.flash_end_time = rq.cqe_post_time = rq.drain_time = 13;
  rq.complete_time = 14;
  rq.status = IoStatus::kMediaError;
  rq.fault_retries = 2;
  rq.attempt_cid = 99;
  rq.routed_nsq = 5;
  rq.lba = Lba{8};
  rq.pages = 2;
  env.sim().RunUntil(kWarmup);
  const uint64_t id = io.Issue(&rq);
  EXPECT_EQ(id, (kTenantId << 32) + 1);
  EXPECT_EQ(rq.issue_time, kWarmup);
  for (const Tick stamp :
       {rq.submit_time, rq.nsq_enqueue_time, rq.doorbell_time,
        rq.fetch_start_time, rq.fetch_time, rq.flash_start_time,
        rq.flash_end_time, rq.cqe_post_time, rq.drain_time,
        rq.complete_time}) {
    EXPECT_EQ(stamp, 0);
  }
  EXPECT_EQ(rq.status, IoStatus::kOk);
  EXPECT_EQ(rq.fault_retries, 0);
  EXPECT_EQ(rq.attempt_cid, 0u);
  EXPECT_EQ(rq.routed_nsq, -1);
  env.sim().RunUntil(kStop);
  EXPECT_EQ(io.completed(), 1u);
  EXPECT_EQ(io.Acquire(), slot);  // delivered, so back on the free list
}

std::string SourceName(
    const ::testing::TestParamInfo<std::tuple<Source, bool>>& info) {
  const char* names[] = {"Fio", "OpenLoop", "App"};
  return std::string(names[static_cast<int>(std::get<0>(info.param))]) +
         (std::get<1>(info.param) ? "Faulty" : "Clean");
}

INSTANTIATE_TEST_SUITE_P(
    Sources, TenantIoConservationTest,
    ::testing::Combine(::testing::Values(Source::kFio, Source::kOpenLoop,
                                         Source::kApp),
                       ::testing::Bool()),
    SourceName);

}  // namespace
}  // namespace daredevil
