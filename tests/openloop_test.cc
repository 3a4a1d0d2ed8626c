// Tests for the open-loop workload generator.
#include <gtest/gtest.h>

#include <memory>

#include "src/core/invariant.h"
#include "src/workload/open_loop.h"
#include "src/workload/scenario.h"

namespace daredevil {
namespace {

class OpenLoopTest : public ::testing::Test {
 protected:
  OpenLoopTest() {
    ScenarioConfig cfg = MakeSvmConfig(2);
    cfg.device.nr_nsq = 8;
    cfg.device.nr_ncq = 8;
    env_ = std::make_unique<ScenarioEnv>(cfg);
  }

  OpenLoopSpec BaseSpec() {
    OpenLoopSpec spec;
    spec.name = "ol";
    spec.group = "L";
    spec.iops = 20000;
    spec.pages = 1;
    return spec;
  }

  std::unique_ptr<ScenarioEnv> env_;
};

TEST_F(OpenLoopTest, ArrivalRateRoughlyMatchesConfigured) {
  OpenLoopSpec spec = BaseSpec();
  OpenLoopJob job(&env_->machine(), &env_->stack(), spec, 1, Rng(3), 0,
                  100 * kMillisecond);
  job.Start();
  env_->sim().RunUntil(100 * kMillisecond);
  // 20K IOPS for 100ms => ~2000 arrivals (Poisson, allow 15%).
  EXPECT_NEAR(static_cast<double>(job.total_arrivals()), 2000.0, 300.0);
  EXPECT_GT(job.measured_ios(), 0u);
}

TEST_F(OpenLoopTest, BurstsInflateArrivalCount) {
  OpenLoopSpec spec = BaseSpec();
  spec.burst_prob = 1.0;  // every arrival slot is a full burst
  spec.burst_len = 4;
  OpenLoopJob job(&env_->machine(), &env_->stack(), spec, 1, Rng(3), 0,
                  50 * kMillisecond);
  job.Start();
  env_->sim().RunUntil(50 * kMillisecond);
  // 20K slots/s * 4 per slot * 50ms => ~4000 arrivals.
  EXPECT_NEAR(static_cast<double>(job.total_arrivals()), 4000.0, 700.0);
}

TEST_F(OpenLoopTest, MaxOutstandingDropsExcess) {
  OpenLoopSpec spec = BaseSpec();
  spec.iops = 500000;  // far above the device's capability
  spec.max_outstanding = 16;
  OpenLoopJob job(&env_->machine(), &env_->stack(), spec, 1, Rng(3), 0,
                  20 * kMillisecond);
  job.Start();
  env_->sim().RunUntil(20 * kMillisecond);
  EXPECT_GT(job.dropped_arrivals(), 0u);
  EXPECT_LE(job.outstanding(), 16);
}

TEST_F(OpenLoopTest, ArrivalsContinueRegardlessOfCompletions) {
  // Open-loop property: arrivals keep coming even while earlier requests are
  // stuck behind a slow device.
  ScenarioConfig cfg = MakeSvmConfig(1);
  cfg.device.nr_nsq = 2;
  cfg.device.nr_ncq = 2;
  cfg.device.flash.page_read = 10 * kMillisecond;  // glacial device
  ScenarioEnv env(cfg);
  OpenLoopSpec spec = BaseSpec();
  spec.iops = 5000;
  OpenLoopJob job(&env.machine(), &env.stack(), spec, 1, Rng(3), 0,
                  10 * kMillisecond);
  job.Start();
  env.sim().RunUntil(10 * kMillisecond);
  // ~50 arrivals despite nearly zero completions.
  EXPECT_GT(job.total_arrivals(), 20u);
  EXPECT_GT(job.outstanding(), 10);
}

TEST_F(OpenLoopTest, MeasurementWindowRespected) {
  OpenLoopSpec spec = BaseSpec();
  OpenLoopJob job(&env_->machine(), &env_->stack(), spec, 1, Rng(3),
                  /*measure_start=*/50 * kMillisecond,
                  /*measure_end=*/100 * kMillisecond);
  job.Start();
  env_->sim().RunUntil(40 * kMillisecond);
  EXPECT_EQ(job.measured_ios(), 0u);  // before the window
  env_->sim().RunUntil(100 * kMillisecond);
  EXPECT_GT(job.measured_ios(), 0u);
}

TEST_F(OpenLoopTest, DeterministicAcrossRuns) {
  uint64_t arrivals[2];
  for (int run = 0; run < 2; ++run) {
    ScenarioConfig cfg = MakeSvmConfig(2);
    cfg.device.nr_nsq = 8;
    cfg.device.nr_ncq = 8;
    ScenarioEnv env(cfg);
    OpenLoopSpec spec = BaseSpec();
    spec.burst_prob = 0.2;
    OpenLoopJob job(&env.machine(), &env.stack(), spec, 1, Rng(99), 0,
                    30 * kMillisecond);
    job.Start();
    env.sim().RunUntil(30 * kMillisecond);
    arrivals[run] = job.total_arrivals();
  }
  EXPECT_EQ(arrivals[0], arrivals[1]);
}

// RunScenario builds ScenarioConfig::open_loop sources beside the jobs and
// feeds them to the same metrics, SLO and error accounting.
TEST(OpenLoopScenarioTest, RunScenarioReportsOpenLoopSources) {
  ScenarioConfig cfg = MakeSvmConfig(2);
  cfg.device.nr_nsq = 8;
  cfg.device.nr_ncq = 8;
  cfg.stack = StackKind::kDareFull;
  cfg.warmup = 2 * kMillisecond;
  cfg.duration = 20 * kMillisecond;
  for (int i = 0; i < 2; ++i) {
    cfg.open_loop.push_back(
        OpenLoopSpec{.name = std::string("ol").append(std::to_string(i)),
                     .group = "L",
                     .iops = 20000,
                     .core = i});
  }
  cfg.slos.push_back(SloSpec{.selector = "L", .threshold = kMillisecond,
                             .window = 5 * kMillisecond});
  const ScenarioResult r = RunScenario(cfg);

  // Only open-loop sources run, so the sinks' own counts give the requests
  // still in flight; the group's registry cells must agree with them.
  ASSERT_GE(r.total_issued, r.total_completed);
  const uint64_t inflight = r.total_issued - r.total_completed;
  EXPECT_GT(r.total_issued, 0u);
  EXPECT_EQ(r.Metric("workload.L.issued"), static_cast<double>(r.total_issued));
  EXPECT_EQ(r.Metric("workload.L.issued"),
            r.Metric("workload.L.completed") + static_cast<double>(inflight));
  EXPECT_EQ(r.metrics.count("workload.L.dropped"), 1u);
  ASSERT_EQ(r.slo.tenants.size(), 2u);
  EXPECT_EQ(r.slo.tenants.count("ol0"), 1u);
  EXPECT_EQ(r.slo.tenants.count("ol1"), 1u);
  EXPECT_EQ(r.total_errored, 0u);
  EXPECT_GT(r.Find("L")->ios, 0u);
}

#if DAREDEVIL_INVARIANTS

using OpenLoopDeathTest = OpenLoopTest;

// A request larger than its namespace cannot be placed anywhere in it; the
// shared issue step must refuse it instead of drawing an underflowed LBA.
TEST_F(OpenLoopDeathTest, OversizedRequestFailsTheBoundsCheck) {
  OpenLoopSpec spec = BaseSpec();
  spec.pages = static_cast<uint32_t>(env_->device().NamespacePages(0) + 8);
  OpenLoopJob job(&env_->machine(), &env_->stack(), spec, 1, Rng(3), 0,
                  10 * kMillisecond);
  job.Start();
  EXPECT_DEATH(env_->sim().RunUntil(10 * kMillisecond),
               "overruns namespace 0");
}

#endif  // DAREDEVIL_INVARIANTS

}  // namespace
}  // namespace daredevil
