// Open-loop saturation study: latency-sensitive arrivals at a fixed rate
// (with bursts) while T-pressure rises. Closed-loop L-tenants (the paper's
// FIO jobs) self-throttle when the stack slows down; an open-loop source
// keeps the arrival pressure on, exposing the latency collapse that real
// interactive services experience.
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/workload/open_loop.h"

using namespace daredevil;

int main() {
  PrintHeader("Open-loop arrivals under rising T-pressure",
              "extension (production block traces arrive open-loop, cf. [58])",
              "4 open-loop L sources (4KB reads, 5K IOPS each, 10% bursts of "
              "8) + N closed-loop T-tenants, 4 cores");

  // CI fault-soak mode: DD_FAULT_RATE > 0 runs the same sweep with a dense
  // fault schedule (every fault kind at that rate) and a 5ms watchdog, so
  // the error path gets exercised under open-loop pressure with sanitizers
  // and invariants on (EXPERIMENTS.md, "Error injection").
  const char* rate_env = std::getenv("DD_FAULT_RATE");
  const double fault_rate = rate_env != nullptr ? std::atof(rate_env) : 0.0;
  if (fault_rate > 0) {
    std::printf("fault-soak: DD_FAULT_RATE=%.4f (dense plan, 5ms watchdog)\n\n",
                fault_rate);
  }

  BenchJsonSink json("openloop_saturation");
  TablePrinter table({"T-tenants", "stack", "L avg", "L p99", "L p99.9",
                      "achieved IOPS", "dropped"});
  for (int n_t : {0, 8, 16}) {
    for (StackKind kind :
         {StackKind::kVanilla, StackKind::kBlkSwitch, StackKind::kDareFull}) {
      ScenarioConfig cfg = MakeSvmConfig(4);
      cfg.stack = kind;
      cfg.warmup = ScaledMs(30);
      cfg.duration = ScaledMs(150);
      AddTTenants(cfg, n_t);
      if (fault_rate > 0) {
        cfg.faults = MakeDenseFaultPlan(fault_rate);
        cfg.fault_recovery.timeout = TickDuration{5 * kMillisecond};
        cfg.fault_recovery.backoff = TickDuration{100 * kMicrosecond};
      }
      ScenarioEnv env(cfg);

      Rng master(cfg.seed);
      std::vector<std::unique_ptr<OpenLoopJob>> sources;
      for (int i = 0; i < 4; ++i) {
        OpenLoopSpec spec;
        spec.name = "ol" + std::to_string(i);
        spec.group = "L";
        spec.ionice = IoniceClass::kRealtime;
        spec.pages = 1;
        spec.iops = 5000;
        spec.burst_prob = 0.1;
        spec.burst_len = 8;
        spec.core = i % 4;
        sources.push_back(std::make_unique<OpenLoopJob>(
            &env.machine(), &env.stack(), spec, static_cast<uint64_t>(500 + i),
            master.Fork(), env.measure_start(), env.measure_end()));
        sources.back()->Start();
      }
      std::vector<std::unique_ptr<FioJob>> t_jobs;
      uint64_t tid = 1;
      for (const auto& spec : cfg.jobs) {
        t_jobs.push_back(std::make_unique<FioJob>(
            &env.machine(), &env.stack(), spec, tid, (tid - 1) % 4,
            master.Fork(), env.measure_start(), env.measure_end()));
        ++tid;
        t_jobs.back()->Start();
      }
      env.sim().RunUntil(env.measure_end());

      Histogram latency;
      StageBreakdown stages;
      uint64_t ios = 0;
      uint64_t dropped = 0;
      for (const auto& src : sources) {
        latency.Merge(src->latency());
        stages.Merge(src->stages());
        ios += src->measured_ios();
        dropped += src->dropped_arrivals();
      }
      uint64_t errored = 0;
      for (const auto& src : sources) {
        errored += src->total_errored();
      }
      for (const auto& job : t_jobs) {
        errored += job->total_errored();
      }
      if (fault_rate > 0) {
        const StorageStack& stack = env.stack();
        std::printf(
            "  faults[%s nt=%d]: injected=%llu retries=%llu aborts=%llu "
            "timeouts=%llu failed=%llu errored=%llu\n",
            std::string(StackKindName(kind)).c_str(), n_t,
            static_cast<unsigned long long>(env.fault_plan()->total_injections()),
            static_cast<unsigned long long>(stack.fault_retries()),
            static_cast<unsigned long long>(stack.aborts()),
            static_cast<unsigned long long>(stack.timeouts()),
            static_cast<unsigned long long>(stack.failed_requests()),
            static_cast<unsigned long long>(errored));
      }
      if (json.enabled()) {
        JsonWriter w;
        w.BeginObject();
        w.Key("ios").UInt(ios);
        w.Key("dropped").UInt(dropped);
        if (fault_rate > 0) {
          w.Key("fault_injections").UInt(env.fault_plan()->total_injections());
          w.Key("fault_retries").UInt(env.stack().fault_retries());
          w.Key("fault_aborts").UInt(env.stack().aborts());
          w.Key("fault_timeouts").UInt(env.stack().timeouts());
          w.Key("failed_requests").UInt(env.stack().failed_requests());
          w.Key("errored").UInt(errored);
        }
        w.Key("latency_ns");
        AppendHistogramJson(w, latency);
        w.Key("stages_ns");
        stages.AppendJson(w);
        w.EndObject();
        json.AddJson(std::string(StackKindName(kind)) + "/nt=" +
                         std::to_string(n_t),
                     w.str());
      }
      table.AddRow({std::to_string(n_t), std::string(StackKindName(kind)),
                    FormatMs(latency.Mean()),
                    FormatMs(static_cast<double>(latency.P99())),
                    FormatMs(static_cast<double>(latency.P999())),
                    FormatCount(static_cast<double>(ios) / ToSec(cfg.duration)),
                    FormatCount(static_cast<double>(dropped))});
    }
  }
  table.Print();
  std::printf(
      "\nExpected: all stacks sustain the full offered load when idle; under\n"
      "T-pressure vanilla/blk-switch queue arrivals into seconds of backlog\n"
      "(achieved IOPS collapses, latency explodes) while Daredevil keeps\n"
      "absorbing the offered load at ms-scale latency.\n");
  return 0;
}
