// Open-loop saturation study: latency-sensitive arrivals at a fixed rate
// (with bursts) while T-pressure rises. Closed-loop L-tenants (the paper's
// FIO jobs) self-throttle when the stack slows down; an open-loop source
// keeps the arrival pressure on, exposing the latency collapse that real
// interactive services experience.
#include <cstdlib>
#include <string>

#include "bench/bench_util.h"

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
                      "achieved IOPS", "dropped", "L SLO", "errored"});
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
      for (int i = 0; i < 4; ++i) {
        // Realtime 4 KB reads (the OpenLoopSpec defaults).
        cfg.open_loop.push_back(
            OpenLoopSpec{.name = std::string("ol").append(std::to_string(i)),
                         .group = "L",
                         .iops = 5000,
                         .burst_prob = 0.1,
                         .burst_len = 8,
                         .core = i % 4});
      }
      AddLatencySlo(cfg, 5 * kMillisecond, ScaledMs(5));
      const ScenarioResult r = RunScenario(cfg);
      const std::string label =
          std::string(StackKindName(kind)) + "/nt=" + std::to_string(n_t);
      json.Add(label, r);
      WarnOnTraceDrops(label, r);
      const Histogram& latency = r.Find("L")->latency;
      table.AddRow({std::to_string(n_t), std::string(StackKindName(kind)),
                    LatencyCell(latency, latency.Mean()),
                    LatencyCell(latency, static_cast<double>(latency.P99())),
                    LatencyCell(latency, static_cast<double>(latency.P999())),
                    FormatCount(r.Iops("L")),
                    FormatCount(r.Metric("workload.L.dropped")), SloCell(r.slo),
                    FormatCount(static_cast<double>(r.total_errored))});
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
