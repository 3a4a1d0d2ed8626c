// simbench: the simulator's benchmark. One process, one thread.
//
//   simbench --workload <openloop_sweep|ycsb_kv|observed_closed>
//            --seed <n> --seconds <s> [--trace 0|1] [--trace-out <file>]
//            [--holdout-seed <n>]
//
// Each workload is a fixed "sweep" of scenario cells driven through the
// public API only (ScenarioEnv, RunScenario, OpenLoopJob, FioJob, KvStore,
// YcsbWorkload). Sweeps repeat until --seconds of host time have passed;
// host-time metrics are medians over sweeps. Layers are measured from
// outside: host time around calls into public functions, and public
// counters (Simulator, Machine, Device, StorageStack, the metrics registry,
// the heap counter in heap_counter.cc) read at their boundaries.
//
// With --trace 1 the sweeps alternate untraced / traced. Traced sweeps run
// RunUntil in 1 ms simulated slices (simulation-neutral: RunUntil only
// advances the clock between events) and record spans with counter deltas in
// memory; they are written to --trace-out at exit. Per-layer counts come from
// the first traced sweep, per-layer host times from the untraced ones.
//
// The last stdout line is one JSON object: correct / attempted / failed /
// metrics (end-to-end metrics untraced, per-layer metrics traced).
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "heap_counter.h"
#include "src/apps/app_io.h"
#include "src/apps/kvstore.h"
#include "src/apps/ycsb.h"
#include "src/stats/metrics.h"
#include "src/stats/trace_export.h"
#include "src/workload/fio_job.h"
#include "src/workload/open_loop.h"
#include "src/workload/scenario.h"

using namespace daredevil;

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  // splitmix64 finaliser: distinct, well-spread streams per (seed, salt).
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt * 0xbf58476d1ce4e5b9ull +
               0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Sum over parts of the median over runs: runs[k][i] is part i of run k, and
// every run has the same parts (sweeps of one workload are deterministic).
double SumOfMedians(const std::vector<std::vector<double>>& runs) {
  double total = 0.0;
  for (size_t i = 0; !runs.empty() && i < runs[0].size(); ++i) {
    std::vector<double> part;
    for (const auto& run : runs) {
      part.push_back(i < run.size() ? run[i] : 0.0);
    }
    total += Median(part);
  }
  return total;
}

// --- Counters read at layer boundaries -----------------------------------

enum Counter : int {
  kEvents,            // Simulator::events_processed
  kCpuItems,          // CpuCore::items_executed, all cores
  kCrossCorePosts,    // Machine::cross_core_posts
  kHeapAllocs,        // heap_counter.cc
  kHeapBytes,
  kNvmeCommands,      // Device::commands_completed
  kIrqs,              // CompletionQueue::irqs, all NCQs
  kFlashPages,        // FlashBackend pages read + written
  kFlashPagesWritten,
  kFlushes,           // Device::flushes_completed
  kFuaPersists,       // Device::fua_persists
  kStackRequests,     // StorageStack::requests_submitted
  kStackCompleted,    // StorageStack::requests_completed (= sim I/Os)
  kDoorbells,         // StorageStack::doorbells_rung
  kRequeues,          // StorageStack::requeues
  kNqregSchedules,    // daredevil.nqreg_schedules
  kNqregResorts,      // daredevil.nqreg_heap_resorts
  kTrouteQueries,     // daredevil.troute_queries
  kBsMigrations,      // blkswitch.migrations
  kBsSteered,         // blkswitch.steered_requests
  kNumCounters,
};

constexpr std::array<const char*, kNumCounters> kCounterNames = {
    "events",         "cpu_items",       "cross_core_posts", "heap_allocs",
    "heap_bytes",     "nvme_commands",   "irqs",             "flash_pages",
    "flash_pages_written", "flushes",    "fua_persists",     "stack_requests",
    "stack_completed", "doorbells",      "requeues",         "nqreg_schedules",
    "nqreg_resorts",  "troute_queries",  "blkswitch_migrations",
    "blkswitch_steered"};

using Counts = std::array<uint64_t, kNumCounters>;

Counts Minus(const Counts& a, const Counts& b) {
  Counts d{};
  for (int i = 0; i < kNumCounters; ++i) {
    d[i] = a[i] - b[i];
  }
  return d;
}

void AddTo(Counts& acc, const Counts& d) {
  for (int i = 0; i < kNumCounters; ++i) {
    acc[i] += d[i];
  }
}

// Reads one environment's counters. Stack-specific counters come from the
// stack's registered gauges; the key strings are built once so a read does
// not allocate (it runs between simulation slices under the heap counter).
class EnvProbe {
 public:
  explicit EnvProbe(ScenarioEnv& env) : env_(env) {
    env.stack().RegisterMetrics(&registry_);
  }
  EnvProbe(const EnvProbe&) = delete;
  EnvProbe& operator=(const EnvProbe&) = delete;

  Counts Read() const {
    Counts c{};
    Machine& m = env_.machine();
    Device& d = env_.device();
    StorageStack& s = env_.stack();
    c[kEvents] = env_.sim().events_processed();
    for (int i = 0; i < m.num_cores(); ++i) {
      c[kCpuItems] += m.core(i).items_executed();
    }
    c[kCrossCorePosts] = m.cross_core_posts();
    c[kNvmeCommands] = d.commands_completed();
    for (int i = 0; i < d.nr_ncq(); ++i) {
      c[kIrqs] += d.ncq(i).irqs();
    }
    c[kFlashPages] = d.flash().pages_read() + d.flash().pages_written();
    c[kFlashPagesWritten] = d.flash().pages_written();
    c[kFlushes] = d.flushes_completed();
    c[kFuaPersists] = d.fua_persists();
    c[kStackRequests] = s.requests_submitted();
    c[kStackCompleted] = s.requests_completed();
    c[kDoorbells] = s.doorbells_rung();
    c[kRequeues] = s.requeues();
    c[kNqregSchedules] = Gauge(k_nqreg_schedules_);
    c[kNqregResorts] = Gauge(k_nqreg_resorts_);
    c[kTrouteQueries] = Gauge(k_troute_queries_);
    c[kBsMigrations] = Gauge(k_bs_migrations_);
    c[kBsSteered] = Gauge(k_bs_steered_);
    return c;
  }

 private:
  uint64_t Gauge(const std::string& key) const {
    return static_cast<uint64_t>(registry_.Value(key));
  }

  ScenarioEnv& env_;
  MetricsRegistry registry_;
  const std::string k_nqreg_schedules_ = "daredevil.nqreg_schedules";
  const std::string k_nqreg_resorts_ = "daredevil.nqreg_heap_resorts";
  const std::string k_troute_queries_ = "daredevil.troute_queries";
  const std::string k_bs_migrations_ = "blkswitch.migrations";
  const std::string k_bs_steered_ = "blkswitch.steered_requests";
};

// Counters of a RunScenario call, from its metrics snapshot (engine and CPU
// item counts are not in the registry and read as 0).
Counts FromMetrics(const ScenarioResult& r) {
  auto m = [&r](const char* name) {
    return static_cast<uint64_t>(r.Metric(name));
  };
  Counts c{};
  c[kCrossCorePosts] = m("machine.cross_core_posts");
  c[kNvmeCommands] = m("device.commands_completed");
  c[kIrqs] = m("device.irqs_total");
  c[kFlashPages] = m("device.flash.pages_read") + m("device.flash.pages_written");
  c[kFlashPagesWritten] = m("device.flash.pages_written");
  c[kStackRequests] = m("stack.requests_submitted");
  c[kStackCompleted] = m("stack.requests_completed");
  c[kDoorbells] = m("stack.doorbells_rung");
  c[kRequeues] = m("stack.requeues");
  c[kNqregSchedules] = m("daredevil.nqreg_schedules");
  c[kNqregResorts] = m("daredevil.nqreg_heap_resorts");
  c[kTrouteQueries] = m("daredevil.troute_queries");
  c[kBsMigrations] = m("blkswitch.migrations");
  c[kBsSteered] = m("blkswitch.steered_requests");
  return c;
}

// Process-cumulative counters: the heap counter plus the attached
// environment's counters on top of the final counts of every environment
// detached before it, so deltas over any interval are well defined.
class Meter {
 public:
  Counts Now() const {
    Counts c = base_;
    if (probe_ != nullptr) {
      AddTo(c, probe_->Read());
    }
    c[kHeapAllocs] = simbench::HeapAllocs();
    c[kHeapBytes] = simbench::HeapBytes();
    return c;
  }
  void Attach(const EnvProbe* probe) { probe_ = probe; }
  void Detach() {
    if (probe_ != nullptr) {
      AddTo(base_, probe_->Read());
      probe_ = nullptr;
    }
  }
  // Folds in counts measured elsewhere (a RunScenario metrics snapshot).
  void Add(const Counts& c) { AddTo(base_, c); }

 private:
  const EnvProbe* probe_ = nullptr;
  Counts base_{};
};

// Attaches a probe of `env` to the meter for the probe's lifetime. Declare
// after the environment so it detaches before the environment dies.
class ProbeScope {
 public:
  ProbeScope(Meter* meter, ScenarioEnv& env) : meter_(meter), probe_(env) {
    meter_->Attach(&probe_);
  }
  ~ProbeScope() { meter_->Detach(); }
  ProbeScope(const ProbeScope&) = delete;
  ProbeScope& operator=(const ProbeScope&) = delete;

  Counts Read() const { return probe_.Read(); }

 private:
  Meter* meter_;
  EnvProbe probe_;
};

// --- Spans ----------------------------------------------------------------

struct Span {
  const char* name;
  int sweep;
  int cell;
  int parent;  // index into the span list, -1 for a root
  double start_s;
  double end_s;
  Counts delta;  // counter values at start until closed, then the delta
};

// In-memory span recorder. Storage is reserved up front so that recording
// does not allocate in the middle of a measured sweep.
class Tracer {
 public:
  Tracer(bool on, const Meter* meter) : on_(on), meter_(meter) {
    if (on_) {
      spans_.reserve(1 << 17);
      open_.reserve(16);
    }
  }
  bool on() const { return on_; }
  void SetSweep(int sweep) { sweep_ = sweep; }
  void SetCell(int cell) { cell_ = cell; }

  int Open(const char* name) {
    if (!on_) {
      return -1;
    }
    const Counts now = meter_->Now();
    Span s{name,  sweep_, cell_, open_.empty() ? -1 : open_.back(),
           Since(origin_), 0.0, now};
    spans_.push_back(s);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void Close(int id) {
    if (!on_ || id < 0) {
      return;
    }
    Span& s = spans_[static_cast<size_t>(id)];
    s.delta = Minus(meter_->Now(), s.delta);
    s.end_s = Since(origin_);
    open_.pop_back();
  }
  // Adds counts that a layer reported itself (a RunScenario metrics
  // snapshot, read after the call) to a closed span.
  void Credit(int id, const Counts& counts) {
    if (on_ && id >= 0) {
      AddTo(spans_[static_cast<size_t>(id)].delta, counts);
    }
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  const Meter* meter_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  int sweep_ = 0;
  int cell_ = 0;
};

// RAII span for straight-line scopes.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer->Open(name)) {}
  ~ScopedSpan() { tracer_->Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// --- Digest ---------------------------------------------------------------

class Fnv {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void Add(const std::string& s) {
    for (unsigned char ch : s) {
      h_ ^= ch;
      h_ *= 0x100000001b3ull;
    }
    Add(static_cast<uint64_t>(s.size()));
  }
  void AddHist(const Histogram& h) {
    Add(h.count());
    Add(static_cast<uint64_t>(h.P50()));
    Add(static_cast<uint64_t>(h.P99()));
    Add(static_cast<uint64_t>(h.P999()));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

// --- Sweep results ----------------------------------------------------------

struct Sweep {
  uint64_t sim_ios = 0;  // simulated I/Os completed in measurement windows
  double run_s = 0.0;    // host seconds in RunUntil / RunScenario
  double setup_s = 0.0;  // host seconds building envs and tenants
  // The same host times split into parts that line up across sweeps of one
  // workload: RunUntil slices (or RunScenario calls), and cell set-ups.
  std::vector<double> slice_s;
  std::vector<double> setup_parts;
  double l_p99_us = 0.0;  // headline cell: daredevil, highest T-pressure
  double t_mbps = 0.0;
  uint64_t attempted = 0;  // simulated I/Os attempted
  uint64_t errored = 0;    // completions with a status other than OK
  uint64_t checks = 0;     // output checks made
  std::vector<std::string> failures;
  std::vector<std::string> cells;  // one summary line per cell
  Fnv digest;
  // Counters over the measurement windows (whole RunScenario calls for
  // observed_closed), and over every RunUntil call.
  Counts window{};
  Counts run{};
  std::map<std::string, double> layer;  // per-layer metrics

  void AddSetup(double s) {
    setup_s += s;
    setup_parts.push_back(s);
  }
  void Check(bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      failures.push_back(what);
    }
  }
  void Cell(const std::string& label, uint64_t ios, const char* l_name,
            const Histogram& l, double t_mbps) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  %-18s %8" PRIu64 " sim I/Os  %s n=%" PRIu64
                  " p50=%.0fus p99=%.0fus  T %.0f MB/s",
                  label.c_str(), ios, l_name, l.count(), ToUs(l.P50()),
                  ToUs(l.P99()), t_mbps);
    cells.emplace_back(line);
  }
  void Max(const std::string& key, double v) {
    layer[key] = std::max(layer[key], v);
  }
};

struct RunStats {
  double host_s = 0.0;
  Counts window{};  // [measure_start, measure_end]
  Counts run{};     // [0, measure_end]
};

// Heap counts are process-wide; EnvProbe::Read leaves them at 0.
Counts WithHeap(Counts c) {
  c[kHeapAllocs] = simbench::HeapAllocs();
  c[kHeapBytes] = simbench::HeapBytes();
  return c;
}

// Simulated time per host-timed slice of RunUntil. Host time is recorded
// per slice so that a sweep's run time can be estimated slice by slice as the
// median over sweeps, which filters out sub-second host noise.
constexpr Tick kTimingSlice = 10 * kMillisecond;

// Runs the environment to measure_end in slices, calling `at_window()` at
// measure_start (a slice boundary). Slicing is simulation-neutral: between
// events RunUntil only advances the clock. Traced sweeps use 1 ms slices,
// each a run.slice span, and sample the engine's pending events and
// `backlog()` at every slice end.
template <typename Backlog, typename AtWindow>
RunStats RunEnv(ScenarioEnv& env, const ProbeScope& probe, Tracer* tracer,
                Sweep* out, Backlog backlog, AtWindow at_window) {
  RunStats rs;
  Simulator& sim = env.sim();
  const Tick step = tracer->on() ? kMillisecond : kTimingSlice;
  out->slice_s.reserve(out->slice_s.size() +
                       static_cast<size_t>(env.measure_end() / step));
  Counts window_start{};
  // Peaks are kept in locals: recording into out->layer allocates, and no
  // bench allocation may land between the run_start and run_end reads.
  size_t pending_peak = 0;
  int backlog_peak = 0;
  const Counts run_start = WithHeap(probe.Read());
  for (Tick t = step; t <= env.measure_end(); t += step) {
    const int id = tracer->Open("run.slice");
    const Clock::time_point t0 = Clock::now();
    sim.RunUntil(t);
    const double host_s = Since(t0);
    tracer->Close(id);
    rs.host_s += host_s;
    out->slice_s.push_back(host_s);
    if (t == env.measure_start()) {
      window_start = WithHeap(probe.Read());
      at_window();
    }
    pending_peak = std::max(pending_peak, sim.pending_events());
    backlog_peak = std::max(backlog_peak, backlog());
  }
  const Counts run_end = WithHeap(probe.Read());
  if (tracer->on()) {
    out->Max("engine.pending_peak", static_cast<double>(pending_peak));
    out->Max("workload.openloop_backlog_peak",
             static_cast<double>(backlog_peak));
  }
  rs.window = Minus(run_end, window_start);
  rs.run = Minus(run_end, run_start);
  return rs;
}

void AddPerIo(Sweep& s) {
  const double ios = static_cast<double>(s.sim_ios);
  const Counts& w = s.window;
  auto per_io = [&](Counter c) { return Ratio(static_cast<double>(w[c]), ios); };
  s.layer["engine.events_per_io"] = per_io(kEvents);
  s.layer["cpu.items_per_io"] = per_io(kCpuItems);
  s.layer["cpu.cross_core_posts_per_io"] = per_io(kCrossCorePosts);
  s.layer["heap.allocs_per_io"] = per_io(kHeapAllocs);
  s.layer["heap.bytes_per_io"] = per_io(kHeapBytes);
  s.layer["nvme.commands_per_io"] = per_io(kNvmeCommands);
  s.layer["nvme.irqs_per_io"] = per_io(kIrqs);
  s.layer["nvme.flash_pages_per_io"] = per_io(kFlashPages);
  s.layer["stack.requests_per_io"] = per_io(kStackRequests);
  s.layer["stack.doorbells_per_io"] = per_io(kDoorbells);
  s.layer["stack.requeues_per_io"] = per_io(kRequeues);
  s.layer["engine.ns_per_event"] =
      Ratio(s.run_s * 1e9, static_cast<double>(s.run[kEvents]));
}

// Window I/Os of the Daredevil and blk-switch cells: the denominators of the
// per-layer ratios that only those stacks produce.
struct KindIos {
  uint64_t daredevil = 0;
  uint64_t blkswitch = 0;
  void Add(StackKind kind, uint64_t ios) {
    if (kind == StackKind::kDareFull) {
      daredevil += ios;
    } else if (kind == StackKind::kBlkSwitch) {
      blkswitch += ios;
    }
  }
  void Report(Sweep& s) const {
    const auto dd = static_cast<double>(daredevil);
    s.layer["core.nqreg_schedules_per_io"] =
        Ratio(static_cast<double>(s.window[kNqregSchedules]), dd);
    s.layer["core.nqreg_resorts_per_io"] =
        Ratio(static_cast<double>(s.window[kNqregResorts]), dd);
    s.layer["core.troute_queries_per_io"] =
        Ratio(static_cast<double>(s.window[kTrouteQueries]), dd);
    s.layer["blkswitch.migrations"] =
        static_cast<double>(s.window[kBsMigrations]);
    s.layer["blkswitch.steered_per_io"] =
        Ratio(static_cast<double>(s.window[kBsSteered]),
              static_cast<double>(blkswitch));
  }
};

std::string Label(StackKind kind, int n_t) {
  return std::string(StackKindName(kind)) + "/nt=" + std::to_string(n_t);
}

double Mbps(uint64_t bytes, Tick duration) {
  return static_cast<double>(bytes) / ToSec(duration) / 1e6;
}

// --- openloop_sweep -------------------------------------------------------
//
// The paper's core experiment, open loop: 4 OpenLoopJob L sources (4 KB
// random reads, 5 K IOPS each, 10% bursts of 8) beside {0, 8, 16} streaming
// T-tenants, on {vanilla, blk-switch, daredevil}.

constexpr Tick kOlWarmup = 50 * kMillisecond;
constexpr Tick kOlDuration = 1500 * kMillisecond;

void OpenLoopCell(int n_t, StackKind kind, uint64_t seed, Tracer* tracer,
                  Meter* meter, Sweep& out, KindIos& kind_ios,
                  std::map<std::string, Histogram>& l_p99) {
  ScopedSpan cell(tracer, "cell");
  ScenarioConfig cfg = MakeSvmConfig(4);
  cfg.stack = kind;
  cfg.warmup = kOlWarmup;
  cfg.duration = kOlDuration;
  cfg.seed = Mix(seed, 0);
  AddTTenants(cfg, n_t);

  const Clock::time_point t0 = Clock::now();
  const int env_span = tracer->Open("setup.env");
  ScenarioEnv env(cfg);
  tracer->Close(env_span);
  const double env_s = Since(t0);
  const int tenants_span = tracer->Open("setup.tenants");
  Rng master(Mix(seed, 1));
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
        &env.machine(), &env.stack(), spec, tid, static_cast<int>((tid - 1) % 4),
        master.Fork(), env.measure_start(), env.measure_end()));
    ++tid;
    t_jobs.back()->Start();
  }
  tracer->Close(tenants_span);
  out.AddSetup(Since(t0));
  out.layer["workload.env_build_ms"] += env_s * 1e3;

  ProbeScope probe(meter, env);
  auto backlog = [&sources]() {
    int total = 0;
    for (const auto& src : sources) {
      total += src->outstanding();
    }
    return total;
  };
  const RunStats rs = RunEnv(env, probe, tracer, &out, backlog, []() {});

  ScopedSpan collect(tracer, "collect");
  const std::string label = Label(kind, n_t);
  Histogram latency;
  uint64_t dropped = 0;
  bool conserved = true;
  for (const auto& src : sources) {
    latency.Merge(src->latency());
    dropped += src->dropped_arrivals();
    conserved = conserved &&
                src->total_arrivals() ==
                    src->total_completed() +
                        static_cast<uint64_t>(src->outstanding()) +
                        src->dropped_arrivals();
    out.attempted += src->total_arrivals();
    out.errored += src->total_errored();
  }
  uint64_t t_bytes = 0;
  Histogram t_latency;
  for (const auto& job : t_jobs) {
    t_bytes += job->measured_bytes();
    t_latency.Merge(job->latency());
    out.attempted += job->total_issued();
    out.errored += job->total_errored();
  }
  out.Check(conserved, label + ": open-loop arrivals != completed + "
                               "outstanding + dropped");
  out.Check(env.stack().error_completions() == 0,
            label + ": non-OK completions without faults");
  out.Check(latency.count() > 0, label + ": no L completions measured");

  const uint64_t ios = rs.window[kStackCompleted];
  out.sim_ios += ios;
  out.run_s += rs.host_s;
  AddTo(out.window, rs.window);
  AddTo(out.run, rs.run);
  kind_ios.Add(kind, ios);
  out.layer["workload.dropped_arrivals"] += static_cast<double>(dropped);
  out.Max("nvme.volatile_pages_end",
          static_cast<double>(env.device().volatile_page_count()));
  l_p99[label] = latency;
  out.Cell(label, ios, "L", latency, Mbps(t_bytes, cfg.duration));
  if (kind == StackKind::kDareFull && n_t == 16) {
    out.l_p99_us = ToUs(latency.P99());
    out.t_mbps = Mbps(t_bytes, cfg.duration);
  }

  out.digest.Add(label);
  out.digest.Add(ios);
  for (int c = 0; c < kNumCounters; ++c) {
    if (c != kHeapAllocs && c != kHeapBytes) {
      out.digest.Add(rs.window[c]);
    }
  }
  out.digest.Add(dropped);
  out.digest.Add(t_bytes);
  out.digest.AddHist(latency);
  out.digest.AddHist(t_latency);
}

Sweep OpenLoopSweep(uint64_t seed, Tracer* tracer, Meter* meter) {
  Sweep out;
  KindIos kind_ios;
  std::map<std::string, Histogram> l_lat;
  int cell = 0;
  for (int n_t : {0, 8, 16}) {
    for (StackKind kind :
         {StackKind::kVanilla, StackKind::kBlkSwitch, StackKind::kDareFull}) {
      tracer->SetCell(cell++);
      OpenLoopCell(n_t, kind, seed, tracer, meter, out, kind_ios, l_lat);
    }
  }
  AddPerIo(out);
  kind_ios.Report(out);
  const int64_t dd = l_lat[Label(StackKind::kDareFull, 16)].P99();
  const int64_t van = l_lat[Label(StackKind::kVanilla, 16)].P99();
  out.Check(dd < van, "paper shape: daredevil L p99 (" + std::to_string(dd) +
                          " ns) not below vanilla's (" + std::to_string(van) +
                          " ns) at 16 T-tenants");
  return out;
}

// --- ycsb_kv ----------------------------------------------------------------
//
// Closed loop: 4 KvStore clients run YCSB-A (zipfian, 200 K keys in total,
// block cache warmed) beside the paper's 8 streaming T-tenants.

constexpr Tick kKvWarmup = 40 * kMillisecond;
constexpr Tick kKvDuration = 2400 * kMillisecond;
constexpr int kKvClients = 4;
constexpr uint64_t kKvKeys = 200000;

void KvCell(StackKind kind, uint64_t seed, Tracer* tracer, Meter* meter,
            Sweep& out, KindIos& kind_ios,
            std::map<StackKind, Histogram>& update_lat) {
  ScopedSpan cell(tracer, "cell");
  ScenarioConfig cfg = MakeSvmConfig(4);
  cfg.stack = kind;
  cfg.warmup = kKvWarmup;
  cfg.duration = kKvDuration;
  cfg.seed = Mix(seed, 0);

  const Clock::time_point t0 = Clock::now();
  const int env_span = tracer->Open("setup.env");
  ScenarioEnv env(cfg);
  tracer->Close(env_span);
  out.layer["workload.env_build_ms"] += Since(t0) * 1e3;

  struct Client {
    Tenant tenant;
    std::unique_ptr<AppIoContext> io;
    std::unique_ptr<KvStore> store;
    std::unique_ptr<YcsbWorkload> ycsb;
  };
  const int tenants_span = tracer->Open("setup.tenants");
  Rng rng(Mix(seed, 2));
  std::vector<std::unique_ptr<Client>> clients;
  KvStoreConfig kv_cfg;
  // A daredevil client completes ~2 K updates in the window. A 256-entry
  // memtable makes memtable flushes, their FLUSH barriers and L0 compactions
  // all run inside it; the default of 4096 entries fills none.
  kv_cfg.memtable_entries = 256;
  double load_s = 0.0;
  for (int i = 0; i < kKvClients; ++i) {
    auto client = std::make_unique<Client>();
    client->tenant.id = TenantId{static_cast<uint64_t>(1 + i)};
    client->tenant.name = "kv" + std::to_string(i);
    client->tenant.group = "APP";
    client->tenant.ionice = IoniceClass::kRealtime;
    client->tenant.core = i % 4;
    env.stack().OnTenantStart(&client->tenant);
    client->io = std::make_unique<AppIoContext>(&env.machine(), &env.stack(),
                                                &client->tenant, /*nsid=*/0);
    client->store =
        std::make_unique<KvStore>(client->io.get(), kv_cfg, rng.Fork());
    {
      const Clock::time_point l0 = Clock::now();
      ScopedSpan load(tracer, "setup.kv_load");
      client->store->Load(kKvKeys / kKvClients);
      client->store->WarmCache(4 * kv_cfg.block_cache_pages);
      load_s += Since(l0);
    }
    YcsbConfig ycsb_cfg;
    ycsb_cfg.workload = 'A';
    ycsb_cfg.record_count = kKvKeys / kKvClients;
    client->ycsb = std::make_unique<YcsbWorkload>(
        client->store.get(), ycsb_cfg, rng.Fork(), &env.sim(),
        env.measure_start(), env.measure_end());
    client->ycsb->Start();
    clients.push_back(std::move(client));
  }
  std::vector<std::unique_ptr<FioJob>> t_jobs;
  for (int i = 0; i < 8; ++i) {
    t_jobs.push_back(std::make_unique<FioJob>(
        &env.machine(), &env.stack(), TTenantSpec(i),
        static_cast<uint64_t>(100 + i), i % 4, rng.Fork(), env.measure_start(),
        env.measure_end()));
    t_jobs.back()->Start();
  }
  tracer->Close(tenants_span);
  out.AddSetup(Since(t0));
  out.layer["apps.kv.load_ms"] += load_s * 1e3;

  ProbeScope probe(meter, env);
  // KV and T counts at the window edges, for the per-update ratios.
  struct KvEdge {
    uint64_t hits = 0, misses = 0, wal = 0, t_completed = 0;
  };
  auto kv_edge = [&]() {
    KvEdge e;
    for (const auto& c : clients) {
      e.hits += c->store->cache_hits();
      e.misses += c->store->cache_misses();
      e.wal += c->store->wal_appends();
    }
    for (const auto& job : t_jobs) {
      e.t_completed += job->total_completed();
    }
    return e;
  };
  KvEdge start_edge;
  const RunStats rs = RunEnv(
      env, probe, tracer, &out, []() { return 0; },
      [&]() { start_edge = kv_edge(); });
  const KvEdge end_edge = kv_edge();

  ScopedSpan collect(tracer, "collect");
  const std::string label = Label(kind, 8);
  Histogram update;
  Histogram read;
  uint64_t updates = 0;
  uint64_t ops = 0;
  uint64_t compactions = 0;
  for (const auto& c : clients) {
    update.Merge(c->ycsb->OpLatency(YcsbOp::kUpdate));
    read.Merge(c->ycsb->OpLatency(YcsbOp::kRead));
    updates += c->ycsb->OpCount(YcsbOp::kUpdate);
    for (int op = 0; op < kNumYcsbOps; ++op) {
      ops += c->ycsb->OpCount(static_cast<YcsbOp>(op));
    }
    compactions += c->store->compactions();
  }
  uint64_t t_bytes = 0;
  Histogram t_latency;
  for (const auto& job : t_jobs) {
    t_bytes += job->measured_bytes();
    t_latency.Merge(job->latency());
    out.errored += job->total_errored();
  }
  out.attempted += env.stack().requests_submitted();
  out.errored += env.stack().error_completions();
  out.Check(env.stack().error_completions() == 0,
            label + ": non-OK completions without faults");
  // Only the reported (daredevil) cell needs a well-sampled p99: vanilla
  // completes ~150 updates, each stalled behind T writes.
  out.Check(kind != StackKind::kDareFull || updates >= 1000, label + ": " + std::to_string(updates) +
                                 " updates; p99 needs 1000 for 10 beyond it");

  const uint64_t ios = rs.window[kStackCompleted];
  out.sim_ios += ios;
  out.run_s += rs.host_s;
  AddTo(out.window, rs.window);
  AddTo(out.run, rs.run);
  kind_ios.Add(kind, ios);
  update_lat[kind] = update;
  out.Cell(label, ios, "update", update, Mbps(t_bytes, cfg.duration));
  if (kind == StackKind::kDareFull) {
    out.l_p99_us = ToUs(update.P99());
    out.t_mbps = Mbps(t_bytes, cfg.duration);
    const auto u = static_cast<double>(updates);
    const uint64_t hits = end_edge.hits - start_edge.hits;
    const uint64_t misses = end_edge.misses - start_edge.misses;
    const uint64_t t_pages = (end_edge.t_completed - start_edge.t_completed) *
                             TTenantSpec(0).pages;
    const uint64_t flash_written = rs.window[kFlashPagesWritten];
    out.layer["apps.kv.cache_hit_ratio"] =
        Ratio(static_cast<double>(hits), static_cast<double>(hits + misses));
    out.layer["apps.kv.wal_appends_per_op"] =
        Ratio(static_cast<double>(end_edge.wal - start_edge.wal),
              static_cast<double>(ops));
    out.layer["apps.kv.compactions"] = static_cast<double>(compactions);
    out.layer["apps.kv.pages_written_per_update"] = Ratio(
        static_cast<double>(flash_written > t_pages ? flash_written - t_pages
                                                    : 0),
        u);
    out.layer["nvme.flushes_per_update"] =
        Ratio(static_cast<double>(rs.window[kFlushes]), u);
    out.layer["nvme.fua_per_update"] =
        Ratio(static_cast<double>(rs.window[kFuaPersists]), u);
  }
  out.Max("nvme.volatile_pages_end",
          static_cast<double>(env.device().volatile_page_count()));

  out.digest.Add(label);
  out.digest.Add(ios);
  for (int c = 0; c < kNumCounters; ++c) {
    if (c != kHeapAllocs && c != kHeapBytes) {
      out.digest.Add(rs.window[c]);
    }
  }
  out.digest.Add(ops);
  out.digest.Add(compactions);
  out.digest.Add(end_edge.hits);
  out.digest.Add(t_bytes);
  out.digest.AddHist(update);
  out.digest.AddHist(read);
  out.digest.AddHist(t_latency);
}

Sweep KvSweep(uint64_t seed, Tracer* tracer, Meter* meter) {
  Sweep out;
  KindIos kind_ios;
  std::map<StackKind, Histogram> update_lat;
  int cell = 0;
  for (StackKind kind : {StackKind::kVanilla, StackKind::kDareFull}) {
    tracer->SetCell(cell++);
    KvCell(kind, seed, tracer, meter, out, kind_ios, update_lat);
  }
  AddPerIo(out);
  kind_ios.Report(out);
  const int64_t dd = update_lat[StackKind::kDareFull].P99();
  const int64_t van = update_lat[StackKind::kVanilla].P99();
  out.Check(dd < van, "paper shape: daredevil update p99 (" +
                          std::to_string(dd) + " ns) not below vanilla's (" +
                          std::to_string(van) + " ns)");
  return out;
}

// --- observed_closed --------------------------------------------------------
//
// RunScenario with every observer on (Chrome-trace export, a 100 us
// StateSampler, HOL analysis, an L SLO of p99 < 5 ms) for 4 closed-loop
// L-tenants beside 8 T-tenants, plus an observers-off twin of each cell.

constexpr Tick kObsWarmup = 20 * kMillisecond;
constexpr Tick kObsDuration = 600 * kMillisecond;

ScenarioConfig ObservedConfig(StackKind kind, uint64_t seed, bool observers) {
  ScenarioConfig cfg = MakeSvmConfig(4);
  cfg.stack = kind;
  cfg.warmup = kObsWarmup;
  cfg.duration = kObsDuration;
  cfg.seed = Mix(seed, 0);
  AddLTenants(cfg, 4);
  AddTTenants(cfg, 8);
  if (observers) {
    cfg.export_trace = true;
    cfg.analyze_holb = true;
    cfg.sample_interval = 100 * kMicrosecond;
    SloSpec slo;
    slo.selector = "L";
    slo.target_percentile = 99.0;
    slo.threshold = 5 * kMillisecond;
    slo.window = 10 * kMillisecond;
    cfg.slos.push_back(slo);
  }
  return cfg;
}

void ObservedCell(StackKind kind, uint64_t seed, Tracer* tracer, Meter* meter,
                  Sweep& out, KindIos& kind_ios,
                  std::map<StackKind, int64_t>& l_p99, double* twin_s) {
  ScopedSpan cell(tracer, "cell");
  const ScenarioConfig cfg = ObservedConfig(kind, seed, true);
  const std::string label = Label(kind, 8);
  {
    // RunScenario builds its environment internally; the same build is
    // timed here on its own so set-up shows as its own metric.
    const Clock::time_point t0 = Clock::now();
    const int setup_span = tracer->Open("setup.env");
    ScenarioEnv env(cfg);
    std::vector<std::unique_ptr<FioJob>> jobs;
    uint64_t tid = 1;
    for (const auto& spec : cfg.jobs) {
      jobs.push_back(std::make_unique<FioJob>(
          &env.machine(), &env.stack(), spec, tid,
          static_cast<int>((tid - 1) % 4), env.shard().rng().Fork(),
          env.measure_start(), env.measure_end()));
      ++tid;
    }
    tracer->Close(setup_span);
    const double s = Since(t0);
    out.AddSetup(s);
    out.layer["workload.env_build_ms"] += s * 1e3;
  }

  const uint64_t allocs0 = simbench::HeapAllocs();
  const uint64_t bytes0 = simbench::HeapBytes();
  const int run_span = tracer->Open("run.scenario");
  Clock::time_point t0 = Clock::now();
  const ScenarioResult result = RunScenario(cfg);
  const double run_s = Since(t0);
  tracer->Close(run_span);
  Counts counts{};
  counts[kHeapAllocs] = simbench::HeapAllocs() - allocs0;
  counts[kHeapBytes] = simbench::HeapBytes() - bytes0;
  const Counts reported = FromMetrics(result);
  meter->Add(reported);
  tracer->Credit(run_span, reported);
  AddTo(counts, reported);

  const int twin_span = tracer->Open("run.twin");
  t0 = Clock::now();
  const ScenarioResult twin = RunScenario(ObservedConfig(kind, seed, false));
  *twin_s += Since(t0);
  tracer->Close(twin_span);
  meter->Add(FromMetrics(twin));
  tracer->Credit(twin_span, FromMetrics(twin));

  t0 = Clock::now();
  const int json_span = tracer->Open("stats.to_json");
  const std::string json = result.ToJson();
  tracer->Close(json_span);
  out.layer["stats.to_json_ms"] += Since(t0) * 1e3;
  t0 = Clock::now();
  const int fp_span = tracer->Open("stats.fingerprint");
  const uint64_t fingerprint = result.SimulationFingerprint();
  tracer->Close(fp_span);
  out.layer["stats.fingerprint_ms"] += Since(t0) * 1e3;

  ScopedSpan collect(tracer, "collect");
  uint64_t ios = 0;
  for (const auto& [group, g] : result.groups) {
    ios += g.ios;
  }
  out.sim_ios += ios;
  out.run_s += run_s;
  out.slice_s.push_back(run_s);
  AddTo(out.window, counts);
  AddTo(out.run, counts);
  kind_ios.Add(kind, ios);
  out.attempted += result.total_issued + twin.total_issued;
  out.errored += result.total_errored + twin.total_errored;
  out.layer["stats.timeline_records"] +=
      static_cast<double>(result.timeline_total);
  out.layer["stats.trace_json_mb"] +=
      static_cast<double>(result.trace_json.size()) / 1e6;

  std::string json_error;
  out.Check(fingerprint == twin.SimulationFingerprint(),
            label + ": fingerprint differs with observers on and off");
  out.Check(JsonLooksValid(result.trace_json, &json_error),
            label + ": exported trace is not valid JSON: " + json_error);
  out.Check(JsonLooksValid(json, &json_error),
            label + ": ScenarioResult::ToJson is not valid JSON: " + json_error);
  out.Check(result.timeline_dropped == 0 && result.trace_dropped == 0,
            label + ": observer ring dropped records");
  out.Check(result.total_errored == 0 && twin.total_errored == 0,
            label + ": non-OK completions without faults");
  out.Check(result.Find("L") != nullptr && result.Find("L")->ios > 0,
            label + ": no L completions measured");
  out.Check(!result.slo.empty(), label + ": SLO report missing");

  const GroupStats* l = result.Find("L");
  const GroupStats* t = result.Find("T");
  l_p99[kind] = l != nullptr ? l->latency.P99() : 0;
  if (l != nullptr) {
    out.Cell(label, ios, "L", l->latency,
             t != nullptr ? Mbps(t->bytes, cfg.duration) : 0.0);
  }
  if (kind == StackKind::kDareFull) {
    out.l_p99_us = ToUs(l_p99[kind]);
    out.t_mbps = t != nullptr ? Mbps(t->bytes, cfg.duration) : 0.0;
  }

  out.digest.Add(label);
  out.digest.Add(fingerprint);
  out.digest.Add(ios);
  for (const auto& [group, g] : result.groups) {
    out.digest.Add(group);
    out.digest.Add(g.bytes);
    out.digest.AddHist(g.latency);
  }
  out.digest.Add(result.timeline_total);
}

Sweep ObservedSweep(uint64_t seed, Tracer* tracer, Meter* meter) {
  Sweep out;
  KindIos kind_ios;
  std::map<StackKind, int64_t> l_p99;
  double twin_s = 0.0;
  int cell = 0;
  for (StackKind kind : {StackKind::kVanilla, StackKind::kDareFull}) {
    tracer->SetCell(cell++);
    ObservedCell(kind, seed, tracer, meter, out, kind_ios, l_p99, &twin_s);
  }
  AddPerIo(out);
  kind_ios.Report(out);
  out.layer["stats.observer_overhead"] = Ratio(out.run_s, twin_s);
  return out;
}

// --- Workload table, arguments and output ----------------------------------

using SweepFn = Sweep (*)(uint64_t, Tracer*, Meter*);

struct Workload {
  const char* name;
  SweepFn sweep;
};

constexpr Workload kWorkloads[] = {
    {"openloop_sweep", OpenLoopSweep},
    {"ycsb_kv", KvSweep},
    {"observed_closed", ObservedSweep},
};

// Per-layer metrics reported with --trace 1, with their units. Counts come
// from the first traced sweep; host times are medians over untraced sweeps.
struct LayerMetric {
  const char* name;
  const char* unit;
  bool timing;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"engine.events_per_io", "count", false},
    {"engine.ns_per_event", "ns", true},
    {"engine.pending_peak", "count", false},
    {"cpu.items_per_io", "count", false},
    {"cpu.cross_core_posts_per_io", "count", false},
    {"heap.allocs_per_io", "count", false},
    {"heap.bytes_per_io", "B", false},
    {"nvme.commands_per_io", "count", false},
    {"nvme.irqs_per_io", "count", false},
    {"nvme.flash_pages_per_io", "count", false},
    {"nvme.volatile_pages_end", "count", false},
    {"nvme.flushes_per_update", "count", false},
    {"nvme.fua_per_update", "count", false},
    {"stack.requests_per_io", "count", false},
    {"stack.doorbells_per_io", "count", false},
    {"stack.requeues_per_io", "count", false},
    {"core.nqreg_schedules_per_io", "count", false},
    {"core.nqreg_resorts_per_io", "count", false},
    {"core.troute_queries_per_io", "count", false},
    {"blkswitch.migrations", "count", false},
    {"blkswitch.steered_per_io", "count", false},
    {"workload.env_build_ms", "ms", true},
    {"workload.openloop_backlog_peak", "count", false},
    {"workload.dropped_arrivals", "count", false},
    {"apps.kv.load_ms", "ms", true},
    {"apps.kv.cache_hit_ratio", "ratio", false},
    {"apps.kv.wal_appends_per_op", "count", false},
    {"apps.kv.compactions", "count", false},
    {"apps.kv.pages_written_per_update", "count", false},
    {"stats.observer_overhead", "ratio", true},
    {"stats.to_json_ms", "ms", true},
    {"stats.fingerprint_ms", "ms", true},
    {"stats.timeline_records", "count", false},
    {"stats.trace_json_mb", "MB", false},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::optional<uint64_t> holdout_seed;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      args->workload = val;
    } else if (key == "--seed") {
      args->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      args->trace = val == "1";
    } else if (key == "--trace-out") {
      args->trace_out = val;
    } else if (key == "--holdout-seed") {
      args->holdout_seed = std::strtoull(val.c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "simbench: unknown argument %s\n", key.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void WriteTrace(const std::string& path, const std::string& workload,
                const std::vector<Span>& spans,
                const std::map<int, Counts>& run_totals) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "simbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"workload\":\"%s\",\"counters\":[", workload.c_str());
  for (int c = 0; c < kNumCounters; ++c) {
    std::fprintf(f, "%s\"%s\"", c == 0 ? "" : ",", kCounterNames[c]);
  }
  std::fprintf(f, "],\n\"run_totals\":{");
  bool first = true;
  for (const auto& [sweep, counts] : run_totals) {
    std::fprintf(f, "%s\"%d\":[", first ? "" : ",", sweep);
    first = false;
    for (int c = 0; c < kNumCounters; ++c) {
      std::fprintf(f, "%s%" PRIu64, c == 0 ? "" : ",", counts[c]);
    }
    std::fprintf(f, "]");
  }
  std::fprintf(f, "},\n\"spans\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s[\"%s\",%d,%d,%d,%.9f,%.9f,[", i == 0 ? "" : ",\n", s.name,
                 s.sweep, s.cell, s.parent, s.start_s, s.end_s);
    for (int c = 0; c < kNumCounters; ++c) {
      std::fprintf(f, "%s%" PRIu64, c == 0 ? "" : ",", s.delta[c]);
    }
    std::fprintf(f, "]]");
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

void PrintMetric(bool* first, const char* name, double value,
                 const char* unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              *first ? "" : ", ", name, value, unit);
  *first = false;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: simbench --workload <name> --seed <n> --seconds <s> "
                 "[--trace 0|1] [--trace-out <file>] [--holdout-seed <n>]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "simbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }

  Meter meter;
  Tracer tracer(args.trace, &meter);
  Tracer untraced(false, &meter);
  const Clock::time_point start = Clock::now();

  // Host-time parts of every sweep (see SumOfMedians), by kind of sweep.
  std::vector<std::vector<double>> slices;
  std::vector<std::vector<double>> traced_slices;
  std::vector<std::vector<double>> setups;
  std::map<std::string, std::vector<double>> timings;
  std::optional<Sweep> first;        // first untraced sweep
  std::optional<Sweep> first_traced;
  std::map<int, Counts> run_totals;  // traced sweep -> counters over RunUntil
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int sweeps = 0;
  // Untraced sweeps always; with --trace 1 every other sweep is traced.
  while (sweeps < 2 || Since(start) < args.seconds) {
    const bool traced = args.trace && sweeps % 2 == 1;
    Tracer* t = traced ? &tracer : &untraced;
    t->SetSweep(sweeps);
    Sweep s = workload->sweep(args.seed, t, &meter);
    attempted += s.attempted + s.checks;
    failed += s.errored + s.failures.size();
    for (const auto& f : s.failures) {
      failures.push_back(f);
    }
    const double rate = Ratio(static_cast<double>(s.sim_ios), s.run_s);
    std::printf("sweep %d%s: %" PRIu64 " sim I/Os in %.3f s host = %.0f "
                "sim-I/O/s, setup %.4f s, digest %016" PRIx64 "\n",
                sweeps, traced ? " (traced)" : "", s.sim_ios, s.run_s, rate,
                s.setup_s, s.digest.value());
    if (sweeps == 0) {
      for (const auto& line : s.cells) {
        std::printf("%s\n", line.c_str());
      }
    }
    const Sweep& ref = first.has_value() ? *first : s;
    const bool same = s.digest.value() == ref.digest.value() &&
                      s.window == ref.window;
    ++attempted;
    if (!same) {
      ++failed;
      failures.push_back("sweep " + std::to_string(sweeps) +
                         " differs from sweep 0 (digest or counters)");
    }
    if (traced) {
      traced_slices.push_back(std::move(s.slice_s));
      run_totals[sweeps] = s.run;
      if (!first_traced.has_value()) {
        first_traced = std::move(s);
      }
    } else {
      slices.push_back(std::move(s.slice_s));
      setups.push_back(std::move(s.setup_parts));
      for (const LayerMetric& m : kLayerMetrics) {
        if (m.timing) {
          timings[m.name].push_back(s.layer[m.name]);
        }
      }
      if (!first.has_value()) {
        first = std::move(s);
      }
    }
    ++sweeps;
  }
  const double measured_s = Since(start);

  if (args.holdout_seed.has_value() && *args.holdout_seed != args.seed) {
    Sweep h = workload->sweep(*args.holdout_seed, &untraced, &meter);
    attempted += h.attempted + h.checks;
    failed += h.errored + h.failures.size();
    for (const auto& f : h.failures) {
      failures.push_back("held-out seed: " + f);
    }
    std::printf("held-out seed %" PRIu64 ": %zu/%" PRIu64
                " checks failed, %" PRIu64 " non-OK completions, digest %016"
                PRIx64 "\n",
                *args.holdout_seed, h.failures.size(), h.checks, h.errored,
                h.digest.value());
  }

  std::sort(failures.begin(), failures.end());
  failures.erase(std::unique(failures.begin(), failures.end()), failures.end());
  for (const auto& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  const Sweep& ref = *first;
  const double rate =
      Ratio(static_cast<double>(ref.sim_ios), SumOfMedians(slices));
  const double error_ratio =
      Ratio(static_cast<double>(failed), static_cast<double>(attempted));
  std::printf("workload %s seed %" PRIu64 ": %d sweeps in %.2f s\n",
              workload->name, args.seed, sweeps, measured_s);
  std::printf("sim_digest %016" PRIx64 "\n", ref.digest.value());
  std::printf("error_ratio %.17g (%" PRIu64 " of %" PRIu64 ")\n", error_ratio,
              failed, attempted);
  if (args.trace) {
    const double traced_rate =
        Ratio(static_cast<double>(ref.sim_ios), SumOfMedians(traced_slices));
    std::printf("tracing overhead: %.0f sim-I/O/s traced vs %.0f untraced "
                "(%.1f%% slower)\n",
                traced_rate, rate, 100.0 * (1.0 - Ratio(traced_rate, rate)));
    if (!args.trace_out.empty()) {
      WriteTrace(args.trace_out, workload->name, tracer.spans(), run_totals);
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              failed == 0 ? "true" : "false", attempted, failed);
  bool first_metric = true;
  if (!args.trace) {
    PrintMetric(&first_metric, "sim_ios_per_s", rate, "1/s");
    PrintMetric(&first_metric, "setup_s", SumOfMedians(setups), "s");
    PrintMetric(&first_metric, "peak_rss_mb", PeakRssMb(), "MB");
    PrintMetric(&first_metric, "sim_l_p99_us", ref.l_p99_us, "us");
    PrintMetric(&first_metric, "sim_t_mbps", ref.t_mbps, "MB/s");
  } else {
    const Sweep& counted = *first_traced;
    for (const LayerMetric& m : kLayerMetrics) {
      const double v = m.timing ? Median(timings[m.name])
                                : counted.layer.count(m.name) != 0
                                      ? counted.layer.at(m.name)
                                      : 0.0;
      PrintMetric(&first_metric, m.name, v, m.unit);
    }
    PrintMetric(&first_metric, "error_ratio", error_ratio, "ratio");
    PrintMetric(&first_metric, "trace.overhead",
                1.0 - Ratio(Ratio(static_cast<double>(ref.sim_ios),
                                  SumOfMedians(traced_slices)),
                            rate),
                "ratio");
  }
  std::printf("}}\n");
  return 0;
}
