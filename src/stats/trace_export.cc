#include "src/stats/trace_export.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

#include "src/core/invariant.h"
#include "src/stats/metrics.h"
#include "src/stats/slo.h"
#include "src/stats/state_sampler.h"

namespace daredevil {

// --- RequestTimelineLog ----------------------------------------------------

void RequestTimelineLog::Append(const Request& rq, int irq_core, int ncq) {
  if (!rq.HasDeviceTimeline()) {
    return;  // split parents complete via their children
  }
  RequestRecord rec;
  rec.id = rq.id;
  rec.tenant_id = rq.tenant != nullptr ? rq.tenant->id.value() : 0;
  rec.pages = rq.pages;
  rec.is_write = rq.is_write;
  rec.latency_sensitive =
      rq.tenant != nullptr && rq.tenant->IsLatencySensitive();
  rec.nsq = rq.routed_nsq;
  rec.ncq = ncq;
  rec.submit_core = rq.submit_core;
  rec.irq_core = irq_core;
  rec.complete_core = rq.tenant != nullptr ? rq.tenant->core : irq_core;
  rec.issue = rq.issue_time;
  rec.submit = rq.submit_time;
  rec.nsq_enqueue = rq.nsq_enqueue_time;
  rec.doorbell = rq.doorbell_time;
  rec.fetch_start = rq.fetch_start_time;
  rec.fetch = rq.fetch_time;
  rec.flash_start = rq.flash_start_time;
  rec.flash_end = rq.flash_end_time;
  rec.cqe_post = rq.cqe_post_time;
  rec.drain = rq.drain_time;
  rec.complete = rq.complete_time;

  ring_.push_back(rec);
}

// --- Event building --------------------------------------------------------

namespace {

std::string TenantName(const TraceExportInput& input, uint64_t tenant_id) {
  auto it = input.tenant_names.find(tenant_id);
  if (it != input.tenant_names.end()) {
    return it->second;
  }
  return "tenant" + std::to_string(tenant_id);
}

std::string RequestLabel(const RequestRecord& r) {
  std::string label = "rq " + std::to_string(r.id);
  label += r.latency_sensitive ? " L" : " T";
  label += " " + std::to_string(r.pages) + "p";
  label += r.is_write ? " W" : " R";
  return label;
}

void AddMeta(std::vector<ChromeEvent>& out, int pid, int tid, const char* what,
             const std::string& name) {
  ChromeEvent e;
  e.ph = 'M';
  e.pid = pid;
  e.tid = tid;
  e.name = what;
  e.args.emplace_back("name", JsonString(name));
  out.push_back(e);
}

void BuildMetadata(const TraceExportInput& input,
                   const std::vector<RequestRecord>& records,
                   std::vector<ChromeEvent>& out) {
  AddMeta(out, kTracePidHost, 0, "process_name",
          "host (" + input.stack_name + ")");
  for (int c = 0; c < input.num_cores; ++c) {
    AddMeta(out, kTracePidHost, c, "thread_name", "core " + std::to_string(c));
  }
  // Only name NSQ tracks that actually carry events (128 idle tracks would
  // drown the view on a WS-M device).
  std::vector<bool> nsq_used(static_cast<size_t>(input.nr_nsq > 0 ? input.nr_nsq : 1),
                             false);
  auto mark = [&nsq_used](int nsq) {
    if (nsq >= 0 && static_cast<size_t>(nsq) < nsq_used.size()) {
      nsq_used[static_cast<size_t>(nsq)] = true;
    }
  };
  for (const RequestRecord& r : records) {
    mark(r.nsq);
  }
  for (const TraceEvent& e : input.events) {
    if (e.category == TraceCategory::kRoute ||
        e.category == TraceCategory::kDoorbell) {
      mark(static_cast<int>(e.a));
    }
  }
  AddMeta(out, kTracePidNsq, 0, "process_name", "NSQ head occupancy");
  for (size_t i = 0; i < nsq_used.size(); ++i) {
    if (!nsq_used[i]) {
      continue;
    }
    const int nsq = static_cast<int>(i);
    auto it = input.nsq_labels.find(nsq);
    AddMeta(out, kTracePidNsq, nsq, "thread_name",
            it != input.nsq_labels.end() ? it->second
                                         : "NSQ " + std::to_string(nsq));
  }
  AddMeta(out, kTracePidDevice, 0, "process_name", "device controller");
  AddMeta(out, kTracePidDevice, 0, "thread_name", "fetch engine");
  AddMeta(out, kTracePidNcq, 0, "process_name", "NCQ residency");
  AddMeta(out, kTracePidRequests, 0, "process_name", "request lifecycles");
  AddMeta(out, kTracePidCounters, 0, "process_name", "sampled state");
  AddMeta(out, kTracePidControl, 0, "process_name", "stack control");
  AddMeta(out, kTracePidControl, 0, "thread_name", "scheduling");
  if (input.slo != nullptr && !input.slo->empty()) {
    AddMeta(out, kTracePidSlo, 0, "process_name", "SLO conformance");
    int tid = 0;
    for (const auto& [tenant, r] : input.slo->tenants) {
      AddMeta(out, kTracePidSlo, tid, "thread_name", "SLO " + tenant);
      ++tid;
    }
  }
}

// Violation episodes as X slices and per-window fast burn rates as counters,
// one track per SLO-tracked tenant (map order = tid order).
void BuildSloEvents(const TraceExportInput& input,
                    std::vector<ChromeEvent>& out) {
  if (input.slo == nullptr || input.slo->empty()) {
    return;
  }
  auto fmt = [](double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.15g", v);
    return std::string(buf);
  };
  int tid = 0;
  for (const auto& [tenant, r] : input.slo->tenants) {
    for (const SloEpisode& ep : r.episodes) {
      ChromeEvent x;
      x.ph = 'X';
      x.ts = ep.begin;
      x.dur = ep.duration();
      x.pid = kTracePidSlo;
      x.tid = tid;
      x.cat = "slo";
      x.name = "SLO violation " + tenant;
      x.args.emplace_back("peak_burn", fmt(ep.peak_burn));
      x.args.emplace_back("bad", std::to_string(ep.bad));
      x.args.emplace_back("total", std::to_string(ep.total));
      x.args.emplace_back(
          "blame", JsonString(ep.blame.empty() ? "unattributed" : ep.blame));
      x.args.emplace_back("mechanism", JsonString(ep.mechanism));
      out.push_back(x);
    }
    for (const SloWindow& win : r.windows) {
      ChromeEvent c;
      c.ph = 'C';
      c.ts = win.start;
      c.pid = kTracePidSlo;
      c.tid = tid;
      c.name = "burn " + tenant;
      c.args.emplace_back("fast", fmt(win.fast_burn));
      c.args.emplace_back("slow", fmt(win.slow_burn));
      out.push_back(c);
    }
    ++tid;
  }
}

// Per-request nested async lifecycle slices plus the resource-track slices
// derived from the record set.
void BuildRequestEvents(const TraceExportInput& input,
                        const std::vector<RequestRecord>& records,
                        std::vector<ChromeEvent>& out) {
  struct Phase {
    const char* name;
    Tick RequestRecord::*begin;
    Tick RequestRecord::*end;
  };
  static constexpr Phase kPhases[] = {
      {"submit", &RequestRecord::issue, &RequestRecord::nsq_enqueue},
      {"nsq-wait", &RequestRecord::nsq_enqueue, &RequestRecord::fetch_start},
      {"fetch", &RequestRecord::fetch_start, &RequestRecord::fetch},
      {"flash", &RequestRecord::fetch, &RequestRecord::flash_end},
      {"completion-wait", &RequestRecord::flash_end, &RequestRecord::drain},
      {"delivery", &RequestRecord::drain, &RequestRecord::complete},
  };

  for (const RequestRecord& r : records) {
    const std::string tenant = TenantName(input, r.tenant_id);
    ChromeEvent outer;
    outer.ph = 'b';
    outer.ts = r.issue;
    outer.pid = kTracePidRequests;
    outer.has_id = true;
    outer.id = r.id;
    outer.cat = "rq";
    outer.name = RequestLabel(r);
    outer.args.emplace_back("tenant", JsonString(tenant));
    outer.args.emplace_back("nsq", std::to_string(r.nsq));
    outer.args.emplace_back("ncq", std::to_string(r.ncq));
    outer.args.emplace_back("pages", std::to_string(r.pages));
    out.push_back(outer);
    for (const Phase& phase : kPhases) {
      const Tick begin = r.*(phase.begin);
      const Tick end = r.*(phase.end);
      if (end < begin) {
        continue;  // defensive: a torn timeline must not unbalance b/e
      }
      ChromeEvent b;
      b.ph = 'b';
      b.ts = begin;
      b.pid = kTracePidRequests;
      b.has_id = true;
      b.id = r.id;
      b.cat = "rq";
      b.name = phase.name;
      out.push_back(b);
      ChromeEvent e = b;
      e.ph = 'e';
      e.ts = end;
      out.push_back(e);
    }
    ChromeEvent end = outer;
    end.ph = 'e';
    end.ts = r.complete;
    end.args.clear();
    out.push_back(end);

    // Flash service (overlaps across chips -> async under the device pid).
    {
      ChromeEvent b;
      b.ph = 'b';
      b.ts = r.flash_start;
      b.pid = kTracePidDevice;
      b.has_id = true;
      b.id = r.id;
      b.cat = "flash";
      b.name = "flash " + RequestLabel(r);
      out.push_back(b);
      ChromeEvent e = b;
      e.ph = 'e';
      e.ts = r.flash_end;
      out.push_back(e);
    }
    // NCQ residency: completion posted -> drained by the driver.
    {
      ChromeEvent b;
      b.ph = 'b';
      b.ts = r.cqe_post;
      b.pid = kTracePidNcq;
      b.has_id = true;
      b.id = r.id;
      b.cat = "cqe";
      b.name = "cqe " + RequestLabel(r) + " NCQ" + std::to_string(r.ncq);
      out.push_back(b);
      ChromeEvent e = b;
      e.ph = 'e';
      e.ts = r.drain;
      out.push_back(e);
    }
    // Host-core instants + the cross-core IRQ hop flow arrow.
    {
      ChromeEvent i;
      i.ph = 'i';
      i.ts = r.submit;
      i.pid = kTracePidHost;
      i.tid = r.submit_core;
      i.name = "submit rq" + std::to_string(r.id);
      out.push_back(i);
      ChromeEvent d = i;
      d.ts = r.drain;
      d.tid = r.irq_core;
      d.name = "drain rq" + std::to_string(r.id);
      out.push_back(d);
      ChromeEvent c = i;
      c.ts = r.complete;
      c.tid = r.complete_core;
      c.name = "complete rq" + std::to_string(r.id);
      out.push_back(c);
    }
    if (r.complete_core != r.irq_core) {
      ChromeEvent s;
      s.ph = 's';
      s.ts = r.drain;
      s.pid = kTracePidHost;
      s.tid = r.irq_core;
      s.has_id = true;
      s.id = r.id;
      s.cat = "irq-hop";
      s.name = "irq-hop";
      out.push_back(s);
      ChromeEvent f = s;
      f.ph = 'f';
      f.ts = r.complete;
      f.tid = r.complete_core;
      out.push_back(f);
    }
  }

  // NSQ head-occupancy: within one NSQ the controller fetches FIFO, so the
  // request at the head occupies it from max(its visibility, the previous
  // head's departure) until its own fetch start. These slices are disjoint
  // by construction - exactly the HOL-blocking picture.
  std::map<int, std::vector<const RequestRecord*>> by_nsq;
  for (const RequestRecord& r : records) {
    by_nsq[r.nsq].push_back(&r);
  }
  for (auto& [nsq, rqs] : by_nsq) {
    std::sort(rqs.begin(), rqs.end(),
              [](const RequestRecord* a, const RequestRecord* b) {
                if (a->fetch_start != b->fetch_start) {
                  return a->fetch_start < b->fetch_start;
                }
                return a->id < b->id;
              });
    Tick prev_departure = 0;
    for (const RequestRecord* r : rqs) {
      const Tick visible = r->doorbell > 0 ? r->doorbell : r->nsq_enqueue;
      const Tick head_start = std::max(visible, prev_departure);
      ChromeEvent x;
      x.ph = 'X';
      x.ts = head_start;
      x.dur = r->fetch_start > head_start ? r->fetch_start - head_start : 0;
      x.pid = kTracePidNsq;
      x.tid = nsq;
      x.name = RequestLabel(*r);
      x.args.emplace_back("tenant", JsonString(TenantName(input, r->tenant_id)));
      x.args.emplace_back("pages", std::to_string(r->pages));
      out.push_back(x);
      prev_departure = r->fetch_start;
    }
  }

  // Fetch engine: serialized in the controller, so plain X slices.
  std::vector<const RequestRecord*> by_fetch;
  by_fetch.reserve(records.size());
  for (const RequestRecord& r : records) {
    by_fetch.push_back(&r);
  }
  std::sort(by_fetch.begin(), by_fetch.end(),
            [](const RequestRecord* a, const RequestRecord* b) {
              if (a->fetch_start != b->fetch_start) {
                return a->fetch_start < b->fetch_start;
              }
              return a->id < b->id;
            });
  for (const RequestRecord* r : by_fetch) {
    ChromeEvent x;
    x.ph = 'X';
    x.ts = r->fetch_start;
    x.dur = r->fetch > r->fetch_start ? r->fetch - r->fetch_start : 0;
    x.pid = kTracePidDevice;
    x.tid = 0;
    x.name = "fetch " + RequestLabel(*r);
    x.args.emplace_back("nsq", std::to_string(r->nsq));
    out.push_back(x);
  }
}

void BuildTraceEventInstants(const TraceExportInput& input,
                             bool have_records,
                             std::vector<ChromeEvent>& out) {
  for (const TraceEvent& te : input.events) {
    ChromeEvent e;
    e.ph = 'i';
    e.ts = te.at;
    switch (te.category) {
      case TraceCategory::kDoorbell:
        e.pid = kTracePidNsq;
        e.tid = static_cast<int>(te.a);
        e.name = "doorbell";
        e.args.emplace_back("batch", std::to_string(te.b));
        break;
      case TraceCategory::kIrq:
        e.pid = kTracePidHost;
        e.tid = static_cast<int>(te.b);
        e.name = "irq NCQ" + std::to_string(te.a);
        break;
      case TraceCategory::kSchedule:
        e.pid = kTracePidControl;
        e.tid = 0;
        e.name = "nq-schedule";
        e.args.emplace_back("id", std::to_string(te.id));
        e.args.emplace_back("a", std::to_string(te.a));
        e.args.emplace_back("b", std::to_string(te.b));
        break;
      case TraceCategory::kMigrate:
        e.pid = kTracePidControl;
        e.tid = 0;
        e.name = "migrate tenant" + std::to_string(te.id);
        e.args.emplace_back("a", std::to_string(te.a));
        e.args.emplace_back("b", std::to_string(te.b));
        break;
      case TraceCategory::kSubmit:
        // Redundant with record-derived instants when records exist (and the
        // trace ring may have dropped its oldest events, so records win).
        if (have_records) {
          continue;
        }
        e.pid = kTracePidHost;
        e.tid = static_cast<int>(te.a);
        e.name = "submit rq" + std::to_string(te.id);
        break;
      case TraceCategory::kDeliver:
        if (have_records) {
          continue;
        }
        e.pid = kTracePidHost;
        e.tid = static_cast<int>(te.a);
        e.name = "deliver rq" + std::to_string(te.id);
        break;
      // Fault-path events land on the control track: they are rare, global
      // in scope, and reading them against the NSQ/core tracks is exactly
      // how an injected fault's blast radius is attributed. The numeric kind
      // mirrors FaultKind (src/fault/fault_plan.h); stats sits below the
      // fault layer in the DAG, so the name table is not reachable here.
      case TraceCategory::kFaultInject:
        e.pid = kTracePidControl;
        e.tid = 0;
        e.name = "fault-inject";
        e.args.emplace_back("id", std::to_string(te.id));
        e.args.emplace_back("where", std::to_string(te.a));
        e.args.emplace_back("kind", std::to_string(te.b));
        break;
      case TraceCategory::kTimeout:
        e.pid = kTracePidControl;
        e.tid = 0;
        e.name = "timeout rq" + std::to_string(te.id);
        e.args.emplace_back("nsq", std::to_string(te.a));
        e.args.emplace_back("attempt", std::to_string(te.b));
        break;
      case TraceCategory::kRetry:
        e.pid = kTracePidControl;
        e.tid = 0;
        e.name = "retry rq" + std::to_string(te.id);
        e.args.emplace_back("nsq", std::to_string(te.a));
        e.args.emplace_back("attempt", std::to_string(te.b));
        break;
      case TraceCategory::kAbort:
        e.pid = kTracePidControl;
        e.tid = 0;
        e.name = "abort rq" + std::to_string(te.id);
        e.args.emplace_back("nsq", std::to_string(te.a));
        e.args.emplace_back("attempt", std::to_string(te.b));
        break;
      default:
        continue;  // lifecycle categories are covered by record slices
    }
    out.push_back(e);
  }
}

void BuildCounterEvents(const TraceExportInput& input,
                        std::vector<ChromeEvent>& out) {
  if (input.sampler == nullptr) {
    return;
  }
  const auto& times = input.sampler->times();
  for (const auto& [name, values] : input.sampler->series()) {
    bool all_zero = true;
    for (double v : values) {
      if (v != 0.0) {
        all_zero = false;
        break;
      }
    }
    if (all_zero) {
      continue;
    }
    for (size_t i = 0; i < times.size() && i < values.size(); ++i) {
      ChromeEvent c;
      c.ph = 'C';
      c.ts = times[i];
      c.pid = kTracePidCounters;
      c.tid = 0;
      c.name = name;
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.15g", values[i]);
      c.args.emplace_back("value", buf);
      out.push_back(c);
    }
  }
}

}  // namespace

std::vector<ChromeEvent> BuildChromeEvents(const TraceExportInput& input) {
  std::vector<ChromeEvent> meta;
  std::vector<ChromeEvent> data;
  BuildMetadata(input, input.requests, meta);
  BuildRequestEvents(input, input.requests, data);
  BuildTraceEventInstants(input, !input.requests.empty(), data);
  BuildCounterEvents(input, data);
  BuildSloEvents(input, data);
  // Stable sort keeps emission order for equal timestamps, which preserves
  // begin/end pairing within each request's nested async slices.
  std::stable_sort(data.begin(), data.end(),
                   [](const ChromeEvent& a, const ChromeEvent& b) {
                     return a.ts < b.ts;
                   });
  meta.insert(meta.end(), data.begin(), data.end());
  return meta;
}

// --- Serialization ---------------------------------------------------------

namespace {

// Chrome trace timestamps are microseconds; ticks are nanoseconds. Fixed
// "<us>.<ns%1000>" formatting keeps the export byte-deterministic (no
// floating-point rounding in play).
std::string MicrosFromTicks(Tick ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  return buf;
}

void AppendEventJson(JsonWriter& w, const ChromeEvent& e) {
  w.BeginObject();
  const char ph[2] = {e.ph, '\0'};
  w.Key("ph").String(ph);
  if (e.ph != 'M') {
    w.Key("ts").Raw(MicrosFromTicks(e.ts));
  }
  if (e.ph == 'X') {
    w.Key("dur").Raw(MicrosFromTicks(e.dur));
  }
  w.Key("pid").Int(e.pid);
  w.Key("tid").Int(e.tid);
  w.Key("name").String(e.name);
  if (!e.cat.empty()) {
    w.Key("cat").String(e.cat);
  }
  if (e.has_id) {
    w.Key("id").String(std::to_string(e.id));
  }
  if (e.ph == 's' || e.ph == 'f') {
    // Legacy flow finish binds to the enclosing slice.
    w.Key("bp").String("e");
  }
  if (!e.args.empty()) {
    w.Key("args").BeginObject();
    for (const auto& [key, value] : e.args) {
      w.Key(key).Raw(value);
    }
    w.EndObject();
  }
  w.EndObject();
}

void AppendRequestRecordJson(JsonWriter& w, const RequestRecord& r) {
  w.BeginObject();
  w.Key("id").UInt(r.id);
  w.Key("tenant").UInt(r.tenant_id);
  w.Key("pages").UInt(r.pages);
  w.Key("write").Bool(r.is_write);
  w.Key("ls").Bool(r.latency_sensitive);
  w.Key("nsq").Int(r.nsq);
  w.Key("ncq").Int(r.ncq);
  w.Key("submit_core").Int(r.submit_core);
  w.Key("irq_core").Int(r.irq_core);
  w.Key("complete_core").Int(r.complete_core);
  w.Key("issue").Int(r.issue);
  w.Key("submit").Int(r.submit);
  w.Key("nsq_enqueue").Int(r.nsq_enqueue);
  w.Key("doorbell").Int(r.doorbell);
  w.Key("fetch_start").Int(r.fetch_start);
  w.Key("fetch").Int(r.fetch);
  w.Key("flash_start").Int(r.flash_start);
  w.Key("flash_end").Int(r.flash_end);
  w.Key("cqe_post").Int(r.cqe_post);
  w.Key("drain").Int(r.drain);
  w.Key("complete").Int(r.complete);
  w.EndObject();
}

}  // namespace

std::string SerializeChromeTrace(const TraceExportInput& input) {
  const std::vector<ChromeEvent> events = BuildChromeEvents(input);
  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit").String("ns");
  w.Key("otherData").BeginObject();
  w.Key("stack").String(input.stack_name);
  w.Key("num_cores").Int(input.num_cores);
  w.Key("nr_nsq").Int(input.nr_nsq);
  w.Key("nr_ncq").Int(input.nr_ncq);
  w.Key("trace_events").UInt(input.events.size());
  w.Key("request_records").UInt(input.requests.size());
  w.EndObject();
  w.Key("traceEvents").BeginArray();
  for (const ChromeEvent& e : events) {
    AppendEventJson(w, e);
  }
  w.EndArray();
  w.Key("ddRequests").BeginArray();
  for (const RequestRecord& r : input.requests) {
    AppendRequestRecordJson(w, r);
  }
  w.EndArray();
  if (input.sampler != nullptr) {
    w.Key("ddSampler");
    input.sampler->Snapshot().AppendJson(w);
  }
  w.EndObject();
  return w.str();
}

// --- JSON validation -------------------------------------------------------

namespace {

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s) : s_(s) {}

  bool Check(std::string* error) {
    SkipWs();
    if (!Value(0)) {
      Fail(error);
      return false;
    }
    SkipWs();
    if (pos_ != s_.size()) {
      err_ = "trailing data";
      Fail(error);
      return false;
    }
    return true;
  }

 private:
  static constexpr int kMaxDepth = 256;

  void Fail(std::string* error) const {
    if (error != nullptr) {
      *error = err_ + " at offset " + std::to_string(pos_);
    }
  }

  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view lit) {
    if (s_.compare(pos_, lit.size(), lit) != 0) {
      err_ = "bad literal";
      return false;
    }
    pos_ += lit.size();
    return true;
  }

  bool String() {
    if (pos_ >= s_.size() || s_[pos_] != '"') {
      err_ = "expected string";
      return false;
    }
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) {
          break;
        }
        const char esc = s_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_]))) {
              err_ = "bad \\u escape";
              return false;
            }
          }
        } else if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' &&
                   esc != 'f' && esc != 'n' && esc != 'r' && esc != 't') {
          err_ = "bad escape";
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        err_ = "raw control char in string";
        return false;
      }
      ++pos_;
    }
    err_ = "unterminated string";
    return false;
  }

  bool Number() {
    const size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start || (s_[start] == '-' && pos_ == start + 1)) {
      err_ = "bad number";
      return false;
    }
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      if (pos_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        err_ = "bad fraction";
        return false;
      }
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        err_ = "bad exponent";
        return false;
      }
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    }
    return true;
  }

  bool Value(int depth) {
    if (depth > kMaxDepth) {
      err_ = "nesting too deep";
      return false;
    }
    if (pos_ >= s_.size()) {
      err_ = "unexpected end";
      return false;
    }
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        SkipWs();
        if (!String()) {
          return false;
        }
        SkipWs();
        if (pos_ >= s_.size() || s_[pos_] != ':') {
          err_ = "expected ':'";
          return false;
        }
        ++pos_;
        SkipWs();
        if (!Value(depth + 1)) {
          return false;
        }
        SkipWs();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == '}') {
          ++pos_;
          return true;
        }
        err_ = "expected ',' or '}'";
        return false;
      }
    }
    if (c == '[') {
      ++pos_;
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        SkipWs();
        if (!Value(depth + 1)) {
          return false;
        }
        SkipWs();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == ']') {
          ++pos_;
          return true;
        }
        err_ = "expected ',' or ']'";
        return false;
      }
    }
    if (c == '"') {
      return String();
    }
    if (c == 't') {
      return Literal("true");
    }
    if (c == 'f') {
      return Literal("false");
    }
    if (c == 'n') {
      return Literal("null");
    }
    return Number();
  }

  std::string_view s_;
  size_t pos_ = 0;
  std::string err_ = "invalid JSON";
};

}  // namespace

bool JsonLooksValid(std::string_view json, std::string* error) {
  return JsonChecker(json).Check(error);
}

}  // namespace daredevil
