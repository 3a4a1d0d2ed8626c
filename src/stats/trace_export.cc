#include "src/stats/trace_export.h"

#include <algorithm>
#include <cctype>
#include <cstddef>

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

// --- Event rendering -------------------------------------------------------

namespace {

// Renders trace events one at a time, in emission order, into one buffer and
// keeps each event's timestamp and byte range. Splice() then writes the
// metadata events first, in emission order, and the data events by
// timestamp. Byte offsets grow with emission order, so sorting by
// (ts, offset) keeps emission order for equal timestamps, which keeps each
// request's nested begin/end pairs balanced.
class EventRenderer {
 public:
  // Opens an event and writes its common fields; returns the writer with the
  // "name" key open. The caller writes the name, its optional fields
  // ("cat", "id", "bp", "args" in that order) and calls End().
  JsonWriter& Begin(char ph, Tick ts, int pid, int tid, Tick dur = 0) {
    begin_ = w_.str().size();
    ts_ = ts;
    const char ph_str[2] = {ph, '\0'};
    w_.BeginObject();
    w_.Key("ph").String(ph_str);
    if (ph != 'M') {
      w_.Key("ts").Micros(ts);
    }
    if (ph == 'X') {
      w_.Key("dur").Micros(dur);
    }
    w_.Key("pid").Int(pid);
    w_.Key("tid").Int(tid);
    return w_.Key("name");
  }
  // Async ('b'/'e') lifecycle slices and flow ('s'/'f') arrows: name, cat
  // and the id the viewer pairs them by.
  JsonWriter& BeginWithId(char ph, Tick ts, int pid, int tid,
                          std::string_view name, std::string_view cat,
                          uint64_t id) {
    Begin(ph, ts, pid, tid).String(name);
    w_.Key("cat").String(cat);
    scratch_.clear();
    AppendUInt(scratch_, id);
    return w_.Key("id").String(scratch_);
  }
  void End() {
    w_.EndObject();
    keys_.push_back({ts_, begin_, w_.str().size()});
  }
  JsonWriter& w() { return w_; }

  // The events rendered so far are metadata.
  void EndMetadata() { metadata_ = keys_.size(); }

  void Splice(JsonWriter& out) {
    std::sort(keys_.begin() + static_cast<std::ptrdiff_t>(metadata_),
              keys_.end(), [](const Key& a, const Key& b) {
                return a.ts != b.ts ? a.ts < b.ts : a.begin < b.begin;
              });
    const std::string_view bytes = w_.str();
    for (const Key& key : keys_) {
      out.Raw(bytes.substr(key.begin, key.end - key.begin));
    }
  }

 private:
  struct Key {
    Tick ts;
    size_t begin;
    size_t end;
  };

  JsonWriter w_;
  std::vector<Key> keys_;
  size_t metadata_ = 0;
  size_t begin_ = 0;
  Tick ts_ = 0;
  std::string scratch_;
};

std::string_view TenantName(const TraceExportInput& input, uint64_t tenant_id,
                            std::string& scratch) {
  auto it = input.tenant_names.find(tenant_id);
  if (it != input.tenant_names.end()) {
    return it->second;
  }
  scratch = "tenant";
  AppendUInt(scratch, tenant_id);
  return scratch;
}

// Appends the request's label: "rq 12 L 1p R".
void AppendLabel(std::string& out, const RequestRecord& r) {
  out += "rq ";
  AppendUInt(out, r.id);
  out += r.latency_sensitive ? " L " : " T ";
  AppendUInt(out, r.pages);
  out += r.is_write ? "p W" : "p R";
}

void Meta(EventRenderer& ev, int pid, int tid, const char* what,
          std::string_view name) {
  ev.Begin('M', 0, pid, tid).String(what);
  ev.w().Key("args").BeginObject();
  ev.w().Key("name").String(name);
  ev.w().EndObject();
  ev.End();
}

void RenderMetadata(const TraceExportInput& input, EventRenderer& ev) {
  Meta(ev, kTracePidHost, 0, "process_name",
       "host (" + input.stack_name + ")");
  for (int c = 0; c < input.num_cores; ++c) {
    Meta(ev, kTracePidHost, c, "thread_name", "core " + std::to_string(c));
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
  for (const RequestRecord& r : input.requests.records()) {
    mark(r.nsq);
  }
  for (const TraceEvent& e : input.events) {
    if (e.category == TraceCategory::kRoute ||
        e.category == TraceCategory::kDoorbell) {
      mark(static_cast<int>(e.a));
    }
  }
  Meta(ev, kTracePidNsq, 0, "process_name", "NSQ head occupancy");
  for (size_t i = 0; i < nsq_used.size(); ++i) {
    if (!nsq_used[i]) {
      continue;
    }
    const int nsq = static_cast<int>(i);
    auto it = input.nsq_labels.find(nsq);
    Meta(ev, kTracePidNsq, nsq, "thread_name",
         it != input.nsq_labels.end() ? it->second
                                      : "NSQ " + std::to_string(nsq));
  }
  Meta(ev, kTracePidDevice, 0, "process_name", "device controller");
  Meta(ev, kTracePidDevice, 0, "thread_name", "fetch engine");
  Meta(ev, kTracePidNcq, 0, "process_name", "NCQ residency");
  Meta(ev, kTracePidRequests, 0, "process_name", "request lifecycles");
  Meta(ev, kTracePidCounters, 0, "process_name", "sampled state");
  Meta(ev, kTracePidControl, 0, "process_name", "stack control");
  Meta(ev, kTracePidControl, 0, "thread_name", "scheduling");
  if (input.slo != nullptr && !input.slo->empty()) {
    Meta(ev, kTracePidSlo, 0, "process_name", "SLO conformance");
    int tid = 0;
    for (const auto& [tenant, r] : input.slo->tenants) {
      Meta(ev, kTracePidSlo, tid, "thread_name", "SLO " + tenant);
      ++tid;
    }
  }
}

// Violation episodes as X slices and per-window fast burn rates as counters,
// one track per SLO-tracked tenant (map order = tid order).
void RenderSloEvents(const TraceExportInput& input, EventRenderer& ev) {
  if (input.slo == nullptr || input.slo->empty()) {
    return;
  }
  JsonWriter& w = ev.w();
  int tid = 0;
  for (const auto& [tenant, r] : input.slo->tenants) {
    const std::string violation = "SLO violation " + tenant;
    const std::string burn = "burn " + tenant;
    for (const SloEpisode& ep : r.episodes) {
      ev.Begin('X', ep.begin, kTracePidSlo, tid, ep.duration())
          .String(violation);
      w.Key("cat").String("slo");
      w.Key("args").BeginObject();
      w.Key("peak_burn").Double(ep.peak_burn);
      w.Key("bad").UInt(ep.bad);
      w.Key("total").UInt(ep.total);
      w.Key("blame").String(ep.blame.empty() ? "unattributed" : ep.blame);
      w.Key("mechanism").String(ep.mechanism);
      w.EndObject();
      ev.End();
    }
    for (const SloWindow& win : r.windows) {
      ev.Begin('C', win.start, kTracePidSlo, tid).String(burn);
      w.Key("args").BeginObject();
      w.Key("fast").Double(win.fast_burn);
      w.Key("slow").Double(win.slow_burn);
      w.EndObject();
      ev.End();
    }
    ++tid;
  }
}

// Per-request nested async lifecycle slices plus the resource-track slices
// of the timeline's head-occupancy and fetch-engine intervals.
void RenderRequestEvents(const TraceExportInput& input, EventRenderer& ev) {
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

  JsonWriter& w = ev.w();
  const std::vector<RequestRecord>& records = input.requests.records();
  std::string label;
  std::string name;
  std::string scratch;
  for (const RequestRecord& r : records) {
    label.clear();
    AppendLabel(label, r);
    ev.BeginWithId('b', r.issue, kTracePidRequests, 0, label, "rq", r.id);
    w.Key("args").BeginObject();
    w.Key("tenant").String(TenantName(input, r.tenant_id, scratch));
    w.Key("nsq").Int(r.nsq);
    w.Key("ncq").Int(r.ncq);
    w.Key("pages").UInt(r.pages);
    w.EndObject();
    ev.End();
    for (const Phase& phase : kPhases) {
      const Tick begin = r.*(phase.begin);
      const Tick end = r.*(phase.end);
      if (end < begin) {
        continue;  // defensive: a torn timeline must not unbalance b/e
      }
      ev.BeginWithId('b', begin, kTracePidRequests, 0, phase.name, "rq", r.id);
      ev.End();
      ev.BeginWithId('e', end, kTracePidRequests, 0, phase.name, "rq", r.id);
      ev.End();
    }
    ev.BeginWithId('e', r.complete, kTracePidRequests, 0, label, "rq", r.id);
    ev.End();

    // Flash service (overlaps across chips -> async under the device pid).
    name = "flash " + label;
    ev.BeginWithId('b', r.flash_start, kTracePidDevice, 0, name, "flash", r.id);
    ev.End();
    ev.BeginWithId('e', r.flash_end, kTracePidDevice, 0, name, "flash", r.id);
    ev.End();
    // NCQ residency: completion posted -> drained by the driver.
    name = "cqe " + label + " NCQ";
    AppendInt(name, r.ncq);
    ev.BeginWithId('b', r.cqe_post, kTracePidNcq, 0, name, "cqe", r.id);
    ev.End();
    ev.BeginWithId('e', r.drain, kTracePidNcq, 0, name, "cqe", r.id);
    ev.End();
    // Host-core instants + the cross-core IRQ hop flow arrow.
    auto instant = [&](const char* what, Tick at, int core) {
      name = what;
      AppendUInt(name, r.id);
      ev.Begin('i', at, kTracePidHost, core).String(name);
      ev.End();
    };
    instant("submit rq", r.submit, r.submit_core);
    instant("drain rq", r.drain, r.irq_core);
    instant("complete rq", r.complete, r.complete_core);
    if (r.complete_core != r.irq_core) {
      ev.BeginWithId('s', r.drain, kTracePidHost, r.irq_core, "irq-hop",
                     "irq-hop", r.id);
      w.Key("bp").String("e");  // legacy flow finish binds to the enclosing slice
      ev.End();
      ev.BeginWithId('f', r.complete, kTracePidHost, r.complete_core,
                     "irq-hop", "irq-hop", r.id);
      w.Key("bp").String("e");
      ev.End();
    }
  }

  // NSQ head occupancy: who sat at each queue head, for how long - the
  // HOL-blocking picture.
  for (const auto& [nsq, heads] : input.requests.heads()) {
    for (const TimelineInterval& iv : heads) {
      const RequestRecord& r = records[iv.record];
      label.clear();
      AppendLabel(label, r);
      ev.Begin('X', iv.begin, kTracePidNsq, nsq,
               iv.end > iv.begin ? iv.end - iv.begin : 0)
          .String(label);
      w.Key("args").BeginObject();
      w.Key("tenant").String(TenantName(input, r.tenant_id, scratch));
      w.Key("pages").UInt(r.pages);
      w.EndObject();
      ev.End();
    }
  }

  // Fetch engine: serialized in the controller, so plain X slices.
  for (const TimelineInterval& iv : input.requests.fetches()) {
    const RequestRecord& r = records[iv.record];
    name = "fetch ";
    AppendLabel(name, r);
    ev.Begin('X', iv.begin, kTracePidDevice, 0,
             iv.end > iv.begin ? iv.end - iv.begin : 0)
        .String(name);
    w.Key("args").BeginObject();
    w.Key("nsq").Int(r.nsq);
    w.EndObject();
    ev.End();
  }
}

void RenderTraceEventInstants(const TraceExportInput& input,
                              EventRenderer& ev) {
  const bool have_records = !input.requests.records().empty();
  JsonWriter& w = ev.w();
  std::string name;
  // Instants whose args are {"nsq": a, "attempt": b}.
  auto attempt = [&](const TraceEvent& te, const char* what) {
    name = what;
    AppendUInt(name, te.id);
    ev.Begin('i', te.at, kTracePidControl, 0).String(name);
    w.Key("args").BeginObject();
    w.Key("nsq").Int(te.a);
    w.Key("attempt").Int(te.b);
    w.EndObject();
    ev.End();
  };
  for (const TraceEvent& te : input.events) {
    switch (te.category) {
      case TraceCategory::kDoorbell:
        ev.Begin('i', te.at, kTracePidNsq, static_cast<int>(te.a))
            .String("doorbell");
        w.Key("args").BeginObject();
        w.Key("batch").Int(te.b);
        w.EndObject();
        break;
      case TraceCategory::kIrq:
        name = "irq NCQ";
        AppendInt(name, te.a);
        ev.Begin('i', te.at, kTracePidHost, static_cast<int>(te.b))
            .String(name);
        break;
      case TraceCategory::kSchedule:
        ev.Begin('i', te.at, kTracePidControl, 0).String("nq-schedule");
        w.Key("args").BeginObject();
        w.Key("id").UInt(te.id);
        w.Key("a").Int(te.a);
        w.Key("b").Int(te.b);
        w.EndObject();
        break;
      case TraceCategory::kMigrate:
        name = "migrate tenant";
        AppendUInt(name, te.id);
        ev.Begin('i', te.at, kTracePidControl, 0).String(name);
        w.Key("args").BeginObject();
        w.Key("a").Int(te.a);
        w.Key("b").Int(te.b);
        w.EndObject();
        break;
      case TraceCategory::kSubmit:
      case TraceCategory::kDeliver:
        // Redundant with record-derived instants when records exist (and the
        // trace ring may have dropped its oldest events, so records win).
        if (have_records) {
          continue;
        }
        name = te.category == TraceCategory::kSubmit ? "submit rq"
                                                     : "deliver rq";
        AppendUInt(name, te.id);
        ev.Begin('i', te.at, kTracePidHost, static_cast<int>(te.a))
            .String(name);
        break;
      // Fault-path events land on the control track: they are rare, global
      // in scope, and reading them against the NSQ/core tracks is exactly
      // how an injected fault's blast radius is attributed. The numeric kind
      // mirrors FaultKind (src/fault/fault_plan.h); stats sits below the
      // fault layer in the DAG, so the name table is not reachable here.
      case TraceCategory::kFaultInject:
        ev.Begin('i', te.at, kTracePidControl, 0).String("fault-inject");
        w.Key("args").BeginObject();
        w.Key("id").UInt(te.id);
        w.Key("where").Int(te.a);
        w.Key("kind").Int(te.b);
        w.EndObject();
        break;
      case TraceCategory::kTimeout:
        attempt(te, "timeout rq");
        continue;
      case TraceCategory::kRetry:
        attempt(te, "retry rq");
        continue;
      case TraceCategory::kAbort:
        attempt(te, "abort rq");
        continue;
      default:
        continue;  // lifecycle categories are covered by record slices
    }
    ev.End();
  }
}

void RenderCounterEvents(const TraceExportInput& input, EventRenderer& ev) {
  if (input.sampler == nullptr) {
    return;
  }
  JsonWriter& w = ev.w();
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
      ev.Begin('C', times[i], kTracePidCounters, 0).String(name);
      w.Key("args").BeginObject();
      w.Key("value").Double(values[i]);
      w.EndObject();
      ev.End();
    }
  }
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
  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit").String("ns");
  w.Key("otherData").BeginObject();
  w.Key("stack").String(input.stack_name);
  w.Key("num_cores").Int(input.num_cores);
  w.Key("nr_nsq").Int(input.nr_nsq);
  w.Key("nr_ncq").Int(input.nr_ncq);
  w.Key("trace_events").UInt(input.events.size());
  w.Key("request_records").UInt(input.requests.records().size());
  w.EndObject();
  w.Key("traceEvents").BeginArray();
  {
    EventRenderer ev;
    RenderMetadata(input, ev);
    ev.EndMetadata();
    RenderRequestEvents(input, ev);
    RenderTraceEventInstants(input, ev);
    RenderCounterEvents(input, ev);
    RenderSloEvents(input, ev);
    ev.Splice(w);
  }
  w.EndArray();
  w.Key("ddRequests").BeginArray();
  for (const RequestRecord& r : input.requests.records()) {
    AppendRequestRecordJson(w, r);
  }
  w.EndArray();
  if (input.sampler != nullptr) {
    w.Key("ddSampler");
    input.sampler->Snapshot().AppendJson(w);
  }
  w.EndObject();
  return w.Take();
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
