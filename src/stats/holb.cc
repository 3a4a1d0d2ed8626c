#include "src/stats/holb.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/stats/metrics.h"
#include "src/stats/table.h"

namespace daredevil {

namespace {

Tick Overlap(Tick a_begin, Tick a_end, Tick b_begin, Tick b_end) {
  const Tick begin = a_begin > b_begin ? a_begin : b_begin;
  const Tick end = a_end < b_end ? a_end : b_end;
  return end > begin ? end - begin : 0;
}

std::string TenantKey(const HolbOptions& opts, uint64_t tenant_id) {
  auto it = opts.tenant_names.find(tenant_id);
  if (it != opts.tenant_names.end()) {
    return it->second;
  }
  return "tenant" + std::to_string(tenant_id);
}

void AddTo(HolbRow& row, Tick head_ns, Tick fetch_ns) {
  ++row.blocking_events;
  row.head_block_ns += head_ns;
  row.fetch_slot_ns += fetch_ns;
}

// Sorts by total blocking time (then key) and keeps the top `top_n` rows.
std::vector<HolbRow> RankRows(std::vector<HolbRow> rows, size_t top_n) {
  std::sort(rows.begin(), rows.end(), [](const HolbRow& a, const HolbRow& b) {
    if (a.total_ns() != b.total_ns()) {
      return a.total_ns() > b.total_ns();
    }
    return a.key < b.key;
  });
  if (rows.size() > top_n) {
    rows.resize(top_n);
  }
  return rows;
}

// First interval whose end is past `at` (intervals are disjoint + sorted).
size_t LowerBoundByEnd(const std::vector<TimelineInterval>& v, Tick at) {
  size_t lo = 0;
  size_t hi = v.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (v[mid].end <= at) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

RequestTimeline::RequestTimeline(std::vector<RequestRecord> records)
    : records_(std::move(records)), head_start_(records_.size(), 0) {
  std::vector<uint32_t> order(records_.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
    const RequestRecord& ra = records_[a];
    const RequestRecord& rb = records_[b];
    if (ra.fetch_start != rb.fetch_start) {
      return ra.fetch_start < rb.fetch_start;
    }
    return ra.id < rb.id;
  });
  fetches_.reserve(order.size());
  for (const uint32_t i : order) {
    const RequestRecord& r = records_[i];
    std::vector<TimelineInterval>& heads = heads_[r.nsq];
    const Tick prev_departure = heads.empty() ? 0 : heads.back().end;
    const Tick visible = r.doorbell > 0 ? r.doorbell : r.nsq_enqueue;
    head_start_[i] = std::max(visible, prev_departure);
    heads.push_back({head_start_[i], r.fetch_start, i});
    fetches_.push_back({r.fetch_start, r.fetch, i});
  }
}

Tick HolbReport::BulkHeadBlockNs() const {
  for (const HolbRow& row : by_size) {
    if (row.key.rfind("bulk", 0) == 0) {
      return row.head_block_ns;
    }
  }
  return 0;
}

Tick HolbReport::SmallHeadBlockNs() const {
  for (const HolbRow& row : by_size) {
    if (row.key.rfind("small", 0) == 0) {
      return row.head_block_ns;
    }
  }
  return 0;
}

void HolbReport::AppendJson(JsonWriter& w) const {
  w.BeginObject();
  w.Key("victims").UInt(victims);
  w.Key("total_wait_ns").Int(total_wait_ns);
  w.Key("attributed_head_ns").Int(attributed_head_ns);
  w.Key("attributed_fetch_ns").Int(attributed_fetch_ns);
  w.Key("residual_ns").Int(residual_ns);
  auto rows = [&w](const char* key, const std::vector<HolbRow>& list) {
    w.Key(key).BeginArray();
    for (const HolbRow& row : list) {
      w.BeginObject();
      w.Key("key").String(row.key);
      w.Key("blocking_events").UInt(row.blocking_events);
      w.Key("head_block_ns").Int(row.head_block_ns);
      w.Key("fetch_slot_ns").Int(row.fetch_slot_ns);
      w.EndObject();
    }
    w.EndArray();
  };
  rows("by_tenant", by_tenant);
  rows("by_size", by_size);
  w.EndObject();
}

std::string HolbReport::ToTable() const {
  std::string out;
  out += "HOL-blocking attribution: " + std::to_string(victims) +
         " victims, total NSQ wait " + FormatUs(static_cast<double>(total_wait_ns)) +
         " (head " + FormatUs(static_cast<double>(attributed_head_ns)) +
         ", fetch-slot " + FormatUs(static_cast<double>(attributed_fetch_ns)) +
         ", residual " + FormatUs(static_cast<double>(residual_ns)) + ")\n";
  auto render = [&out](const char* title, const std::vector<HolbRow>& list) {
    if (list.empty()) {
      return;
    }
    out += title;
    out += '\n';
    TablePrinter table({"blocker", "events", "head-block", "fetch-slot",
                        "total"});
    for (const HolbRow& row : list) {
      table.AddRow({row.key, FormatCount(static_cast<double>(row.blocking_events)),
                    FormatUs(static_cast<double>(row.head_block_ns)),
                    FormatUs(static_cast<double>(row.fetch_slot_ns)),
                    FormatUs(static_cast<double>(row.total_ns()))});
    }
    out += table.Render();
  };
  render("blockers by tenant:", by_tenant);
  render("blockers by size class:", by_size);
  return out;
}

HolbAttribution::HolbAttribution(const RequestTimeline& timeline,
                                 const HolbOptions& opts)
    : timeline_(&timeline), opts_(&opts) {
  const std::string threshold = std::to_string(opts.bulk_threshold_pages);
  bulk_.key = "bulk(>=" + threshold + "p)";
  small_.key = "small(<" + threshold + "p)";
}

void HolbAttribution::Charge(const RequestRecord& blocker, Tick head_ns,
                             Tick fetch_ns) {
  AddTo(by_tenant_id_[blocker.tenant_id], head_ns, fetch_ns);
  AddTo(blocker.pages >= opts_->bulk_threshold_pages ? bulk_ : small_, head_ns,
        fetch_ns);
}

void HolbAttribution::AddVictim(size_t i) {
  const std::vector<RequestRecord>& records = timeline_->records();
  const RequestRecord& victim = records[i];
  const Tick wait_begin = victim.nsq_enqueue;
  const Tick wait_end = victim.fetch_start;
  ++totals_.victims;
  if (wait_end <= wait_begin) {
    return;
  }
  totals_.total_wait_ns += wait_end - wait_begin;

  // Same-NSQ head blocking: other requests occupying the head while the
  // victim waited. Head intervals are disjoint within an NSQ, so overlaps
  // never double-count.
  const auto heads_it = timeline_->heads().find(victim.nsq);
  if (heads_it != timeline_->heads().end()) {
    const std::vector<TimelineInterval>& heads = heads_it->second;
    for (size_t k = LowerBoundByEnd(heads, wait_begin); k < heads.size();
         ++k) {
      const TimelineInterval& iv = heads[k];
      if (iv.begin >= wait_end) {
        break;
      }
      if (iv.record == i) {
        continue;
      }
      const Tick ns = Overlap(wait_begin, wait_end, iv.begin, iv.end);
      if (ns <= 0) {
        continue;
      }
      totals_.attributed_head_ns += ns;
      Charge(records[iv.record], ns, 0);
    }
  }

  // Fetch-slot blocking: once at its own head, the victim waits for the
  // serialized fetch engine to clear other queues' commands. Fetch
  // intervals are globally disjoint (one engine), so again no
  // double-counting, and the head/fetch windows partition the wait.
  const Tick head_begin = timeline_->head_start(i);
  if (head_begin < wait_end) {
    const std::vector<TimelineInterval>& fetches = timeline_->fetches();
    for (size_t k = LowerBoundByEnd(fetches, head_begin); k < fetches.size();
         ++k) {
      const TimelineInterval& iv = fetches[k];
      if (iv.begin >= wait_end) {
        break;
      }
      if (iv.record == i) {
        continue;
      }
      const Tick ns = Overlap(head_begin, wait_end, iv.begin, iv.end);
      if (ns <= 0) {
        continue;
      }
      totals_.attributed_fetch_ns += ns;
      Charge(records[iv.record], 0, ns);
    }
  }
}

HolbReport HolbAttribution::Report() const {
  HolbReport report = totals_;
  const Tick attributed = report.attributed_head_ns + report.attributed_fetch_ns;
  report.residual_ns =
      report.total_wait_ns > attributed ? report.total_wait_ns - attributed : 0;
  // Rows are keyed by display name: tenants sharing a name share a row.
  std::map<std::string, HolbRow> by_name;
  for (const auto& [tenant_id, row] : by_tenant_id_) {
    const std::string key = TenantKey(*opts_, tenant_id);
    HolbRow& named = by_name[key];
    named.key = key;
    named.blocking_events += row.blocking_events;
    named.head_block_ns += row.head_block_ns;
    named.fetch_slot_ns += row.fetch_slot_ns;
  }
  std::vector<HolbRow> tenants;
  tenants.reserve(by_name.size());
  for (auto& [key, row] : by_name) {
    tenants.push_back(std::move(row));
  }
  report.by_tenant = RankRows(std::move(tenants), opts_->top_n);
  std::vector<HolbRow> sizes;
  for (const HolbRow* row : {&bulk_, &small_}) {
    if (row->blocking_events > 0) {
      sizes.push_back(*row);
    }
  }
  report.by_size = RankRows(std::move(sizes), opts_->top_n);
  return report;
}

HolbReport AnalyzeHolBlocking(const RequestTimeline& timeline,
                              const HolbOptions& opts) {
  HolbAttribution attribution(timeline, opts);
  const std::vector<RequestRecord>& records = timeline.records();
  for (size_t i = 0; i < records.size(); ++i) {
    if (!opts.victims_latency_sensitive_only || records[i].latency_sensitive) {
      attribution.AddVictim(i);
    }
  }
  return attribution.Report();
}

}  // namespace daredevil
