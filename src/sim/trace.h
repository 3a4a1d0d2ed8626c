// Lightweight tracepoint infrastructure (the simulation's analogue of kernel
// tracepoints/blktrace): components record fixed-size events into a
// BoundedRing that tools dump as CSV. Recording is a no-op when no TraceLog
// is attached, so the hot paths stay clean.
#ifndef DAREDEVIL_SRC_SIM_TRACE_H_
#define DAREDEVIL_SRC_SIM_TRACE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/bounded_ring.h"
#include "src/sim/clock.h"

namespace daredevil {

// When adding a category: append it before kOther (kOther stays last so the
// static_asserts below pin the enum size), add its name to
// kTraceCategoryNames at the same index, and keep kNumTraceCategories in
// sync. The static_asserts below reject a skew between the three, a missing
// or empty name, and a duplicate name.
enum class TraceCategory : int {
  kSubmit = 0,   // request entered the block layer
  kRoute,        // routing decision (request -> NSQ)
  kDoorbell,     // NSQ doorbell rung
  kFetchStart,   // controller began fetching a command (left the NSQ head)
  kFetch,        // controller fetched a command
  kFlashStart,   // first page of a command started on a flash chip
  kFlashEnd,     // last page of a command finished flash service
  kComplete,     // command completion posted to an NCQ
  kIrq,          // interrupt raised
  kDeliver,      // completion delivered to the tenant
  kSchedule,     // nqreg NQ-scheduling decision
  kMigrate,      // tenant moved cores
  kFaultInject,  // fault layer fired (a = hazard site, b = FaultKind)
  kTimeout,      // host watchdog expired for a request
  kRetry,        // stack re-submitted a request after abort/error
  kAbort,        // host aborted an outstanding command
  kOther,
};
inline constexpr int kNumTraceCategories = 17;

// One name per category, indexed by the enum value. A missing trailing entry
// would be a null pointer, which the static_assert below rejects at compile
// time (the per-category count array in TraceLog indexes by enum value, so a
// name/enum mismatch would silently misreport counts).
inline constexpr std::array<const char*, kNumTraceCategories>
    kTraceCategoryNames = {
        "submit",     "route",     "doorbell", "fetch-start", "fetch",
        "flash-start", "flash-end", "complete", "irq",         "deliver",
        "schedule",   "migrate",   "fault",    "timeout",     "retry",
        "abort",      "other",
};

static_assert(static_cast<int>(TraceCategory::kOther) + 1 ==
                  kNumTraceCategories,
              "kNumTraceCategories out of sync with the TraceCategory enum "
              "(kOther must stay the last enumerator)");

namespace trace_internal {
constexpr bool AllCategoryNamesPresent() {
  for (const char* name : kTraceCategoryNames) {
    if (name == nullptr || name[0] == '\0') {
      return false;
    }
  }
  return true;
}

constexpr bool CategoryNamesUnique() {
  for (std::size_t i = 0; i < kTraceCategoryNames.size(); ++i) {
    for (std::size_t j = i + 1; j < kTraceCategoryNames.size(); ++j) {
      if (std::string_view(kTraceCategoryNames[i]) ==
          std::string_view(kTraceCategoryNames[j])) {
        return false;
      }
    }
  }
  return true;
}
}  // namespace trace_internal

static_assert(trace_internal::AllCategoryNamesPresent(),
              "every TraceCategory needs a non-empty kTraceCategoryNames "
              "entry at its enum index");
static_assert(trace_internal::CategoryNamesUnique(),
              "kTraceCategoryNames entries must be distinct (every category "
              "needs a distinguishable name)");

const char* TraceCategoryName(TraceCategory c);

struct TraceEvent {
  Tick at = 0;
  TraceCategory category = TraceCategory::kOther;
  uint64_t id = 0;  // request/command/tenant id
  int64_t a = 0;    // category-specific (e.g. NSQ id)
  int64_t b = 0;    // category-specific (e.g. core id)
};

class TraceLog {
 public:
  explicit TraceLog(size_t capacity = 1 << 16);

  void Record(Tick at, TraceCategory category, uint64_t id = 0, int64_t a = 0,
              int64_t b = 0);

  // Number of retained events (oldest are dropped once full).
  size_t size() const { return ring_.size(); }
  uint64_t total_recorded() const { return ring_.total_pushed(); }
  uint64_t dropped() const { return ring_.dropped(); }
  uint64_t CountOf(TraceCategory category) const {
    return counts_[static_cast<int>(category)];
  }

  // Events in chronological order.
  std::vector<TraceEvent> Events() const { return ring_.Items(); }

  // "time_ns,category,id,a,b" rows with a header line.
  std::string ToCsv() const;

  void Clear();

 private:
  BoundedRing<TraceEvent> ring_;
  uint64_t counts_[kNumTraceCategories] = {0};
};

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_SIM_TRACE_H_
