// Bounded ring with drop accounting: keeps the newest `capacity` items and
// overwrites the oldest once full. The one ring behind TraceLog and
// RequestTimelineLog. Mutators carry container names (push_back/clear, as in
// boost::circular_buffer), which the observer-purity pass reads as the
// observer's own storage.
#ifndef DAREDEVIL_SRC_SIM_BOUNDED_RING_H_
#define DAREDEVIL_SRC_SIM_BOUNDED_RING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace daredevil {

template <typename T>
class BoundedRing {
 public:
  explicit BoundedRing(size_t capacity) : capacity_(capacity > 0 ? capacity : 1) {}

  void push_back(const T& item) {
    ++total_;
    if (items_.size() < capacity_) {
      items_.push_back(item);
      return;
    }
    ++dropped_;
    items_[head_] = item;
    head_ = (head_ + 1) % capacity_;
  }

  // Retained items, oldest first.
  std::vector<T> Items() const {
    std::vector<T> out;
    out.reserve(items_.size());
    out.insert(out.end(), items_.begin() + static_cast<std::ptrdiff_t>(head_),
               items_.end());
    out.insert(out.end(), items_.begin(),
               items_.begin() + static_cast<std::ptrdiff_t>(head_));
    return out;
  }

  size_t size() const { return items_.size(); }
  uint64_t total_pushed() const { return total_; }
  uint64_t dropped() const { return dropped_; }

  void clear() {
    items_.clear();
    head_ = 0;
    total_ = 0;
    dropped_ = 0;
  }

 private:
  size_t capacity_;
  std::vector<T> items_;
  size_t head_ = 0;  // oldest item (next overwrite) once full
  uint64_t total_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace daredevil

#endif  // DAREDEVIL_SRC_SIM_BOUNDED_RING_H_
