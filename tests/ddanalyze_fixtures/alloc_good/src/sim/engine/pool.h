// GOOD: placement new into inline storage, the <new> header, and the one
// waived slab-growth site.
#ifndef DAREDEVIL_SRC_SIM_ENGINE_POOL_H_
#define DAREDEVIL_SRC_SIM_ENGINE_POOL_H_

#include <memory>
#include <new>
#include <vector>

struct Slot {
  alignas(8) unsigned char buf[16];
};

inline int* Emplace(Slot* s) { return ::new (static_cast<void*>(s->buf)) int(7); }

struct Slabs {
  std::vector<std::unique_ptr<Slot[]>> slabs;
  void Grow() { slabs.push_back(std::make_unique<Slot[]>(64)); }  // ddanalyze: enginealloc-ok(slab growth)
};

#endif  // DAREDEVIL_SRC_SIM_ENGINE_POOL_H_
