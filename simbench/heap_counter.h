// Process-wide heap allocation counter. heap_counter.cc replaces the global
// operator new/delete of the benchmark binary, so every allocation the
// simulator makes is counted without touching src/.
#ifndef DAREDEVIL_SIMBENCH_HEAP_COUNTER_H_
#define DAREDEVIL_SIMBENCH_HEAP_COUNTER_H_

#include <cstdint>

namespace simbench {

// Allocations and requested bytes since process start (single-threaded).
uint64_t HeapAllocs();
uint64_t HeapBytes();

}  // namespace simbench

#endif  // DAREDEVIL_SIMBENCH_HEAP_COUNTER_H_
