// GOOD: byte quantities derive from kPageBytes, look-alike numbers stay
// clean, and the definition itself is waived.
#ifndef DAREDEVIL_SRC_NVME_GEOMETRY_H_
#define DAREDEVIL_SRC_NVME_GEOMETRY_H_

#include <cstdint>

inline constexpr uint64_t kPageBytes = 4096;  // ddanalyze: units-ok(definition)
inline constexpr uint64_t kBig = 40960;
inline constexpr uint64_t kHex = 0x4096;
inline constexpr uint64_t kLonger = 14096;
// A comment may say 4096, and so may a string:
inline const char* const kLabel = "4096";

inline uint64_t PageBytes(uint64_t pages) { return pages * kPageBytes; }

#endif  // DAREDEVIL_SRC_NVME_GEOMETRY_H_
