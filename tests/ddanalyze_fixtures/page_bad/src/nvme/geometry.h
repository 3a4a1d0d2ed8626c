// BAD: raw page-size arithmetic, spelled four ways.
#ifndef DAREDEVIL_SRC_NVME_GEOMETRY_H_
#define DAREDEVIL_SRC_NVME_GEOMETRY_H_

#include <cstdint>

#define PAGE_SIZE 4096

inline uint64_t PageBytes(uint64_t pages) { return pages * 4096; }
inline uint64_t Bytes(uint64_t pages) { return pages * 4096u; }
inline double Pages(double bytes) { return bytes / 4096.0; }

#endif  // DAREDEVIL_SRC_NVME_GEOMETRY_H_
