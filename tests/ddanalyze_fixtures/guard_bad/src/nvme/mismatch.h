// BAD: the right #ifndef, but it defines another name.
#ifndef DAREDEVIL_SRC_NVME_MISMATCH_H_
#define DAREDEVIL_SRC_NVME_MISMATCH_H

struct Mismatch {};

#endif  // DAREDEVIL_SRC_NVME_MISMATCH_H_
