// GOOD: the canonical guard, after a leading comment.
#ifndef DAREDEVIL_SRC_NVME_QUEUE_H_
#define DAREDEVIL_SRC_NVME_QUEUE_H_

struct Queue {};

#endif  // DAREDEVIL_SRC_NVME_QUEUE_H_
