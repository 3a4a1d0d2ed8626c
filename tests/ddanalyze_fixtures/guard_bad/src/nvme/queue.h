// BAD: a guard that does not follow the path.
#ifndef NVME_QUEUE_H
#define NVME_QUEUE_H

struct Queue {};

#endif  // NVME_QUEUE_H
