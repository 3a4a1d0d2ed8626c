// BAD: every heap-allocation shape the engine-alloc pass flags.
#ifndef DAREDEVIL_SRC_SIM_ENGINE_POOL_H_
#define DAREDEVIL_SRC_SIM_ENGINE_POOL_H_

#include <cstdlib>
#include <functional>
#include <memory>

struct Pool {
  std::function<void()> callback;
  std::unique_ptr<int> a = std::make_unique<int>(1);
  std::shared_ptr<int> b = std::make_shared<int>(2);
  void* c = malloc(16);
  void* d = calloc(4, 4);
  int* e = new int(3);
  void Grow() { c = realloc(c, 32); }
  // The waiver token of another rule does not excuse this one.
  int* f = new int(4);  // ddanalyze: units-ok(wrong token)
};

#define MAKE_BOX() new int

#endif  // DAREDEVIL_SRC_SIM_ENGINE_POOL_H_
