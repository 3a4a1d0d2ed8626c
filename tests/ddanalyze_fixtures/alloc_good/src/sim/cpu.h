// GOOD: outside src/sim/engine/ the engine-alloc pass does not apply.
#ifndef DAREDEVIL_SRC_SIM_CPU_H_
#define DAREDEVIL_SRC_SIM_CPU_H_

#include <functional>
#include <memory>

struct Cpu {
  std::function<void()> on_idle;
  std::unique_ptr<int> scratch = std::make_unique<int>(0);
  int* Alloc() { return new int(1); }
};

#endif  // DAREDEVIL_SRC_SIM_CPU_H_
