// GOOD: a bench iterating an ordered container.
#include <map>

int BenchSum(const std::map<int, int>& by_core) {
  int total = 0;
  for (const auto& kv : by_core) total += kv.second;
  return total;
}
