// BAD: bench/ is in scope too.
#include <unordered_map>

int BenchSum(const std::unordered_map<int, int>& by_core) {
  int total = 0;
  for (const auto& kv : by_core) total += kv.second;
  return total;
}
