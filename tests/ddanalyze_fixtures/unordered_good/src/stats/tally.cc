// GOOD: ordered iteration, unordered lookups, and one waived loop.
#include <map>
#include <unordered_map>
#include <vector>

int Sum(const std::vector<int>& keys) {
  std::unordered_map<int, int> counts;
  std::map<int, int> ordered;
  int total = 0;
  for (const auto& kv : ordered) total += kv.second;
  for (int k : keys) total += static_cast<int>(counts.count(k));
  for (int i = 0; i < 3; ++i) total += counts[i];
  for (const auto& kv : counts) total += kv.second;  // ddanalyze: ordered-ok(sum is order-independent)
  return total;
}
