// BAD: range-for over unordered containers, however the loop is spelled.
#include <string>
#include <unordered_map>
#include <unordered_set>

int Sum() {
  std::unordered_map<std::string, int> counts;
  std::unordered_set<int> seen = {1, 2};
  int total = 0;
  for (const auto& [name, n] : counts) total += n;
  for (int v : seen) total += v;
  for (const auto& kv :
       counts) {
    total += kv.second;
  }
  return total;
}
