// GOOD: a test iterating a sorted copy's vector.
#include <vector>

int TestSum(const std::vector<int>& sorted_ids) {
  int total = 0;
  for (int id : sorted_ids) total += id;
  return total;
}
