// BAD: so is tests/, and a waiver for another rule does not excuse it.
#include <unordered_set>

int TestSum() {
  std::unordered_set<int> ids;
  int total = 0;
  for (int id : ids) total += id;  // ddanalyze: guard-ok(wrong token)
  return total;
}
