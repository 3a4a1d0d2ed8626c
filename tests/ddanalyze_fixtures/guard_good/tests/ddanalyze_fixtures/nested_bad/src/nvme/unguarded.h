// Skipped: tests/ddanalyze_fixtures/ is analyzer input, never analyzed as
// part of the tree that holds it.
#include <unordered_set>

inline int Unguarded(const std::unordered_set<int>& ids) {
  int total = 0;
  for (int id : ids) total += id;
  return total;
}
