// BAD: a bare assert, one in a macro body, and both assert headers.
#include <assert.h>
#include <cassert>

#define CHECK_POSITIVE(x) assert((x) > 0)

static_assert(sizeof(int) == 4, "int is 32 bits");

int Clamp(int v) {
  assert(v >= 0);
  return v;
}

// The waiver token of another rule does not excuse this one.
int Twice(int v) {
  assert(v < 100);  // ddanalyze: units-ok(wrong token)
  return 2 * v;
}
