// GOOD: static_assert, DD_CHECK, look-alike names, mentions in strings and
// comments, and one waived site.
static_assert(sizeof(int) == 4, "assert( in a string is not code");

int Clamp(int v) {
  DD_CHECK(v >= 0);  // assert(v >= 0) in a comment is not code
  const bool assert_ok = v < 100;
  my_assert(assert_ok);
  assert(assert_ok);  // ddanalyze: assert-ok(fixture: the one deliberate site)
  return v;
}
