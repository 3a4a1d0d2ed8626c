// GOOD: a tests header with its guard.
#ifndef DAREDEVIL_TESTS_TEST_HELPERS_H_
#define DAREDEVIL_TESTS_TEST_HELPERS_H_

inline int TestHelper() { return 1; }

#endif  // DAREDEVIL_TESTS_TEST_HELPERS_H_
