// BAD: tests/ headers need the guard too, trailing underscore included.
#ifndef DAREDEVIL_TESTS_TEST_HELPERS_H
#define DAREDEVIL_TESTS_TEST_HELPERS_H

inline int TestHelper() { return 1; }

#endif  // DAREDEVIL_TESTS_TEST_HELPERS_H
