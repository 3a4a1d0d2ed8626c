// GOOD: a bench header with its guard.
#ifndef DAREDEVIL_BENCH_BENCH_HELPERS_H_
#define DAREDEVIL_BENCH_BENCH_HELPERS_H_

inline int BenchHelper() { return 1; }

#endif  // DAREDEVIL_BENCH_BENCH_HELPERS_H_
