// BAD: the include-level bans and the std::chrono / <random> distribution
// spellings. A distribution is caught at its include: its output differs
// between standard libraries even when a seeded engine drives it.
#include <chrono>
#include <ctime>
#include <random>
#include <sys/time.h>
#include <time.h>

double Noise(double mean) {
  std::normal_distribution<double> d(mean, 1.0);  // banned via <random>
  return d.mean();
}

long WallNanos() {
  using Nanos = std::chrono::nanoseconds;
  const auto t0 = std::chrono::steady_clock::now();
  const auto t1 = std::chrono::system_clock::now();
  const auto t2 = std::chrono::high_resolution_clock::now();
  return Nanos(t2 - t0).count() + t1.time_since_epoch().count();
}

long Posix() {
  struct timeval tv;
  gettimeofday(&tv, nullptr);
  struct timespec ts;
  clock_gettime(0, &ts);
  timespec_get(&ts, 1);
  return time(0) + clock();
}

unsigned Engines(unsigned seed) {
  std::mt19937_64 a(seed);
  std::minstd_rand b(seed);
  std::minstd_rand0 c(seed);
  std::default_random_engine d(seed);
  return static_cast<unsigned>(a() + b() + c() + d()) + std::rand();
}

void Fill(unsigned* begin, unsigned* end) {
  std::generate(begin, end, std::rand);  // the generator passed, not called
}
