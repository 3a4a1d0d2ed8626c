// GOOD: draws flow through the shard Rng; look-alike names stay legal.
struct Rng {
  unsigned long NextU64();
};

struct Spec {
  bool random = false;  // a field named 'random' is not a generator
};

struct Clock {
  long time() const;   // a declaration, not a call
  long clock() const;
};

unsigned long Draw(Rng& rng, const Clock& c) {
  (void)c.time();  // member call on a simulated object: fine
  long (Clock::*read)() const = &Clock::time;  // own accessor, not std::time
  (void)(c.*read)();
  return rng.NextU64();
}

long Waived() {
  return time(nullptr);  // ddanalyze: rng-ok(host timestamp for a log banner)
}
