// GOOD: source files need no guard.
struct Impl {};
