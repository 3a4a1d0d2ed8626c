#pragma once

// BAD: bench/ headers need the guard too; #pragma once is not it.
inline int BenchHelper() { return 1; }
