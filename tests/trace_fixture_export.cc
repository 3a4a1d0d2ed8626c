// Writes the Chrome-trace export of the trace_fixture.h input to a file, for
// tools/ddtrace.py --check (ctest ddtrace_check_export_fixture):
//
//   trace_fixture_export fixture.trace.json
#include <cstdio>
#include <fstream>

#include "tests/trace_fixture.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <out.json>\n", argv[0]);
    return 2;
  }
  const daredevil::trace_fixture::Fixture fixture;
  std::ofstream out(argv[1], std::ios::binary | std::ios::trunc);
  out << daredevil::SerializeChromeTrace(fixture.input);
  return out ? 0 : 1;
}
