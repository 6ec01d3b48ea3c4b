// Writes the golden trajectory fixtures (tests/golden/cases.hpp) into a
// directory, one <case>.txt per case:
//
//   ./build/tests/record_golden tests/data/golden
//
// Only re-record when a trajectory change is intended, and say so in the
// change description: tests/test_golden.cpp holds the runner to these files.
#include <cstdio>
#include <fstream>
#include <string>

#include "golden/cases.hpp"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
    return 2;
  }
  const std::string dir = argv[1];
  int status = 0;
  for (const auto& c : gaplan::golden::all_cases()) {
    const gaplan::golden::Record rec = c.run();
    for (const auto& m : rec.cold_mismatches) {
      std::fprintf(stderr, "%s: cold evaluation mismatch at %s\n",
                   c.name.c_str(), m.c_str());
      status = 1;
    }
    std::ofstream out(dir + "/" + c.name + ".txt", std::ios::binary);
    out << rec.text;
    if (!out) {
      std::fprintf(stderr, "%s: cannot write %s\n", c.name.c_str(), dir.c_str());
      return 1;
    }
  }
  return status;
}
