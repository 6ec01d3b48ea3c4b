// Replays every golden trajectory case (tests/golden/cases.hpp) and requires
// the recorded fixture byte for byte, plus a cold evaluate_into of every
// reported best genome equal to the evaluation the runner reported for it.
#include <gtest/gtest.h>

#include <string>

#include "golden/cases.hpp"

namespace {

using namespace gaplan;

TEST(GoldenTrajectories, EveryCaseReplaysExactly) {
  const auto cases = golden::all_cases();
  ASSERT_GE(cases.size(), 60u);
  for (const auto& c : cases) {
    for (const auto& failure :
         golden::check_case(GAPLAN_TEST_DATA_DIR "/golden", c.name)) {
      ADD_FAILURE() << c.name << ": " << failure;
    }
  }
}

}  // namespace
