// Struct-of-arrays runner against golden trajectories: each directed case
// below replays a fixture recorded by the former vector-of-Individuals phase
// runner (tests/data/golden/, written by tests/golden/record_golden.cpp) and
// requires it byte for byte — same random draws, same per-generation stats,
// same best-of-phase genomes, same evaluation spend — plus a cold
// evaluate_into of every reported best genome equal to the evaluation the
// runner reported for it. Together they pin the batched SIMD-kernel decode,
// the per-slot decode and lane-spliced reproduction to one reference.
#include <gtest/gtest.h>

#include <initializer_list>
#include <string>

#include "core/problem.hpp"
#include "domains/hanoi.hpp"
#include "domains/pocket_cube.hpp"
#include "domains/sliding_tile.hpp"
#include "golden/cases.hpp"

namespace {

using namespace gaplan;

void expect_golden(std::initializer_list<const char*> names) {
  for (const char* name : names) {
    for (const auto& failure :
         golden::check_case(GAPLAN_TEST_DATA_DIR "/golden", name)) {
      ADD_FAILURE() << name << ": " << failure;
    }
  }
}

TEST(SoaLayoutParity, HanoiKernelBaseline) {
  static_assert(ga::SimdDecodable<domains::Hanoi>);
  expect_golden({"kernel_hanoi6_random", "hanoi_generational"});
}

TEST(SoaLayoutParity, HanoiElitesMixedCrossover) {
  expect_golden({"hanoi_elitism"});
}

TEST(SoaLayoutParity, HanoiSeededRouletteNoTruncate) {
  expect_golden({"hanoi_seeded", "hanoi_roulette", "hanoi_no_truncate",
                 "kernel_hanoi_exact_state"});
}

TEST(SoaLayoutParity, SlidingTileKernel) {
  static_assert(ga::SimdDecodable<domains::SlidingTile>);
  expect_golden({"kernel_tiles_state_aware"});
}

TEST(SoaLayoutParity, PocketCubeKernel) {
  static_assert(ga::SimdDecodable<domains::PocketCube>);
  expect_golden({"kernel_cube_uniform"});
}

TEST(SoaLayoutParity, KernellessDomainGenericPooledPath) {
  // Kernel-less domains decode slot by slot (evaluate_resume over lanes).
  static_assert(!ga::SimdDecodable<strips::Problem>);
  expect_golden({"strips_hanoi_generational", "sokoban_generational",
                 "navigation_generational", "blocks_generational",
                 "workflow_generational"});
}

TEST(SoaLayoutParity, ColdEvalAndBatchWidthOne) {
  expect_golden({"kernel_hanoi_cold_width1"});
}

TEST(SoaLayoutParity, ThreadPoolLanes) {
  // Threaded batches: chunk boundaries from grain_for must not perturb
  // trajectories, and lane splicing must be race-free (TSan lane runs this).
  expect_golden({"kernel_hanoi6_pool4_width4", "hanoi_pool4",
                 "sokoban_pool4"});
}

TEST(SoaLayoutParity, StopOnValidSameGeneration) {
  expect_golden({"kernel_hanoi4_stop_on_valid"});
}

TEST(SoaLayoutParity, KernelDomainCrowdingAndDirectEncoding) {
  // On a kernel domain, crowding evaluates children in place (per slot) and
  // the direct encoding bypasses the kernel; both follow the fixtures.
  expect_golden({"hanoi_crowding", "kernel_hanoi_crowding_cold",
                 "hanoi_direct", "hanoi_direct_crowding"});
}

TEST(SoaLayoutParity, MultiphaseAcrossPhases) {
  // The runner persists inside one Engine across phases; phase boundaries
  // (new start state, re-init) must not leak state between runs.
  expect_golden({"multiphase_hanoi6", "multiphase_sokoban"});
}

TEST(SoaLayoutParity, IslandsWithMigration) {
  expect_golden({"islands_hanoi6", "islands_navigation",
                 "islands_blocks_crowding"});
}

// The randomized domain/config sweep lives on the property substrate: see
// PropEngine.ReportedGenomesMatchColdEvaluation in test_prop_engine.cpp.

}  // namespace
