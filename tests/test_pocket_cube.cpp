// 2x2x2 pocket cube domain: group-theoretic invariants, search, GA.
#include <gtest/gtest.h>

#include "core/multiphase.hpp"
#include "core/problem.hpp"
#include "core/simplify.hpp"
#include "domains/pocket_cube.hpp"
#include "search/astar.hpp"
#include "search/bfs.hpp"
#include "util/rng.hpp"

namespace {

using namespace gaplan;
using domains::CubeState;
using domains::PocketCube;

static_assert(ga::PlanningProblem<PocketCube>);
static_assert(ga::DirectEncodable<PocketCube>);

TEST(PocketCube, SolvedStateIsGoal) {
  const PocketCube cube;
  EXPECT_TRUE(cube.is_goal(PocketCube::solved_state()));
  EXPECT_DOUBLE_EQ(cube.goal_fitness(PocketCube::solved_state()), 1.0);
  EXPECT_TRUE(PocketCube::well_formed(PocketCube::solved_state()));
}

TEST(PocketCube, QuarterTurnsHaveOrderFour) {
  const PocketCube cube;
  for (const int face : {0, 1, 2}) {
    auto s = PocketCube::solved_state();
    for (int t = 0; t < 4; ++t) {
      cube.apply(s, face * 3);  // quarter turn
      EXPECT_TRUE(PocketCube::well_formed(s));
      if (t < 3) {
        EXPECT_FALSE(cube.is_goal(s));
      }
    }
    EXPECT_TRUE(cube.is_goal(s)) << "face " << face << "^4 != identity";
  }
}

TEST(PocketCube, InverseAndDoubleAreConsistent) {
  const PocketCube cube;
  util::Rng rng(1);
  for (const int face : {0, 1, 2}) {
    auto a = cube.scrambled(8, rng);
    auto b = a;
    cube.apply(a, face * 3);      // X
    cube.apply(a, face * 3 + 2);  // X'
    EXPECT_EQ(a, b) << "X X' != identity";
    cube.apply(a, face * 3);
    cube.apply(a, face * 3);
    cube.apply(b, face * 3 + 1);  // X2
    EXPECT_EQ(a, b) << "X X != X2";
  }
}

TEST(PocketCube, SexyMoveHasOrderSix) {
  // (R U R' U')^6 = identity on the corner group.
  const PocketCube cube;
  auto s = PocketCube::solved_state();
  for (int rep = 0; rep < 6; ++rep) {
    cube.apply(s, 3);      // R
    cube.apply(s, 0);      // U
    cube.apply(s, 3 + 2);  // R'
    cube.apply(s, 0 + 2);  // U'
    EXPECT_TRUE(PocketCube::well_formed(s));
    if (rep < 5) {
      EXPECT_FALSE(cube.is_goal(s));
    }
  }
  EXPECT_TRUE(cube.is_goal(s));
}

TEST(PocketCube, ScrambleStaysWellFormedAndFixesDbl) {
  const PocketCube cube;
  util::Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    const auto s = cube.scrambled(20, rng);
    ASSERT_TRUE(PocketCube::well_formed(s));
    EXPECT_EQ(s.perm[6], 6);
    EXPECT_EQ(s.orient[6], 0);
  }
}

TEST(PocketCube, BfsSolvesShallowScramblesOptimally) {
  PocketCube cube;
  util::Rng rng(3);
  for (const std::size_t depth : {1u, 2u, 3u, 4u}) {
    cube.set_initial(cube.scrambled(depth, rng));
    const auto r = search::bfs(cube, cube.initial_state());
    ASSERT_TRUE(r.found);
    EXPECT_LE(r.plan.size(), depth);
    EXPECT_TRUE(ga::plan_solves(cube, cube.initial_state(), r.plan));
  }
}

TEST(PocketCube, GoalFitnessCountsSolvedCorners) {
  const PocketCube cube;
  auto s = PocketCube::solved_state();
  cube.apply(s, 0);  // U moves 4 top corners
  EXPECT_DOUBLE_EQ(cube.goal_fitness(s), 0.5);
}

TEST(PocketCube, HashDistinguishesTwists) {
  const PocketCube cube;
  auto a = PocketCube::solved_state();
  auto b = a;
  cube.apply(b, 3);  // R
  EXPECT_NE(cube.hash(a), cube.hash(b));
  // Same permutation, different orientation: R2 vs manually fixing perm...
  auto c = a;
  cube.apply(c, 3);
  cube.apply(c, 3 + 2);
  EXPECT_EQ(cube.hash(a), cube.hash(c));
}

TEST(PocketCube, GaSolvesShallowScrambles) {
  // The cube's corner goal fitness is highly deceptive (a single face turn
  // breaks four corners), so expect only majority success on 4-move
  // scrambles at this budget.
  PocketCube cube;
  util::Rng rng(4);
  cube.set_initial(cube.scrambled(4, rng));
  ga::GaConfig cfg;
  cfg.population_size = 200;
  cfg.generations = 100;
  cfg.phases = 5;
  cfg.initial_length = 12;
  cfg.max_length = 120;
  cfg.crossover = ga::CrossoverKind::kMixed;
  int solved = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto result = ga::run_multiphase(cube, cfg, seed);
    if (!result.valid) continue;
    ++solved;
    EXPECT_TRUE(ga::plan_solves(cube, cube.initial_state(), result.plan));
    // Simplification keeps the plan valid and no longer.
    const auto simplified =
        ga::simplify_plan(cube, cube.initial_state(), result.plan);
    EXPECT_LE(simplified.size(), result.plan.size());
    EXPECT_TRUE(ga::plan_solves(cube, cube.initial_state(), simplified));
  }
  EXPECT_GE(solved, 1);
}

}  // namespace
