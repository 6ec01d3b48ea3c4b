// Sliding-tile domain: moves, Eq. 6 goal fitness, Johnson–Story solvability,
// heuristics, instance generators.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>

#include "core/problem.hpp"
#include "domains/sliding_tile.hpp"
#include "util/rng.hpp"

namespace {

using gaplan::domains::SlidingTile;
using gaplan::domains::TileState;

static_assert(gaplan::ga::PlanningProblem<SlidingTile>);
static_assert(gaplan::ga::DirectEncodable<SlidingTile>);

TEST(SlidingTile, GoalStateLayout) {
  const SlidingTile p(3);
  const auto g = p.goal_state();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(g.cells[i], i + 1);
  EXPECT_EQ(g.cells[8], 0);
  EXPECT_EQ(g.blank, 8);
  EXPECT_TRUE(p.is_goal(g));
  EXPECT_DOUBLE_EQ(p.goal_fitness(g), 1.0);
}

TEST(SlidingTile, RejectsBadBoards) {
  EXPECT_THROW(SlidingTile(1), std::invalid_argument);
  EXPECT_THROW(SlidingTile(6), std::invalid_argument);
  const SlidingTile p(3);
  EXPECT_THROW(p.board({1, 1, 2, 3, 4, 5, 6, 7, 0}), std::invalid_argument);
  EXPECT_THROW(p.board({1, 2, 3}), std::invalid_argument);
}

TEST(SlidingTile, CornerHasTwoMovesCenterFour) {
  const SlidingTile p(3);
  std::vector<int> ops;
  // Goal board: blank bottom-right corner.
  p.valid_ops(p.goal_state(), ops);
  EXPECT_EQ(ops.size(), 2u);
  // Put the blank in the center.
  const auto center = p.board({1, 2, 3, 4, 0, 5, 6, 7, 8});
  p.valid_ops(center, ops);
  EXPECT_EQ(ops.size(), 4u);
}

TEST(SlidingTile, ApplyMovesBlank) {
  const SlidingTile p(3);
  auto s = p.board({1, 2, 3, 4, 0, 5, 6, 7, 8});
  p.apply(s, SlidingTile::kUp);
  EXPECT_EQ(s.blank, 1);
  EXPECT_EQ(s.cells[4], 2);  // tile 2 slid down into the old blank
  EXPECT_EQ(s.cells[1], 0);
}

TEST(SlidingTile, ApplyThenInverseRestores) {
  const SlidingTile p(4);
  gaplan::util::Rng rng(5);
  auto s = p.random_solvable(rng);
  const auto original = s;
  constexpr int kInverse[4] = {SlidingTile::kDown, SlidingTile::kUp,
                               SlidingTile::kRight, SlidingTile::kLeft};
  std::vector<int> ops;
  p.valid_ops(s, ops);
  for (const int op : ops) {
    auto t = s;
    p.apply(t, op);
    p.apply(t, kInverse[op]);
    EXPECT_EQ(t, original);
  }
}

TEST(SlidingTile, ManhattanZeroOnlyAtGoal) {
  const SlidingTile p(3);
  EXPECT_EQ(p.manhattan(p.goal_state()), 0);
  auto s = p.goal_state();
  p.apply(s, SlidingTile::kUp);
  EXPECT_EQ(p.manhattan(s), 1);
}

TEST(SlidingTile, ManhattanTableMatchesRowColumnFormula) {
  // manhattan() sums a per-n table of cell-to-goal distances; a board that
  // holds one tile on an otherwise blank board reads exactly one entry, so
  // every (cell, tile) pair of every board size is checked against the
  // row/column formula.
  for (int n = 2; n <= 5; ++n) {
    const SlidingTile p(n);
    for (int cell = 0; cell < n * n; ++cell) {
      for (int tile = 1; tile < n * n; ++tile) {
        TileState s;
        s.cells[cell] = static_cast<std::uint8_t>(tile);
        const int goal = tile - 1;
        const int want = std::abs(cell / n - goal / n) +
                         std::abs(cell % n - goal % n);
        ASSERT_EQ(p.manhattan(s), want)
            << "n " << n << " cell " << cell << " tile " << tile;
      }
    }
  }
}

TEST(SlidingTile, GoalFitnessEq6Bound) {
  // F_goal = 1 - MD/(2(n-1)(n²-1)); one move off the goal on a 3x3 board:
  const SlidingTile p(3);
  auto s = p.goal_state();
  p.apply(s, SlidingTile::kLeft);
  EXPECT_DOUBLE_EQ(p.goal_fitness(s), 1.0 - 1.0 / (2.0 * 2 * 8));
}

TEST(SlidingTile, GoalFitnessStaysInUnitInterval) {
  const SlidingTile gen(4);
  gaplan::util::Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    const auto s = gen.random_solvable(rng);
    const double f = gen.goal_fitness(s);
    ASSERT_GE(f, 0.0);
    ASSERT_LT(f, 1.0);  // random_solvable never returns the goal itself
  }
}

TEST(SlidingTile, LinearConflictDominatesManhattan) {
  const SlidingTile p(4);
  gaplan::util::Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const auto s = p.random_solvable(rng);
    ASSERT_GE(p.linear_conflict(s), p.manhattan(s));
  }
}

TEST(SlidingTile, LinearConflictKnownCase) {
  // Tiles 2 and 1 reversed in the top row: one row conflict (+2).
  const SlidingTile p(3);
  const auto s = p.board({2, 1, 3, 4, 5, 6, 7, 8, 0});
  EXPECT_EQ(p.manhattan(s), 2);
  EXPECT_EQ(p.linear_conflict(s), 4);
}

TEST(SlidingTile, SolvabilityGoalIsSolvable) {
  for (const int n : {2, 3, 4, 5}) {
    const SlidingTile p(n);
    EXPECT_TRUE(p.solvable(p.goal_state())) << "n=" << n;
  }
}

TEST(SlidingTile, SolvabilitySwapIsNot) {
  // Johnson & Story: swapping two tiles flips solvability.
  const SlidingTile p3(3);
  EXPECT_FALSE(p3.solvable(p3.board({2, 1, 3, 4, 5, 6, 7, 8, 0})));
  const SlidingTile p4(4);
  EXPECT_FALSE(p4.solvable(
      p4.board({2, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0})));
}

TEST(SlidingTile, PaperFigure3InitialIsUnsolvable) {
  // The reversed board of the paper's Figure 3(a) fails the very criterion
  // the paper cites — see DESIGN.md (we use random solvable instances).
  const SlidingTile p(4);
  const auto fig3a =
      p.board({15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0});
  EXPECT_FALSE(p.solvable(fig3a));
}

TEST(SlidingTile, MovesPreserveSolvability) {
  const SlidingTile p(4);
  gaplan::util::Rng rng(13);
  auto s = p.random_solvable(rng);
  std::vector<int> ops;
  for (int step = 0; step < 300; ++step) {
    ASSERT_TRUE(p.solvable(s));
    p.valid_ops(s, ops);
    p.apply(s, ops[rng.below(ops.size())]);
  }
}

TEST(SlidingTile, RandomSolvableIsSolvableAndNotGoal) {
  gaplan::util::Rng rng(17);
  for (const int n : {3, 4}) {
    const SlidingTile p(n);
    for (int i = 0; i < 100; ++i) {
      const auto s = p.random_solvable(rng);
      ASSERT_TRUE(p.solvable(s));
      ASSERT_FALSE(p.is_goal(s));
    }
  }
}

TEST(SlidingTile, ScrambledIsSolvableAndBoundedDistance) {
  gaplan::util::Rng rng(19);
  const SlidingTile p(4);
  for (const std::size_t steps : {1u, 5u, 20u}) {
    const auto s = p.scrambled(steps, rng);
    EXPECT_TRUE(p.solvable(s));
    EXPECT_LE(p.manhattan(s), static_cast<int>(steps));
  }
}

TEST(SlidingTile, HashDistinguishesBoards) {
  const SlidingTile p(3);
  auto a = p.goal_state();
  auto b = a;
  p.apply(b, SlidingTile::kUp);
  EXPECT_NE(p.hash(a), p.hash(b));
}

TEST(SlidingTile, RenderContainsTiles) {
  const SlidingTile p(3);
  const auto art = p.render(p.goal_state());
  EXPECT_NE(art.find(" 1 "), std::string::npos);
  EXPECT_NE(art.find(" 8 "), std::string::npos);
}

TEST(SlidingTile, OpLabels) {
  const SlidingTile p(3);
  EXPECT_EQ(p.op_label(p.goal_state(), SlidingTile::kUp), "blank up");
  EXPECT_EQ(p.op_label(p.goal_state(), SlidingTile::kRight), "blank right");
}

}  // namespace
