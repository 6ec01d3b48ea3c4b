// Property-based suites (parameterized sweeps) over the paper's invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "core/crossover.hpp"
#include "core/decoder.hpp"
#include "core/multiphase.hpp"
#include "domains/blocks_world.hpp"
#include "domains/hanoi.hpp"
#include "domains/navigation.hpp"
#include "domains/sliding_tile.hpp"
#include "search/astar.hpp"
#include "search/bfs.hpp"
#include "util/rng.hpp"

namespace {

using namespace gaplan;

// ---------------------------------------------------------------------------
// P1: the indirect encoding never produces an invalid operation — on any
// domain, for any random genome, from any reachable start state (§3.1).
// ---------------------------------------------------------------------------

template <ga::PlanningProblem P>
void check_indirect_validity(const P& problem, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<int> scratch;
  ga::DecodeOptions opt;
  opt.truncate_at_goal = false;
  for (int trial = 0; trial < 30; ++trial) {
    // Random reachable start: a short random walk from the initial state.
    auto start = problem.initial_state();
    std::vector<int> ops;
    for (int w = 0; w < static_cast<int>(rng.below(10)); ++w) {
      problem.valid_ops(start, ops);
      if (ops.empty()) break;
      problem.apply(start, ops[rng.below(ops.size())]);
    }
    ga::Genome genes(5 + rng.below(40));
    for (auto& g : genes) g = rng.uniform();
    const auto ev = ga::decode_indirect(problem, start, genes, opt, scratch);
    EXPECT_DOUBLE_EQ(ev.match_fit, 1.0);
    auto s = start;
    for (const int op : ev.ops) {
      problem.valid_ops(s, ops);
      ASSERT_NE(std::find(ops.begin(), ops.end(), op), ops.end());
      problem.apply(s, op);
    }
    ASSERT_TRUE(ev.final_state == s);
  }
}

class IndirectValiditySeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IndirectValiditySeeds, HoldsOnAllDomains) {
  const std::uint64_t seed = GetParam();
  check_indirect_validity(domains::Hanoi(5), seed);
  check_indirect_validity(domains::SlidingTile(3), seed + 1);
  check_indirect_validity(domains::SlidingTile(4), seed + 2);
  check_indirect_validity(domains::BlocksWorld::tower_instance(5), seed + 3);
  util::Rng nav_rng(seed + 4);
  check_indirect_validity(
      domains::Navigation::random_instance(6, 6, 2, 0.2, nav_rng), seed + 5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndirectValiditySeeds,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// ---------------------------------------------------------------------------
// P2: every plan the multi-phase GA reports valid actually solves the
// instance under independent replay (the paper's definition of a solution).
// ---------------------------------------------------------------------------

struct GaSolvesCase {
  const char* name;
  int size;
  std::uint64_t seed;
};

// Print a case by its name: gtest's default dumps the struct's bytes, which
// include the address of `name` and so change from one process to the next.
void PrintTo(const GaSolvesCase& c, std::ostream* os) { *os << c.name; }

class GaValidityIsSound : public ::testing::TestWithParam<GaSolvesCase> {};

TEST_P(GaValidityIsSound, ReportedPlansReplay) {
  const auto param = GetParam();
  ga::GaConfig cfg;
  cfg.population_size = 60;
  cfg.generations = 30;
  cfg.phases = 4;
  cfg.initial_length = 12;
  cfg.max_length = 120;
  const domains::Hanoi h(param.size);
  const auto result = ga::run_multiphase(h, cfg, param.seed);
  if (result.valid) {
    EXPECT_TRUE(ga::plan_solves(h, h.initial_state(), result.plan));
    EXPECT_TRUE(h.is_goal(result.final_state));
  } else {
    // Never claim goal fitness 1 without validity.
    EXPECT_LT(result.goal_fitness, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    HanoiSweep, GaValidityIsSound,
    ::testing::Values(GaSolvesCase{"h3a", 3, 1}, GaSolvesCase{"h3b", 3, 2},
                      GaSolvesCase{"h4a", 4, 3}, GaSolvesCase{"h4b", 4, 4},
                      GaSolvesCase{"h5a", 5, 5}, GaSolvesCase{"h5b", 5, 6},
                      GaSolvesCase{"h6a", 6, 7}, GaSolvesCase{"h7a", 7, 8}),
    [](const auto& param_info) { return param_info.param.name; });

// ---------------------------------------------------------------------------
// P3: goal fitness is a normalized measure — in [0, 1], and exactly 1 only at
// goal states — across domains and random reachable states.
// ---------------------------------------------------------------------------

template <ga::PlanningProblem P>
void check_goal_fitness_range(const P& problem, std::uint64_t seed) {
  util::Rng rng(seed);
  auto s = problem.initial_state();
  std::vector<int> ops;
  for (int step = 0; step < 300; ++step) {
    const double f = problem.goal_fitness(s);
    ASSERT_GE(f, 0.0);
    ASSERT_LE(f, 1.0);
    if (problem.is_goal(s)) {
      ASSERT_DOUBLE_EQ(f, 1.0);
    } else {
      ASSERT_LT(f, 1.0);
    }
    problem.valid_ops(s, ops);
    if (ops.empty()) break;
    problem.apply(s, ops[rng.below(ops.size())]);
  }
}

class GoalFitnessRangeSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GoalFitnessRangeSeeds, HoldsOnAllDomains) {
  const auto seed = GetParam();
  check_goal_fitness_range(domains::Hanoi(4), seed);
  check_goal_fitness_range(domains::SlidingTile(3), seed);
  check_goal_fitness_range(domains::BlocksWorld::tower_instance(4), seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GoalFitnessRangeSeeds,
                         ::testing::Values(3, 5, 7, 9, 11, 13));

// ---------------------------------------------------------------------------
// P4: Hanoi goal-fitness is exactly Eq. 5 for arbitrary disk placements.
// ---------------------------------------------------------------------------

class HanoiEq5 : public ::testing::TestWithParam<int> {};

TEST_P(HanoiEq5, MatchesClosedForm) {
  const int n = GetParam();
  const domains::Hanoi h(n);
  util::Rng rng(static_cast<std::uint64_t>(n) * 101);
  auto s = h.initial_state();
  std::vector<int> ops;
  for (int step = 0; step < 200; ++step) {
    double weight_on_b = 0.0;
    for (int d = 1; d <= n; ++d) {
      if (h.stake_of(s, d) == 1) weight_on_b += std::pow(2.0, d - 1);
    }
    const double expected = weight_on_b / (std::pow(2.0, n) - 1.0);
    ASSERT_NEAR(h.goal_fitness(s), expected, 1e-12);
    h.valid_ops(s, ops);
    h.apply(s, ops[rng.below(ops.size())]);
  }
}

INSTANTIATE_TEST_SUITE_P(Disks, HanoiEq5, ::testing::Values(2, 3, 5, 7, 10));

// ---------------------------------------------------------------------------
// P5: tile goal-fitness matches Eq. 6 and random solvable boards stay within
// the bound D·T.
// ---------------------------------------------------------------------------

class TileEq6 : public ::testing::TestWithParam<int> {};

TEST_P(TileEq6, ManhattanWithinBoundAndFormulaHolds) {
  const int n = GetParam();
  const domains::SlidingTile p(n);
  util::Rng rng(static_cast<std::uint64_t>(n) * 7);
  const double bound = 2.0 * (n - 1) * (n * n - 1);
  for (int i = 0; i < 100; ++i) {
    const auto s = p.random_solvable(rng);
    const int md = p.manhattan(s);
    ASSERT_LE(md, bound);
    ASSERT_NEAR(p.goal_fitness(s), 1.0 - md / bound, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TileEq6, ::testing::Values(2, 3, 4, 5));

// ---------------------------------------------------------------------------
// P6: crossover preserves the gene multiset across the pair (random one-point)
// and never manufactures out-of-range genes, for any parent lengths.
// ---------------------------------------------------------------------------

struct XoverCase {
  std::size_t len_a;
  std::size_t len_b;
  std::uint64_t seed;
};

class CrossoverGeneConservation : public ::testing::TestWithParam<XoverCase> {};

TEST_P(CrossoverGeneConservation, MultisetPreserved) {
  const auto param = GetParam();
  util::Rng rng(param.seed);
  ga::Individual<domains::HanoiState> a, b;
  a.genes.resize(param.len_a);
  b.genes.resize(param.len_b);
  for (auto& g : a.genes) g = rng.uniform();
  for (auto& g : b.genes) g = rng.uniform();
  std::vector<double> before;
  before.insert(before.end(), a.genes.begin(), a.genes.end());
  before.insert(before.end(), b.genes.begin(), b.genes.end());
  std::sort(before.begin(), before.end());

  if (!ga::crossover_random(a, b, /*max_length=*/10000, rng)) {
    GTEST_SKIP() << "parents too short to cross";
  }
  std::vector<double> after;
  after.insert(after.end(), a.genes.begin(), a.genes.end());
  after.insert(after.end(), b.genes.begin(), b.genes.end());
  std::sort(after.begin(), after.end());
  EXPECT_EQ(before, after);
}

INSTANTIATE_TEST_SUITE_P(
    Lengths, CrossoverGeneConservation,
    ::testing::Values(XoverCase{2, 2, 1}, XoverCase{2, 50, 2},
                      XoverCase{50, 2, 3}, XoverCase{17, 23, 4},
                      XoverCase{100, 100, 5}, XoverCase{1, 10, 6},
                      XoverCase{3, 3, 7}, XoverCase{64, 8, 8}));

// ---------------------------------------------------------------------------
// P7: A* (admissible heuristic) matches the BFS optimum on random solvable
// 8-puzzles — the baseline substrate is internally consistent.
// ---------------------------------------------------------------------------

class AStarOptimality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AStarOptimality, MatchesBfs) {
  util::Rng rng(GetParam());
  const domains::SlidingTile gen(3);
  const auto start = gen.scrambled(14 + rng.below(8), rng);
  const domains::SlidingTile p(3, start);
  const auto b = search::bfs(p, start);
  const auto a = search::astar(p, start, [&](const domains::TileState& s) {
    return static_cast<double>(p.linear_conflict(s));
  });
  ASSERT_TRUE(b.found);
  ASSERT_TRUE(a.found);
  EXPECT_EQ(a.plan.size(), b.plan.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AStarOptimality,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

// ---------------------------------------------------------------------------
// P8: the sliding-tile solvable class is closed under moves and the parity
// check splits the state space exactly in half (verified on the 2x2 board by
// exhaustion).
// ---------------------------------------------------------------------------

TEST(TileParityExhaustive, TwoByTwoSplitsInHalf) {
  const domains::SlidingTile p(2);
  std::array<int, 4> perm{0, 1, 2, 3};
  int solvable_count = 0, total = 0;
  std::sort(perm.begin(), perm.end());
  do {
    domains::TileState s;
    for (int i = 0; i < 4; ++i) s.cells[i] = static_cast<std::uint8_t>(perm[i]);
    for (int i = 0; i < 4; ++i) {
      if (s.cells[i] == 0) s.blank = static_cast<std::uint8_t>(i);
    }
    ++total;
    solvable_count += p.solvable(s);
  } while (std::next_permutation(perm.begin(), perm.end()));
  EXPECT_EQ(total, 24);
  EXPECT_EQ(solvable_count, 12);
}

// ---------------------------------------------------------------------------
// P9: multi-phase concatenation invariant — replaying the concatenated plan
// always lands exactly on result.final_state, valid or not.
// ---------------------------------------------------------------------------

class MultiPhaseReplay : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultiPhaseReplay, PlanReplaysToFinalState) {
  const domains::Hanoi h(6);
  ga::GaConfig cfg;
  cfg.population_size = 40;
  cfg.generations = 10;
  cfg.phases = 4;
  cfg.initial_length = 20;
  cfg.max_length = 200;
  const auto result = ga::run_multiphase(h, cfg, GetParam());
  auto s = h.initial_state();
  for (const int op : result.plan) {
    ASSERT_TRUE(h.op_applicable(s, op));
    h.apply(s, op);
  }
  EXPECT_TRUE(s == result.final_state);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiPhaseReplay,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
