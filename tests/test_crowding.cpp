// Deterministic crowding replacement (extension): niche preservation against
// the premature-convergence dynamics analysed in EXPERIMENTS.md.
#include <gtest/gtest.h>

#include <unordered_set>

#include "core/engine.hpp"
#include "core/multiphase.hpp"
#include "domains/hanoi.hpp"
#include "domains/sliding_tile.hpp"

namespace {

using namespace gaplan;
using domains::Hanoi;

ga::GaConfig crowding_config() {
  ga::GaConfig cfg;
  cfg.population_size = 60;
  cfg.generations = 50;
  cfg.initial_length = 29;
  cfg.max_length = 290;
  cfg.replacement = ga::ReplacementKind::kCrowding;
  cfg.stop_on_valid = false;
  return cfg;
}

TEST(Crowding, PopulationSizeConserved) {
  const Hanoi h(4);
  auto cfg = crowding_config();
  cfg.initial_length = 15;
  cfg.max_length = 150;
  ga::PhaseRunner<Hanoi> runner(h, cfg, nullptr);
  util::Rng rng(1);
  runner.init(h.initial_state(), rng);
  for (int g = 0; g < 10; ++g) {
    runner.step_evaluate();
    runner.step_reproduce(rng);
    EXPECT_EQ(runner.population().slots(), cfg.population_size);
  }
}

TEST(Crowding, BestFitnessNeverDecreases) {
  // A child only displaces a parent when at least as good, so crowding is
  // inherently elitist (unlike plain generational replacement).
  const Hanoi h(5);
  auto cfg = crowding_config();
  cfg.initial_length = 31;
  cfg.max_length = 310;
  ga::Engine<Hanoi> engine(h, cfg);
  util::Rng rng(2);
  const auto result = engine.run_phase(h.initial_state(), rng, false);
  for (std::size_t g = 1; g < result.history.size(); ++g) {
    EXPECT_GE(result.history[g].best_fitness,
              result.history[g - 1].best_fitness - 1e-12);
  }
}

TEST(Crowding, MaintainsMoreGenomeLengthDiversity) {
  // On an MD-deceptive tile instance (adjacent transpositions), generational
  // replacement collapses genome lengths; crowding keeps the spread alive.
  const domains::SlidingTile gen(3);
  // The known-deceptive board from the calibration study: MD 5, optimal far
  // beyond (2-1 and 7-6 transposed, 8 displaced).
  const auto board = gen.board({2, 1, 3, 4, 5, 0, 8, 7, 6});
  ASSERT_TRUE(gen.solvable(board));
  const domains::SlidingTile puzzle(3, board);

  auto length_spread = [&](ga::ReplacementKind replacement) {
    auto cfg = crowding_config();
    cfg.replacement = replacement;
    cfg.generations = 40;
    ga::PhaseRunner<domains::SlidingTile> runner(puzzle, cfg, nullptr);
    util::Rng rng(3);
    runner.init(puzzle.initial_state(), rng);
    for (std::size_t g = 0; g < cfg.generations; ++g) {
      runner.step_evaluate();
      if (g + 1 < cfg.generations) runner.step_reproduce(rng);
    }
    std::unordered_set<std::size_t> lengths;
    const auto& pop = runner.population();
    for (std::size_t i = 0; i < pop.slots(); ++i) lengths.insert(pop.len(i));
    return lengths.size();
  };
  EXPECT_GT(length_spread(ga::ReplacementKind::kCrowding),
            length_spread(ga::ReplacementKind::kGenerational));
}

TEST(Crowding, StillSolvesStandardInstances) {
  const Hanoi h(4);
  auto cfg = crowding_config();
  cfg.initial_length = 15;
  cfg.max_length = 150;
  cfg.phases = 4;
  cfg.generations = 40;
  int solved = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto result = ga::run_multiphase(h, cfg, seed);
    if (result.valid) {
      ++solved;
      EXPECT_TRUE(ga::plan_solves(h, h.initial_state(), result.plan));
    }
  }
  EXPECT_GE(solved, 2);
}

TEST(Crowding, SummaryMentionsReplacement) {
  auto cfg = crowding_config();
  EXPECT_NE(cfg.summary().find("repl=crowding"), std::string::npos);
  cfg.replacement = ga::ReplacementKind::kGenerational;
  EXPECT_EQ(cfg.summary().find("repl="), std::string::npos);
}

}  // namespace
