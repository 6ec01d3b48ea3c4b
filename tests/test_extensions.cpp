// GA extensions beyond the paper: elitism and greedy population seeding.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/multiphase.hpp"
#include "domains/hanoi.hpp"
#include "domains/navigation.hpp"
#include "domains/sliding_tile.hpp"

namespace {

using namespace gaplan;
using domains::Hanoi;

TEST(Elitism, ConfigValidation) {
  ga::GaConfig cfg;
  cfg.population_size = 10;
  cfg.elite_count = 10;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.elite_count = 9;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Elitism, BestFitnessNeverDecreasesAcrossGenerations) {
  const Hanoi h(5);
  ga::GaConfig cfg;
  cfg.population_size = 50;
  cfg.generations = 40;
  cfg.initial_length = 31;
  cfg.max_length = 310;
  cfg.elite_count = 2;
  cfg.stop_on_valid = false;
  ga::Engine<Hanoi> engine(h, cfg);
  util::Rng rng(1);
  const auto result = engine.run_phase(h.initial_state(), rng, false);
  for (std::size_t g = 1; g < result.history.size(); ++g) {
    EXPECT_GE(result.history[g].best_fitness,
              result.history[g - 1].best_fitness - 1e-12)
        << "generation " << g;
  }
}

TEST(Elitism, WithoutItBestFitnessCanDrop) {
  // Sanity check that the previous test is meaningful: plain generational
  // replacement does occasionally lose the best individual.
  const Hanoi h(6);
  ga::GaConfig cfg;
  cfg.population_size = 20;
  cfg.generations = 60;
  cfg.initial_length = 63;
  cfg.max_length = 630;
  cfg.elite_count = 0;
  cfg.stop_on_valid = false;
  bool dropped = false;
  for (std::uint64_t seed = 1; seed <= 10 && !dropped; ++seed) {
    ga::Engine<Hanoi> engine(h, cfg);
    util::Rng rng(seed);
    const auto result = engine.run_phase(h.initial_state(), rng, false);
    for (std::size_t g = 1; g < result.history.size(); ++g) {
      if (result.history[g].best_fitness <
          result.history[g - 1].best_fitness - 1e-12) {
        dropped = true;
        break;
      }
    }
  }
  EXPECT_TRUE(dropped);
}

TEST(Seeding, ConfigValidation) {
  ga::GaConfig cfg;
  cfg.seed_fraction = 1.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.seed_fraction = 0.5;
  cfg.seed_greediness = -0.1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Seeding, RaisesInitialMeanFitness) {
  const Hanoi h(6);
  ga::GaConfig base;
  base.population_size = 100;
  base.generations = 1;
  base.initial_length = 63;
  base.max_length = 630;
  base.stop_on_valid = false;

  auto gen0_mean = [&](double fraction) {
    ga::GaConfig cfg = base;
    cfg.seed_fraction = fraction;
    ga::PhaseRunner<Hanoi> runner(h, cfg, nullptr);
    util::Rng rng(7);
    runner.init(h.initial_state(), rng);
    return runner.step_evaluate().mean_fitness;
  };
  EXPECT_GT(gen0_mean(0.5), gen0_mean(0.0));
}

TEST(Seeding, FullyGreedySeedSolvesMonotoneDomains) {
  // On a corridor navigation instance goal fitness is monotone along the
  // solution, so a fully greedy seed walks straight to the goal. (On Hanoi it
  // would NOT — Eq. 5's deceptive trap — which is exactly why seeding mixes
  // greedy and random choices.)
  const gaplan::domains::Navigation nav(7, 1, {}, {0}, {6});
  ga::GaConfig cfg;
  cfg.population_size = 10;
  cfg.generations = 1;
  cfg.initial_length = 10;
  cfg.max_length = 100;
  cfg.seed_fraction = 1.0;
  cfg.seed_greediness = 1.0;
  cfg.stop_on_valid = false;
  ga::PhaseRunner<gaplan::domains::Navigation> runner(nav, cfg, nullptr);
  util::Rng rng(3);
  runner.init(nav.initial_state(), rng);
  const auto stat = runner.step_evaluate();
  EXPECT_EQ(stat.valid_count, 10u);
}

TEST(Seeding, SeededGenomesDecodeToGreedyChoices) {
  const Hanoi h(4);
  ga::GaConfig cfg;
  cfg.population_size = 10;
  cfg.generations = 1;
  cfg.initial_length = 15;
  cfg.max_length = 150;
  cfg.seed_fraction = 1.0;
  cfg.seed_greediness = 1.0;
  cfg.stop_on_valid = false;
  ga::PhaseRunner<Hanoi> runner(h, cfg, nullptr);
  util::Rng rng(5);
  runner.init(h.initial_state(), rng);
  runner.step_evaluate();
  // Every fully-greedy individual applies the locally-best move each step.
  const auto& pop = runner.population();
  for (std::size_t i = 0; i < pop.slots(); ++i) {
    auto s = h.initial_state();
    std::vector<int> ops;
    for (const int op : pop.eval(i).ops) {
      h.valid_ops(s, ops);
      double best = -1.0;
      int best_op = ops.front();
      for (const int candidate : ops) {
        auto next = s;
        h.apply(next, candidate);
        if (h.goal_fitness(next) > best) {
          best = h.goal_fitness(next);
          best_op = candidate;
        }
      }
      ASSERT_EQ(op, best_op);
      h.apply(s, op);
    }
  }
}

TEST(Seeding, HelpsMultiphaseOnHanoi) {
  const Hanoi h(6);
  ga::GaConfig base;
  base.population_size = 60;
  base.generations = 25;
  base.phases = 4;
  base.initial_length = 63;
  base.max_length = 630;

  int plain = 0, seeded = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    plain += ga::run_multiphase(h, base, seed).valid;
    ga::GaConfig cfg = base;
    cfg.seed_fraction = 0.25;
    seeded += ga::run_multiphase(h, cfg, seed).valid;
  }
  EXPECT_GE(seeded, plain);
}

}  // namespace
