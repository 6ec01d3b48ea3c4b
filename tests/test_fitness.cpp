// Fitness scoring (Eqs. 1-4) and the GaConfig validation surface.
#include <gtest/gtest.h>

#include "analysis/config_lint.hpp"
#include "core/fitness.hpp"
#include "domains/hanoi.hpp"
#include "util/rng.hpp"

namespace {

using namespace gaplan;

TEST(CostFitness, NormalizedLengthVariant) {
  ga::GaConfig cfg;
  cfg.cost_fitness = ga::CostFitnessKind::kNormalizedLength;
  cfg.max_length = 100;
  EXPECT_DOUBLE_EQ(ga::cost_fitness(cfg, 0.0, 0), 1.0);
  EXPECT_DOUBLE_EQ(ga::cost_fitness(cfg, 50.0, 50), 0.5);
  EXPECT_DOUBLE_EQ(ga::cost_fitness(cfg, 100.0, 100), 0.0);
  // Lengths beyond MaxLen clamp at zero rather than going negative.
  EXPECT_DOUBLE_EQ(ga::cost_fitness(cfg, 200.0, 200), 0.0);
}

TEST(CostFitness, InverseCostVariant) {
  ga::GaConfig cfg;
  cfg.cost_fitness = ga::CostFitnessKind::kInverseCost;
  EXPECT_DOUBLE_EQ(ga::cost_fitness(cfg, 0.0, 0), 1.0);
  EXPECT_DOUBLE_EQ(ga::cost_fitness(cfg, 1.0, 1), 0.5);
  EXPECT_DOUBLE_EQ(ga::cost_fitness(cfg, 9.0, 9), 0.1);
  // Negative costs are clamped (defensive).
  EXPECT_DOUBLE_EQ(ga::cost_fitness(cfg, -5.0, 0), 1.0);
}

TEST(CostFitness, ShorterPlansScoreHigherInBothVariants) {
  for (const auto kind : {ga::CostFitnessKind::kNormalizedLength,
                          ga::CostFitnessKind::kInverseCost}) {
    ga::GaConfig cfg;
    cfg.cost_fitness = kind;
    cfg.max_length = 64;
    EXPECT_GT(ga::cost_fitness(cfg, 5.0, 5), ga::cost_fitness(cfg, 40.0, 40));
  }
}

TEST(Evaluate, Eq4CombinationForIndirect) {
  const domains::Hanoi h(3);
  ga::GaConfig cfg;
  cfg.goal_weight = 0.9;
  cfg.cost_weight = 0.1;
  cfg.max_length = 70;
  std::vector<int> scratch;
  const ga::Genome g{0.0, 0.0, 0.0};  // three deterministic moves
  const auto ev = ga::evaluate(h, cfg, h.initial_state(), g, scratch);
  EXPECT_DOUBLE_EQ(ev.fitness, 0.9 * ev.goal_fit + 0.1 * ev.cost_fit);
  EXPECT_DOUBLE_EQ(ev.match_fit, 1.0);
}

TEST(Evaluate, ValidPlanGetsGoalFitnessOne) {
  const domains::Hanoi h(1);
  ga::GaConfig cfg;
  std::vector<int> scratch;
  const auto ev = ga::evaluate(h, cfg, h.initial_state(), {0.0}, scratch);
  EXPECT_TRUE(ev.valid);
  EXPECT_DOUBLE_EQ(ev.goal_fit, 1.0);
  EXPECT_GT(ev.fitness, 0.9);
}

TEST(Evaluate, DirectEncodingNormalizesWithMatchWeight) {
  const domains::Hanoi h(3);
  ga::GaConfig cfg;
  cfg.encoding = ga::EncodingKind::kDirect;
  cfg.match_weight = 0.5;
  cfg.goal_weight = 0.9;
  cfg.cost_weight = 0.1;
  std::vector<int> scratch;
  const ga::Genome g{0.12, 0.01};  // one valid, one invalid global op
  const auto ev = ga::evaluate(h, cfg, h.initial_state(), g, scratch);
  const double expected =
      (0.5 * ev.match_fit + 0.9 * ev.goal_fit + 0.1 * ev.cost_fit) / 1.5;
  EXPECT_DOUBLE_EQ(ev.fitness, expected);
  EXPECT_LT(ev.match_fit, 1.0);
}

TEST(Evaluate, FitnessMonotoneInGoalProgress) {
  // A state with more weight on B scores strictly higher overall fitness
  // (same plan length).
  const domains::Hanoi h(4);
  ga::GaConfig cfg;
  std::vector<int> scratch;
  // 0.0-gene: first valid op. One move puts d1 on B; compare to moving d1 to C.
  const auto toward = ga::evaluate(h, cfg, h.initial_state(), {0.0}, scratch);
  const auto away = ga::evaluate(h, cfg, h.initial_state(), {0.9}, scratch);
  EXPECT_GT(toward.goal_fit, away.goal_fit);
  EXPECT_GT(toward.fitness, away.fitness);
}

TEST(GaConfig, ValidateAcceptsPaperSettings) {
  ga::GaConfig cfg;  // defaults are the paper's Table 1/3 settings
  EXPECT_NO_THROW(analysis::enforce_config(cfg, "test"));
}

TEST(GaConfig, ValidateRejectsBadValues) {
  ga::GaConfig cfg;
  cfg.population_size = 1;
  EXPECT_THROW(analysis::enforce_config(cfg, "test"), std::invalid_argument);
  cfg = {};
  cfg.population_size = 31;  // odd
  EXPECT_THROW(analysis::enforce_config(cfg, "test"), std::invalid_argument);
  cfg = {};
  cfg.crossover_rate = 1.5;
  EXPECT_THROW(analysis::enforce_config(cfg, "test"), std::invalid_argument);
  cfg = {};
  cfg.mutation_rate = -0.1;
  EXPECT_THROW(analysis::enforce_config(cfg, "test"), std::invalid_argument);
  cfg = {};
  cfg.max_length = 1;
  cfg.initial_length = 10;
  EXPECT_THROW(analysis::enforce_config(cfg, "test"), std::invalid_argument);
  cfg = {};
  cfg.goal_weight = 0.0;
  cfg.cost_weight = 0.0;
  EXPECT_THROW(analysis::enforce_config(cfg, "test"), std::invalid_argument);
  cfg = {};
  cfg.tournament_size = 0;
  EXPECT_THROW(analysis::enforce_config(cfg, "test"), std::invalid_argument);
  cfg = {};
  cfg.phases = 0;
  EXPECT_THROW(analysis::enforce_config(cfg, "test"), std::invalid_argument);
}

TEST(GaConfig, SummaryMentionsKeyKnobs) {
  ga::GaConfig cfg;
  const auto s = cfg.summary();
  EXPECT_NE(s.find("pop=200"), std::string::npos);
  EXPECT_NE(s.find("xover=random"), std::string::npos);
  EXPECT_NE(s.find("enc=indirect"), std::string::npos);
}

TEST(GaConfig, EnumNames) {
  EXPECT_STREQ(ga::to_string(ga::CrossoverKind::kStateAware), "state-aware");
  EXPECT_STREQ(ga::to_string(ga::CrossoverKind::kMixed), "mixed");
  EXPECT_STREQ(ga::to_string(ga::CrossoverKind::kUniform), "uniform");
  EXPECT_STREQ(ga::to_string(ga::EncodingKind::kDirect), "direct");
  EXPECT_STREQ(ga::to_string(ga::CostFitnessKind::kInverseCost), "inverse-cost");
  EXPECT_STREQ(ga::to_string(ga::SelectionKind::kRoulette), "roulette");
}

}  // namespace
