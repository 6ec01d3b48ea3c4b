// Parallel-evaluation determinism and generation-stat invariants across
// domains and operator settings (TEST_P sweeps).
#include <gtest/gtest.h>

#include <ostream>

#include "core/engine.hpp"
#include "core/island.hpp"
#include "domains/hanoi.hpp"
#include "domains/pocket_cube.hpp"
#include "grid/scenario.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace gaplan;

// ---------------------------------------------------------------------------
// Parallel fitness evaluation must be bit-identical to serial, including on
// heap-allocated states (the workflow problem's bitsets).
// ---------------------------------------------------------------------------

class ParallelConsistency : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelConsistency, WorkflowProblemMatchesSerial) {
  const auto scenario = grid::image_pipeline();
  const grid::ResourcePool pool = grid::demo_pool();
  const auto problem = scenario.problem(pool);
  ga::GaConfig cfg;
  cfg.population_size = 40;
  cfg.generations = 15;
  cfg.initial_length = 8;
  cfg.max_length = 32;
  cfg.stop_on_valid = false;

  util::ThreadPool workers(4);
  ga::Engine<grid::WorkflowProblem> serial(problem, cfg, nullptr);
  ga::Engine<grid::WorkflowProblem> parallel(problem, cfg, &workers);
  util::Rng r1(GetParam()), r2(GetParam());
  const auto a = serial.run_phase(problem.initial_state(), r1, false);
  const auto b = parallel.run_phase(problem.initial_state(), r2, false);
  EXPECT_EQ(a.best.genes, b.best.genes);
  EXPECT_DOUBLE_EQ(a.best.eval.fitness, b.best.eval.fitness);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t g = 0; g < a.history.size(); ++g) {
    EXPECT_DOUBLE_EQ(a.history[g].mean_fitness, b.history[g].mean_fitness);
  }
}

TEST_P(ParallelConsistency, PocketCubeMatchesSerial) {
  domains::PocketCube cube;
  util::Rng scramble_rng(GetParam() * 3);
  cube.set_initial(cube.scrambled(6, scramble_rng));
  ga::GaConfig cfg;
  cfg.population_size = 30;
  cfg.generations = 10;
  cfg.initial_length = 12;
  cfg.max_length = 60;
  cfg.stop_on_valid = false;

  util::ThreadPool workers(3);
  ga::Engine<domains::PocketCube> serial(cube, cfg, nullptr);
  ga::Engine<domains::PocketCube> parallel(cube, cfg, &workers);
  util::Rng r1(GetParam()), r2(GetParam());
  const auto a = serial.run_phase(cube.initial_state(), r1, false);
  const auto b = parallel.run_phase(cube.initial_state(), r2, false);
  EXPECT_EQ(a.best.genes, b.best.genes);
  EXPECT_DOUBLE_EQ(a.best.eval.fitness, b.best.eval.fitness);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelConsistency, ::testing::Values(1, 7, 23));

// ---------------------------------------------------------------------------
// GenerationStat invariants hold across crossovers, replacement schemes,
// and encodings.
// ---------------------------------------------------------------------------

struct StatCase {
  const char* name;
  ga::CrossoverKind crossover;
  ga::ReplacementKind replacement;
  ga::EncodingKind encoding;
};

// Print a case by its name: gtest's default dumps the struct's bytes, which
// include the address of `name` and so change from one process to the next.
void PrintTo(const StatCase& c, std::ostream* os) { *os << c.name; }

class GenerationStatInvariants : public ::testing::TestWithParam<StatCase> {};

TEST_P(GenerationStatInvariants, HoldOnHanoi) {
  const auto param = GetParam();
  const domains::Hanoi h(5);
  ga::GaConfig cfg;
  cfg.population_size = 40;
  cfg.generations = 25;
  cfg.initial_length = 31;
  cfg.max_length = 310;
  cfg.crossover = param.crossover;
  cfg.replacement = param.replacement;
  cfg.encoding = param.encoding;
  cfg.stop_on_valid = false;
  ga::Engine<domains::Hanoi> engine(h, cfg);
  util::Rng rng(5);
  const auto result = engine.run_phase(h.initial_state(), rng, false);
  ASSERT_EQ(result.history.size(), cfg.generations);
  for (const auto& stat : result.history) {
    EXPECT_GE(stat.best_fitness, stat.mean_fitness - 1e-12);
    EXPECT_GE(stat.best_fitness, 0.0);
    EXPECT_LE(stat.best_fitness, 1.0 + 1e-12);
    EXPECT_GE(stat.best_goal_fit, 0.0);
    EXPECT_LE(stat.best_goal_fit, 1.0 + 1e-12);
    EXPECT_GE(stat.mean_length, 1.0);
    EXPECT_LE(stat.mean_length, static_cast<double>(cfg.max_length) + 1e-9);
    EXPECT_LE(stat.valid_count, cfg.population_size);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, GenerationStatInvariants,
    ::testing::Values(
        StatCase{"random_gen", ga::CrossoverKind::kRandom,
                 ga::ReplacementKind::kGenerational, ga::EncodingKind::kIndirect},
        StatCase{"sa_gen", ga::CrossoverKind::kStateAware,
                 ga::ReplacementKind::kGenerational, ga::EncodingKind::kIndirect},
        StatCase{"mixed_crowd", ga::CrossoverKind::kMixed,
                 ga::ReplacementKind::kCrowding, ga::EncodingKind::kIndirect},
        StatCase{"uniform_gen", ga::CrossoverKind::kUniform,
                 ga::ReplacementKind::kGenerational, ga::EncodingKind::kIndirect},
        StatCase{"random_direct", ga::CrossoverKind::kRandom,
                 ga::ReplacementKind::kGenerational, ga::EncodingKind::kDirect},
        StatCase{"crowd_direct", ga::CrossoverKind::kRandom,
                 ga::ReplacementKind::kCrowding, ga::EncodingKind::kDirect}),
    [](const auto& param_info) { return param_info.param.name; });

// ---------------------------------------------------------------------------
// Island model on the workflow substrate (states with heap storage).
// ---------------------------------------------------------------------------

TEST(IslandWorkflow, SolvesPipelineAcrossIslands) {
  const auto scenario = grid::image_pipeline();
  const grid::ResourcePool pool = grid::demo_pool();
  const auto problem = scenario.problem(pool);
  ga::GaConfig cfg;
  cfg.population_size = 40;
  cfg.generations = 60;
  cfg.initial_length = 8;
  cfg.max_length = 32;
  ga::IslandConfig icfg;
  icfg.islands = 3;
  icfg.migration_interval = 10;
  util::Rng rng(9);
  const auto result = ga::run_islands(problem, cfg, icfg, rng);
  ASSERT_TRUE(result.found_valid);
  EXPECT_TRUE(
      ga::plan_solves(problem, problem.initial_state(), result.best.eval.ops));
}

}  // namespace
