// Struct-of-arrays runner against golden trajectories: each directed case
// below replays a fixture recorded by the former vector-of-Individuals phase
// runner (tests/data/golden/, written by tests/golden/record_golden.cpp) and
// requires it byte for byte — same random draws, same per-generation stats,
// same best-of-phase genomes, same evaluation spend — plus a cold
// evaluate_into of every reported best genome equal to the evaluation the
// runner reported for it. Together they pin the evaluation pass over a SIMD
// kernel's LUT and over the problem itself, and lane-spliced reproduction,
// to one reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "../bench/without_kernel.hpp"
#include "core/engine.hpp"
#include "core/problem.hpp"
#include "domains/hanoi.hpp"
#include "domains/pocket_cube.hpp"
#include "domains/sliding_tile.hpp"
#include "domains/sokoban.hpp"
#include "golden/cases.hpp"
#include "grid/workflow.hpp"
#include "obs/metrics.hpp"
#include "scalar_kernel_hanoi.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

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
  // Kernel-less domains run the same evaluation pass over ProblemOps.
  static_assert(!ga::SimdDecodable<strips::Problem>);
  expect_golden({"strips_hanoi_generational", "sokoban_generational",
                 "navigation_generational", "blocks_generational",
                 "workflow_generational"});
}

TEST(SoaLayoutParity, ColdEvalAndBatchWidthOne) {
  expect_golden({"kernel_hanoi_cold_width1"});
}

TEST(SoaLayoutParity, ThreadPoolLanes) {
  // Pooled kernel passes: how prepare chunks and lane groups are dealt must
  // not perturb trajectories, and lane splicing must be race-free (TSan lane
  // runs this).
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

/// Everything a generation leaves behind that a thread count could perturb.
struct GenerationTrace {
  std::vector<ga::Genome> genomes;
  std::vector<std::vector<int>> ops;
  std::vector<double> fitness;
};

/// Runs `gens` generations of a phase of `problem` at population `pop` on
/// `threads` evaluation threads, requiring after every step_evaluate that
/// each slot carries exactly the cold evaluate_into of its genome.
template <typename P>
std::vector<GenerationTrace> run_checked(const P& problem,
                                         const ga::GaConfig& base,
                                         std::size_t pop, std::size_t threads,
                                         std::size_t gens) {
  ga::GaConfig cfg = base;
  cfg.population_size = pop;
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads);
  ga::PhaseRunner<P> runner(problem, cfg, pool.get());
  util::Rng rng(91);
  runner.init(problem.initial_state(), rng);
  ga::EvalContext<typename P::StateT> ctx;
  ctx.sync(&problem, ga::next_eval_epoch(), 0);
  ga::Evaluation<typename P::StateT> cold;
  std::vector<GenerationTrace> trace;
  for (std::size_t g = 0; g < gens; ++g) {
    runner.step_evaluate();
    const auto& popn = runner.population();
    GenerationTrace& t = trace.emplace_back();
    for (std::size_t i = 0; i < popn.slots(); ++i) {
      const auto genes = popn.genome(i);
      const auto& ev = popn.eval(i);
      ga::evaluate_into(problem, cfg, problem.initial_state(), genes, ctx,
                        cold);
      const std::string where = "pop " + std::to_string(pop) + " threads " +
                                std::to_string(threads) + " gen " +
                                std::to_string(g) + " slot " +
                                std::to_string(i);
      EXPECT_EQ(ev.ops, cold.ops) << where;
      EXPECT_EQ(ev.op_signatures, cold.op_signatures) << where;
      EXPECT_EQ(ev.fitness, cold.fitness) << where;
      EXPECT_EQ(ev.plan_cost, cold.plan_cost) << where;
      EXPECT_EQ(ev.goal_index, cold.goal_index) << where;
      EXPECT_EQ(ev.valid, cold.valid) << where;
      EXPECT_EQ(ev.dead_end, cold.dead_end) << where;
      t.genomes.emplace_back(genes.begin(), genes.end());
      t.ops.push_back(ev.ops);
      t.fitness.push_back(ev.fitness);
    }
    runner.step_reproduce(rng);
  }
  return trace;
}

template <typename P>
void expect_group_remainders_agree(
    const P& problem, const ga::GaConfig& cfg,
    std::initializer_list<std::size_t> pops = {1, 7, 9, 201}) {
  // Populations off the 8-lane group size leave a partial last group;
  // pooled passes deal the groups to 2 or 4 workers.
  for (const std::size_t pop : pops) {
    const auto serial = run_checked(problem, cfg, pop, 1, 8);
    for (const std::size_t threads : {2, 4}) {
      const auto pooled = run_checked(problem, cfg, pop, threads, 8);
      ASSERT_EQ(pooled.size(), serial.size());
      for (std::size_t g = 0; g < serial.size(); ++g) {
        EXPECT_EQ(pooled[g].genomes, serial[g].genomes)
            << "pop " << pop << " threads " << threads << " gen " << g;
        EXPECT_EQ(pooled[g].ops, serial[g].ops)
            << "pop " << pop << " threads " << threads << " gen " << g;
        EXPECT_EQ(pooled[g].fitness, serial[g].fitness)
            << "pop " << pop << " threads " << threads << " gen " << g;
      }
    }
  }
}

ga::GaConfig remainder_config() {
  ga::GaConfig cfg;
  cfg.crossover = ga::CrossoverKind::kMixed;
  cfg.initial_length = 63;
  cfg.max_length = 256;
  cfg.eval_checkpoint_stride = 4;
  cfg.stop_on_valid = false;
  return cfg;
}

const domains::Hanoi& hanoi6() {
  static const domains::Hanoi hanoi(6);
  return hanoi;
}

/// An n x n puzzle at the solvable scramble of seed 7, as a served
/// `tiles:N` request plans it.
domains::SlidingTile scrambled_tiles(int n) {
  util::Rng scramble(7);
  const domains::SlidingTile gen(n);
  return domains::SlidingTile(n, gen.random_solvable(scramble));
}

TEST(SoaLayoutParity, GroupRemaindersAndPooledGroupsVector) {
  // Valid-ops matching: the AVX-512 step where the CPU has it.
  expect_group_remainders_agree(hanoi6(), remainder_config());
}

TEST(SoaLayoutParity, GroupRemaindersAndPooledGroupsTiles) {
  // 15-puzzle boards as lane words on the AVX-512 step where the CPU has
  // it; a partial last group leaves all-zero words in its unused lanes.
  expect_group_remainders_agree(scrambled_tiles(4), remainder_config());
}

TEST(SoaLayoutParity, GroupRemaindersAndPooledGroupsSokoban) {
  // ProblemOps lanes: player-reachability valid ops through each worker's
  // valid-ops cache.
  static_assert(!ga::SimdDecodable<domains::Sokoban>);
  expect_group_remainders_agree(golden::sokoban(), remainder_config(),
                                {7, 201});
}

TEST(SoaLayoutParity, GroupRemaindersAndPooledGroupsWorkflow) {
  // ProblemOps lanes over heap-backed states: the grid workflow's bitset is
  // decoded in place and moved into each Evaluation.
  static_assert(!ga::SimdDecodable<grid::WorkflowProblem>);
  expect_group_remainders_agree(golden::workflow(), remainder_config(),
                                {7, 201});
}

TEST(SoaLayoutParity, GroupRemaindersAndPooledGroupsScalar) {
  // Exact-state matching records state hashes, so it always takes the
  // shared scalar loop.
  ga::GaConfig cfg = remainder_config();
  cfg.state_match = ga::StateMatchKind::kExactState;
  expect_group_remainders_agree(hanoi6(), cfg);
}

std::uint64_t counter_now(const char* name) {
  const auto snap = obs::snapshot_metrics();
  const auto* c = snap.find_counter(name);
  return c == nullptr ? 0 : c->value;
}

/// Hanoi-6 behind a kernel with only the scalar hooks: the kernel pass
/// decodes every lane on the shared scalar loop, whatever the CPU.
void expect_scalar_hooks_agree(const ga::GaConfig& cfg) {
  static const tests::ScalarKernelHanoi scalar_hanoi(6);
  static_assert(ga::SimdDecodable<tests::ScalarKernelHanoi>);
  const std::uint64_t lanes0 = counter_now("eval.simd_lanes_used");
  const std::uint64_t steps0 = counter_now("eval.simd_steps");
  expect_group_remainders_agree(scalar_hanoi, cfg);
  EXPECT_GT(counter_now("eval.simd_lanes_used"), lanes0)
      << "the runner did not take the kernel pass";
  EXPECT_EQ(counter_now("eval.simd_steps"), steps0)
      << "the scalar-hooks kernel reached the vector step";
  // Same problem, same draws: the trajectory is Hanoi-6's.
  for (const std::size_t pop : {7, 201}) {
    const auto scalar = run_checked(scalar_hanoi, cfg, pop, 1, 8);
    const auto hanoi = run_checked(hanoi6(), cfg, pop, 1, 8);
    ASSERT_EQ(scalar.size(), hanoi.size());
    for (std::size_t g = 0; g < hanoi.size(); ++g) {
      const std::string where =
          "pop " + std::to_string(pop) + " gen " + std::to_string(g);
      EXPECT_EQ(scalar[g].genomes, hanoi[g].genomes) << where;
      EXPECT_EQ(scalar[g].ops, hanoi[g].ops) << where;
      EXPECT_EQ(scalar[g].fitness, hanoi[g].fitness) << where;
    }
  }
}

TEST(KernelScalarHooks, GroupRemaindersValidOps) {
  expect_scalar_hooks_agree(remainder_config());
}

TEST(KernelScalarHooks, GroupRemaindersExactState) {
  ga::GaConfig cfg = remainder_config();
  cfg.state_match = ga::StateMatchKind::kExactState;
  expect_scalar_hooks_agree(cfg);
}

TEST(KernelDecode, LaneOccupancyHanoi7Pop200) {
  // Sorting the whole population longest-remaining-first keeps the 8 vector
  // lanes busy: ops_decoded / (8 * simd_steps) on the Hanoi-7 pop-200
  // planner config. Deterministic for a fixed seed.
  if (!util::has_avx512_decode()) {
    GTEST_SKIP() << "CPU without the AVX-512 decode";
  }
  const domains::Hanoi hanoi(7);
  ga::GaConfig cfg;
  cfg.population_size = 200;
  cfg.generations = 30;
  cfg.crossover = ga::CrossoverKind::kMixed;
  cfg.tournament_size = 2;
  cfg.initial_length = static_cast<std::size_t>(hanoi.optimal_length());
  cfg.max_length = 10 * cfg.initial_length;
  cfg.stop_on_valid = false;
  const std::uint64_t ops0 = counter_now("eval.ops_decoded");
  const std::uint64_t steps0 = counter_now("eval.simd_steps");
  ga::Engine<domains::Hanoi> engine(hanoi, cfg);
  util::Rng rng(7);
  engine.run_phase(hanoi.initial_state(), rng, false);
  const double ops = static_cast<double>(counter_now("eval.ops_decoded") - ops0);
  const double steps =
      static_cast<double>(counter_now("eval.simd_steps") - steps0);
  ASSERT_GT(steps, 0.0);
  const double occupancy = ops / (8.0 * steps);
  RecordProperty("occupancy", std::to_string(occupancy));
  // Measured 0.910 for this seed (0.959 while vector lanes still ran the
  // scalar fast-forward, whose ops counted here too); 8-slot batches ran at
  // about 0.44.
  EXPECT_GT(occupancy, 0.9);
}

/// The fast-forward genes the kernel pass skipped over `gens` generations of
/// a serial phase of `problem` (eval.ff_genes_skipped, read around each
/// step_evaluate only).
template <typename P>
std::uint64_t kernel_ff_skipped(const P& problem, const ga::GaConfig& base,
                                std::size_t pop, std::size_t gens) {
  ga::GaConfig cfg = base;
  cfg.population_size = pop;
  ga::PhaseRunner<P> runner(problem, cfg, nullptr);
  util::Rng rng(91);
  runner.init(problem.initial_state(), rng);
  std::uint64_t skipped = 0;
  for (std::size_t g = 0; g < gens; ++g) {
    const std::uint64_t ff0 = counter_now("eval.ff_genes_skipped");
    runner.step_evaluate();
    skipped += counter_now("eval.ff_genes_skipped") - ff0;
    runner.step_reproduce(rng);
  }
  return skipped;
}

/// Valid-ops matching on the AVX-512 step: the pass resumes LutOps vector
/// lanes at their checkpoint without the fast-forward, and its Evaluations
/// still equal those of the same pass over ProblemOps (the same runner over
/// WithoutKernel<P>, whose lanes do fast-forward), generation by generation
/// on the same trajectory.
template <typename P>
void expect_vector_lanes_match_per_slot(const P& problem,
                                        const ga::GaConfig& cfg) {
  using PerSlot = bench::WithoutKernel<P>;
  const PerSlot per_slot(problem);
  ga::PhaseRunner<P> kernel(problem, cfg, nullptr);
  ga::PhaseRunner<PerSlot> slotwise(per_slot, cfg, nullptr);
  util::Rng rng_k(17);
  util::Rng rng_s(17);
  kernel.init(problem.initial_state(), rng_k);
  slotwise.init(per_slot.initial_state(), rng_s);
  std::uint64_t kernel_ff = 0, kernel_partial = 0, kernel_steps = 0,
                slot_ff = 0;
  for (std::size_t g = 0; g < 12; ++g) {
    const std::uint64_t ff0 = counter_now("eval.ff_genes_skipped");
    const std::uint64_t partial0 = counter_now("eval.resume_partial");
    const std::uint64_t steps0 = counter_now("eval.simd_steps");
    kernel.step_evaluate();
    const std::uint64_t ff1 = counter_now("eval.ff_genes_skipped");
    kernel_ff += ff1 - ff0;
    kernel_partial += counter_now("eval.resume_partial") - partial0;
    kernel_steps += counter_now("eval.simd_steps") - steps0;
    slotwise.step_evaluate();
    slot_ff += counter_now("eval.ff_genes_skipped") - ff1;
    const auto& kp = kernel.population();
    const auto& sp = slotwise.population();
    ASSERT_EQ(kp.slots(), sp.slots());
    for (std::size_t i = 0; i < kp.slots(); ++i) {
      const auto& k = kp.eval(i);
      const auto& e = sp.eval(i);
      const std::string where =
          "gen " + std::to_string(g) + " slot " + std::to_string(i);
      ASSERT_TRUE(std::ranges::equal(kp.genome(i), sp.genome(i))) << where;
      EXPECT_EQ(k.ops, e.ops) << where;
      EXPECT_EQ(k.op_signatures, e.op_signatures) << where;
      EXPECT_EQ(k.checkpoint_states, e.checkpoint_states) << where;
      EXPECT_EQ(k.checkpoint_costs, e.checkpoint_costs) << where;
      EXPECT_EQ(k.plan_cost, e.plan_cost) << where;
      EXPECT_EQ(k.fitness, e.fitness) << where;
      EXPECT_EQ(k.goal_index, e.goal_index) << where;
      EXPECT_EQ(k.valid, e.valid) << where;
      EXPECT_EQ(k.dead_end, e.dead_end) << where;
      EXPECT_TRUE(k.final_state == e.final_state) << where;
    }
    kernel.step_reproduce(rng_k);
    slotwise.step_reproduce(rng_s);
  }
  EXPECT_GT(kernel_steps, 0u) << "no lane took the vector step";
  EXPECT_GT(kernel_partial, 0u) << "no kernel lane resumed from a checkpoint";
  EXPECT_GT(slot_ff, 0u) << "the ProblemOps lanes never fast-forwarded";
  EXPECT_EQ(kernel_ff, 0u) << "a vector lane ran the fast-forward";
}

ga::GaConfig dispatch_config(std::size_t initial_length) {
  ga::GaConfig cfg;
  cfg.population_size = 64;
  cfg.crossover = ga::CrossoverKind::kMixed;
  cfg.initial_length = initial_length;
  cfg.max_length = 10 * cfg.initial_length;
  cfg.stop_on_valid = false;
  return cfg;
}

TEST(KernelDispatch, VectorLanesSkipFastForwardHanoi7) {
  if (!util::has_avx512_decode()) {
    GTEST_SKIP() << "CPU without the AVX-512 decode";
  }
  const domains::Hanoi hanoi(7);
  expect_vector_lanes_match_per_slot(
      hanoi,
      dispatch_config(static_cast<std::size_t>(hanoi.optimal_length())));
}

TEST(KernelDispatch, VectorLanesSkipFastForwardTiles) {
  // The 8- and 15-puzzle boards pack into one lane word (TileKernel's
  // to_word/from_word), so their lanes take the same vector step.
  if (!util::has_avx512_decode()) {
    GTEST_SKIP() << "CPU without the AVX-512 decode";
  }
  for (const int n : {3, 4}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    expect_vector_lanes_match_per_slot(
        scrambled_tiles(n),
        dispatch_config(static_cast<std::size_t>(4 * n * n)));
  }
}

TEST(KernelDispatch, ScalarLoopLanesFastForward) {
  // Lanes that decode on the shared scalar loop keep the fast-forward: a
  // kernel with only the scalar hooks, and exact-state matching (which
  // records state hashes, so it never takes the vector step).
  static const tests::ScalarKernelHanoi scalar_hanoi(6);
  EXPECT_GT(kernel_ff_skipped(scalar_hanoi, remainder_config(), 64, 12), 0u);
  ga::GaConfig exact = remainder_config();
  exact.state_match = ga::StateMatchKind::kExactState;
  EXPECT_GT(kernel_ff_skipped(hanoi6(), exact, 64, 12), 0u);
  // The 24-puzzle's 25 cells do not fit a lane word: its lanes stay on the
  // shared loop on every CPU, with the fast-forward and no vector step.
  const std::uint64_t steps0 = counter_now("eval.simd_steps");
  EXPECT_GT(
      kernel_ff_skipped(scrambled_tiles(5), dispatch_config(100), 64, 12),
      0u);
  EXPECT_EQ(counter_now("eval.simd_steps"), steps0)
      << "a 24-puzzle lane reached the vector step";
}

// The randomized domain/config sweep lives on the property substrate: see
// PropEngine.ReportedGenomesMatchColdEvaluation in test_prop_engine.cpp.

}  // namespace
