// Incremental-evaluation parity: resumed decodes (dirty-prefix restart from
// checkpointed states) and transposition-cached decodes must be bit-identical
// to a cold decode of the same genome — across epoch boundaries and at the
// engine level (serial and pooled). The randomized resume-chain fuzz that
// used to live here moved onto the property substrate: see
// PropCore.ResumeDecodeMatchesColdDecode in test_prop_core.cpp, which covers
// random domains, decode options, and evolution-shaped edit chains with
// shrinking and GAPLAN_PROP_SEED replay.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/decoder.hpp"
#include "core/engine.hpp"
#include "core/eval_cache.hpp"
#include "domains/hanoi.hpp"
#include "domains/hanoi_strips.hpp"
#include "domains/sokoban.hpp"
#include "grid/scenario_reader.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace gaplan;
using ga::Genome;

Genome random_genome(std::size_t len, util::Rng& rng) {
  Genome g(len);
  for (auto& x : g) x = rng.uniform();
  return g;
}

// Exact-equality comparison of everything a decode produces. dead_end is
// deliberately excluded: it records a property of the final *state* (empty
// valid-op set) and a whole-evaluation reuse may legitimately know it when a
// cold decode of an exactly-exhausted genome never probed.
template <typename State>
void expect_same_decode(const ga::Evaluation<State>& got,
                        const ga::Evaluation<State>& want) {
  EXPECT_EQ(got.valid, want.valid);
  EXPECT_EQ(got.goal_index, want.goal_index);
  EXPECT_EQ(got.effective_length, want.effective_length);
  EXPECT_EQ(got.match_fit, want.match_fit);
  EXPECT_EQ(got.plan_cost, want.plan_cost);
  EXPECT_EQ(got.ops, want.ops);
  EXPECT_EQ(got.state_hashes, want.state_hashes);
  EXPECT_EQ(got.op_signatures, want.op_signatures);
  EXPECT_EQ(got.checkpoint_stride, want.checkpoint_stride);
  EXPECT_EQ(got.checkpoint_costs, want.checkpoint_costs);
  ASSERT_EQ(got.checkpoint_states.size(), want.checkpoint_states.size());
  for (std::size_t k = 0; k < got.checkpoint_states.size(); ++k) {
    EXPECT_TRUE(got.checkpoint_states[k] == want.checkpoint_states[k]);
  }
  EXPECT_TRUE(got.final_state == want.final_state);
  EXPECT_TRUE(got.decoded);
}

TEST(IncrementalDecodeParity, CacheCannotServeAcrossEpochs) {
  // Two Sokoban levels whose states collide (same boxes/player coordinates,
  // different walls) must never share cache entries: sync() with a new epoch
  // clears the per-thread cache even at a recycled problem address.
  const domains::Sokoban a({
      "#####",
      "#@$o#",
      "#####",
  });
  const domains::Sokoban b({
      "######",
      "#@$.o#",
      "######",
  });
  ga::DecodeOptions opt;
  ga::EvalContext<domains::SokobanState> ctx;
  std::vector<int> cold_scratch;
  util::Rng rng(3);
  const Genome g = random_genome(12, rng);
  for (int round = 0; round < 3; ++round) {
    ga::Evaluation<domains::SokobanState> ev;
    ctx.sync(&a, ga::next_eval_epoch(), 64);
    ga::decode_indirect_into(a, a.initial_state(), g, opt, ctx, ev);
    expect_same_decode(ev, ga::decode_indirect(a, a.initial_state(), g, opt,
                                               cold_scratch));
    ctx.sync(&b, ga::next_eval_epoch(), 64);
    ga::decode_indirect_into(b, b.initial_state(), g, opt, ctx, ev);
    expect_same_decode(ev, ga::decode_indirect(b, b.initial_state(), g, opt,
                                               cold_scratch));
  }
}

// ---------------------------------------------------------------------------
// Engine-level parity: a run with the incremental machinery must be
// indistinguishable (same random draws, same populations, same stats) from a
// run that cold-decodes everything.
// ---------------------------------------------------------------------------

template <typename P>
void expect_same_runs(const P& problem, const ga::GaConfig& base,
                      std::uint64_t seed, util::ThreadPool* pool) {
  ga::GaConfig inc = base;
  inc.incremental_eval = true;
  ga::GaConfig cold = base;
  cold.incremental_eval = false;
  cold.ops_cache_size = 0;

  ga::Engine<P> e_inc(problem, inc, pool);
  ga::Engine<P> e_cold(problem, cold, nullptr);
  util::Rng r1(seed), r2(seed);
  const auto a = e_inc.run_phase(problem.initial_state(), r1, false);
  const auto b = e_cold.run_phase(problem.initial_state(), r2, false);

  EXPECT_EQ(a.found_valid, b.found_valid);
  EXPECT_EQ(a.generation_found, b.generation_found);
  EXPECT_EQ(a.best.genes, b.best.genes);
  EXPECT_EQ(a.best.eval.ops, b.best.eval.ops);
  EXPECT_EQ(a.best.eval.fitness, b.best.eval.fitness);
  EXPECT_EQ(a.best.eval.plan_cost, b.best.eval.plan_cost);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t g = 0; g < a.history.size(); ++g) {
    EXPECT_EQ(a.history[g].mean_fitness, b.history[g].mean_fitness) << "gen " << g;
    EXPECT_EQ(a.history[g].best_fitness, b.history[g].best_fitness) << "gen " << g;
    EXPECT_EQ(a.history[g].mean_length, b.history[g].mean_length) << "gen " << g;
    EXPECT_EQ(a.history[g].valid_count, b.history[g].valid_count) << "gen " << g;
  }
}

ga::GaConfig small_config() {
  ga::GaConfig cfg;
  cfg.population_size = 40;
  cfg.generations = 25;
  cfg.initial_length = 24;
  cfg.max_length = 120;
  cfg.stop_on_valid = false;
  cfg.eval_checkpoint_stride = 8;
  return cfg;
}

TEST(IncrementalEngineParity, HanoiGenerationalSerial) {
  const domains::Hanoi h(5);
  expect_same_runs(h, small_config(), 101, nullptr);
}

TEST(IncrementalEngineParity, HanoiGenerationalPooled) {
  const domains::Hanoi h(5);
  util::ThreadPool pool(4);
  expect_same_runs(h, small_config(), 103, &pool);
}

TEST(IncrementalEngineParity, HanoiElitesAndMixedCrossover) {
  const domains::Hanoi h(5);
  auto cfg = small_config();
  cfg.crossover = ga::CrossoverKind::kMixed;
  cfg.elite_count = 3;
  expect_same_runs(h, cfg, 107, nullptr);
}

TEST(IncrementalEngineParity, SokobanStateAwareCrowding) {
  const domains::Sokoban level({
      "#######",
      "#.....#",
      "#.$.$.#",
      "#..@..#",
      "#.o.o.#",
      "#######",
  });
  auto cfg = small_config();
  cfg.crossover = ga::CrossoverKind::kStateAware;
  cfg.replacement = ga::ReplacementKind::kCrowding;
  expect_same_runs(level, cfg, 109, nullptr);
}

TEST(IncrementalEngineParity, StripsPooled) {
  const auto enc = domains::build_hanoi_strips(3);
  const auto problem = enc.problem();
  auto cfg = small_config();
  cfg.generations = 15;
  util::ThreadPool pool(3);
  expect_same_runs(problem, cfg, 113, &pool);
}

// The grid workflow is kernel-less: the incremental run decodes slot by slot
// through the valid-ops cache, at workflow_cli's GA settings.
void expect_same_genomics_runs(std::uint64_t seed, util::ThreadPool* pool) {
  const auto file = grid::parse_scenario_file(std::string(GAPLAN_ASSET_DIR) +
                                              "/genomics_pipeline.grid");
  const auto problem = file.problem();
  ga::GaConfig cfg;
  cfg.population_size = 100;
  cfg.generations = 60;
  cfg.initial_length = file.scenario.catalog.program_count();
  cfg.max_length = 8 * cfg.initial_length;
  cfg.crossover = ga::CrossoverKind::kMixed;
  cfg.cost_fitness = ga::CostFitnessKind::kInverseCost;
  cfg.stop_on_valid = false;
  const auto hits = [] {
    const auto snap = obs::snapshot_metrics();
    const auto* c = snap.find_counter("eval.cache_hits");
    return c != nullptr ? c->value : 0;
  };
  const auto hits_before = hits();
  expect_same_runs(problem, cfg, seed, pool);
  EXPECT_GT(hits(), hits_before) << "the incremental run never hit the cache";
}

TEST(IncrementalEngineParity, GenomicsWorkflowSerial) {
  expect_same_genomics_runs(131, nullptr);
}

TEST(IncrementalEngineParity, GenomicsWorkflowPooled) {
  util::ThreadPool pool(4);
  expect_same_genomics_runs(137, &pool);
}

TEST(IncrementalEngineParity, NoTruncateRouletteUniform) {
  const domains::Hanoi h(4);
  auto cfg = small_config();
  cfg.truncate_at_goal = false;
  cfg.selection = ga::SelectionKind::kRoulette;
  cfg.crossover = ga::CrossoverKind::kUniform;
  cfg.generations = 15;
  expect_same_runs(h, cfg, 127, nullptr);
}

}  // namespace
