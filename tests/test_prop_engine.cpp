// Engine-level invariants as properties (tests/prop/): domain/config draws
// are generated cases, so a divergence shrinks toward a default config and
// prints a GAPLAN_PROP_SEED replay line. The directed, fixture-backed cases
// live in tests/test_eval_soa.cpp and tests/test_golden.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/multiphase.hpp"
#include "obs/metrics.hpp"
#include "prop/generators.hpp"
#include "prop/prop.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace gaplan;

std::uint64_t evaluations_total() {
  const auto snap = obs::snapshot_metrics();
  const auto* c = snap.find_counter("ga.evaluations");
  return c == nullptr ? 0 : c->value;
}

template <typename State>
void expect_same_phase(const ga::PhaseResult<State>& a,
                       const ga::PhaseResult<State>& b) {
  EXPECT_EQ(a.found_valid, b.found_valid);
  EXPECT_EQ(a.generation_found, b.generation_found);
  EXPECT_EQ(a.generations_run, b.generations_run);
  EXPECT_EQ(a.best.genes, b.best.genes);
  EXPECT_EQ(a.best.eval.ops, b.best.eval.ops);
  EXPECT_EQ(a.best.eval.fitness, b.best.eval.fitness);
  EXPECT_EQ(a.best.eval.plan_cost, b.best.eval.plan_cost);
  EXPECT_EQ(a.best.eval.valid, b.best.eval.valid);
  EXPECT_EQ(a.best.eval.goal_index, b.best.eval.goal_index);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t g = 0; g < a.history.size(); ++g) {
    EXPECT_EQ(a.history[g].mean_fitness, b.history[g].mean_fitness) << "gen " << g;
    EXPECT_EQ(a.history[g].best_fitness, b.history[g].best_fitness) << "gen " << g;
    EXPECT_EQ(a.history[g].mean_length, b.history[g].mean_length) << "gen " << g;
    EXPECT_EQ(a.history[g].valid_count, b.history[g].valid_count) << "gen " << g;
  }
}

struct EngineCase {
  prop::DomainCase domain;
  ga::GaConfig cfg;
  std::uint64_t seed = 0;
  bool threaded = false;
};

prop::Gen<EngineCase> engine_case() {
  prop::Gen<EngineCase> g;
  g.sample = [](util::Rng& rng) {
    EngineCase c;
    c.domain = prop::random_domain(rng);
    c.cfg = prop::random_config(rng);
    c.seed = rng();
    c.threaded = rng.chance(0.25);
    // Crowding and the direct encoding run their own decode paths (in-place
    // child evaluation; a cold per-slot decode).
    if (rng.chance(0.25)) c.cfg.replacement = ga::ReplacementKind::kCrowding;
    if (rng.chance(0.2)) c.cfg.encoding = ga::EncodingKind::kDirect;
    return c;
  };
  g.shrink = [](const EngineCase& c) {
    std::vector<EngineCase> out;
    if (c.threaded) {
      EngineCase s = c;
      s.threaded = false;
      out.push_back(std::move(s));
    }
    if (c.cfg.replacement != ga::ReplacementKind::kGenerational ||
        c.cfg.encoding != ga::EncodingKind::kIndirect) {
      EngineCase s = c;
      s.cfg.replacement = ga::ReplacementKind::kGenerational;
      s.cfg.encoding = ga::EncodingKind::kIndirect;
      out.push_back(std::move(s));
    }
    for (ga::GaConfig& shrunk : prop::shrink_config(c.cfg)) {
      EngineCase s = c;
      s.cfg = std::move(shrunk);
      out.push_back(std::move(s));
    }
    return out;
  };
  g.show = [](const EngineCase& c) {
    return c.domain.label + " seed=" + std::to_string(c.seed) +
           (c.threaded ? " pool=4 " : " ") + c.cfg.summary();
  };
  return g;
}

// ---------------------------------------------------------------------------
// Invariant: every reported genome is its cold evaluation — after each
// step_evaluate, every population slot and the best-of-phase individual
// carry exactly the Evaluation a cold evaluate_into of their genome yields
// (whichever decode path produced it: the evaluation pass, crowding's
// per-genome resume, or a carried-over elite), and the phase spends one
// evaluation per slot per generation.
// ---------------------------------------------------------------------------

/// Whether `reported` is exactly the cold evaluate_into of `genes`; records
/// a failure naming `what` when it is not.
template <typename P>
bool cold_equal(const P& problem, const ga::GaConfig& cfg,
                std::span<const ga::Gene> genes,
                const ga::Evaluation<typename P::StateT>& reported,
                const std::string& what) {
  ga::EvalContext<typename P::StateT> ctx;
  ctx.sync(&problem, ga::next_eval_epoch(), 0);
  ga::Evaluation<typename P::StateT> cold;
  ga::evaluate_into(problem, cfg, problem.initial_state(), genes, ctx, cold);
  const bool same = cold.valid == reported.valid &&
                    cold.goal_fit == reported.goal_fit &&
                    cold.fitness == reported.fitness &&
                    cold.plan_cost == reported.plan_cost &&
                    cold.goal_index == reported.goal_index &&
                    cold.ops == reported.ops;
  if (!same) {
    ADD_FAILURE() << what << ": reported fitness " << reported.fitness
                  << " goal_fit " << reported.goal_fit << " ops "
                  << reported.ops.size() << ", cold fitness " << cold.fitness
                  << " goal_fit " << cold.goal_fit << " ops "
                  << cold.ops.size();
  }
  return same;
}

TEST(PropEngine, ReportedGenomesMatchColdEvaluation) {
  static util::ThreadPool shared_pool(4);
  prop::check(
      "reported_genomes_cold_equal", engine_case(),
      [](const EngineCase& c) {
        c.domain.visit([&](const auto& problem) {
          using P = std::decay_t<decltype(problem)>;
          util::ThreadPool* pool = c.threaded ? &shared_pool : nullptr;
          ga::PhaseRunner<P> runner(problem, c.cfg, pool);
          util::Rng rng(c.seed);
          const std::uint64_t n0 = evaluations_total();
          runner.init(problem.initial_state(), rng);
          for (std::size_t gen = 0; gen < c.cfg.generations; ++gen) {
            runner.step_evaluate();
            const std::string at = "gen " + std::to_string(gen);
            const auto& pop = runner.population();
            for (std::size_t i = 0; i < pop.slots(); ++i) {
              if (!cold_equal(problem, c.cfg, pop.genome(i), pop.eval(i),
                              at + " slot " + std::to_string(i))) {
                return;
              }
            }
            if (!cold_equal(problem, c.cfg, runner.best().genes,
                            runner.best().eval, at + " best")) {
              return;
            }
            if (gen + 1 == c.cfg.generations) break;
            runner.step_reproduce(rng);
          }
          EXPECT_EQ(evaluations_total() - n0,
                    c.cfg.population_size * c.cfg.generations)
              << "evaluation spend";
        });
      },
      {.iterations = 40});
}

// ---------------------------------------------------------------------------
// Invariant: incremental evaluation is invisible — a full engine phase with
// incremental_eval on equals the same phase decoded cold every generation
// (decode reuse may only save work, never change trajectories).
// ---------------------------------------------------------------------------

TEST(PropEngine, IncrementalEvalMatchesColdEval) {
  prop::check(
      "incremental_equals_cold_engine", engine_case(),
      [](const EngineCase& c) {
        c.domain.visit([&](const auto& problem) {
          using P = std::decay_t<decltype(problem)>;
          ga::GaConfig cold = c.cfg;
          cold.incremental_eval = false;
          ga::GaConfig inc = c.cfg;
          inc.incremental_eval = true;
          ga::Engine<P> e_cold(problem, cold, nullptr);
          ga::Engine<P> e_inc(problem, inc, nullptr);
          util::Rng r1(c.seed), r2(c.seed);
          const auto a = e_cold.run_phase(problem.initial_state(), r1, false);
          const auto b = e_inc.run_phase(problem.initial_state(), r2, false);
          expect_same_phase(a, b);
        });
      },
      {.iterations = 25});
}

// ---------------------------------------------------------------------------
// Invariant: a persistent PhaseRunner re-init()ed under a mutated config
// behaves exactly like a fresh runner per phase — pool storage recycling
// (GenomePool row handles, Evaluation records, the cached kernel decoder)
// must not leak decode state across phases whose population size, stride,
// truncation, or state-match differ. This is the property that caught the
// stale-kernel-options / stale-Evaluation satellite bug.
// ---------------------------------------------------------------------------

struct PhaseVaryingCase {
  prop::DomainCase domain;
  std::vector<ga::GaConfig> phases;
  std::uint64_t seed = 0;
};

prop::Gen<PhaseVaryingCase> phase_varying_case() {
  prop::Gen<PhaseVaryingCase> g;
  g.sample = [](util::Rng& rng) {
    PhaseVaryingCase c;
    c.domain = prop::random_domain(rng);
    const std::size_t n = 2 + rng.below(3);
    for (std::size_t i = 0; i < n; ++i) {
      c.phases.push_back(prop::random_config(rng));
    }
    c.seed = rng();
    return c;
  };
  g.shrink = [](const PhaseVaryingCase& c) {
    std::vector<PhaseVaryingCase> out;
    if (c.phases.size() > 2) {
      PhaseVaryingCase s = c;
      s.phases.pop_back();
      out.push_back(std::move(s));
      PhaseVaryingCase t = c;
      t.phases.erase(t.phases.begin());
      out.push_back(std::move(t));
    }
    return out;
  };
  g.show = [](const PhaseVaryingCase& c) {
    std::string s =
        c.domain.label + " seed=" + std::to_string(c.seed) + " phases:";
    for (const auto& cfg : c.phases) s += "\n    " + cfg.summary();
    return s;
  };
  return g;
}

/// Engine::run_phase's evaluate/breed loop without the tracing span.
template <typename Runner, typename State>
ga::PhaseResult<State> drive(Runner& runner, const State& start,
                             const ga::GaConfig& cfg, util::Rng& rng) {
  runner.init(start, rng);
  for (std::size_t gen = 0; gen < cfg.generations; ++gen) {
    runner.step_evaluate();
    if (gen + 1 == cfg.generations) break;
    runner.step_reproduce(rng);
  }
  return runner.take_result();
}

TEST(PropEngine, PersistentPooledRunnerSurvivesPhaseVaryingConfigs) {
  prop::check(
      "pooled_runner_phase_varying_configs", phase_varying_case(),
      [](const PhaseVaryingCase& c) {
        c.domain.visit([&](const auto& problem) {
          using P = std::decay_t<decltype(problem)>;
          using State = typename P::StateT;
          // Both runners hold `const GaConfig&`; mutating these objects
          // between init() calls is exactly what phase-varying scenarios do.
          ga::GaConfig persistent_cfg = c.phases.front();
          ga::GaConfig fresh_cfg = c.phases.front();
          ga::PhaseRunner<P> persistent(problem, persistent_cfg, nullptr);
          util::Rng r1(c.seed), r2(c.seed);
          const State start = problem.initial_state();
          for (std::size_t i = 0; i < c.phases.size(); ++i) {
            SCOPED_TRACE("phase " + std::to_string(i));
            persistent_cfg = c.phases[i];
            fresh_cfg = c.phases[i];
            // Fresh runner per phase — the reference behaviour with no
            // storage carried over.
            ga::PhaseRunner<P> fresh(problem, fresh_cfg, nullptr);
            const auto a = drive(fresh, start, fresh_cfg, r1);
            const auto b = drive(persistent, start, persistent_cfg, r2);
            expect_same_phase(a, b);
          }
        });
      },
      {.iterations = 20});
}

}  // namespace
