// Multi-phase GA planning (§3.5): the search is divided into phases, each an
// independent GA run; the final state of each phase's best solution seeds the
// next phase, and the overall plan is the concatenation of per-phase best
// plans. The search ends when a phase's best solution is valid or after the
// configured number of phases.
#pragma once

#include <vector>

#include "core/engine.hpp"

namespace gaplan::ga {

template <typename State>
struct MultiPhaseResult {
  bool valid = false;
  std::size_t phase_found = kNoGoal;   ///< 0-based phase whose best was valid
  std::size_t phases_run = 0;
  /// Paper accounting (Table 2): phases always run their full generation
  /// budget, so generations-to-solution is phases_run × generations-per-phase
  /// when valid; generations_total also counts any early-stopped single phase.
  std::size_t generations_total = 0;
  std::vector<int> plan;               ///< concatenated per-phase best plans
  double goal_fitness = 0.0;           ///< of the concatenated plan's final state
  double best_fitness = 0.0;           ///< combined fitness of the last phase best
  State final_state{};
  std::vector<PhaseResult<State>> phases;
};

/// Runs the multi-phase procedure from an explicit start state (the
/// re-planner plans from whatever data state execution has reached). With
/// cfg.phases == 1 this degenerates to the paper's "single-phase GA" (early
/// stop on the first valid individual, controlled by cfg.stop_on_valid).
/// `parent` attaches the run span (and its phase/generation descendants) to
/// a caller's trace; with no parent the run roots a fresh trace.
template <PlanningProblem P>
MultiPhaseResult<typename P::StateT> run_multiphase_from(
    const P& problem, const GaConfig& cfg, const typename P::StateT& start,
    util::Rng& rng, util::ThreadPool* pool = nullptr,
    obs::SpanContext parent = {}) {
  using State = typename P::StateT;
  // One Engine across all phases: its PhaseRunner owns the struct-of-arrays
  // genome pools, so the big lane buffers are allocated once and recycled
  // phase to phase instead of being rebuilt per phase.
  Engine<P> engine(problem, cfg, pool);
  MultiPhaseResult<State> result;
  State current = start;
  result.final_state = current;

  static obs::Counter& c_runs = obs::counter("ga.runs");
  c_runs.inc();
  obs::ScopedSpan run_span("run", parent);

  const bool single_phase = cfg.phases == 1;
  result.goal_fitness = problem.goal_fitness(current);
  for (std::size_t phase = 0; phase < cfg.phases; ++phase) {
    // Multi-phase: validity is checked at phase boundaries, so phases run
    // their full generation budget (§3.5 step 2); the single-phase GA may
    // stop as soon as a valid individual appears.
    PhaseResult<State> pr = engine.run_phase(
        current, rng, single_phase && cfg.stop_on_valid, run_span.context());
    result.generations_total += pr.generations_run;
    result.phases_run = phase + 1;

    const auto& best = pr.best.eval;
    // Monotone guard: discard non-improving phase plans (see GaConfig).
    const bool accept = best.valid || !cfg.monotone_phases ||
                        best.goal_fit > problem.goal_fitness(current);
    if (obs::trace_enabled()) {
      // Start-state handoff: what this phase's best contributed to the plan
      // prefix the next phase searches from.
      obs::TraceEvent("phase_handoff")
          .in(run_span.context())
          .f("phase", phase)
          .f("accepted", accept)
          .f("goal_fit_before", problem.goal_fitness(current))
          .f("goal_fit_after", best.goal_fit)
          .f("phase_ops", best.ops.size())
          .f("plan_ops_total", result.plan.size() + (accept ? best.ops.size() : 0))
          .emit();
    }
    if (accept) {
      result.plan.insert(result.plan.end(), best.ops.begin(), best.ops.end());
      current = best.final_state;
      result.final_state = current;
      result.goal_fitness = best.goal_fit;
      result.best_fitness = best.fitness;
    }
    const bool phase_valid = best.valid;
    result.phases.push_back(std::move(pr));
    if (phase_valid) {
      result.valid = true;
      result.phase_found = phase;
      break;
    }
  }
  run_span.f("phases_run", result.phases_run)
      .f("valid", result.valid)
      .f("generations_total", result.generations_total)
      .f("goal_fitness", result.goal_fitness)
      .f("plan_ops", result.plan.size());
  return result;
}

/// Runs the multi-phase procedure from the problem's own initial state.
template <PlanningProblem P>
MultiPhaseResult<typename P::StateT> run_multiphase(const P& problem,
                                                    const GaConfig& cfg,
                                                    util::Rng& rng,
                                                    util::ThreadPool* pool = nullptr) {
  return run_multiphase_from(problem, cfg, problem.initial_state(), rng, pool);
}

/// Convenience overload seeding a fresh RNG from `seed`.
template <PlanningProblem P>
MultiPhaseResult<typename P::StateT> run_multiphase(const P& problem,
                                                    const GaConfig& cfg,
                                                    std::uint64_t seed,
                                                    util::ThreadPool* pool = nullptr) {
  util::Rng rng(seed);
  return run_multiphase(problem, cfg, rng, pool);
}

}  // namespace gaplan::ga
