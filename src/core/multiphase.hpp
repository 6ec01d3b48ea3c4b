// Multi-phase GA planning (§3.5): the search is divided into phases, each an
// independent GA run; the final state of each phase's best solution seeds the
// next phase, and the overall plan is the concatenation of per-phase best
// plans. The search ends when a phase's best solution is valid or after the
// configured number of phases.
//
// MultiPhaseRun is the one implementation of that loop, one phase per step().
// run_multiphase_from steps it to completion inside a "run" span; the
// planning service (server/plan_service.cpp) steps it a slice at a time, so a
// served plan is this driver's output by construction.
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

/// The multi-phase procedure as a resumable run: each step() is one phase, so
/// a caller can stop between phases (the planning service interleaves
/// cancellation, deadlines and yields there) and still end with exactly the
/// result run_multiphase_from would return. With cfg.phases == 1 this is the
/// paper's "single-phase GA" (early stop on the first valid individual,
/// controlled by cfg.stop_on_valid). The run keeps a pointer to `problem`,
/// which must outlive it.
template <PlanningProblem P>
class MultiPhaseRun {
 public:
  using State = typename P::StateT;

  MultiPhaseRun(const P& problem, const GaConfig& cfg, const State& start,
                util::ThreadPool* pool = nullptr)
      : problem_(&problem), engine_(problem, cfg, pool) {
    result_.final_state = start;
    result_.goal_fitness = problem.goal_fitness(start);
  }

  /// Whether the search is over: a phase's best was valid, or the phase
  /// budget is spent.
  bool done() const noexcept {
    return result_.valid || result_.phases_run >= engine_.config().phases;
  }

  /// Runs the next phase from the running result's final state under
  /// `parent` (its span and the phase_handoff annotation), folds the phase's
  /// best into the result, and returns the phase. Precondition: !done().
  PhaseResult<State> step(util::Rng& rng, obs::SpanContext parent = {}) {
    const GaConfig& cfg = engine_.config();
    const std::size_t phase = result_.phases_run;
    State& current = result_.final_state;
    // Multi-phase: validity is checked at phase boundaries, so phases run
    // their full generation budget (§3.5 step 2); the single-phase GA may
    // stop as soon as a valid individual appears.
    PhaseResult<State> pr = engine_.run_phase(
        current, rng, cfg.phases == 1 && cfg.stop_on_valid, parent);
    result_.generations_total += pr.generations_run;
    result_.phases_run = phase + 1;

    const auto& best = pr.best.eval;
    // Monotone guard: discard non-improving phase plans (see GaConfig).
    const bool accept = best.valid || !cfg.monotone_phases ||
                        best.goal_fit > problem_->goal_fitness(current);
    if (obs::trace_enabled()) {
      // Start-state handoff: what this phase's best contributed to the plan
      // prefix the next phase searches from.
      obs::TraceEvent("phase_handoff")
          .in(parent)
          .f("phase", phase)
          .f("accepted", accept)
          .f("goal_fit_before", problem_->goal_fitness(current))
          .f("goal_fit_after", best.goal_fit)
          .f("phase_ops", best.ops.size())
          .f("plan_ops_total", result_.plan.size() + (accept ? best.ops.size() : 0))
          .emit();
    }
    if (accept) {
      result_.plan.insert(result_.plan.end(), best.ops.begin(), best.ops.end());
      current = best.final_state;
      result_.goal_fitness = best.goal_fit;
      result_.best_fitness = best.fitness;
    }
    if (best.valid) {
      result_.valid = true;
      result_.phase_found = phase;
    }
    return pr;
  }

  /// The folded result; its `phases` vector is left to the caller.
  MultiPhaseResult<State> take_result() { return std::move(result_); }

 private:
  const P* problem_;
  // One Engine across all phases: its PhaseRunner owns the struct-of-arrays
  // genome pools, so the big lane buffers are allocated once and recycled
  // phase to phase instead of being rebuilt per phase.
  Engine<P> engine_;
  MultiPhaseResult<State> result_;
};

/// Runs the multi-phase procedure from an explicit start state (the
/// re-planner plans from whatever data state execution has reached): a
/// MultiPhaseRun stepped to completion, keeping every phase's result.
/// `parent` attaches the run span (and its phase/generation descendants) to
/// a caller's trace; with no parent the run roots a fresh trace.
template <PlanningProblem P>
MultiPhaseResult<typename P::StateT> run_multiphase_from(
    const P& problem, const GaConfig& cfg, const typename P::StateT& start,
    util::Rng& rng, util::ThreadPool* pool = nullptr,
    obs::SpanContext parent = {}) {
  MultiPhaseRun<P> run(problem, cfg, start, pool);
  static obs::Counter& c_runs = obs::counter("ga.runs");
  c_runs.inc();
  obs::ScopedSpan run_span("run", parent);

  std::vector<PhaseResult<typename P::StateT>> phases;
  while (!run.done()) phases.push_back(run.step(rng, run_span.context()));
  MultiPhaseResult<typename P::StateT> result = run.take_result();
  result.phases = std::move(phases);
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
