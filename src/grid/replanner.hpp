// Dynamic workflow management (§1): plan with the GA, hand the activity graph
// to the coordination service, and when the grid changes under the workflow
// (overload, failure) re-plan *from the data state already reached* — the
// multi-phase idea applied across execution attempts. This is the behaviour
// the paper argues a static script cannot provide.
//
// The manager is resilient, not one-shot (PR 3):
//  * recovery-aware waiting — when no plan exists on a degraded grid but the
//    disruption scenario schedules a recovery (or a load drop), simulation
//    time advances to that event and planning retries instead of aborting;
//  * retry escalation — within a planning round, failed GA attempts retry
//    with a growing generation/population budget and a fresh seed, bounded
//    by a per-round wall-clock deadline;
//  * planning-latency accounting — a configurable model charges GA planning
//    time to *simulation* time, and the fresh plan is re-validated against
//    disruptions that landed while planning (stale-plan detection) before it
//    is dispatched.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "core/config.hpp"
#include "grid/coordinator.hpp"

namespace gaplan::grid {

/// How GA planning latency is charged to simulation time. Per planning
/// attempt: sim_seconds = fixed_seconds + seconds_per_wall_ms · wall_ms.
/// The default (all zero) keeps planning instantaneous in simulation time —
/// the pre-PR-3 behaviour, and the deterministic choice for tests. A nonzero
/// seconds_per_wall_ms couples outcomes to host speed; use fixed_seconds for
/// reproducible reaction-time studies (Table 5 territory).
struct PlanningLatencyModel {
  double fixed_seconds = 0.0;
  double seconds_per_wall_ms = 0.0;

  double charge(double wall_ms) const noexcept {
    return fixed_seconds + seconds_per_wall_ms * wall_ms;
  }
  bool enabled() const noexcept {
    return fixed_seconds > 0.0 || seconds_per_wall_ms > 0.0;
  }
};

struct ReplanConfig {
  ga::GaConfig ga;               ///< planner settings per (re-)planning round
  std::size_t max_replans = 5;   ///< planning rounds after the initial one
  std::uint64_t seed = 1;
  /// Re-plan when a machine with pending tasks gets overloaded mid-run (the
  /// coordinator aborts and the next plan routes around the slow site). The
  /// static script never reacts, matching §1's argument.
  bool react_to_overload = true;
  double overload_threshold = 1.0;

  // --- retry escalation (per planning round) -------------------------------
  /// Extra GA attempts after a failed one within the same round. Attempt k
  /// runs with generations · retry_generations_growth^k and population ·
  /// retry_population_growth^k (kept even, capped at retry_max_population),
  /// reseeded per attempt.
  std::size_t max_plan_retries = 2;
  double retry_generations_growth = 2.0;
  double retry_population_growth = 1.5;
  std::size_t retry_max_population = 2000;
  /// Wall-clock budget for one planning round's GA attempts; once exceeded no
  /// further attempt starts (0 = unlimited).
  double round_deadline_ms = 0.0;
  /// Wall-clock budget for the whole workflow (planning + simulated
  /// bookkeeping; 0 = unlimited). Exceeding it ends the manager cleanly with
  /// a "deadline" note — never mid-round.
  double workflow_deadline_ms = 0.0;

  // --- recovery-aware waiting ----------------------------------------------
  /// When planning finds nothing on the degraded grid, advance simulation
  /// time to the next scheduled recovery / load-drop disruption and retry
  /// (instead of giving up — the paper's §1 grid *recovers*).
  bool wait_for_recovery = true;

  // --- planning-latency accounting -----------------------------------------
  PlanningLatencyModel planning_latency;
};

struct PlanningRound {
  std::vector<int> plan;
  bool plan_valid = false;       ///< the GA found a goal-reaching plan
  /// The plan had an unsatisfiable data dependency (decoder bug or corrupted
  /// plan); the round is discarded and the manager re-plans.
  bool graph_valid = true;
  /// A disruption that landed while planning invalidated the plan before
  /// dispatch (stale-plan detection); no execution happened this round.
  bool stale = false;
  std::size_t ga_attempts = 1;   ///< GA attempts run this round (escalation)
  double plan_ms = 0.0;          ///< wall-clock GA time, summed over attempts
  double planning_latency = 0.0; ///< simulation seconds charged for planning
  double dispatch_time = 0.0;    ///< sim time after the planning charge
  double planned_cost = 0.0;     ///< Σ op_cost of the plan when it was made
  std::string note;
  ExecutionReport execution;
};

struct ReplanOutcome {
  bool completed = false;        ///< goal data produced
  double makespan = 0.0;         ///< simulation time when the last task finished
  double total_cost = 0.0;       ///< summed over all (partial) executions
  std::size_t planning_rounds = 0;
  std::size_t waits = 0;         ///< recovery/load-drop waits taken
  double waited_seconds = 0.0;   ///< simulation time spent waiting
  std::vector<PlanningRound> rounds;
  std::string note;
  /// Static-analysis findings from the up-front scenario/config lint. When
  /// any is an error the manager aborts before the first planning round
  /// (completed = false, note = "static analysis rejected the scenario");
  /// warnings are carried along (and journaled) but do not block planning.
  std::vector<analysis::Diagnostic> lint;
};

/// Builds the activity graph for `plan` executed from `data`. Returns false
/// (with a diagnostic in `note`) instead of throwing when the plan carries an
/// unsatisfied data dependency — the manager turns such plans into a retry
/// round rather than letting std::invalid_argument escape.
bool try_plan_graph(const WorkflowProblem& problem,
                    const util::DynamicBitset& data,
                    const std::vector<int>& plan, ActivityGraph& out,
                    std::string& note);

/// Plans and executes `problem`'s workflow to completion, re-planning after
/// every aborted execution. `pool` is the live grid (mutated by disruptions);
/// it must be the pool `problem` was built over. Every planning round plans
/// on a fresh snapshot of it (WorkflowProblem::resnapshot), so `problem`'s
/// own snapshot is never read. `disruptions` is the full timed scenario
/// (sorted by time).
/// `parent` attaches every planning round's replan span (and the grid_execute
/// / GA-run spans beneath it) to a caller's trace — a served workflow request
/// passes its request context here; standalone runs omit it and each round
/// roots its own trace.
ReplanOutcome plan_and_execute(const WorkflowProblem& problem, ResourcePool& pool,
                               const std::vector<Disruption>& disruptions,
                               const ReplanConfig& cfg,
                               obs::SpanContext parent = {});

/// The static-script baseline: plan once on the healthy grid, then execute
/// that fixed graph under the disruption scenario with no adaptation. The
/// script "is incapable of taking advantage of the full range of
/// alternatives" — it completes slowly under overload and simply fails when
/// a machine it depends on dies. (The script is assumed to be written
/// offline: no planning latency is charged and it never retries.)
ReplanOutcome static_script_execute(const WorkflowProblem& problem,
                                    ResourcePool& pool,
                                    const std::vector<Disruption>& disruptions,
                                    const ReplanConfig& cfg,
                                    obs::SpanContext parent = {});

}  // namespace gaplan::grid
