#include "grid/replanner.hpp"

#include <algorithm>
#include <stdexcept>

#include "analysis/scenario_lint.hpp"
#include "core/multiphase.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace gaplan::grid {

namespace {

/// Replays every disruption with time <= t onto the pool. Disruption effects
/// are idempotent under in-order replay (apply_disruption overwrites), so
/// re-applying events the coordinator already delivered is harmless — this is
/// how the manager brings the pool up to date when it advances simulation
/// time without executing anything (recovery waits, planning latency).
void replay_disruptions_until(ResourcePool& pool,
                              const std::vector<Disruption>& disruptions,
                              double t) {
  for (const Disruption& d : disruptions) {
    if (d.time > t) break;
    apply_disruption(pool, d);
  }
}

/// The next disruption strictly after `t` that could make an unplannable
/// grid plannable again: a machine recovery, or an overload event that
/// *lowers* the machine's current load (a load drop). Returns the index into
/// `disruptions`, or its size when none is scheduled.
std::size_t next_relief_after(const std::vector<Disruption>& disruptions,
                              const ResourcePool& pool, double t) {
  for (std::size_t i = 0; i < disruptions.size(); ++i) {
    const Disruption& d = disruptions[i];
    if (d.time <= t) continue;
    if (d.kind == Disruption::Kind::kRecovery) return i;
    if (d.kind == Disruption::Kind::kOverload &&
        d.load < pool.machine(d.machine).load) {
      return i;
    }
  }
  return disruptions.size();
}

bool any_machine_up(const ResourcePool& pool) {
  for (const Machine& m : pool.machines()) {
    if (m.up) return true;
  }
  return false;
}

/// Per-attempt seed stream. Attempt 0 of round r keeps the historical
/// `cfg.seed + r` so escalation-free runs reproduce pre-PR-3 trajectories
/// exactly; retries draw from a splitmix stream over (seed, round, attempt).
std::uint64_t attempt_seed(std::uint64_t base, std::size_t round,
                           std::size_t attempt) {
  if (attempt == 0) return base + round;
  std::uint64_t s = base ^ (0x9E3779B97F4A7C15ULL * (round + 1)) ^
                    (0xBF58476D1CE4E5B9ULL * attempt);
  return util::splitmix64(s);
}

/// One planning round: GA-plan from `data` (retrying with an escalated
/// budget on failure), charge the planning-latency model to simulation time,
/// re-validate the plan against disruptions that landed while planning, then
/// hand the graph to the coordinator. `round_idx` 0 is the initial plan;
/// later rounds are re-plans reacting to a resource change, and their GA
/// latency (plan_ms) is the paper's change-to-new-plan reaction time.
PlanningRound run_round(const WorkflowProblem& base, ResourcePool& pool,
                        const util::DynamicBitset& data,
                        const std::vector<Disruption>& disruptions, double time,
                        const ReplanConfig& cfg,
                        const CoordinatorOptions& options,
                        std::size_t round_idx, obs::SpanContext parent) {
  // Plan on a snapshot of the grid as it is now, so disruptions delivered
  // since the last round reach the planner. The pool changes only after the
  // GA attempts, so the snapshot is exact for every attempt, for plan_cost
  // and for the activity graph.
  const WorkflowProblem problem = base.resnapshot();
  PlanningRound round;
  obs::ScopedSpan span("replan", parent);

  static obs::Counter& c_rounds = obs::counter("grid.planning_rounds");
  static obs::Counter& c_replans = obs::counter("grid.replans");
  static obs::Counter& c_retries = obs::counter("grid.retries");
  static obs::Counter& c_stale = obs::counter("grid.stale_plans");
  static obs::Histogram& h_plan =
      obs::histogram("grid.plan_ms", obs::latency_buckets_ms());
  static obs::Histogram& h_replan =
      obs::histogram("grid.replan_ms", obs::latency_buckets_ms());
  c_rounds.inc();

  // --- GA attempts with escalating budget ----------------------------------
  util::Timer round_timer;
  ga::MultiPhaseResult<util::DynamicBitset> planned;
  std::size_t attempt = 0;
  for (;; ++attempt) {
    ga::GaConfig gacfg = cfg.ga;
    if (attempt > 0) {
      double gf = 1.0, pf = 1.0;
      for (std::size_t k = 0; k < attempt; ++k) {
        gf *= cfg.retry_generations_growth;
        pf *= cfg.retry_population_growth;
      }
      gacfg = cfg.ga.scaled(gf, pf, cfg.retry_max_population);
      c_retries.inc();
    }
    util::Rng rng(attempt_seed(cfg.seed, round_idx, attempt));
    util::Timer plan_timer;
    planned = ga::run_multiphase_from(problem, gacfg, data, rng, nullptr,
                                      span.context());
    round.plan_ms += plan_timer.millis();
    round.planning_latency += cfg.planning_latency.charge(plan_timer.millis());
    if (planned.valid) break;
    if (attempt >= cfg.max_plan_retries) break;
    if (cfg.round_deadline_ms > 0.0 &&
        round_timer.millis() >= cfg.round_deadline_ms) {
      round.note = "planning-round deadline exhausted";
      break;
    }
  }
  round.ga_attempts = attempt + 1;
  round.dispatch_time = time + round.planning_latency;

  h_plan.observe(round.plan_ms);
  if (round_idx > 0) {
    c_replans.inc();
    h_replan.observe(round.plan_ms);
  }
  span.f("round", round_idx)
      .f("sim_time", time)
      .f("plan_ms", round.plan_ms)
      .f("attempts", round.ga_attempts)
      .f("planning_latency_s", round.planning_latency)
      .f("plan_valid", planned.valid)
      .f("plan_ops", planned.plan.size());

  round.plan = planned.plan;
  round.plan_valid = planned.valid;
  if (!planned.valid) return round;
  round.planned_cost = ga::plan_cost(problem, data, round.plan);

  // --- stale-plan detection -------------------------------------------------
  // Planning took simulated time; disruptions that landed inside the window
  // (time, dispatch_time] were invisible to the GA. Deliver them now and
  // invalidate the plan if a machine it uses died or got freshly overloaded
  // past the reaction threshold — execution would either throw (down) or run
  // blind into load the manager is supposed to react to.
  if (round.planning_latency > 0.0) {
    std::vector<double> load_before(pool.size());
    for (MachineId m = 0; m < pool.size(); ++m) {
      load_before[m] = pool.machine(m).load;
    }
    replay_disruptions_until(pool, disruptions, round.dispatch_time);
    for (const int op : round.plan) {
      const MachineId m = problem.op_machine(op);
      const Machine& machine = pool.machine(m);
      const bool freshly_overloaded = options.abort_on_overload &&
                                      machine.load > options.overload_threshold &&
                                      machine.load > load_before[m];
      if (!machine.up || freshly_overloaded) {
        round.stale = true;
        round.note = "plan went stale while planning: machine " + machine.name +
                     (machine.up ? " got overloaded" : " went down");
        c_stale.inc();
        span.f("stale", true);
        return round;
      }
    }
  }

  // --- dispatch -------------------------------------------------------------
  ActivityGraph graph;
  if (!try_plan_graph(problem, data, round.plan, graph, round.note)) {
    round.graph_valid = false;
    span.f("graph_valid", false);
    return round;
  }
  Coordinator coordinator(problem, pool, options);
  round.execution = coordinator.execute(graph, data, disruptions,
                                        round.dispatch_time, span.context());
  span.f("executed_tasks", round.execution.tasks_completed)
      .f("execution_completed", round.execution.completed);
  return round;
}

}  // namespace

bool try_plan_graph(const WorkflowProblem& problem,
                    const util::DynamicBitset& data,
                    const std::vector<int>& plan, ActivityGraph& out,
                    std::string& note) {
  try {
    out = ActivityGraph::from_plan(problem, data, plan);
    return true;
  } catch (const std::invalid_argument& e) {
    note = std::string("invalid plan graph: ") + e.what();
    return false;
  }
}

ReplanOutcome plan_and_execute(const WorkflowProblem& problem, ResourcePool& pool,
                               const std::vector<Disruption>& disruptions,
                               const ReplanConfig& cfg,
                               obs::SpanContext parent) {
  ReplanOutcome outcome;

  // Up-front static analysis: a defect found here holds at full grid health,
  // so no disruption schedule or GA budget can ever make the workflow
  // complete. Abort with structured diagnostics instead of burning futile
  // planning rounds; warnings ride along in the outcome (and run journal).
  {
    analysis::Report report = analysis::lint_workflow(problem, disruptions);
    report.merge(analysis::lint_replan_config(cfg));
    report.emit_to_journal("replanner");
    outcome.lint = report.diagnostics();
    if (report.has_errors()) {
      outcome.note =
          "static analysis rejected the scenario: " + report.first_error();
      return outcome;
    }
  }

  util::DynamicBitset data = problem.initial_state();
  double time = 0.0;
  util::Timer wall;

  static obs::Counter& c_waits = obs::counter("grid.waits");
  static obs::Histogram& h_wait =
      obs::histogram("grid.wait_for_recovery_ms", obs::latency_buckets_ms());

  // Advances simulation time to the relief event at `idx` and brings the pool
  // up to date. Every wait strictly advances `time` past one more disruption,
  // so waits are bounded by the scenario length — no hang is possible.
  auto wait_until = [&](std::size_t idx) {
    const double target = disruptions[idx].time;
    const double waited = target - time;
    outcome.waited_seconds += waited;
    ++outcome.waits;
    c_waits.inc();
    h_wait.observe(waited * 1e3);  // simulated milliseconds
    if (obs::trace_enabled()) {
      obs::TraceEvent("grid_wait")
          .in(parent)
          .f("sim_time", time)
          .f("until", target)
          .f("waited_s", waited)
          .emit();
    }
    time = target;
    replay_disruptions_until(pool, disruptions, time);
  };

  const std::size_t max_rounds = cfg.max_replans + 1;
  std::size_t round_idx = 0;
  while (true) {
    if (problem.is_goal(data)) {  // a partial execution already got there
      outcome.completed = true;
      break;
    }
    if (cfg.workflow_deadline_ms > 0.0 &&
        wall.millis() >= cfg.workflow_deadline_ms) {
      outcome.note = "workflow wall-clock deadline exceeded";
      break;
    }
    if (round_idx >= max_rounds) {
      outcome.note = "re-plan budget exhausted";
      break;
    }
    // Dead-grid fast path: with nothing up, planning cannot succeed — wait
    // for the next relief event without burning a planning round (or GA
    // cycles). Falls through to a regular (futile) round when nothing is
    // scheduled, so the failure is reported as "no valid plan".
    if (cfg.wait_for_recovery && !any_machine_up(pool)) {
      const std::size_t relief = next_relief_after(disruptions, pool, time);
      if (relief < disruptions.size()) {
        wait_until(relief);
        continue;
      }
    }

    CoordinatorOptions options;
    options.abort_on_overload = cfg.react_to_overload;
    options.overload_threshold = cfg.overload_threshold;
    PlanningRound round = run_round(problem, pool, data, disruptions, time,
                                    cfg, options, round_idx, parent);
    ++outcome.planning_rounds;
    ++round_idx;
    time = round.dispatch_time;  // planning latency elapses even on failure

    if (!round.plan_valid) {
      std::size_t relief = disruptions.size();
      if (cfg.wait_for_recovery) {
        relief = next_relief_after(disruptions, pool, time);
      }
      if (relief < disruptions.size()) {
        round.note = "no plan on the degraded grid; waiting for recovery";
        outcome.rounds.push_back(std::move(round));
        wait_until(relief);
        outcome.note = "re-planning after recovery wait";
        continue;
      }
      outcome.note = "planner found no valid plan on the degraded grid";
      if (cfg.wait_for_recovery && !disruptions.empty()) {
        outcome.note += "; no recovery scheduled to wait for";
      }
      outcome.rounds.push_back(std::move(round));
      break;
    }
    if (round.stale || !round.graph_valid) {
      // No execution happened; burn the round and re-plan (reseeded) from
      // the same data state at the post-latency time.
      outcome.rounds.push_back(std::move(round));
      outcome.note = round_idx > 0 ? "re-planning after stale/invalid plan"
                                   : outcome.note;
      continue;
    }

    outcome.total_cost += round.execution.total_cost;
    const bool completed = round.execution.completed;
    const double makespan = round.execution.makespan;
    const double abort_time = round.execution.abort_time;
    data = round.execution.data_state;
    outcome.rounds.push_back(std::move(round));
    if (completed) {
      outcome.completed = true;
      outcome.makespan = makespan;
      break;
    }
    time = std::max(time, abort_time);
    outcome.makespan = time;  // provisional until a round completes
    outcome.note = "re-planning after abort";
  }
  if (!outcome.completed && outcome.note.empty()) {
    outcome.note = "re-plan budget exhausted";
  }
  return outcome;
}

ReplanOutcome static_script_execute(const WorkflowProblem& problem,
                                    ResourcePool& pool,
                                    const std::vector<Disruption>& disruptions,
                                    const ReplanConfig& cfg,
                                    obs::SpanContext parent) {
  ReplanOutcome outcome;
  const util::DynamicBitset data = problem.initial_state();
  // A script is written offline: one GA attempt, no latency charge, no
  // retries — the §1 baseline the adaptive manager is measured against.
  ReplanConfig script_cfg = cfg;
  script_cfg.max_plan_retries = 0;
  script_cfg.round_deadline_ms = 0.0;
  script_cfg.planning_latency = PlanningLatencyModel{};
  PlanningRound round = run_round(problem, pool, data, disruptions, 0.0,
                                  script_cfg, CoordinatorOptions{}, 0, parent);
  outcome.planning_rounds = 1;
  if (!round.plan_valid || !round.graph_valid) {
    outcome.note = !round.plan_valid
                       ? "script generation failed (planner found no plan)"
                       : "script generation failed (" + round.note + ")";
    outcome.rounds.push_back(std::move(round));
    return outcome;
  }
  outcome.completed = round.execution.completed;
  outcome.total_cost = round.execution.total_cost;
  outcome.makespan = outcome.completed ? round.execution.makespan
                                       : round.execution.abort_time;
  if (!outcome.completed) {
    outcome.note = "static script aborted: " + round.execution.note;
  }
  outcome.rounds.push_back(std::move(round));
  return outcome;
}

}  // namespace gaplan::grid
