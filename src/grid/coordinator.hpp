// Coordination service simulator: executes an activity graph on the resource
// pool as a deterministic discrete-event simulation — the paper's
// "coordination service [that supervises] the execution of all the programs
// involved", with the resource dynamics of §1 (overloads, failures) injected
// as timed disruptions.
//
// Scheduling model: each node runs on its plan-assigned machine; machines
// execute one task at a time; among runnable tasks the earliest-start one
// runs first (FIFO per machine, plan order as tie-break). Task duration is
// fixed by the machine's load at start time; a machine failure kills the task
// running on it and aborts the workflow (that is what re-planning is for).
#pragma once

#include <string>
#include <vector>

#include "grid/activity_graph.hpp"
#include "grid/resource.hpp"
#include "obs/trace.hpp"

namespace gaplan::grid {

struct Disruption {
  enum class Kind { kOverload, kFailure, kRecovery };
  double time = 0.0;
  MachineId machine = 0;
  Kind kind = Kind::kOverload;
  double load = 0.0;  ///< new load for kOverload
};

/// Applies `d` to `pool`: an overload sets the machine's load, a failure
/// takes it down, a recovery brings it up with its load reset to zero. Each
/// effect overwrites, so replaying a time-sorted script in order is
/// idempotent.
void apply_disruption(ResourcePool& pool, const Disruption& d);

struct TaskRecord {
  std::size_t node = 0;
  MachineId machine = 0;
  double start = 0.0;
  double finish = 0.0;
  bool completed = false;
};

struct ExecutionReport {
  bool completed = false;
  double makespan = 0.0;     ///< finish time of the last completed task
  /// Σ duration · cost_rate over every task record — completed tasks in
  /// full, a task killed by a machine failure for its start→kill portion.
  double total_cost = 0.0;
  std::size_t tasks_completed = 0;
  std::vector<TaskRecord> tasks;
  double abort_time = 0.0;   ///< simulation time when the workflow aborted
  std::string note;
  /// Data items that exist after the completed tasks (plus the initial data)
  /// — the state a re-planner continues from.
  util::DynamicBitset data_state;
};

struct CoordinatorOptions {
  /// Abort execution when a machine that still has pending tasks gets
  /// overloaded past `overload_threshold` (load units) mid-run, so the
  /// workflow manager can re-plan around it. Off for the static-script
  /// baseline: a script just runs slower on the overloaded site (§1).
  bool abort_on_overload = false;
  double overload_threshold = 1.0;
};

class Coordinator {
 public:
  /// `pool` is mutated as disruptions take effect (it is the pool the
  /// planner snapshots, so a subsequent re-plan sees the degraded grid).
  /// Task durations come from problem.execution_seconds, which reads the
  /// live pool.
  Coordinator(const WorkflowProblem& problem, ResourcePool& pool,
              CoordinatorOptions options = {})
      : problem_(&problem), pool_(&pool), options_(options) {}

  /// Runs `graph` starting from `initial_data` at simulation time
  /// `start_time`. `disruptions` must be sorted by time; entries before
  /// start_time are applied immediately. `parent` attaches the grid_execute
  /// span (and the disruption events applied during the run) to a caller's
  /// trace; with no parent the execution roots a fresh trace.
  ExecutionReport execute(const ActivityGraph& graph,
                          const util::DynamicBitset& initial_data,
                          std::vector<Disruption> disruptions,
                          double start_time = 0.0,
                          obs::SpanContext parent = {});

 private:
  void apply_disruption(const Disruption& d);

  const WorkflowProblem* problem_;
  ResourcePool* pool_;
  CoordinatorOptions options_;
  obs::SpanContext span_ctx_;  ///< grid_execute span, while execute() runs
};

}  // namespace gaplan::grid
