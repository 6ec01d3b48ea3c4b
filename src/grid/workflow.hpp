// The workflow planning problem: the paper's target application (§1), cast
// into the same PlanningProblem concept as the puzzle domains.
//
// A state is the set of data items that exist so far; an operation is
// "run program P on machine M", valid when P's input data exist, M is up,
// and M meets P's memory requirement. Applying it adds P's outputs. The goal
// is a set of desired result data items. Operation cost is heterogeneous:
//     cost = (execution seconds + staging seconds) · machine cost rate
// so the GA's cost fitness (Eq. 2, inverse-cost variant) makes it prefer
// cheap fast machines — the "alternative sites capable of executing the
// program at lower costs" argument of §1.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "grid/resource.hpp"
#include "grid/service.hpp"
#include "util/bitset.hpp"

namespace gaplan::grid {

/// What an operation "costs" to the planner: a blend of money (execution
/// seconds x the machine's rate) and wall-clock seconds. money_weight=1,
/// time_weight=0 optimizes spend (the §1 "lower costs" story);
/// money_weight=0, time_weight=1 approximates makespan minimization
/// ("provide the results earlier").
struct WorkflowCostModel {
  double money_weight = 1.0;
  double time_weight = 0.0;
};

/// The workflow as a PlanningProblem over data states, planned against a
/// snapshot of the pool rather than the live pool. At construction (and in
/// resnapshot()) the problem records, per op, whether the machine is up with
/// enough memory and what the op costs under the current load. valid_ops,
/// op_applicable and op_cost read only those tables, so valid_ops is a pure
/// function of the state and the problem opts into the per-thread valid-ops
/// cache (kCacheableOps). execution_seconds stays live: the coordinator and
/// the activity graph time tasks under the load at execution time. The
/// workflow manager re-snapshots the live pool at the start of every planning
/// round (grid/replanner.hpp). The catalog and the pool must outlive the
/// problem and every copy of it.
class WorkflowProblem {
 public:
  using StateT = util::DynamicBitset;
  /// valid_ops reads the pool snapshot only.
  static constexpr bool kCacheableOps = true;

  /// `initial_data`/`goal_data` are data-item ids. The pool's machines (up,
  /// memory, load) are snapshotted here; later changes to it reach the
  /// planner only through resnapshot().
  WorkflowProblem(const ServiceCatalog& catalog, const ResourcePool& pool,
                  std::vector<DataId> initial_data, std::vector<DataId> goal_data,
                  WorkflowCostModel cost_model = {});

  /// A copy of this problem planning against the pool as it is now.
  WorkflowProblem resnapshot() const;

  // --- PlanningProblem concept ----------------------------------------------
  StateT initial_state() const { return initial_; }

  /// Canonical op id = program_id * pool.size() + machine_id, listed in
  /// ascending order. Operations whose outputs already all exist are pruned
  /// (they cannot progress the plan), which keeps the monotone search space
  /// finite.
  void valid_ops(const StateT& s, std::vector<int>& out) const;

  void apply(StateT& s, int op) const;
  double op_cost(const StateT& s, int op) const;
  std::string op_label(const StateT& s, int op) const;
  double goal_fitness(const StateT& s) const;
  bool is_goal(const StateT& s) const { return s.contains_all(goal_); }
  std::uint64_t hash(const StateT& s) const { return s.hash(); }
  // --- DirectEncodable --------------------------------------------------------
  std::size_t op_count() const noexcept {
    return catalog_->program_count() * machines_;
  }
  bool op_applicable(const StateT& s, int op) const;
  // ----------------------------------------------------------------------------

  ProgramId op_program(int op) const { return static_cast<std::size_t>(op) / machines_; }
  MachineId op_machine(int op) const { return static_cast<std::size_t>(op) % machines_; }

  /// Execution seconds of `program` on `machine` under the live pool's
  /// current load, including input staging time. Infinite if the machine is
  /// down.
  double execution_seconds(ProgramId program, MachineId machine) const;

  const ServiceCatalog& catalog() const noexcept { return *catalog_; }
  const ResourcePool& pool() const noexcept { return *pool_; }
  const StateT& goal() const noexcept { return goal_; }
  const WorkflowCostModel& cost_model() const noexcept { return cost_model_; }

  /// State helper: a bitset with the given data items present.
  StateT make_state(const std::vector<DataId>& data) const;

 private:
  const ServiceCatalog* catalog_;
  const ResourcePool* pool_;
  WorkflowCostModel cost_model_;
  StateT initial_;
  StateT goal_;
  std::size_t goal_count_;
  /// Precomputed per-program input/output bitsets for fast applicability.
  std::vector<util::DynamicBitset> program_inputs_;
  std::vector<util::DynamicBitset> program_outputs_;
  /// The pool snapshot, indexed by canonical op id: whether the machine is
  /// up and meets the program's memory requirement, and the op's cost.
  std::size_t machines_ = 0;
  std::vector<std::uint8_t> op_eligible_;
  std::vector<double> op_costs_;

  void snapshot_pool();
};

}  // namespace gaplan::grid
