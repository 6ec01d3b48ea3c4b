#include "grid/workflow.hpp"

#include <limits>
#include <stdexcept>

namespace gaplan::grid {

WorkflowProblem::WorkflowProblem(const ServiceCatalog& catalog,
                                 const ResourcePool& pool,
                                 std::vector<DataId> initial_data,
                                 std::vector<DataId> goal_data,
                                 WorkflowCostModel cost_model)
    : catalog_(&catalog), pool_(&pool), cost_model_(cost_model) {
  if (cost_model_.money_weight < 0.0 || cost_model_.time_weight < 0.0 ||
      cost_model_.money_weight + cost_model_.time_weight <= 0.0) {
    throw std::invalid_argument("WorkflowProblem: bad cost model weights");
  }
  if (pool.size() == 0) {
    throw std::invalid_argument("WorkflowProblem: empty resource pool");
  }
  initial_ = make_state(initial_data);
  goal_ = make_state(goal_data);
  goal_count_ = goal_.count();
  if (goal_count_ == 0) {
    throw std::invalid_argument("WorkflowProblem: empty goal");
  }
  program_inputs_.reserve(catalog.program_count());
  program_outputs_.reserve(catalog.program_count());
  for (std::size_t p = 0; p < catalog.program_count(); ++p) {
    util::DynamicBitset in(catalog.data_count()), out(catalog.data_count());
    for (const DataId d : catalog.program(p).inputs) in.set(d);
    for (const DataId d : catalog.program(p).outputs) out.set(d);
    program_inputs_.push_back(std::move(in));
    program_outputs_.push_back(std::move(out));
  }
  snapshot_pool();
}

void WorkflowProblem::snapshot_pool() {
  machines_ = pool_->size();
  const std::size_t ops = catalog_->program_count() * machines_;
  op_eligible_.assign(ops, 0);
  op_costs_.assign(ops, 0.0);
  for (std::size_t op = 0; op < ops; ++op) {
    const ProgramId p = op / machines_;
    const MachineId m = op % machines_;
    const Machine& machine = pool_->machine(m);
    op_eligible_[op] =
        machine.up && machine.memory_gb >= catalog_->program(p).min_memory_gb;
    const double seconds = execution_seconds(p, m);
    op_costs_[op] = cost_model_.money_weight * seconds * machine.cost_rate +
                    cost_model_.time_weight * seconds;
  }
}

WorkflowProblem WorkflowProblem::resnapshot() const {
  WorkflowProblem copy = *this;
  copy.snapshot_pool();
  return copy;
}

WorkflowProblem::StateT WorkflowProblem::make_state(
    const std::vector<DataId>& data) const {
  StateT s(catalog_->data_count());
  for (const DataId d : data) {
    if (d >= catalog_->data_count()) {
      throw std::invalid_argument("WorkflowProblem: unknown data id");
    }
    s.set(d);
  }
  return s;
}

bool WorkflowProblem::op_applicable(const StateT& s, int op) const {
  if (op < 0 || static_cast<std::size_t>(op) >= op_count()) return false;
  if (!op_eligible_[static_cast<std::size_t>(op)]) return false;
  const ProgramId p = op_program(op);
  // Prune operations that cannot add anything new.
  return s.contains_all(program_inputs_[p]) && !s.contains_all(program_outputs_[p]);
}

void WorkflowProblem::valid_ops(const StateT& s, std::vector<int>& out) const {
  out.clear();
  for (std::size_t p = 0; p < program_inputs_.size(); ++p) {
    if (!s.contains_all(program_inputs_[p]) || s.contains_all(program_outputs_[p])) {
      continue;
    }
    for (std::size_t op = p * machines_; op < (p + 1) * machines_; ++op) {
      if (op_eligible_[op]) out.push_back(static_cast<int>(op));
    }
  }
}

void WorkflowProblem::apply(StateT& s, int op) const {
  s.set_union(program_outputs_[op_program(op)]);
}

double WorkflowProblem::execution_seconds(ProgramId program, MachineId machine) const {
  const Machine& m = pool_->machine(machine);
  const double speed = m.effective_speed();
  if (speed <= 0.0) return std::numeric_limits<double>::infinity();
  const double compute = catalog_->program(program).work / speed;
  const double staging =
      catalog_->input_volume_gb(program) * 8.0 / m.bandwidth_gbps;  // GB → seconds
  return compute + staging;
}

double WorkflowProblem::op_cost(const StateT&, int op) const {
  return op_costs_[static_cast<std::size_t>(op)];
}

std::string WorkflowProblem::op_label(const StateT&, int op) const {
  return catalog_->program(op_program(op)).name + " @ " +
         pool_->machine(op_machine(op)).name;
}

double WorkflowProblem::goal_fitness(const StateT& s) const {
  return static_cast<double>(s.count_common(goal_)) /
         static_cast<double>(goal_count_);
}

}  // namespace gaplan::grid
