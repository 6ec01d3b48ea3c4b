#include "grid/coordinator.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gaplan::grid {

namespace {

const char* disruption_name(Disruption::Kind kind) {
  switch (kind) {
    case Disruption::Kind::kOverload: return "overload";
    case Disruption::Kind::kFailure: return "failure";
    case Disruption::Kind::kRecovery: return "recovery";
  }
  return "?";
}

}  // namespace

void apply_disruption(ResourcePool& pool, const Disruption& d) {
  switch (d.kind) {
    case Disruption::Kind::kOverload:
      pool.set_load(d.machine, d.load);
      break;
    case Disruption::Kind::kFailure:
      pool.set_up(d.machine, false);
      break;
    case Disruption::Kind::kRecovery:
      pool.set_up(d.machine, true);
      pool.set_load(d.machine, 0.0);
      break;
  }
}

void Coordinator::apply_disruption(const Disruption& d) {
  static obs::Counter& c_disruptions = obs::counter("grid.disruptions");
  c_disruptions.inc();
  if (obs::trace_enabled()) {
    obs::TraceEvent("grid_disruption")
        .in(span_ctx_)
        .f("sim_time", d.time)
        .f("machine", static_cast<std::uint64_t>(d.machine))
        .f("kind", std::string_view(disruption_name(d.kind)))
        .f("load", d.load)
        .emit();
  }
  grid::apply_disruption(*pool_, d);
}

ExecutionReport Coordinator::execute(const ActivityGraph& graph,
                                     const util::DynamicBitset& initial_data,
                                     std::vector<Disruption> disruptions,
                                     double start_time,
                                     obs::SpanContext parent) {
  if (!std::is_sorted(disruptions.begin(), disruptions.end(),
                      [](const Disruption& a, const Disruption& b) {
                        return a.time < b.time;
                      })) {
    throw std::invalid_argument("Coordinator: disruptions must be time-sorted");
  }

  obs::ScopedSpan span("grid_execute", parent);
  span_ctx_ = span.context();
  static obs::Counter& c_tasks = obs::counter("grid.tasks_completed");
  static obs::Counter& c_aborts = obs::counter("grid.aborts");
  auto finalize = [&](ExecutionReport& r) {
    c_tasks.inc(r.tasks_completed);
    if (!r.completed) c_aborts.inc();
    span.f("completed", r.completed)
        .f("tasks", r.tasks_completed)
        .f("makespan", r.makespan)
        .f("total_cost", r.total_cost);
    if (!r.note.empty()) span.f("note", std::string_view(r.note));
    span_ctx_ = {};
  };

  ExecutionReport report;
  report.data_state = initial_data;
  std::size_t next_disruption = 0;
  // Machine whose *mid-run* overload should trigger a re-plan abort (only
  // disruptions occurring after start_time count — earlier ones were already
  // visible to the planner).
  std::ptrdiff_t overloaded_machine = -1;
  double overload_time = 0.0;
  auto apply_until = [&](double t) {
    while (next_disruption < disruptions.size() &&
           disruptions[next_disruption].time <= t) {
      const Disruption& d = disruptions[next_disruption];
      apply_disruption(d);
      if (options_.abort_on_overload && d.time > start_time &&
          d.kind == Disruption::Kind::kOverload &&
          d.load > options_.overload_threshold) {
        overloaded_machine = static_cast<std::ptrdiff_t>(d.machine);
        overload_time = d.time;
      }
      ++next_disruption;
    }
  };
  apply_until(start_time);

  const std::size_t n = graph.size();
  std::vector<bool> scheduled(n, false);
  std::vector<double> finish(n, 0.0);
  std::vector<double> machine_free(problem_->pool().size(), start_time);

  for (std::size_t done = 0; done < n; ++done) {
    // Pick the runnable node with the earliest possible start (plan order as
    // tie-break). Starts are globally non-decreasing under this policy, so
    // disruptions can be applied lazily as simulation time advances.
    std::size_t best = n;
    double best_start = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      if (scheduled[i]) continue;
      double ready = start_time;
      bool deps_done = true;
      for (const std::size_t dep : graph.nodes()[i].deps) {
        if (!scheduled[dep]) {
          deps_done = false;
          break;
        }
        ready = std::max(ready, finish[dep]);
      }
      if (!deps_done) continue;
      const double est =
          std::max(ready, machine_free[graph.nodes()[i].machine]);
      if (est < best_start) {
        best_start = est;
        best = i;
      }
    }
    if (best == n) {
      throw std::logic_error("Coordinator: no runnable node (cyclic graph?)");
    }

    apply_until(best_start);
    // Overload reaction: if a machine with pending work degraded mid-run,
    // hand control back to the workflow manager for re-planning.
    if (overloaded_machine >= 0) {
      bool pending_on_it = false;
      for (std::size_t i = 0; i < n; ++i) {
        if (!scheduled[i] &&
            graph.nodes()[i].machine ==
                static_cast<MachineId>(overloaded_machine)) {
          pending_on_it = true;
          break;
        }
      }
      if (pending_on_it) {
        // Stop dispatching; in-flight tasks drain (their outputs are already
        // in data_state), then control returns to the manager.
        report.abort_time =
            std::max({overload_time, best_start, report.makespan});
        report.note = "machine " +
                      pool_->machine(static_cast<MachineId>(overloaded_machine)).name +
                      " overloaded; aborting for re-planning";
        finalize(report);
        return report;
      }
      overloaded_machine = -1;  // no pending work there: keep going
    }
    const ActivityNode& node = graph.nodes()[best];
    const Machine& machine = pool_->machine(node.machine);
    if (!machine.up) {
      report.abort_time = std::max(best_start, report.makespan);
      report.note = "machine " + machine.name + " is down; task '" +
                    problem_->catalog().program(node.program).name +
                    "' cannot start";
      finalize(report);
      return report;
    }
    const double duration = problem_->execution_seconds(node.program, node.machine);
    const double task_finish = best_start + duration;

    // A failure on this machine before the task finishes kills it.
    for (std::size_t d = next_disruption; d < disruptions.size(); ++d) {
      if (disruptions[d].time >= task_finish) break;
      if (disruptions[d].machine == node.machine &&
          disruptions[d].kind == Disruption::Kind::kFailure) {
        apply_until(disruptions[d].time);
        report.abort_time = std::max(disruptions[d].time, report.makespan);
        report.note = "machine " + machine.name + " failed at t=" +
                      std::to_string(disruptions[d].time) + " killing task '" +
                      problem_->catalog().program(node.program).name + "'";
        TaskRecord rec{best, node.machine, best_start, disruptions[d].time, false};
        report.tasks.push_back(rec);
        // The grid bills machine time whether or not the task finished: the
        // start→kill portion is charged at the machine's rate, so adaptive
        // runs don't look artificially cheap against the static script.
        report.total_cost +=
            (disruptions[d].time - best_start) * machine.cost_rate;
        finalize(report);
        return report;
      }
    }

    scheduled[best] = true;
    finish[best] = task_finish;
    machine_free[node.machine] = task_finish;
    report.tasks.push_back({best, node.machine, best_start, task_finish, true});
    ++report.tasks_completed;
    report.total_cost += duration * machine.cost_rate;
    report.makespan = std::max(report.makespan, task_finish);
    for (const DataId out : problem_->catalog().program(node.program).outputs) {
      report.data_state.set(out);
    }
  }
  report.completed = true;
  finalize(report);
  return report;
}

}  // namespace gaplan::grid
