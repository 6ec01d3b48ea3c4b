// Coordinator overload reaction and the re-planner's use of it (the §1
// "site A is overloaded, alternatives exist" scenario).
#include <gtest/gtest.h>

#include "gaplan.hpp"

namespace {

using namespace gaplan;
using namespace gaplan::grid;

struct Fixture {
  Scenario scenario = image_pipeline();
  ResourcePool pool = demo_pool();
  WorkflowProblem problem = scenario.problem(pool);

  int op(std::size_t program, std::size_t machine) const {
    return static_cast<int>(program * pool.size() + machine);
  }

  ActivityGraph graph(const std::vector<int>& plan) const {
    return ActivityGraph::from_plan(problem, problem.initial_state(), plan);
  }
};

TEST(OverloadReaction, OffByDefaultKeepsRunning) {
  Fixture f;
  const auto g = f.graph({f.op(0, 2), f.op(2, 2)});
  Coordinator c(f.problem, f.pool);  // no options: script-style execution
  const auto r = c.execute(g, f.problem.initial_state(),
                           {{1.0, 2, Disruption::Kind::kOverload, 5.0}});
  EXPECT_TRUE(r.completed);
}

TEST(OverloadReaction, AbortsWhenPendingWorkOnOverloadedMachine) {
  Fixture f;
  CoordinatorOptions opts;
  opts.abort_on_overload = true;
  const auto g = f.graph({f.op(0, 2), f.op(2, 2)});
  Coordinator c(f.problem, f.pool, opts);
  const double t0 = f.problem.execution_seconds(0, 2);
  const auto r = c.execute(g, f.problem.initial_state(),
                           {{t0 * 0.5, 2, Disruption::Kind::kOverload, 5.0}});
  EXPECT_FALSE(r.completed);
  EXPECT_NE(r.note.find("overloaded"), std::string::npos);
  // The running task drains before control returns.
  EXPECT_EQ(r.tasks_completed, 1u);
  EXPECT_GE(r.abort_time, t0);
}

TEST(OverloadReaction, IgnoresOverloadWithNoPendingWorkThere) {
  Fixture f;
  CoordinatorOptions opts;
  opts.abort_on_overload = true;
  const auto g = f.graph({f.op(0, 1), f.op(2, 1)});  // nothing on machine 3
  Coordinator c(f.problem, f.pool, opts);
  const auto r = c.execute(g, f.problem.initial_state(),
                           {{1.0, 3, Disruption::Kind::kOverload, 9.0}});
  EXPECT_TRUE(r.completed);
}

TEST(OverloadReaction, ThresholdFiltersMildLoad) {
  Fixture f;
  CoordinatorOptions opts;
  opts.abort_on_overload = true;
  opts.overload_threshold = 2.0;
  const auto g = f.graph({f.op(0, 2), f.op(2, 2)});
  Coordinator c(f.problem, f.pool, opts);
  const double t0 = f.problem.execution_seconds(0, 2);
  const auto r = c.execute(g, f.problem.initial_state(),
                           {{t0 * 0.5, 2, Disruption::Kind::kOverload, 1.5}});
  EXPECT_TRUE(r.completed) << "load 1.5 is under the 2.0 threshold";
}

TEST(OverloadReaction, PreexistingOverloadDoesNotTrigger) {
  // Overloads at or before start_time were visible to the planner already.
  Fixture f;
  CoordinatorOptions opts;
  opts.abort_on_overload = true;
  const auto g = f.graph({f.op(0, 2), f.op(2, 2)});
  Coordinator c(f.problem, f.pool, opts);
  const auto r = c.execute(g, f.problem.initial_state(),
                           {{0.0, 2, Disruption::Kind::kOverload, 5.0}});
  EXPECT_TRUE(r.completed);
}

TEST(OverloadReaction, ReplannerRoutesAroundOverload) {
  const Scenario sc = image_pipeline();
  ResourcePool pool = demo_pool();
  const auto problem = sc.problem(pool);
  ReplanConfig cfg;
  cfg.seed = 5;
  cfg.ga.population_size = 60;
  cfg.ga.generations = 40;
  cfg.ga.phases = 3;
  cfg.ga.initial_length = 8;
  cfg.ga.max_length = 32;
  cfg.ga.cost_fitness = ga::CostFitnessKind::kInverseCost;
  // The cheap machine everyone plans onto gets slammed early.
  const std::vector<Disruption> disruptions = {
      {10.0, 2, Disruption::Kind::kOverload, 4.0}};

  const auto reactive = plan_and_execute(problem, pool, disruptions, cfg);
  ASSERT_TRUE(reactive.completed);

  ResourcePool pool2 = demo_pool();
  const auto problem2 = sc.problem(pool2);
  auto passive_cfg = cfg;
  passive_cfg.react_to_overload = false;
  const auto passive = plan_and_execute(problem2, pool2, disruptions, passive_cfg);
  ASSERT_TRUE(passive.completed);

  if (reactive.planning_rounds > 1) {
    // When the reaction fired, the adapted schedule must not be slower.
    EXPECT_LE(reactive.makespan, passive.makespan + 1e-9);
    // And the re-planned rounds avoid the overloaded machine.
    for (std::size_t r = 1; r < reactive.rounds.size(); ++r) {
      for (const int op : reactive.rounds[r].plan) {
        EXPECT_NE(problem.op_machine(op), 2u);
      }
    }
  }
}

TEST(PlanHelpers, CostAndStringRendering) {
  const domains::Hanoi h(3);
  const auto plan = h.optimal_plan();
  EXPECT_DOUBLE_EQ(ga::plan_cost(h, h.initial_state(), plan), 7.0);
  const auto text = ga::plan_to_string(h, h.initial_state(), plan);
  EXPECT_NE(text.find("move A->B"), std::string::npos);
  EXPECT_NE(text.find(" -> "), std::string::npos);
  // Custom separator.
  const auto lines = ga::plan_to_string(h, h.initial_state(), plan, "\n");
  EXPECT_EQ(std::count(lines.begin(), lines.end(), '\n'), 6);
}

TEST(UmbrellaHeader, ExposesEverything) {
  // Compile-time check, mostly: a few symbols from each sub-library.
  EXPECT_EQ(domains::Hanoi(3).disks(), 3);
  EXPECT_EQ(demo_pool().size(), 4u);
  EXPECT_FALSE(ga::GaConfig{}.summary().empty());
  static_assert(ga::PlanningProblem<WorkflowProblem>);
}

}  // namespace
