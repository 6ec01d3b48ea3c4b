// The workflow planning problem over heterogeneous machines.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/multiphase.hpp"
#include "core/problem.hpp"
#include "grid/scenario.hpp"
#include "grid/workflow.hpp"

namespace {

using namespace gaplan;
using namespace gaplan::grid;

static_assert(ga::PlanningProblem<WorkflowProblem>);
static_assert(ga::DirectEncodable<WorkflowProblem>);
static_assert(ga::CacheableOps<WorkflowProblem>);

struct PipelineFixture {
  Scenario scenario = image_pipeline();
  ResourcePool pool = demo_pool();
  WorkflowProblem problem = scenario.problem(pool);
};

TEST(Workflow, InitialStateHoldsOnlyRawImage) {
  PipelineFixture f;
  const auto s = f.problem.initial_state();
  EXPECT_EQ(s.count(), 1u);
  EXPECT_TRUE(s.test(f.scenario.catalog.data_id("raw-image")));
  EXPECT_FALSE(f.problem.is_goal(s));
}

TEST(Workflow, OnlyInputSatisfiedProgramsAreValid) {
  PipelineFixture f;
  std::vector<int> ops;
  f.problem.valid_ops(f.problem.initial_state(), ops);
  // Only histogram-eq (program 0) can run, on any of the 4 machines.
  ASSERT_EQ(ops.size(), 4u);
  for (const int op : ops) EXPECT_EQ(f.problem.op_program(op), 0u);
}

TEST(Workflow, MemoryRequirementFiltersMachines) {
  PipelineFixture f;
  auto s = f.problem.initial_state();
  // Produce filtered-image so fft-wide (needs 12 GB) becomes relevant.
  f.problem.apply(s, static_cast<int>(0 * f.pool.size()));  // histogram-eq
  f.problem.apply(s, static_cast<int>(2 * f.pool.size()));  // highpass-basic
  std::vector<int> ops;
  f.problem.valid_ops(s, ops);
  // fft-wide is program 5; only bigmem-hpc (32 GB, machine 3) qualifies.
  int wide_ops = 0;
  for (const int op : ops) {
    if (f.problem.op_program(op) == 5) {
      ++wide_ops;
      EXPECT_EQ(f.problem.op_machine(op), 3u);
    }
  }
  EXPECT_EQ(wide_ops, 1);
}

TEST(Workflow, DownMachineExcluded) {
  PipelineFixture f;
  std::vector<int> healthy;
  f.problem.valid_ops(f.problem.initial_state(), healthy);
  ASSERT_TRUE(std::any_of(healthy.begin(), healthy.end(), [&](int op) {
    return f.problem.op_machine(op) == 1u;
  }));
  f.pool.set_up(1, false);
  // A problem planning after the failure, re-snapshotted or built anew,
  // leaves the down machine out.
  for (const WorkflowProblem& problem :
       {f.problem.resnapshot(), f.scenario.problem(f.pool)}) {
    std::vector<int> ops;
    problem.valid_ops(problem.initial_state(), ops);
    EXPECT_FALSE(ops.empty());
    for (const int op : ops) EXPECT_NE(problem.op_machine(op), 1u);
  }
  // The problem built before the failure keeps its snapshot.
  std::vector<int> ops;
  f.problem.valid_ops(f.problem.initial_state(), ops);
  EXPECT_EQ(ops, healthy);
}

TEST(Workflow, SatisfiedOutputsPruneOps) {
  PipelineFixture f;
  auto s = f.problem.initial_state();
  const int op = static_cast<int>(0 * f.pool.size());  // histogram-eq @ m0
  ASSERT_TRUE(f.problem.op_applicable(s, op));
  f.problem.apply(s, op);
  // Re-running histogram-eq adds nothing: pruned.
  EXPECT_FALSE(f.problem.op_applicable(s, op));
}

TEST(Workflow, ApplyIsMonotone) {
  PipelineFixture f;
  auto s = f.problem.initial_state();
  std::vector<int> ops;
  for (int step = 0; step < 10; ++step) {
    f.problem.valid_ops(s, ops);
    if (ops.empty()) break;
    const auto before = s.count();
    f.problem.apply(s, ops[0]);
    EXPECT_GT(s.count(), before);
  }
}

TEST(Workflow, CostReflectsHeterogeneity) {
  PipelineFixture f;
  const auto s = f.problem.initial_state();
  // histogram-eq on the fast machine vs the slow one.
  const double fast = f.problem.op_cost(s, 0);  // m0 fast-eu
  const double slow = f.problem.op_cost(s, 2);  // m2 slow-campus
  EXPECT_NE(fast, slow);
  // Overloading a machine raises its execution time and thus the cost a
  // re-snapshot plans with; the earlier snapshot keeps its cost.
  const double before = f.problem.op_cost(s, 1);
  f.pool.set_load(1, 4.0);
  EXPECT_GT(f.problem.resnapshot().op_cost(s, 1), before);
  EXPECT_EQ(f.problem.op_cost(s, 1), before);
}

TEST(Workflow, ExecutionSecondsInfiniteWhenDown) {
  PipelineFixture f;
  f.pool.set_up(0, false);
  EXPECT_TRUE(std::isinf(f.problem.execution_seconds(0, 0)));
}

TEST(Workflow, GoalFitnessCountsGoalData) {
  PipelineFixture f;
  auto s = f.problem.initial_state();
  EXPECT_DOUBLE_EQ(f.problem.goal_fitness(s), 0.0);
  s.set(f.scenario.catalog.data_id("analysis-report"));
  EXPECT_DOUBLE_EQ(f.problem.goal_fitness(s), 1.0);
  EXPECT_TRUE(f.problem.is_goal(s));
}

TEST(Workflow, GaPlansThePipeline) {
  PipelineFixture f;
  ga::GaConfig cfg;
  cfg.population_size = 80;
  cfg.generations = 40;
  cfg.phases = 3;
  cfg.initial_length = 8;
  cfg.max_length = 32;
  cfg.cost_fitness = ga::CostFitnessKind::kInverseCost;
  const auto result = ga::run_multiphase(f.problem, cfg, 21);
  ASSERT_TRUE(result.valid);
  EXPECT_TRUE(ga::plan_solves(f.problem, f.problem.initial_state(), result.plan));
  // The pipeline needs at least histogram-eq → highpass → fft → analyze.
  EXPECT_GE(result.plan.size(), 4u);
}

TEST(Workflow, GaAvoidsDownMachines) {
  PipelineFixture f;
  std::vector<int> healthy;
  f.problem.valid_ops(f.problem.initial_state(), healthy);
  f.pool.set_up(0, false);
  f.pool.set_up(1, false);
  const WorkflowProblem degraded = f.scenario.problem(f.pool);
  ga::GaConfig cfg;
  cfg.population_size = 80;
  cfg.generations = 40;
  cfg.phases = 3;
  cfg.initial_length = 8;
  cfg.max_length = 32;
  const auto result = ga::run_multiphase(degraded, cfg, 22);
  ASSERT_TRUE(result.valid);
  for (const int op : result.plan) {
    EXPECT_GE(degraded.op_machine(op), 2u);
  }
  // The problem built before the failures still offers machines 0 and 1.
  std::vector<int> ops;
  f.problem.valid_ops(f.problem.initial_state(), ops);
  EXPECT_EQ(ops, healthy);
}

TEST(Workflow, RejectsBadConstruction) {
  Scenario sc = image_pipeline();
  ResourcePool empty;
  EXPECT_THROW(WorkflowProblem(sc.catalog, empty, sc.initial_data, sc.goal_data),
               std::invalid_argument);
  ResourcePool pool = demo_pool();
  EXPECT_THROW(WorkflowProblem(sc.catalog, pool, sc.initial_data, {}),
               std::invalid_argument);
  EXPECT_THROW(WorkflowProblem(sc.catalog, pool, {999}, sc.goal_data),
               std::invalid_argument);
}

TEST(Workflow, OpLabelNamesProgramAndMachine) {
  PipelineFixture f;
  const auto s = f.problem.initial_state();
  EXPECT_EQ(f.problem.op_label(s, 0), "histogram-eq @ fast-eu");
  EXPECT_EQ(f.problem.op_label(s, 2), "histogram-eq @ slow-campus");
}

TEST(Workflow, CostModelWeightsSteerThePlanner) {
  // Money-optimal planning favours the cheap slow machine; time-optimal
  // planning favours the fast expensive one.
  const Scenario sc = image_pipeline();
  ResourcePool pool = demo_pool();
  const WorkflowProblem money(sc.catalog, pool, sc.initial_data, sc.goal_data,
                              {1.0, 0.0});
  const WorkflowProblem time(sc.catalog, pool, sc.initial_data, sc.goal_data,
                             {0.0, 1.0});
  const auto s = money.initial_state();
  // histogram-eq on fast-eu (m0) vs slow-campus (m2).
  EXPECT_LT(money.op_cost(s, 2), money.op_cost(s, 0))
      << "slow-campus should be cheaper in money";
  EXPECT_LT(time.op_cost(s, 0), time.op_cost(s, 2))
      << "fast-eu should be cheaper in time";

  ga::GaConfig cfg;
  cfg.population_size = 100;
  cfg.generations = 60;
  cfg.phases = 3;
  cfg.initial_length = 8;
  cfg.max_length = 32;
  cfg.cost_fitness = ga::CostFitnessKind::kInverseCost;
  const auto money_plan = ga::run_multiphase(money, cfg, 31);
  const auto time_plan = ga::run_multiphase(time, cfg, 31);
  ASSERT_TRUE(money_plan.valid);
  ASSERT_TRUE(time_plan.valid);
  const double money_seconds = [&] {
    double total = 0;
    for (const int op : time_plan.plan) {
      total += time.execution_seconds(time.op_program(op), time.op_machine(op));
    }
    return total;
  }();
  const double slow_seconds = [&] {
    double total = 0;
    for (const int op : money_plan.plan) {
      total += money.execution_seconds(money.op_program(op), money.op_machine(op));
    }
    return total;
  }();
  EXPECT_LE(money_seconds, slow_seconds)
      << "the time-optimized plan should not be slower than the money one";
}

TEST(Workflow, RejectsBadCostModel) {
  const Scenario sc = image_pipeline();
  ResourcePool pool = demo_pool();
  EXPECT_THROW(WorkflowProblem(sc.catalog, pool, sc.initial_data, sc.goal_data,
                               {0.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(WorkflowProblem(sc.catalog, pool, sc.initial_data, sc.goal_data,
                               {-1.0, 1.0}),
               std::invalid_argument);
}

TEST(RandomLayered, GeneratesSolvableWorkflows) {
  gaplan::util::Rng rng(33);
  const auto sc = random_layered(4, 3, 2, rng);
  EXPECT_EQ(sc.initial_data.size(), 3u);
  EXPECT_EQ(sc.goal_data.size(), 3u);
  EXPECT_EQ(sc.catalog.program_count(), 3u * 3u * 2u);
  ResourcePool pool = demo_pool();
  const auto problem = sc.problem(pool);
  ga::GaConfig cfg;
  cfg.population_size = 100;
  cfg.generations = 50;
  cfg.phases = 4;
  cfg.initial_length = 12;
  cfg.max_length = 60;
  const auto result = ga::run_multiphase(problem, cfg, 34);
  EXPECT_TRUE(result.valid);
}

}  // namespace
