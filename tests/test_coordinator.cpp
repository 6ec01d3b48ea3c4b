// Coordination-service simulator: scheduling, disruptions, abort reporting.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "grid/coordinator.hpp"
#include "grid/scenario.hpp"
#include "obs/trace.hpp"

namespace {

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

TEST(Coordinator, ExecutesChainToCompletion) {
  Fixture f;
  const auto g = f.graph({f.op(0, 1), f.op(2, 1), f.op(4, 1), f.op(6, 1)});
  Coordinator c(f.problem, f.pool);
  const auto r = c.execute(g, f.problem.initial_state(), {});
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.tasks_completed, 4u);
  EXPECT_TRUE(f.problem.is_goal(r.data_state));
  // Serial chain on one machine: makespan = sum of durations.
  double expected = 0;
  for (const std::size_t p : {0u, 2u, 4u, 6u}) {
    expected += f.problem.execution_seconds(p, 1);
  }
  EXPECT_NEAR(r.makespan, expected, 1e-9);
  EXPECT_NEAR(r.total_cost, expected * f.pool.machine(1).cost_rate, 1e-9);
}

TEST(Coordinator, ParallelBranchesOverlapAcrossMachines) {
  Fixture f;
  // Two independent programs after histogram-eq, on different machines.
  const auto g = f.graph({f.op(0, 0), f.op(1, 1), f.op(2, 2)});
  Coordinator c(f.problem, f.pool);
  const auto r = c.execute(g, f.problem.initial_state(), {});
  ASSERT_TRUE(r.completed);
  const double t0 = f.problem.execution_seconds(0, 0);
  // Both successors start when histogram-eq finishes.
  EXPECT_NEAR(r.tasks[1].start, t0, 1e-9);
  EXPECT_NEAR(r.tasks[2].start, t0, 1e-9);
  // Makespan is the longer branch, not the sum.
  const double longer = std::max(f.problem.execution_seconds(1, 1),
                                 f.problem.execution_seconds(2, 2));
  EXPECT_NEAR(r.makespan, t0 + longer, 1e-9);
}

TEST(Coordinator, SameMachineTasksQueue) {
  Fixture f;
  const auto g = f.graph({f.op(0, 0), f.op(1, 0), f.op(2, 0)});
  Coordinator c(f.problem, f.pool);
  const auto r = c.execute(g, f.problem.initial_state(), {});
  ASSERT_TRUE(r.completed);
  // All on machine 0: no overlap.
  for (std::size_t i = 1; i < r.tasks.size(); ++i) {
    EXPECT_GE(r.tasks[i].start, r.tasks[i - 1].finish - 1e-9);
  }
}

TEST(Coordinator, OverloadSlowsTasksStartedAfterIt) {
  Fixture f;
  const auto g = f.graph({f.op(0, 2), f.op(2, 2)});
  Coordinator c(f.problem, f.pool);
  const double t0 = f.problem.execution_seconds(0, 2);
  // Overload machine 2 just after the first task starts.
  const auto r = c.execute(
      g, f.problem.initial_state(),
      {{t0 * 0.5, 2, Disruption::Kind::kOverload, 3.0}});
  ASSERT_TRUE(r.completed);
  // Task 0's duration was fixed at start (load 0); task 1 runs 4x slower
  // compute (staging unaffected by load).
  EXPECT_NEAR(r.tasks[0].finish, t0, 1e-9);
  const double slowed = f.problem.execution_seconds(2, 2);  // load now 3.0
  EXPECT_NEAR(r.tasks[1].finish - r.tasks[1].start, slowed, 1e-9);
}

TEST(Coordinator, FailureWhileMachineIdleAbortsNextTaskOnIt) {
  Fixture f;
  // histogram-eq on m1, then denoise on m0, then highpass-denoised back on
  // m1 — m1 sits idle while denoise runs, and dies during that gap.
  const auto g = f.graph({f.op(0, 1), f.op(1, 0), f.op(3, 1)});
  Coordinator c(f.problem, f.pool);
  const double t0 = f.problem.execution_seconds(0, 1);
  const double gap = f.problem.execution_seconds(1, 0);
  const auto r =
      c.execute(g, f.problem.initial_state(),
                {{t0 + gap * 0.5, 1, Disruption::Kind::kFailure, 0.0}});
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.tasks_completed, 2u);
  EXPECT_NE(r.note.find("down"), std::string::npos);
  // Completed outputs survive in the data state; the killed task's don't.
  EXPECT_TRUE(r.data_state.test(f.scenario.catalog.data_id("equalized-image")));
  EXPECT_TRUE(r.data_state.test(f.scenario.catalog.data_id("denoised-image")));
  EXPECT_FALSE(r.data_state.test(f.scenario.catalog.data_id("filtered-image")));
}

TEST(Coordinator, FailureBetweenDependentTasksKillsRunningOne) {
  Fixture f;
  const auto g = f.graph({f.op(0, 1), f.op(2, 1)});
  Coordinator c(f.problem, f.pool);
  const double t0 = f.problem.execution_seconds(0, 1);
  // The second task starts at exactly t0; the failure lands just inside it.
  const auto r = c.execute(g, f.problem.initial_state(),
                           {{t0 + 0.01, 1, Disruption::Kind::kFailure, 0.0}});
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.tasks_completed, 1u);
  EXPECT_NE(r.note.find("failed"), std::string::npos);
  EXPECT_TRUE(r.data_state.test(f.scenario.catalog.data_id("equalized-image")));
  EXPECT_FALSE(r.data_state.test(f.scenario.catalog.data_id("filtered-image")));
}

TEST(Coordinator, FailureMidTaskKillsIt) {
  Fixture f;
  const auto g = f.graph({f.op(0, 2)});
  Coordinator c(f.problem, f.pool);
  const double t0 = f.problem.execution_seconds(0, 2);
  const auto r = c.execute(g, f.problem.initial_state(),
                           {{t0 * 0.5, 2, Disruption::Kind::kFailure, 0.0}});
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.tasks_completed, 0u);
  EXPECT_NEAR(r.abort_time, t0 * 0.5, 1e-9);
  EXPECT_NE(r.note.find("failed"), std::string::npos);
  ASSERT_EQ(r.tasks.size(), 1u);
  EXPECT_FALSE(r.tasks[0].completed);
  // The pool reflects the failure for the re-planner.
  EXPECT_FALSE(f.pool.machine(2).up);
}

TEST(Coordinator, KilledTaskIsBilledForItsPartialRun) {
  // A task killed mid-flight consumed the machine from start to kill — that
  // span must be billed, or every chaos scenario under-reports its spend.
  Fixture f;
  const auto g = f.graph({f.op(0, 2)});
  Coordinator c(f.problem, f.pool);
  const double t0 = f.problem.execution_seconds(0, 2);
  const double kill_at = t0 * 0.5;
  const auto r = c.execute(g, f.problem.initial_state(),
                           {{kill_at, 2, Disruption::Kind::kFailure, 0.0}});
  ASSERT_FALSE(r.completed);
  ASSERT_EQ(r.tasks.size(), 1u);
  EXPECT_NEAR(r.tasks[0].finish, kill_at, 1e-9);
  EXPECT_NEAR(r.total_cost, kill_at * f.pool.machine(2).cost_rate, 1e-9);
  // Invariant used by the chaos audit: cost == Σ (finish-start)·rate.
  double records = 0.0;
  for (const auto& t : r.tasks) {
    records += (t.finish - t.start) * f.pool.machine(t.machine).cost_rate;
  }
  EXPECT_NEAR(r.total_cost, records, 1e-9);
}

TEST(Coordinator, KilledTaskBillingAddsToCompletedWork) {
  // One task completes on m1, the next dies halfway: total cost must cover
  // the full first task plus the killed portion of the second.
  Fixture f;
  const auto g = f.graph({f.op(0, 1), f.op(2, 1)});
  Coordinator c(f.problem, f.pool);
  const double t0 = f.problem.execution_seconds(0, 1);
  const double t1 = f.problem.execution_seconds(2, 1);
  const auto r = c.execute(g, f.problem.initial_state(),
                           {{t0 + t1 * 0.5, 1, Disruption::Kind::kFailure, 0.0}});
  ASSERT_FALSE(r.completed);
  EXPECT_EQ(r.tasks_completed, 1u);
  EXPECT_NEAR(r.total_cost, (t0 + t1 * 0.5) * f.pool.machine(1).cost_rate, 1e-9);
}

TEST(Coordinator, FailureOnOtherMachineIsHarmless) {
  Fixture f;
  const auto g = f.graph({f.op(0, 1)});
  Coordinator c(f.problem, f.pool);
  const auto r = c.execute(g, f.problem.initial_state(),
                           {{0.5, 3, Disruption::Kind::kFailure, 0.0}});
  EXPECT_TRUE(r.completed);
}

TEST(Coordinator, RecoveryRestoresMachine) {
  Fixture f;
  const auto g = f.graph({f.op(0, 1)});
  Coordinator c(f.problem, f.pool);
  // Machine 1 fails at t=0 and recovers before anything else can start...
  // except the task starts at t=0, so it must abort; with the recovery first
  // (time 0 as well, listed before), the machine is up again.
  const auto r = c.execute(g, f.problem.initial_state(),
                           {{0.0, 1, Disruption::Kind::kFailure, 0.0},
                            {0.0, 1, Disruption::Kind::kRecovery, 0.0}});
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(f.pool.machine(1).up);
}

TEST(Coordinator, DisruptionsAreJournaledByKind) {
  const std::string path = ::testing::TempDir() + "gaplan_disruptions.jsonl";
  std::remove(path.c_str());
  gaplan::obs::set_trace_path(path);
  {
    Fixture f;
    const auto g = f.graph({f.op(0, 1)});
    Coordinator c(f.problem, f.pool);
    c.execute(g, f.problem.initial_state(),
              {{0.0, 2, Disruption::Kind::kOverload, 2.0},
               {0.0, 1, Disruption::Kind::kFailure, 0.0},
               {0.0, 1, Disruption::Kind::kRecovery, 0.0}});
  }
  gaplan::obs::set_trace_path("");
  std::ifstream in(path);
  const std::string journal((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  for (const char* kind : {"overload", "failure", "recovery"}) {
    EXPECT_NE(journal.find(std::string("\"kind\":\"") + kind + "\""),
              std::string::npos)
        << kind;
  }
  std::remove(path.c_str());
}

TEST(Coordinator, StartTimeOffsetsSchedule) {
  Fixture f;
  const auto g = f.graph({f.op(0, 1)});
  Coordinator c(f.problem, f.pool);
  const auto r = c.execute(g, f.problem.initial_state(), {}, /*start_time=*/100.0);
  ASSERT_TRUE(r.completed);
  EXPECT_NEAR(r.tasks[0].start, 100.0, 1e-9);
  EXPECT_GT(r.makespan, 100.0);
}

TEST(Coordinator, RejectsUnsortedDisruptions) {
  Fixture f;
  const auto g = f.graph({f.op(0, 1)});
  Coordinator c(f.problem, f.pool);
  EXPECT_THROW(c.execute(g, f.problem.initial_state(),
                         {{5.0, 0, Disruption::Kind::kOverload, 1.0},
                          {1.0, 0, Disruption::Kind::kOverload, 1.0}}),
               std::invalid_argument);
}

TEST(Coordinator, EmptyGraphCompletesImmediately) {
  Fixture f;
  Coordinator c(f.problem, f.pool);
  const auto r = c.execute(ActivityGraph::from_plan(
                               f.problem, f.problem.initial_state(), {}),
                           f.problem.initial_state(), {});
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.makespan, 0.0);
  EXPECT_EQ(r.total_cost, 0.0);
}

}  // namespace
