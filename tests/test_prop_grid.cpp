// Pool-snapshot invariants of the grid workflow problem as properties
// (tests/prop/). A WorkflowProblem plans against the machines as they were
// when it was constructed or re-snapshotted; the workflow manager relies on
// both halves of that contract between planning rounds:
//   * a snapshot never moves: after any set_load/set_up sequence on the pool,
//     a problem built before it returns the same valid_ops, op_applicable and
//     op_cost on every state;
//   * a re-snapshot is exact: on every state it equals a WorkflowProblem
//     freshly constructed over the mutated pool.
// Workflows have at most 12 data items here, so "every state" is enumerated.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "grid/scenario.hpp"
#include "grid/scenario_reader.hpp"
#include "prop/prop.hpp"
#include "util/rng.hpp"

namespace {

using namespace gaplan;
using grid::WorkflowProblem;

struct PoolMutation {
  std::size_t machine = 0;
  bool set_up = false;  ///< set_up(machine, up) rather than set_load
  bool up = true;
  double load = 0.0;
};

struct SnapshotCase {
  bool genomics = true;  ///< else a random layered workflow
  std::uint64_t layered_seed = 0;
  std::size_t cost_model = 0;  ///< index into kCostModels
  std::vector<PoolMutation> mutations;
};

constexpr grid::WorkflowCostModel kCostModels[] = {
    {1.0, 0.0}, {0.0, 1.0}, {0.5, 2.0}};

/// Catalog + pool the problems of one case point into.
struct Grid {
  grid::Scenario scenario;
  grid::ResourcePool pool;
};

Grid make_grid(const SnapshotCase& c) {
  if (c.genomics) {
    auto file = grid::parse_scenario_file(std::string(GAPLAN_ASSET_DIR) +
                                          "/genomics_pipeline.grid");
    return {std::move(file.scenario), std::move(file.pool)};
  }
  util::Rng rng(c.layered_seed);
  const std::size_t layers = 2 + rng.below(3);
  const std::size_t width = 2 + rng.below(2);
  Grid g{grid::random_layered(layers, width, 1 + rng.below(3), rng), {}};
  g.pool = grid::ResourcePool::random_pool(2 + rng.below(4), 8.0, rng);
  return g;
}

prop::Gen<SnapshotCase> snapshot_case() {
  prop::Gen<SnapshotCase> g;
  g.sample = [](util::Rng& rng) {
    SnapshotCase c;
    c.genomics = rng.chance(0.5);
    c.layered_seed = rng();
    c.cost_model = rng.below(3);
    const std::size_t n = 1 + rng.below(8);
    for (std::size_t i = 0; i < n; ++i) {
      PoolMutation m;
      m.machine = rng.below(6);  // reduced modulo the pool size when applied
      m.set_up = rng.chance(0.5);
      m.up = rng.chance(0.4);
      static constexpr double kLoads[] = {0.0, 0.5, 1.0, 4.0};
      m.load = rng.chance(0.5) ? kLoads[rng.below(4)] : rng.uniform(0.0, 6.0);
      c.mutations.push_back(m);
    }
    return c;
  };
  g.shrink = [](const SnapshotCase& c) {
    std::vector<SnapshotCase> out;
    if (c.mutations.size() > 1) {
      SnapshotCase front = c;
      front.mutations.resize(c.mutations.size() / 2);
      out.push_back(std::move(front));
      SnapshotCase drop = c;
      drop.mutations.pop_back();
      out.push_back(std::move(drop));
    }
    return out;
  };
  g.show = [](const SnapshotCase& c) {
    std::string s = c.genomics ? "genomics"
                               : "layered(seed=" + std::to_string(c.layered_seed) + ")";
    s += " cost_model=" + std::to_string(c.cost_model) + " mutations=[";
    for (std::size_t i = 0; i < c.mutations.size(); ++i) {
      const PoolMutation& m = c.mutations[i];
      if (i) s += ", ";
      s += (m.set_up ? "up(" : "load(") + std::to_string(m.machine) + "," +
           (m.set_up ? std::to_string(m.up) : std::to_string(m.load)) + ")";
    }
    return s + "]";
  };
  return g;
}

/// Everything the planner reads of a problem's snapshot, on every state:
/// valid_ops per state, op_applicable per (state, op), and the bits of
/// op_cost per op (bit patterns, so the NaN cost of a down machine under a
/// zero weight compares equal to itself).
struct PlannerView {
  std::vector<std::vector<int>> valid;
  std::vector<std::uint8_t> applicable;
  std::vector<std::uint64_t> cost_bits;

  bool operator==(const PlannerView&) const = default;
};

PlannerView view_of(const WorkflowProblem& problem) {
  PlannerView v;
  const std::size_t items = problem.catalog().data_count();
  const int ops = static_cast<int>(problem.op_count());
  std::vector<int> scratch;
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << items); ++mask) {
    WorkflowProblem::StateT s(items);
    for (std::size_t d = 0; d < items; ++d) {
      if ((mask >> d) & 1U) s.set(d);
    }
    problem.valid_ops(s, scratch);
    v.valid.push_back(scratch);
    for (int op = 0; op < ops; ++op) {
      v.applicable.push_back(problem.op_applicable(s, op) ? 1 : 0);
    }
  }
  const auto any = problem.initial_state();
  for (int op = 0; op < ops; ++op) {
    v.cost_bits.push_back(std::bit_cast<std::uint64_t>(problem.op_cost(any, op)));
  }
  return v;
}

TEST(PropGrid, PoolSnapshotIsStableAndResnapshotIsExact) {
  prop::check(
      "workflow_pool_snapshot", snapshot_case(),
      [](const SnapshotCase& c) {
        Grid g = make_grid(c);
        ASSERT_LE(g.scenario.catalog.data_count(), 12u);
        const auto cost_model = kCostModels[c.cost_model];
        const auto fresh = [&] { return g.scenario.problem(g.pool, cost_model); };

        const WorkflowProblem first = fresh();
        const PlannerView first_view = view_of(first);
        WorkflowProblem current = first;
        PlannerView current_view = first_view;
        for (std::size_t i = 0; i < c.mutations.size(); ++i) {
          const PoolMutation& m = c.mutations[i];
          const grid::MachineId id = m.machine % g.pool.size();
          if (m.set_up) {
            g.pool.set_up(id, m.up);
          } else {
            g.pool.set_load(id, m.load);
          }
          ASSERT_TRUE(view_of(current) == current_view)
              << "snapshot moved with mutation " << i;
          current = current.resnapshot();
          current_view = view_of(current);
          ASSERT_TRUE(current_view == view_of(fresh()))
              << "re-snapshot differs from a fresh problem after mutation " << i;
        }
        EXPECT_TRUE(view_of(first) == first_view)
            << "the first snapshot moved over the whole sequence";
      },
      {.iterations = 20});
}

}  // namespace
