// perfbench_inproc: the in-process side of the benchmark.
//
//   perfbench_inproc hanoi7 PHASES GENS
//       run_multiphase on 7-disk Hanoi, single-threaded.
//   perfbench_inproc grid FILE.grid...
//       plan_and_execute (the workflow_cli re-planner) on the files.
//   perfbench_inproc replay
//       reads {"problem":SPEC,"plan":[...]} lines (plans a server returned)
//       and answers each with {"replay_ok":..,"goal":..,"gf":..}.
//
// The planning modes build their problems, print {"ready":true}, and wait
// for one line on stdin before planning, so the caller can time set-up
// apart from planning. That line lists the request indices to plan, in
// order: index j plans with GA seed j + 1 (and, for grid, file j mod the
// file count). When every plan is made they take the summary: the planning
// loop's wall time, the process's CPU time and peak RSS, and the metrics
// registry. Only then is every plan replayed through the domain's public
// API, so the summary covers the planner alone. They print one JSON line per
// plan and last the {"summary":true,...} line; the caller decides what
// counts as a failure.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/multiphase.hpp"
#include "domains/hanoi.hpp"
#include "domains/sliding_tile.hpp"
#include "domains/sokoban.hpp"
#include "grid/replanner.hpp"
#include "grid/scenario_reader.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "server/problem_spec.hpp"
#include "server/wire.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace gaplan;

const char* json_bool(bool v) { return v ? "true" : "false"; }

/// Replays `plan` from the problem's initial state: every step must be one
/// of the state's valid operations. Returns false on the first invalid step.
/// Unlike ga::plan_solves it hands back the final state, whose goal fitness
/// the caller compares with the planner's.
template <typename P>
bool replay(const P& problem, const std::vector<int>& plan,
            typename P::StateT& state) {
  state = problem.initial_state();
  std::vector<int> valid;
  for (const int op : plan) {
    problem.valid_ops(state, valid);
    bool found = false;
    for (const int v : valid) found = found || v == op;
    if (!found) return false;
    problem.apply(state, op);
  }
  return true;
}

/// Announces set-up done and reads the request indices to plan.
std::vector<std::size_t> print_ready() {
  std::printf("{\"ready\":true}\n");
  std::fflush(stdout);
  std::string line;
  std::getline(std::cin, line);
  std::vector<std::size_t> order;
  std::istringstream in(line);
  for (std::size_t j = 0; in >> j;) order.push_back(j);
  return order;
}

/// The summary line, taken right after planning: `wall_s` is the planning
/// loop's wall time; CPU time, peak RSS and the metrics registry cover the
/// process up to now (set-up and planning, no replay).
std::string take_summary(double wall_s) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double cpu_s =
      static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
      static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  double rss_mb = 0.0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      rss_mb = std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  char head[128];
  std::snprintf(head, sizeof head,
                "{\"summary\":true,\"wall_s\":%.9f,\"cpu_s\":%.6f,"
                "\"rss_mb\":%.3f,\"metrics\":",
                wall_s, cpu_s, rss_mb);
  return head + obs::render_metrics_json(obs::snapshot_metrics()) + "}";
}

void print_summary(const std::string& summary) {
  std::printf("%s\n", summary.c_str());
  std::fflush(stdout);
}

int run_hanoi7(std::size_t phases, std::size_t gens) {
  const domains::Hanoi hanoi(7);
  // Table 1 operator settings, as the Hanoi-7 evaluation bench uses them.
  ga::GaConfig cfg;
  cfg.population_size = 200;
  cfg.phases = phases;
  cfg.generations = gens;
  cfg.crossover = ga::CrossoverKind::kMixed;
  cfg.crossover_rate = 0.9;
  cfg.mutation_rate = 0.01;
  cfg.tournament_size = 2;
  cfg.goal_weight = 0.9;
  cfg.cost_weight = 0.1;
  cfg.initial_length = static_cast<std::size_t>(hanoi.optimal_length());
  cfg.max_length = 10 * cfg.initial_length;
  // Only what the replay needs is kept, so peak RSS stays the planner's.
  struct Made {
    std::vector<int> plan;
    bool valid;
    double goal_fitness;
    std::size_t gens;
    double ms;
  };
  std::vector<Made> made;
  const auto order = print_ready();
  util::Timer wall;
  for (const std::size_t j : order) {
    util::Timer timer;
    auto result = ga::run_multiphase(hanoi, cfg, j + 1);
    made.push_back({std::move(result.plan), result.valid, result.goal_fitness,
                    result.generations_total, timer.millis()});
  }
  const std::string summary = take_summary(wall.seconds());
  for (const Made& m : made) {
    auto state = hanoi.initial_state();
    const bool replay_ok = replay(hanoi, m.plan, state);
    std::printf("{\"ms\":%.6f,\"valid\":%s,\"replay_ok\":%s,\"goal\":%s,"
                "\"gf\":%.17g,\"gf_replay\":%.17g,\"gens\":%zu,"
                "\"steps\":%zu}\n",
                m.ms, json_bool(m.valid), json_bool(replay_ok),
                json_bool(hanoi.is_goal(state)), m.goal_fitness,
                hanoi.goal_fitness(state), m.gens, m.plan.size());
  }
  print_summary(summary);
  return 0;
}

/// What the check needs of one planning round.
struct Round {
  std::vector<int> plan;
  bool plan_valid;
  bool graph_valid;
  bool stale;
  grid::WorkflowProblem::StateT end_state;  ///< after the round's execution
};

/// Replays every planning round of a re-planning outcome from the data
/// state it was planned from (the last executed round's end state). The
/// round's reported validity must match the replay; returns the mean goal
/// fitness the rounds' plans reach.
bool check_rounds(const grid::WorkflowProblem& problem, bool completed,
                  const std::vector<Round>& rounds, double& mean_gf) {
  auto start = problem.initial_state();
  double gf_sum = 0.0;
  for (const auto& round : rounds) {
    auto state = start;
    for (const int op : round.plan) problem.apply(state, op);
    if (problem.is_goal(state) != round.plan_valid) return false;
    if (round.plan_valid && round.graph_valid) {
      grid::ActivityGraph graph;
      std::string note;
      if (!grid::try_plan_graph(problem, start, round.plan, graph, note)) {
        return false;
      }
    }
    gf_sum += problem.goal_fitness(state);
    if (round.plan_valid && !round.stale && round.graph_valid) {
      start = round.end_state;
    }
  }
  mean_gf = rounds.empty() ? 0.0 : gf_sum / static_cast<double>(rounds.size());
  return !completed || problem.is_goal(start);
}

grid::WorkflowProblem problem_of(const grid::ScenarioFile& file,
                                 const grid::ResourcePool& pool) {
  return grid::WorkflowProblem(file.scenario.catalog, pool,
                               file.scenario.initial_data,
                               file.scenario.goal_data,
                               grid::WorkflowCostModel{1.0, 0.0});
}

int run_grid(const std::vector<std::string>& paths) {
  std::vector<grid::ScenarioFile> files;
  for (const std::string& path : paths) {
    files.push_back(grid::parse_scenario_file(path));
  }
  // Execution changes a scenario's pool; the check replays against the pool
  // as execution left it. Of the outcome only what the check needs is kept,
  // so peak RSS stays the planner's.
  struct Made {
    grid::ResourcePool pool;
    std::size_t file;
    bool completed;
    std::vector<Round> rounds;
    double plan_ms;
    double ms;
  };
  std::vector<Made> made;
  const auto order = print_ready();
  util::Timer wall;
  for (const std::size_t j : order) {
    const grid::ScenarioFile& file = files[j % files.size()];
    util::Timer timer;
    // workflow_cli's defaults.
    grid::ReplanConfig cfg;
    cfg.seed = j + 1;
    cfg.ga.population_size = 100;
    cfg.ga.generations = 60;
    cfg.ga.phases = 3;
    cfg.ga.initial_length =
        std::max<std::size_t>(4, file.scenario.catalog.program_count());
    cfg.ga.max_length = 8 * cfg.ga.initial_length;
    cfg.ga.crossover = ga::CrossoverKind::kMixed;
    cfg.ga.cost_fitness = ga::CostFitnessKind::kInverseCost;
    grid::ResourcePool pool = file.pool;
    auto outcome = grid::plan_and_execute(problem_of(file, pool), pool,
                                          file.disruptions, cfg);
    const double ms = timer.millis();
    std::vector<Round> rounds;
    double plan_ms = 0.0;
    for (auto& round : outcome.rounds) {
      rounds.push_back({std::move(round.plan), round.plan_valid,
                        round.graph_valid, round.stale,
                        std::move(round.execution.data_state)});
      plan_ms += round.plan_ms;
    }
    made.push_back({std::move(pool), j % files.size(), outcome.completed,
                    std::move(rounds), plan_ms, ms});
  }
  const std::string summary = take_summary(wall.seconds());
  for (const Made& m : made) {
    double gf = 0.0;
    const bool check_ok = check_rounds(problem_of(files[m.file], m.pool),
                                       m.completed, m.rounds, gf);
    std::printf("{\"ms\":%.6f,\"completed\":%s,\"check_ok\":%s,\"rounds\":%zu,"
                "\"plan_ms\":%.6f,\"gf\":%.17g}\n",
                m.ms, json_bool(m.completed), json_bool(check_ok),
                m.rounds.size(), m.plan_ms, gf);
  }
  print_summary(summary);
  return 0;
}

template <typename P>
void replay_line(const P& problem, const std::vector<int>& plan) {
  typename P::StateT state;
  const bool ok = replay(problem, plan, state);
  std::printf("{\"replay_ok\":%s,\"goal\":%s,\"gf\":%.17g}\n", json_bool(ok),
              json_bool(ok && problem.is_goal(state)),
              ok ? problem.goal_fitness(state) : 0.0);
}

int run_replay() {
  for (std::string line; std::getline(std::cin, line);) {
    serve::WireMessage msg;
    std::string error;
    const std::string* text = nullptr;
    const std::vector<double>* ops = nullptr;
    std::optional<serve::ProblemSpec> spec;
    if (serve::parse_wire_message(line, msg, error)) {
      text = msg.get_string("problem");
      ops = msg.get_array("plan");
    }
    if (text != nullptr) spec = serve::ProblemSpec::parse(*text, error);
    if (!spec || ops == nullptr) {
      std::printf("{\"replay_ok\":false,\"goal\":false,\"gf\":0}\n");
      continue;
    }
    const std::vector<int> plan(ops->begin(), ops->end());
    switch (spec->kind) {
      case serve::ProblemKind::kHanoi:
        replay_line(domains::Hanoi(spec->disks, spec->initial_stake,
                                   spec->goal_stake),
                    plan);
        break;
      case serve::ProblemKind::kSokoban:
        replay_line(domains::Sokoban(serve::sokoban_catalog_level(spec->level)),
                    plan);
        break;
      case serve::ProblemKind::kTiles: {
        util::Rng scramble(spec->scramble_seed);
        const domains::SlidingTile gen(spec->tiles_n);
        replay_line(domains::SlidingTile(spec->tiles_n,
                                         gen.random_solvable(scramble)),
                    plan);
        break;
      }
    }
  }
  std::fflush(stdout);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_inproc hanoi7 PHASES GENS\n"
               "       perfbench_inproc grid FILE.grid...\n"
               "       perfbench_inproc replay\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  try {
    if (mode == "replay") return run_replay();
    if (mode == "hanoi7" && argc == 4) {
      return run_hanoi7(std::strtoull(argv[2], nullptr, 10),
                        std::strtoull(argv[3], nullptr, 10));
    }
    if (mode == "grid" && argc >= 3) {
      return run_grid(std::vector<std::string>(argv + 2, argv + argc));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_inproc: %s\n", e.what());
    return 1;
  }
  return usage();
}
