// planner_cli: solve STRIPS domain files from the command line with the GA
// planner or any baseline search — the "downstream user" front end.
//
//   planner_cli <file.strips> [options]
//   planner_cli --builtin hanoi:5 | sokoban:1 | tiles:3:SEED | cube:6:SEED
//               [options]
//     --lifted              file uses the lifted (schema) syntax
//     --problem N           which (problem ...) block to solve (default 0)
//     --algo ga|bfs|astar|greedy|hillclimb|randomwalk   (default ga)
//     --pop N --gens N --phases N --maxlen N --initlen N
//     --crossover random|state-aware|mixed|uniform
//     --seed N
//     --simplify            post-optimize the plan (loop excision)
//     --quiet               print only the verdict line
//
// Built-in specs other than cube: are the planning service's
// (server/problem_spec.hpp): the same parser, puzzle and genome lengths. A
// malformed or surplus field is a usage error.
//
// Exit status: 0 when a valid plan was found, 1 otherwise, 2 on usage errors.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "core/multiphase.hpp"
#include "core/simplify.hpp"
#include "domains/hanoi.hpp"
#include "domains/pocket_cube.hpp"
#include "domains/sliding_tile.hpp"
#include "search/astar.hpp"
#include "search/bfs.hpp"
#include "search/hill_climb.hpp"
#include "search/random_walk.hpp"
#include "server/problem_spec.hpp"
#include "strips/lifted.hpp"
#include "strips/reader.hpp"
#include "strips/validator.hpp"
#include "util/timer.hpp"

namespace {

using namespace gaplan;

struct Options {
  std::string file;
  std::string builtin;  ///< a ProblemSpec string or "cube:DEPTH[:SEED]"
  bool lengths_given = false;  ///< --initlen or --maxlen on the command line
  bool lifted = false;
  std::size_t problem_index = 0;
  std::string algo = "ga";
  ga::GaConfig ga;
  std::uint64_t seed = 1;
  bool simplify = false;
  bool quiet = false;
};

void usage() {
  std::fprintf(stderr,
               "usage: planner_cli <file.strips> [--lifted] [--problem N]\n"
               "       planner_cli --builtin hanoi:N[:FROM:TO]|sokoban:LEVEL|\n"
               "                             tiles:N[:SEED]|cube:DEPTH[:SEED]\n"
               "       [--algo ga|bfs|astar|greedy|hillclimb|randomwalk]\n"
               "       [--pop N] [--gens N] [--phases N] [--initlen N] [--maxlen N]\n"
               "       [--crossover random|state-aware|mixed|uniform]\n"
               "       [--seed N] [--simplify] [--quiet]\n");
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options opt;
  opt.ga.population_size = 100;
  opt.ga.generations = 100;
  opt.ga.phases = 5;
  opt.ga.initial_length = 16;
  opt.ga.max_length = 160;
  opt.ga.crossover = ga::CrossoverKind::kMixed;

  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "planner_cli: %s needs a value\n", argv[i]);
      return nullptr;
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--lifted") == 0) {
      opt.lifted = true;
    } else if (std::strcmp(arg, "--simplify") == 0) {
      opt.simplify = true;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      opt.quiet = true;
    } else if (std::strcmp(arg, "--builtin") == 0) {
      const char* v = need_value(i);
      if (!v) return std::nullopt;
      opt.builtin = v;
    } else if (std::strcmp(arg, "--problem") == 0) {
      const char* v = need_value(i);
      if (!v) return std::nullopt;
      opt.problem_index = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(arg, "--algo") == 0) {
      const char* v = need_value(i);
      if (!v) return std::nullopt;
      opt.algo = v;
    } else if (std::strcmp(arg, "--pop") == 0) {
      const char* v = need_value(i);
      if (!v) return std::nullopt;
      opt.ga.population_size = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(arg, "--gens") == 0) {
      const char* v = need_value(i);
      if (!v) return std::nullopt;
      opt.ga.generations = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(arg, "--phases") == 0) {
      const char* v = need_value(i);
      if (!v) return std::nullopt;
      opt.ga.phases = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(arg, "--initlen") == 0) {
      const char* v = need_value(i);
      if (!v) return std::nullopt;
      opt.ga.initial_length = std::strtoull(v, nullptr, 10);
      opt.lengths_given = true;
    } else if (std::strcmp(arg, "--maxlen") == 0) {
      const char* v = need_value(i);
      if (!v) return std::nullopt;
      opt.ga.max_length = std::strtoull(v, nullptr, 10);
      opt.lengths_given = true;
    } else if (std::strcmp(arg, "--seed") == 0) {
      const char* v = need_value(i);
      if (!v) return std::nullopt;
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(arg, "--crossover") == 0) {
      const char* v = need_value(i);
      if (!v) return std::nullopt;
      if (std::strcmp(v, "random") == 0) {
        opt.ga.crossover = ga::CrossoverKind::kRandom;
      } else if (std::strcmp(v, "state-aware") == 0) {
        opt.ga.crossover = ga::CrossoverKind::kStateAware;
      } else if (std::strcmp(v, "mixed") == 0) {
        opt.ga.crossover = ga::CrossoverKind::kMixed;
      } else if (std::strcmp(v, "uniform") == 0) {
        opt.ga.crossover = ga::CrossoverKind::kUniform;
      } else {
        std::fprintf(stderr, "planner_cli: unknown crossover '%s'\n", v);
        return std::nullopt;
      }
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "planner_cli: unknown option '%s'\n", arg);
      return std::nullopt;
    } else if (opt.file.empty()) {
      opt.file = arg;
    } else {
      std::fprintf(stderr, "planner_cli: extra argument '%s'\n", arg);
      return std::nullopt;
    }
  }
  if (opt.file.empty() && opt.builtin.empty()) return std::nullopt;
  return opt;
}

template <ga::PlanningProblem P>
std::vector<int> run_planner(const Options& opt, const P& problem, bool& found) {
  if (opt.algo == "ga") {
    const auto result = ga::run_multiphase(problem, opt.ga, opt.seed);
    found = result.valid;
    return result.plan;
  }
  const auto start = problem.initial_state();
  const search::GoalFitnessHeuristic<P> h{&problem};
  search::SearchResult r;
  if (opt.algo == "bfs") {
    r = search::bfs(problem, start);
  } else if (opt.algo == "astar") {
    // Goal-fitness heuristic scaled to ~unit steps; informative, not
    // guaranteed admissible on every domain (BFS gives certified optima).
    r = search::astar(problem, start, [&](const typename P::StateT& s) {
      return (1.0 - problem.goal_fitness(s)) * 10.0;
    });
  } else if (opt.algo == "greedy") {
    r = search::greedy_best_first(problem, start, h);
  } else if (opt.algo == "hillclimb") {
    util::Rng rng(opt.seed);
    r = search::hill_climb(problem, start, h, rng);
  } else if (opt.algo == "randomwalk") {
    util::Rng rng(opt.seed);
    r = search::random_walk(problem, start, rng);
  } else {
    std::fprintf(stderr, "planner_cli: unknown algorithm '%s'\n", opt.algo.c_str());
    std::exit(2);
  }
  found = r.found;
  return r.plan;
}

/// Runs the chosen planner on any PlanningProblem and prints the plan.
template <ga::PlanningProblem P>
int solve_and_report(const Options& opt, const P& problem) {
  util::Timer timer;
  bool found = false;
  std::vector<int> plan = run_planner(opt, problem, found);
  if (found && opt.simplify) {
    plan = ga::simplify_plan(problem, problem.initial_state(), plan);
  }
  const double seconds = timer.seconds();

  if (!found) {
    std::printf("NO PLAN (%.3fs, algo=%s)\n", seconds, opt.algo.c_str());
    return 1;
  }
  const bool valid = ga::plan_solves(problem, problem.initial_state(), plan);
  const double cost = ga::plan_cost(problem, problem.initial_state(), plan);
  if (!opt.quiet) {
    auto s = problem.initial_state();
    for (std::size_t i = 0; i < plan.size(); ++i) {
      std::printf("%4zu. %s\n", i + 1, problem.op_label(s, plan[i]).c_str());
      problem.apply(s, plan[i]);
    }
  }
  std::printf("%s: %zu steps, cost %.1f, %.3fs (algo=%s)\n",
              valid ? "VALID PLAN" : "INVALID PLAN (bug!)", plan.size(), cost,
              seconds, opt.algo.c_str());
  return valid ? 0 : 1;
}

void describe(const domains::Hanoi& hanoi) {
  std::printf("built-in: %d-disk Towers of Hanoi (optimal %llu moves)\n",
              hanoi.disks(),
              static_cast<unsigned long long>(hanoi.optimal_length()));
}

void describe(const domains::Sokoban& sokoban) {
  std::printf("built-in: Sokoban level\n%s",
              sokoban.render(sokoban.initial_state()).c_str());
}

void describe(const domains::SlidingTile& puzzle) {
  std::printf("built-in: random solvable %dx%d puzzle\n%s", puzzle.n(),
              puzzle.n(), puzzle.render(puzzle.initial_state()).c_str());
}

/// Parses field `i` of the `--builtin` spec `parts` as an integer in
/// [0, hi]; an absent or empty field keeps `out`. Names the field in the
/// diagnostic on failure.
bool parse_field(const Options& opt, const std::vector<std::string>& parts,
                 std::size_t i, const char* what, unsigned long long hi,
                 unsigned long long& out) {
  if (parts.size() <= i || parts[i].empty()) return true;
  const std::string& field = parts[i];
  unsigned long long v = 0;
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), v);
  if (ec != std::errc{} || ptr != field.data() + field.size()) {
    std::fprintf(stderr,
                 "planner_cli: --builtin: %s is not an integer in '%s'\n", what,
                 opt.builtin.c_str());
    return false;
  }
  if (v > hi) {
    std::fprintf(stderr, "planner_cli: --builtin: %s out of range in '%s'\n",
                 what, opt.builtin.c_str());
    return false;
  }
  out = v;
  return true;
}

/// Solves "cube:DEPTH[:SEED]", a pocket cube scrambled DEPTH moves.
int solve_cube(const Options& opt) {
  std::vector<std::string> parts;
  std::string cur;
  for (const char c : opt.builtin) {
    if (c == ':') {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  parts.push_back(cur);
  if (parts.size() > 3) {
    std::fprintf(stderr,
                 "planner_cli: --builtin: too many fields in '%s' (want "
                 "cube:DEPTH[:SEED])\n",
                 opt.builtin.c_str());
    return 2;
  }
  unsigned long long depth = 5;
  unsigned long long seed = 7;
  if (!parse_field(opt, parts, 1, "depth", 1000, depth) ||
      !parse_field(opt, parts, 2, "seed", ~0ULL, seed)) {
    return 2;
  }
  util::Rng rng(seed);
  domains::PocketCube cube;
  cube.set_initial(cube.scrambled(depth, rng));
  Options adjusted = opt;
  if (!opt.lengths_given) {
    adjusted.ga.initial_length =
        std::max<std::size_t>(12, 3 * static_cast<std::size_t>(depth));
    adjusted.ga.max_length = 10 * adjusted.ga.initial_length;
  }
  if (!opt.quiet) {
    std::printf("built-in: pocket cube, %llu-move scramble\n", depth);
  }
  return solve_and_report(adjusted, cube);
}

/// Solves a built-in domain. hanoi:, sokoban: and tiles: specs go through
/// the planning service's parser, domain factory and genome-length tuning,
/// so planner_cli plans the puzzle a served request of the same spec does.
int solve_builtin(const Options& opt) {
  const std::string kind = opt.builtin.substr(0, opt.builtin.find(':'));
  if (kind == "cube") return solve_cube(opt);
  if (kind != "hanoi" && kind != "sokoban" && kind != "tiles") {
    std::fprintf(stderr,
                 "planner_cli: --builtin: unknown built-in '%s' (want "
                 "hanoi|sokoban|tiles|cube)\n",
                 kind.c_str());
    return 2;
  }
  std::string error;
  const auto spec = serve::ProblemSpec::parse(opt.builtin, error);
  if (!spec) {
    std::fprintf(stderr, "planner_cli: --builtin: %s\n", error.c_str());
    return 2;
  }
  Options tuned = opt;
  if (!opt.lengths_given) {
    const ga::GaConfig stock;
    tuned.ga.initial_length = stock.initial_length;
    tuned.ga.max_length = stock.max_length;
  }
  tuned.ga = serve::tuned_config(*spec, tuned.ga);
  return serve::with_problem(*spec, [&](const auto& problem) {
    if (!opt.quiet) describe(problem);
    return solve_and_report(tuned, problem);
  });
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed_opt = parse_args(argc, argv);
  if (!parsed_opt) {
    usage();
    return 2;
  }
  const Options& opt = *parsed_opt;

  try {
    if (!opt.builtin.empty()) return solve_builtin(opt);

    // Keep whichever parse result owns the Domain alive for the whole run.
    std::optional<strips::ParseResult> ground;
    std::optional<strips::GroundResult> lifted;
    std::optional<strips::Problem> problem;
    if (opt.lifted) {
      lifted = strips::parse_lifted_file(opt.file).grounded();
      problem.emplace(lifted->problem(opt.problem_index));
    } else {
      ground = strips::parse_strips_file(opt.file);
      problem.emplace(ground->problem(opt.problem_index));
    }
    if (!opt.quiet) {
      std::printf("domain: %zu atoms, %zu ground operations\n",
                  problem->domain().universe_size(), problem->op_count());
    }
    return solve_and_report(opt, *problem);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "planner_cli: %s\n", e.what());
    return 2;
  }
}
