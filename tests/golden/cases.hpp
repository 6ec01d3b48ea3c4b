// Golden GA trajectories: a fixed list of (domain, config, seed) cases whose
// complete per-generation record is committed under tests/data/golden/.
//
// Each case drives ga::PhaseRunner exactly like Engine::run_phase does and
// prints, per generation, the GenerationStat (%.17g), the validity record
// (found_valid / generation_found) and the best-of-phase individual (its
// evaluation key and genome, printed when the best changed). The closing
// line carries generations_run, the ga.evaluations spend and the crossover
// tallies. Multi-phase and island cases print their results the same way.
//
// tests/golden/record_golden.cpp writes the fixtures; tests/test_golden.cpp
// replays every case and requires byte-identical text. Any change to a
// random draw, an operator, selection, replacement or evaluation shows up as
// the first differing line.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/island.hpp"
#include "core/multiphase.hpp"
#include "domains/blocks_world.hpp"
#include "domains/hanoi.hpp"
#include "domains/hanoi_strips.hpp"
#include "domains/navigation.hpp"
#include "domains/pocket_cube.hpp"
#include "domains/sliding_tile.hpp"
#include "domains/sokoban.hpp"
#include "grid/scenario.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace gaplan::golden {

/// One recorded run: its fixture text plus the cold-evaluation mismatches
/// found while recording (a reported genome whose cold evaluate_into differs
/// from the evaluation the runner reported for it).
struct Record {
  std::string text;
  std::vector<std::string> cold_mismatches;
};

struct Case {
  std::string name;
  std::function<Record()> run;
};

inline std::uint64_t evaluations_total() {
  const auto snap = obs::snapshot_metrics();
  const auto* c = snap.find_counter("ga.evaluations");
  return c == nullptr ? 0 : c->value;
}

inline std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

inline std::string genes_text(std::span<const ga::Gene> genes) {
  std::string s = std::to_string(genes.size()) + ":";
  for (std::size_t i = 0; i < genes.size(); ++i) {
    if (i > 0) s += ',';
    s += fmt(genes[i]);
  }
  return s;
}

inline std::string ops_text(const std::vector<int>& ops) {
  std::string s = std::to_string(ops.size()) + ":";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i > 0) s += ',';
    s += std::to_string(ops[i]);
  }
  return s;
}

template <typename State>
std::string eval_key_text(const ga::Evaluation<State>& ev) {
  return "valid=" + std::to_string(ev.valid ? 1 : 0) +
         " goal_fit=" + fmt(ev.goal_fit) + " fitness=" + fmt(ev.fitness) +
         " plan_cost=" + fmt(ev.plan_cost) + " ops=" + ops_text(ev.ops);
}

inline std::string stat_text(const ga::GenerationStat& s) {
  return "gen " + std::to_string(s.generation) +
         " best_fitness=" + fmt(s.best_fitness) +
         " mean_fitness=" + fmt(s.mean_fitness) +
         " best_goal_fit=" + fmt(s.best_goal_fit) +
         " mean_length=" + fmt(s.mean_length) +
         " valid_count=" + std::to_string(s.valid_count);
}

inline std::string crossover_text(const ga::CrossoverStats& x) {
  return "crossover=" + std::to_string(x.pairs) + "/" +
         std::to_string(x.random_done) + "/" +
         std::to_string(x.state_aware_done) + "/" +
         std::to_string(x.uniform_done) + "/" + std::to_string(x.no_match) +
         "/" + std::to_string(x.too_short);
}

/// Cold evaluate_into of `genes` compared with the evaluation reported for
/// them; returns an empty string when they agree.
template <typename P>
std::string cold_check(const P& problem, const ga::GaConfig& cfg,
                       const typename P::StateT& start,
                       std::span<const ga::Gene> genes,
                       const ga::Evaluation<typename P::StateT>& reported) {
  ga::EvalContext<typename P::StateT> ctx;
  ctx.sync(&problem, ga::next_eval_epoch(), 0);
  ga::Evaluation<typename P::StateT> cold;
  ga::evaluate_into(problem, cfg, start, genes, ctx, cold);
  if (cold.valid == reported.valid && cold.goal_fit == reported.goal_fit &&
      cold.fitness == reported.fitness &&
      cold.plan_cost == reported.plan_cost && cold.ops == reported.ops &&
      cold.goal_index == reported.goal_index) {
    return {};
  }
  return "reported " + eval_key_text(reported) + " but cold " +
         eval_key_text(cold);
}

/// One phase through ga::PhaseRunner, driven like Engine::run_phase.
template <typename P>
Record record_phase(const P& problem, const ga::GaConfig& cfg,
                    std::uint64_t seed, std::size_t threads) {
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads);
  ga::PhaseRunner<P> runner(problem, cfg, pool.get());
  util::Rng rng(seed);
  const auto start = problem.initial_state();
  Record rec;
  rec.text = "# phase seed=" + std::to_string(seed) +
             " threads=" + std::to_string(threads) + "\n";
  const std::uint64_t evals0 = evaluations_total();
  runner.init(start, rng);
  std::vector<ga::Gene> last_best;
  bool first = true;
  for (std::size_t gen = 0; gen < cfg.generations; ++gen) {
    const ga::GenerationStat& stat = runner.step_evaluate();
    const auto& res = runner.result();
    const auto& best = runner.best();
    rec.text += stat_text(stat) +
                " found=" + std::to_string(res.found_valid ? 1 : 0) +
                " generation_found=" + std::to_string(res.generation_found);
    if (!first && best.genes == last_best) {
      rec.text += " best=same\n";
    } else {
      rec.text += " best " + eval_key_text(best.eval) +
                  " genes=" + genes_text(best.genes) + "\n";
      last_best = best.genes;
    }
    first = false;
    const std::string cold =
        cold_check(problem, cfg, start, best.genes, best.eval);
    if (!cold.empty()) {
      rec.cold_mismatches.push_back("gen " + std::to_string(gen) + ": " + cold);
    }
    if (cfg.stop_on_valid && res.found_valid) break;
    if (gen + 1 == cfg.generations) break;
    runner.step_reproduce(rng);
  }
  const auto& res = runner.result();
  rec.text += "end generations_run=" + std::to_string(res.generations_run) +
              " evaluations=" + std::to_string(evaluations_total() - evals0) +
              " " + crossover_text(res.crossover_stats) + "\n";
  return rec;
}

template <typename State>
std::string phase_result_text(const ga::PhaseResult<State>& pr) {
  std::string s;
  for (const auto& stat : pr.history) s += stat_text(stat) + "\n";
  s += "phase_end found=" + std::to_string(pr.found_valid ? 1 : 0) +
       " generation_found=" + std::to_string(pr.generation_found) +
       " generations_run=" + std::to_string(pr.generations_run) + " best " +
       eval_key_text(pr.best.eval) + " genes=" + genes_text(pr.best.genes) +
       " " + crossover_text(pr.crossover_stats) + "\n";
  return s;
}

/// A complete run_multiphase (one Engine, its runner persisting across
/// phases).
template <typename P>
Record record_multiphase(const P& problem, const ga::GaConfig& cfg,
                         std::uint64_t seed) {
  util::Rng rng(seed);
  const auto r = ga::run_multiphase(problem, cfg, rng);
  Record rec;
  rec.text = "# multiphase seed=" + std::to_string(seed) + "\n";
  for (std::size_t p = 0; p < r.phases.size(); ++p) {
    rec.text += "phase " + std::to_string(p) + "\n" +
                phase_result_text(r.phases[p]);
  }
  rec.text += "end valid=" + std::to_string(r.valid ? 1 : 0) +
              " phases_run=" + std::to_string(r.phases_run) +
              " generations_total=" + std::to_string(r.generations_total) +
              " goal_fitness=" + fmt(r.goal_fitness) +
              " best_fitness=" + fmt(r.best_fitness) +
              " plan=" + ops_text(r.plan) + "\n";
  return rec;
}

/// A complete run_islands with ring migration.
template <typename P>
Record record_islands(const P& problem, const ga::GaConfig& cfg,
                      const ga::IslandConfig& icfg, std::uint64_t seed) {
  util::Rng rng(seed);
  const auto r = ga::run_islands(problem, cfg, icfg, rng);
  Record rec;
  rec.text = "# islands seed=" + std::to_string(seed) +
             " islands=" + std::to_string(icfg.islands) +
             " interval=" + std::to_string(icfg.migration_interval) +
             " migrants=" + std::to_string(icfg.migrants) + "\n";
  for (std::size_t i = 0; i < r.islands.size(); ++i) {
    rec.text += "island " + std::to_string(i) + "\n" +
                phase_result_text(r.islands[i]);
  }
  rec.text += "end found=" + std::to_string(r.found_valid ? 1 : 0) +
              " generation_found=" + std::to_string(r.generation_found) +
              " generations_run=" + std::to_string(r.generations_run) +
              " best_island=" + std::to_string(r.best_island) +
              " migrations=" + std::to_string(r.migrations) + " best " +
              eval_key_text(r.best.eval) +
              " genes=" + genes_text(r.best.genes) + "\n";
  const std::string cold = cold_check(problem, cfg, problem.initial_state(),
                                      r.best.genes, r.best.eval);
  if (!cold.empty()) rec.cold_mismatches.push_back("island best: " + cold);
  return rec;
}

// ---------------------------------------------------------------------------
// Domains (built once, kept alive for the process).

inline const domains::Hanoi& hanoi5() {
  static const domains::Hanoi h(5);
  return h;
}

inline const domains::Hanoi& hanoi6() {
  static const domains::Hanoi h(6);
  return h;
}

inline const domains::Sokoban& sokoban() {
  static const domains::Sokoban s(std::vector<std::string>{
      "#######",
      "#.....#",
      "#.$.$.#",
      "#..@..#",
      "#.o.o.#",
      "#######",
  });
  return s;
}

inline const domains::Navigation& navigation() {
  static const domains::Navigation n(6, 6, {8, 14, 20, 21, 27}, {0, 5},
                                     {35, 30});
  return n;
}

inline const domains::BlocksWorld& blocks() {
  static const domains::BlocksWorld b = domains::BlocksWorld::tower_instance(5);
  return b;
}

inline const strips::Problem& strips_hanoi() {
  static const domains::HanoiStrips enc = domains::build_hanoi_strips(3);
  static const strips::Problem p = enc.problem();
  return p;
}

inline const grid::WorkflowProblem& workflow() {
  struct Holder {
    grid::Scenario scenario;
    grid::ResourcePool pool = grid::demo_pool();
    grid::WorkflowProblem problem;
    Holder()
        : scenario([] {
            util::Rng rng(17);
            return grid::random_layered(6, 4, 2, rng);
          }()),
          problem(scenario.problem(pool)) {}
  };
  static const Holder h;
  return h.problem;
}

inline const domains::SlidingTile& tiles() {
  static const domains::SlidingTile t = [] {
    util::Rng scramble(7);
    const domains::SlidingTile base(3);
    return domains::SlidingTile(3, base.scrambled(30, scramble));
  }();
  return t;
}

inline const domains::PocketCube& cube() {
  static const domains::PocketCube c = [] {
    domains::PocketCube cube;
    util::Rng scramble(5);
    cube.set_initial(cube.scrambled(6, scramble));
    return cube;
  }();
  return c;
}

inline ga::GaConfig base_config() {
  ga::GaConfig cfg;
  cfg.population_size = 24;
  cfg.generations = 16;
  cfg.initial_length = 16;
  cfg.max_length = 64;
  cfg.crossover = ga::CrossoverKind::kMixed;
  cfg.stop_on_valid = false;
  cfg.eval_checkpoint_stride = 8;
  return cfg;
}

// ---------------------------------------------------------------------------
// The case list.

/// Calls fn(name, problem) for each of the six phase-runner domains.
template <typename Fn>
void for_each_domain(Fn&& fn) {
  fn("hanoi", hanoi5());
  fn("sokoban", sokoban());
  fn("navigation", navigation());
  fn("blocks", blocks());
  fn("strips_hanoi", strips_hanoi());
  fn("workflow", workflow());
}

inline std::vector<Case> all_cases() {
  std::vector<Case> cases;
  std::uint64_t seed = 1000;
  const auto add_phase = [&](const std::string& name, const auto& problem,
                             const ga::GaConfig& cfg, std::size_t threads) {
    const auto* p = &problem;
    const std::uint64_t s = seed++;
    cases.push_back({name, [p, cfg, s, threads] {
                       return record_phase(*p, cfg, s, threads);
                     }});
  };

  for_each_domain([&](const std::string& d, const auto& problem) {
    using P = std::decay_t<decltype(problem)>;
    const ga::GaConfig base = base_config();
    add_phase(d + "_generational", problem, base, 1);
    ga::GaConfig crowd = base;
    crowd.replacement = ga::ReplacementKind::kCrowding;
    add_phase(d + "_crowding", problem, crowd, 1);
    if constexpr (ga::DirectEncodable<P>) {
      ga::GaConfig direct = base;
      direct.encoding = ga::EncodingKind::kDirect;
      add_phase(d + "_direct", problem, direct, 1);
      direct.replacement = ga::ReplacementKind::kCrowding;
      add_phase(d + "_direct_crowding", problem, direct, 1);
    }
    ga::GaConfig elite = base;
    elite.elite_count = 3;
    add_phase(d + "_elitism", problem, elite, 1);
    ga::GaConfig roulette = base;
    roulette.selection = ga::SelectionKind::kRoulette;
    add_phase(d + "_roulette", problem, roulette, 1);
    ga::GaConfig seeded = base;
    seeded.seed_fraction = 0.4;
    add_phase(d + "_seeded", problem, seeded, 1);
    ga::GaConfig no_trunc = base;
    no_trunc.truncate_at_goal = false;
    add_phase(d + "_no_truncate", problem, no_trunc, 1);
    add_phase(d + "_pool4", problem, base, 4);
    add_phase(d + "_crowding_pool4", problem, crowd, 4);
  });

  // Kernel-domain knobs (the SoaLayoutParity cases).
  {
    ga::GaConfig cfg = base_config();
    cfg.crossover = ga::CrossoverKind::kRandom;
    cfg.generations = 12;
    add_phase("kernel_hanoi6_random", hanoi6(), cfg, 1);
    cfg.crossover = ga::CrossoverKind::kStateAware;
    add_phase("kernel_tiles_state_aware", tiles(), cfg, 1);
    cfg.crossover = ga::CrossoverKind::kUniform;
    add_phase("kernel_cube_uniform", cube(), cfg, 1);
    ga::GaConfig exact = base_config();
    exact.state_match = ga::StateMatchKind::kExactState;
    add_phase("kernel_hanoi_exact_state", hanoi5(), exact, 1);
    ga::GaConfig cold = base_config();
    cold.incremental_eval = false;
    add_phase("kernel_hanoi_cold_width1", hanoi5(), cold, 1);
    add_phase("kernel_hanoi6_pool4_width4", hanoi6(), base_config(), 4);
    ga::GaConfig stop = base_config();
    stop.generations = 60;
    stop.stop_on_valid = true;
    static const domains::Hanoi h4(4);
    add_phase("kernel_hanoi4_stop_on_valid", h4, stop, 1);
    ga::GaConfig crowd_cold = base_config();
    crowd_cold.replacement = ga::ReplacementKind::kCrowding;
    crowd_cold.incremental_eval = false;
    add_phase("kernel_hanoi_crowding_cold", hanoi5(), crowd_cold, 1);
  }

  // Multi-phase and island drivers.
  {
    ga::GaConfig cfg = base_config();
    cfg.phases = 3;
    cfg.generations = 8;
    cases.push_back({"multiphase_hanoi6", [cfg] {
                       return record_multiphase(hanoi6(), cfg, 269);
                     }});
    cases.push_back({"multiphase_sokoban", [cfg] {
                       return record_multiphase(sokoban(), cfg, 277);
                     }});
    ga::GaConfig icfg_ga = base_config();
    icfg_ga.generations = 20;
    ga::IslandConfig icfg;
    icfg.islands = 3;
    icfg.migration_interval = 5;
    icfg.migrants = 2;
    cases.push_back({"islands_hanoi6", [icfg_ga, icfg] {
                       return record_islands(hanoi6(), icfg_ga, icfg, 271);
                     }});
    cases.push_back({"islands_navigation", [icfg_ga, icfg] {
                       return record_islands(navigation(), icfg_ga, icfg, 281);
                     }});
    ga::GaConfig crowd = icfg_ga;
    crowd.replacement = ga::ReplacementKind::kCrowding;
    cases.push_back({"islands_blocks_crowding", [crowd, icfg] {
                       return record_islands(blocks(), crowd, icfg, 283);
                     }});
  }
  return cases;
}

inline std::string read_fixture(const std::string& dir,
                                const std::string& name) {
  std::ifstream in(dir + "/" + name + ".txt", std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// First line where the two texts differ, for a readable failure.
inline std::string first_difference(const std::string& want,
                                    const std::string& got) {
  std::istringstream a(want), b(got);
  std::string la, lb;
  for (std::size_t line = 1;; ++line) {
    const bool ha = static_cast<bool>(std::getline(a, la));
    const bool hb = static_cast<bool>(std::getline(b, lb));
    if (!ha && !hb) return "texts equal";
    if (!ha || !hb || la != lb) {
      return "line " + std::to_string(line) + "\n  fixture: " +
             (ha ? la : "<end>") + "\n  replay:  " + (hb ? lb : "<end>");
    }
  }
}

/// Replays case `name` against its fixture in `dir`. Returns the failures
/// (missing case or fixture, first differing line, cold-evaluation
/// mismatches); empty when the replay is exact.
inline std::vector<std::string> check_case(const std::string& dir,
                                           const std::string& name) {
  static const std::vector<Case> cases = all_cases();
  for (const Case& c : cases) {
    if (c.name != name) continue;
    const std::string want = read_fixture(dir, name);
    if (want.empty()) return {"missing fixture " + dir + "/" + name + ".txt"};
    const Record rec = c.run();
    std::vector<std::string> failures = rec.cold_mismatches;
    if (rec.text != want) {
      failures.push_back("trajectory differs at " +
                         first_difference(want, rec.text));
    }
    return failures;
  }
  return {"no golden case named " + name};
}

}  // namespace gaplan::golden
