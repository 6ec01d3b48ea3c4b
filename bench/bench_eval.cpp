// Evaluation-throughput bench: A/B/C of the evaluation pass over the SIMD
// kernel's LUT (soa) and the incremental pass over valid_ops against a
// forced-cold configuration on
// the paper's hardest workload (7-disk Towers of Hanoi, multi-phase GA, pop
// 200, Table 1 operator settings), plus cache sections on two kernel-less
// cacheable domains: the hit rate on Sokoban, and the hit rate and evals/s
// with and without the cache on the genomics grid workflow (the paper's
// application, at workflow_cli's GA settings). cold and incremental run
// Hanoi through WithoutKernel (without_kernel.hpp), which hides the kernel
// so the same PhaseRunner's pass decodes over ProblemOps.
//
// All configs run the identical evolutionary trajectory (same seeds; the
// incremental and kernel decodes are bit-identical to cold decode), so
// evaluations/second over wall time is a fair apples-to-apples throughput
// measure. Results go to BENCH_eval.json (schema checked by
// scripts/check_bench.py).
#include "bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "domains/hanoi.hpp"
#include "domains/sokoban.hpp"
#include "grid/scenario_reader.hpp"
#include "obs/metrics.hpp"
#include "util/env.hpp"
#include "util/timer.hpp"
#include "without_kernel.hpp"

namespace {

std::uint64_t counter_value(const gaplan::obs::MetricsSnapshot& snap,
                            const char* name) {
  const auto* c = snap.find_counter(name);
  return c != nullptr ? c->value : 0;
}

double histogram_sum(const gaplan::obs::MetricsSnapshot& snap,
                     const char* name) {
  const auto* h = snap.find_histogram(name);
  return h != nullptr ? h->sum : 0.0;
}

/// Counter deltas + wall time for one benchmarked configuration.
struct ConfigResult {
  std::string name;
  double seconds = 0.0;
  std::uint64_t evaluations = 0;
  std::uint64_t ops_decoded = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t resume_genes_skipped = 0;
  double eval_ms = 0.0;       ///< ga.eval_ms histogram-sum delta
  double reproduce_ms = 0.0;  ///< ga.reproduce_ms histogram-sum delta
  std::vector<double> rep_seconds;  ///< wall time of every repetition

  double seconds_min() const {
    return rep_seconds.empty()
               ? seconds
               : *std::min_element(rep_seconds.begin(), rep_seconds.end());
  }
  double seconds_median() const {
    if (rep_seconds.empty()) return seconds;
    std::vector<double> s = rep_seconds;
    std::sort(s.begin(), s.end());
    const std::size_t n = s.size();
    return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
  }
  double seconds_stddev() const {
    const std::size_t n = rep_seconds.size();
    if (n < 2) return 0.0;
    double mean = 0.0;
    for (double s : rep_seconds) mean += s;
    mean /= static_cast<double>(n);
    double var = 0.0;
    for (double s : rep_seconds) var += (s - mean) * (s - mean);
    return std::sqrt(var / static_cast<double>(n - 1));
  }

  double evals_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(evaluations) / seconds : 0.0;
  }
  double ops_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(ops_decoded) / seconds : 0.0;
  }
  double cache_hit_rate() const {
    const std::uint64_t total = cache_hits + cache_misses;
    return total > 0 ? static_cast<double>(cache_hits) /
                           static_cast<double>(total)
                     : 0.0;
  }
};

template <typename P>
ConfigResult run_config_once(const std::string& name, const P& problem,
                             const gaplan::ga::GaConfig& cfg, std::size_t runs,
                             std::uint64_t seed) {
  namespace obs = gaplan::obs;
  const auto before = obs::snapshot_metrics();
  gaplan::util::Timer timer;
  const auto records = gaplan::ga::replicate(problem, cfg, runs, seed);
  ConfigResult r;
  r.name = name;
  r.seconds = timer.seconds();
  const auto after = obs::snapshot_metrics();
  const auto delta = [&](const char* c) {
    return counter_value(after, c) - counter_value(before, c);
  };
  r.evaluations = delta("ga.evaluations");
  r.ops_decoded = delta("eval.ops_decoded");
  r.cache_hits = delta("eval.cache_hits");
  r.cache_misses = delta("eval.cache_misses");
  r.resume_genes_skipped = delta("eval.resume_genes_skipped");
  r.eval_ms = histogram_sum(after, "ga.eval_ms") -
              histogram_sum(before, "ga.eval_ms");
  r.reproduce_ms = histogram_sum(after, "ga.reproduce_ms") -
                   histogram_sum(before, "ga.reproduce_ms");
  const auto agg = gaplan::ga::aggregate(records, cfg.phases);
  std::printf("  done: %-12s %.2fs (eval %.0fms, reproduce %.0fms), %llu evals "
              "(%.0f evals/s), %zu/%zu solved\n",
              name.c_str(), r.seconds, r.eval_ms, r.reproduce_ms,
              static_cast<unsigned long long>(r.evaluations), r.evals_per_sec(),
              agg.solved, agg.runs);
  return r;
}

/// Best-of-N repetitions: the workload is deterministic (identical seeds →
/// identical work), so the minimum wall time is the least-perturbed
/// measurement; counter deltas are identical across reps. All rep wall times
/// are kept so the JSON can report the spread (min/median/stddev) alongside
/// the best — a speedup whose margin is inside the rep noise is not a result.
/// add_rep folds one repetition into `best`.
void add_rep(ConfigResult& best, ConfigResult r) {
  best.rep_seconds.push_back(r.seconds);
  if (best.rep_seconds.size() == 1 || r.seconds < best.seconds) {
    r.rep_seconds = std::move(best.rep_seconds);
    best = std::move(r);
  }
}

template <typename P>
ConfigResult run_config(const std::string& name, const P& problem,
                        const gaplan::ga::GaConfig& cfg, std::size_t runs,
                        std::uint64_t seed, int reps) {
  ConfigResult best;
  for (int rep = 0; rep < reps; ++rep) {
    add_rep(best, run_config_once(name, problem, cfg, runs, seed));
  }
  return best;
}

void json_config(std::FILE* f, const ConfigResult& r, bool last) {
  std::fprintf(f,
               "    {\"name\": \"%s\", \"seconds\": %.6f,"
               " \"evaluations\": %llu, \"evals_per_sec\": %.2f,"
               " \"ops_decoded\": %llu, \"ops_decoded_per_sec\": %.2f,"
               " \"cache_hits\": %llu, \"cache_misses\": %llu,"
               " \"cache_hit_rate\": %.6f, \"resume_genes_skipped\": %llu,"
               " \"eval_ms\": %.3f, \"reproduce_ms\": %.3f,"
               " \"seconds_min\": %.6f, \"seconds_median\": %.6f,"
               " \"seconds_stddev\": %.6f}%s\n",
               r.name.c_str(), r.seconds,
               static_cast<unsigned long long>(r.evaluations),
               r.evals_per_sec(),
               static_cast<unsigned long long>(r.ops_decoded), r.ops_per_sec(),
               static_cast<unsigned long long>(r.cache_hits),
               static_cast<unsigned long long>(r.cache_misses),
               r.cache_hit_rate(),
               static_cast<unsigned long long>(r.resume_genes_skipped),
               r.eval_ms, r.reproduce_ms, r.seconds_min(), r.seconds_median(),
               r.seconds_stddev(), last ? "" : ",");
}

}  // namespace

int main() {
  using namespace gaplan;
  // Quick default: 1 run, 150 generations (5 phases of 30). Full protocol:
  // 1 run, 500 generations (5 phases of 100) — throughput, not solve-rate,
  // is the quantity under test, so one replication suffices.
  const auto params = bench::resolve(1, 150, 1, 500);
  const std::size_t phases = 5;

  const domains::Hanoi hanoi(7);
  ga::GaConfig base;
  base.population_size = params.population;
  base.phases = phases;
  base.generations = params.generations / phases;
  base.crossover = ga::CrossoverKind::kMixed;
  base.crossover_rate = 0.9;
  base.mutation_rate = 0.01;
  base.tournament_size = 2;
  base.goal_weight = 0.9;
  base.cost_weight = 0.1;
  base.initial_length = static_cast<std::size_t>(hanoi.optimal_length());
  base.max_length = 10 * base.initial_length;
  // Experiment knobs (defaults match the recorded BENCH_eval.json): stride 2
  // keeps resume/fast-forward granularity fine at 8 bytes/checkpoint (a
  // stride sweep at full scale ranked 2 > 4 > 8 on this workload);
  // GAPLAN_XOVER=random selects the hash-free Table 2 operator instead of
  // the state-aware mix.
  base.eval_checkpoint_stride = static_cast<std::size_t>(
      util::env_int("GAPLAN_STRIDE", 2));
  if (util::env_str("GAPLAN_XOVER", "mixed") == "random") {
    base.crossover = ga::CrossoverKind::kRandom;
  }

  // cold and incremental decode slot by slot (the A/B pair of the
  // incremental engine) through the kernel-less adapter; soa is the same
  // incremental trajectory through the batched kernel decode.
  const bench::WithoutKernel<domains::Hanoi> per_slot(hanoi);
  ga::GaConfig inc = base;
  ga::GaConfig cold = inc;
  cold.incremental_eval = false;
  cold.ops_cache_size = 0;

  bench::print_header("Evaluation throughput: cold vs incremental vs soa",
                      base, params);
  std::printf("workload: Hanoi-7 multi-phase, pop %zu, %zu phases x %zu "
              "generations, %zu run(s)\n\n",
              base.population_size, phases, base.generations, params.runs);

  const int reps = 5;  // best-of-5: single-core wall time is noisy
  const ConfigResult cold_r =
      run_config("cold", per_slot, cold, params.runs, params.seed, reps);
  const ConfigResult inc_r =
      run_config("incremental", per_slot, inc, params.runs, params.seed, reps);
  const ConfigResult soa_r =
      run_config("soa", hanoi, base, params.runs, params.seed, reps);
  const double speedup = cold_r.evals_per_sec() > 0.0
                             ? inc_r.evals_per_sec() / cold_r.evals_per_sec()
                             : 0.0;
  const double speedup_soa = inc_r.evals_per_sec() > 0.0
                                 ? soa_r.evals_per_sec() / inc_r.evals_per_sec()
                                 : 0.0;

  // Second cache-hit-rate datapoint: Sokoban's valid_ops is much heavier
  // than Hanoi's (per-move reachability over the board) and its state space
  // does not fit the cache, so this exercises eviction rather than the full
  // memo table Hanoi converges to.
  const domains::Sokoban level({
      "#######",
      "#.....#",
      "#.$.$.#",
      "#..@..#",
      "#.o.o.#",
      "#######",
  });
  ga::GaConfig scfg;
  scfg.population_size = 100;
  scfg.generations = std::max<std::size_t>(10, params.generations / 5);
  scfg.initial_length = 30;
  scfg.max_length = 120;
  scfg.crossover = ga::CrossoverKind::kRandom;
  scfg.stop_on_valid = false;
  const ConfigResult sok_r =
      run_config("sokoban-cache", level, scfg, params.runs, params.seed, 1);

  // The grid workflow at workflow_cli's GA settings, planned from the
  // genomics pipeline's initial data: default cache against
  // ops_cache_size = 0. Both run the identical trajectory, so the evals/s
  // ratio is the cache's alone; their reps alternate so drift hits both.
  const auto genomics = grid::parse_scenario_file(
      std::string(GAPLAN_ASSET_DIR) + "/genomics_pipeline.grid");
  const auto workflow = genomics.problem();
  ga::GaConfig wcfg;
  wcfg.population_size = 100;
  wcfg.generations = 60;
  wcfg.phases = 3;
  wcfg.initial_length =
      std::max<std::size_t>(4, genomics.scenario.catalog.program_count());
  wcfg.max_length = 8 * wcfg.initial_length;
  wcfg.crossover = ga::CrossoverKind::kMixed;
  wcfg.cost_fitness = ga::CostFitnessKind::kInverseCost;
  ga::GaConfig wcfg_off = wcfg;
  wcfg_off.ops_cache_size = 0;
  const std::size_t wf_runs = 40;
  const auto [wf_r, wf_off_r] = [&] {
    ConfigResult on, off;
    for (int rep = 0; rep < reps; ++rep) {
      add_rep(on, run_config_once("workflow-cache", workflow, wcfg, wf_runs,
                                  params.seed));
      add_rep(off, run_config_once("workflow-nocache", workflow, wcfg_off,
                                   wf_runs, params.seed));
    }
    return std::pair{on, off};
  }();
  const auto median_rate = [](const ConfigResult& r) {
    const double s = r.seconds_median();
    return s > 0.0 ? static_cast<double>(r.evaluations) / s : 0.0;
  };
  const double wf_speedup = median_rate(wf_off_r) > 0.0
                                ? median_rate(wf_r) / median_rate(wf_off_r)
                                : 0.0;

  util::Table table({"config", "seconds", "evals/s", "ops-decoded/s",
                     "cache hit rate", "genes skipped"});
  for (const ConfigResult* r :
       {&cold_r, &inc_r, &soa_r, &sok_r, &wf_r, &wf_off_r}) {
    table.add_row({r->name, util::Table::num(r->seconds, 2),
                   util::Table::num(r->evals_per_sec(), 0),
                   util::Table::num(r->ops_per_sec(), 0),
                   util::Table::num(r->cache_hit_rate(), 3),
                   util::Table::integer(
                       static_cast<long long>(r->resume_genes_skipped))});
  }
  std::printf("\n%s\n", table.render().c_str());
  std::printf("speedup (incremental vs cold, evals/s): %.2fx\n", speedup);
  std::printf("speedup (soa vs incremental, evals/s): %.2fx\n", speedup_soa);
  std::printf("speedup (workflow cache vs none, median evals/s): %.2fx\n",
              wf_speedup);

  const std::string path = bench::csv_path("BENCH_eval.json");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_eval\",\n  \"schema_version\": 1,\n");
  std::fprintf(f,
               "  \"workload\": {\"domain\": \"hanoi\", \"disks\": 7,"
               " \"population\": %zu, \"phases\": %zu,"
               " \"generations_per_phase\": %zu, \"runs\": %zu,"
               " \"seed\": %llu, \"crossover\": \"%s\","
               " \"checkpoint_stride\": %zu, \"ops_cache_size\": %zu,"
               " \"reps\": %d},\n",
               base.population_size, phases, base.generations, params.runs,
               static_cast<unsigned long long>(params.seed),
               base.crossover == ga::CrossoverKind::kRandom ? "random" : "mixed",
               base.eval_checkpoint_stride, base.ops_cache_size, reps);
  std::fprintf(f, "  \"configs\": [\n");
  json_config(f, cold_r, false);
  json_config(f, inc_r, false);
  json_config(f, soa_r, true);
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"speedup_evals_per_sec\": %.4f,\n", speedup);
  std::fprintf(f, "  \"speedup_evals_per_sec_soa\": %.4f,\n", speedup_soa);
  std::fprintf(f, "  \"sokoban_cache\": {\"cache_hits\": %llu,"
               " \"cache_misses\": %llu, \"cache_hit_rate\": %.6f},\n",
               static_cast<unsigned long long>(sok_r.cache_hits),
               static_cast<unsigned long long>(sok_r.cache_misses),
               sok_r.cache_hit_rate());
  const auto json_side = [&](const ConfigResult& r) {
    std::fprintf(f,
                 "{\"evaluations\": %llu, \"seconds_min\": %.6f,"
                 " \"seconds_median\": %.6f, \"evals_per_sec_max\": %.2f,"
                 " \"evals_per_sec_median\": %.2f}",
                 static_cast<unsigned long long>(r.evaluations),
                 r.seconds_min(), r.seconds_median(), r.evals_per_sec(),
                 median_rate(r));
  };
  std::fprintf(f,
               "  \"workflow_cache\": {\"domain\": \"genomics_pipeline\","
               " \"population\": %zu, \"phases\": %zu,"
               " \"generations_per_phase\": %zu, \"runs\": %zu,"
               " \"ops_cache_size\": %zu, \"reps\": %d,"
               " \"cache_hits\": %llu, \"cache_misses\": %llu,"
               " \"cache_hit_rate\": %.6f,\n    \"cache\": ",
               wcfg.population_size, wcfg.phases, wcfg.generations, wf_runs,
               wcfg.ops_cache_size, reps,
               static_cast<unsigned long long>(wf_r.cache_hits),
               static_cast<unsigned long long>(wf_r.cache_misses),
               wf_r.cache_hit_rate());
  json_side(wf_r);
  std::fprintf(f, ",\n    \"no_cache\": ");
  json_side(wf_off_r);
  std::fprintf(f, ",\n    \"speedup_evals_per_sec_median\": %.4f},\n",
               wf_speedup);
  std::fprintf(f, "  \"notes\": \"identical seeds and evolutionary trajectory"
               " in all configs; evals/s = ga.evaluations delta / wall;"
               " best of %d reps per config, spread in seconds_min/median/"
               "stddev\"\n}\n", reps);
  std::fclose(f);
  std::printf("json: %s\n", path.c_str());

  bench::export_metrics("bench_eval");
  return 0;
}
