// Single-phase GA engine (§3.4, and step 2(a) of the multi-phase procedure in
// §3.5): evaluate → select → crossover → mutate → replace, for a fixed number
// of generations over a fixed-size, variable-length population.
//
// The generation loop is exposed as a steppable PhaseRunner so the island
// model (core/island.hpp) can interleave migration between generations; the
// Engine facade drives a complete phase.
//
// Evaluation is the planner's hot kernel, so the runner is built around the
// incremental decode engine (decoder.hpp):
//  * the population lives in a double-buffered struct-of-arrays GenomePool —
//    reproduction splices children into the retired pool's lanes (recycling
//    every gene lane and Evaluation allocation) and swaps;
//  * children carry (parent index, first dirty gene) bookkeeping, so
//    step_evaluate re-decodes only from the parent's checkpointed state
//    nearest the first gene crossover/mutation actually changed;
//  * every domain decodes the whole population in one pass of sorted
//    8-lane groups (KernelBatchDecoder): over the LUT of a domain's SIMD
//    kernel, else over the problem through per-thread EvalContexts holding
//    the valid-ops transposition cache for domains that opt in
//    (CacheableOps).
// All of it is bit-identical to cold evaluation (GaConfig::incremental_eval
// turns the reuse off; random draws are unaffected).
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "analysis/config_lint.hpp"
#include "core/config.hpp"
#include "core/crossover.hpp"
#include "core/eval_cache.hpp"
#include "core/fitness.hpp"
#include "core/genome_pool.hpp"
#include "core/individual.hpp"
#include "core/mutation.hpp"
#include "core/selection.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace gaplan::ga {

/// Per-generation telemetry used by convergence plots and tests.
struct GenerationStat {
  std::size_t generation = 0;
  double best_fitness = 0.0;
  double mean_fitness = 0.0;
  double best_goal_fit = 0.0;
  double mean_length = 0.0;
  std::size_t valid_count = 0;
};

/// Outcome of one phase (one independent GA run).
template <typename State>
struct PhaseResult {
  Individual<State> best;             ///< best-of-phase (paper: highest goal fitness)
  bool found_valid = false;
  std::size_t generation_found = 0;   ///< first generation with a valid individual
  std::size_t generations_run = 0;
  std::vector<GenerationStat> history;
  CrossoverStats crossover_stats;
};

/// Orders individuals the way the paper reports them: valid plans first, then
/// by goal fitness, then by combined fitness (which folds in plan cost).
template <typename State>
bool better_solution(const Evaluation<State>& a, const Evaluation<State>& b) {
  if (a.valid != b.valid) return a.valid;
  if (a.goal_fit != b.goal_fit) return a.goal_fit > b.goal_fit;
  return a.fitness > b.fitness;
}

namespace detail {

/// Child bookkeeping consumed by step_evaluate: which retired-parent slot
/// bred the child and the first gene that may differ from that parent.
inline constexpr std::uint32_t kDirtyAll = 0xFFFFFFFFu;   ///< cold decode
inline constexpr std::uint32_t kEvalReady = 0xFFFFFFFEu;  ///< eval current, skip

inline std::uint32_t dirty_index(std::size_t dirty, std::size_t len) noexcept {
  const std::size_t d = std::min(dirty, len);
  return d >= kEvalReady ? kEvalReady - 1 : static_cast<std::uint32_t>(d);
}

}  // namespace detail

/// Builds a genome whose genes decode, with probability seed_greediness, to
/// the valid operation whose successor has the best goal fitness (ties and
/// the remaining probability mass fall to a uniform valid operation). §3.2's
/// seeded initialisation.
template <PlanningProblem P>
Genome greedy_seed_genome(const P& problem, const GaConfig& cfg,
                          const typename P::StateT& start, util::Rng& rng) {
  using State = typename P::StateT;
  Genome genes;
  genes.reserve(cfg.initial_length);
  State s = start;
  std::vector<int> ops;
  for (std::size_t i = 0; i < cfg.initial_length; ++i) {
    problem.valid_ops(s, ops);
    if (ops.empty()) {
      // Dead end: pad with random genes (they are inert past this point).
      genes.push_back(rng.uniform());
      continue;
    }
    std::size_t pick;
    if (rng.chance(cfg.seed_greediness)) {
      pick = 0;
      double best_fit = -1.0;
      for (std::size_t k = 0; k < ops.size(); ++k) {
        State next = s;
        problem.apply(next, ops[k]);
        const double fit = problem.goal_fitness(next);
        if (fit > best_fit) {
          best_fit = fit;
          pick = k;
        }
      }
    } else {
      pick = static_cast<std::size_t>(rng.below(ops.size()));
    }
    // A gene in [pick/m, (pick+1)/m) decodes back to index `pick`.
    const double m = static_cast<double>(ops.size());
    genes.push_back((static_cast<double>(pick) + rng.uniform()) / m);
    problem.apply(s, ops[pick]);
    if (problem.is_goal(s)) {
      // Solution found during seeding: stop here, the decoder truncates.
      break;
    }
  }
  return genes;
}

/// One GA population mid-phase. init() → repeat { step_evaluate();
/// step_reproduce(); }. Between the two steps the population is evaluated and
/// may be inspected or modified (migration).
///
/// The population lives in a double-buffered GenomePool (flat gene lanes +
/// parallel metadata arrays); reproduction splices children between the
/// pools with contiguous lane copies. Every domain decodes the indirect
/// encoding in one population-wide KernelBatchDecoder pass (evaluate); only
/// the direct encoding, an ablation, decodes slot by slot. Both are
/// bit-identical to a cold evaluate_into of each genome
/// (tests/test_golden.cpp).
template <PlanningProblem P>
class PhaseRunner {
 public:
  using State = typename P::StateT;

  PhaseRunner(const P& problem, const GaConfig& cfg, util::ThreadPool* pool)
      : problem_(&problem), cfg_(&cfg), pool_(pool) {}

  /// Fresh population (§3.2) searching from `start`: random genomes, plus an
  /// optional greedily-seeded fraction (GaConfig::seed_fraction). Pool
  /// storage (gene lanes, Evaluation buffers) is recycled across phases — the
  /// Engine keeps one PhaseRunner alive for the whole multi-phase run.
  void init(const State& start, util::Rng& rng) {
    start_ = start;
    const std::size_t n = cfg_->population_size;
    const std::size_t stride = cfg_->max_length;
    cur_.reset(n, stride);
    next_.reset(n, stride);
    spare_buf_.resize(stride);
    const std::size_t seeded = static_cast<std::size_t>(
        cfg_->seed_fraction * static_cast<double>(n));
    for (std::size_t i = 0; i < n; ++i) {
      if (i < seeded) {
        const Genome g = greedy_seed_genome(*problem_, *cfg_, start_, rng);
        cur_.assign(i, g);
      } else {
        Gene* lane = cur_.lane(i);
        for (std::size_t g = 0; g < cfg_->initial_length; ++g) {
          lane[g] = rng.uniform();
        }
        cur_.set_len(i, cfg_->initial_length);
      }
    }
    // A decoder per phase: its options derive from the config, which the
    // Engine holds by pointer and phase-varying scenarios mutate between
    // phases, and its fresh context() tag keeps thread-local ops caches
    // filled for a previous (possibly destroyed) problem from serving this
    // run. Only exact-state crossover matching reads state hashes.
    kdec_.emplace(*problem_, decode_options(*cfg_),
                  cfg_->state_match == StateMatchKind::kExactState,
                  CacheableOps<P> ? cfg_->ops_cache_size : 0);
    result_ = PhaseResult<State>{};
    have_best_ = false;
    generation_ = 0;
    children_pending_ = false;
    evals_current_ = false;
  }

  /// Evaluates the population, updates best-of-phase/validity tracking and
  /// appends a GenerationStat. Returns the stat.
  const GenerationStat& step_evaluate() {
    util::Timer eval_timer;
    // Touch the eval counters up front so they are registered (and exported)
    // even on runs where the cache/resume paths never fire.
    static obs::Counter& c_hits = obs::counter("eval.cache_hits");
    static obs::Counter& c_misses = obs::counter("eval.cache_misses");
    static obs::Counter& c_skipped = obs::counter("eval.resume_genes_skipped");
    (void)c_hits;
    (void)c_misses;
    (void)c_skipped;

    const bool use_incremental = cfg_->incremental_eval &&
                                 cfg_->encoding == EncodingKind::kIndirect;
    const bool resumable = use_incremental && children_pending_;
    // After crowding reproduction every slot already holds a current
    // evaluation (children are evaluated in-line against their parents), so
    // the decode pass is pure recomputation and is skipped.
    const bool skip_decode = use_incremental && evals_current_;
    if (!skip_decode) evaluate(resumable);
    children_pending_ = false;
    evals_current_ = true;

    GenerationStat stat;
    stat.generation = generation_;
    std::size_t best_idx = 0;
    std::vector<double>& fitness = cur_.fitness();
    for (std::size_t i = 0; i < cur_.slots(); ++i) {
      const Evaluation<State>& ev = cur_.eval(i);
      fitness[i] = ev.fitness;
      stat.mean_fitness += ev.fitness;
      stat.mean_length += static_cast<double>(cur_.len(i));
      if (ev.valid) ++stat.valid_count;
      if (better_solution(ev, cur_.eval(best_idx))) best_idx = i;
    }
    stat.mean_fitness /= static_cast<double>(cur_.slots());
    stat.mean_length /= static_cast<double>(cur_.slots());
    stat.best_fitness = cur_.eval(best_idx).fitness;
    stat.best_goal_fit = cur_.eval(best_idx).goal_fit;

    if (!have_best_ ||
        better_solution(cur_.eval(best_idx), result_.best.eval)) {
      const std::span<const Gene> g = cur_.genome(best_idx);
      result_.best.genes.assign(g.begin(), g.end());
      result_.best.eval = cur_.eval(best_idx);
      have_best_ = true;
    }
    if (!result_.found_valid && stat.valid_count > 0) {
      result_.found_valid = true;
      result_.generation_found = generation_;
    }
    result_.history.push_back(stat);
    result_.generations_run = ++generation_;

    const double eval_ms = eval_timer.millis();
    static obs::Counter& c_generations = obs::counter("ga.generations");
    static obs::Counter& c_evaluations = obs::counter("ga.evaluations");
    static obs::Histogram& h_eval =
        obs::histogram("ga.eval_ms", obs::latency_buckets_ms());
    c_generations.inc();
    c_evaluations.inc(cur_.slots());
    h_eval.observe(eval_ms);
    if (obs::trace_enabled()) {
      // A generation is a span of its own (dur = the evaluation pass, the
      // phase's hot kernel) parented under the enclosing phase/island span,
      // so per-request timelines attribute GA time generation by generation.
      obs::TraceEvent ev("generation");
      if (span_ctx_.valid()) {
        ev.f("trace", span_ctx_.trace)
            .f("span", obs::next_span_id())
            .f("parent", span_ctx_.span);
      }
      ev.f("gen", stat.generation)
          .f("best_fitness", stat.best_fitness)
          .f("mean_fitness", stat.mean_fitness)
          .f("best_goal_fit", stat.best_goal_fit)
          .f("mean_length", stat.mean_length)
          .f("valid", stat.valid_count)
          .f("eval_ms", eval_ms)
          .f("dur_ms", eval_ms)
          .emit();
    }
    return result_.history.back();
  }

  /// Tournament/roulette selection, crossover, mutation, replacement (with
  /// optional elitism), or deterministic crowding. Timed into the
  /// ga.reproduce_ms histogram either way.
  void step_reproduce(util::Rng& rng) {
    util::Timer timer;
    if (cfg_->replacement == ReplacementKind::kCrowding) {
      step_reproduce_crowding(rng);
    } else {
      step_reproduce_generational(rng);
    }
    static obs::Histogram& h_repro =
        obs::histogram("ga.reproduce_ms", obs::latency_buckets_ms());
    h_repro.observe(timer.millis());
  }

  /// Replaces the lowest-fitness individuals with `migrants` (island model).
  /// Only meaningful directly after step_evaluate().
  void replace_worst(const std::vector<Individual<State>>& migrants) {
    if (migrants.empty()) return;
    std::vector<double>& fitness = cur_.fitness();
    std::vector<std::size_t> order(cur_.slots());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::partial_sort(order.begin(),
                      order.begin() + static_cast<std::ptrdiff_t>(std::min(
                                          migrants.size(), order.size())),
                      order.end(), [&](std::size_t a, std::size_t b) {
                        return fitness[a] < fitness[b];
                      });
    for (std::size_t m = 0; m < migrants.size() && m < cur_.slots(); ++m) {
      cur_.assign(order[m], migrants[m].genes);
      cur_.eval(order[m]) = migrants[m].eval;
      fitness[order[m]] = migrants[m].eval.fitness;
    }
  }

  /// Appends this island's migration payload to `out`: the best-of-phase
  /// first, then `count - 1` current-population elites. Only meaningful
  /// directly after step_evaluate().
  void collect_migrants(std::size_t count,
                        std::vector<Individual<State>>& out) const {
    out.push_back(result_.best);
    const std::size_t extra = count > 1 ? count - 1 : 0;
    std::vector<std::size_t> order(cur_.slots());
    for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
    std::partial_sort(order.begin(),
                      order.begin() + static_cast<std::ptrdiff_t>(
                                          std::min(extra, order.size())),
                      order.end(), [&](std::size_t a, std::size_t b) {
                        return better_solution(cur_.eval(a), cur_.eval(b));
                      });
    for (std::size_t k = 0; k < extra && k < order.size(); ++k) {
      Individual<State> ind;
      const std::span<const Gene> g = cur_.genome(order[k]);
      ind.genes.assign(g.begin(), g.end());
      ind.eval = cur_.eval(order[k]);
      out.push_back(std::move(ind));
    }
  }

  /// Attaches the runner's generation spans under `ctx` (a phase or island
  /// span). Contexts are handed down explicitly — the runner never consults
  /// thread-local state, so driving it from a pool thread changes nothing.
  void set_span_context(obs::SpanContext ctx) noexcept { span_ctx_ = ctx; }

  const PhaseResult<State>& result() const noexcept { return result_; }
  PhaseResult<State> take_result() { return std::move(result_); }
  /// The current population (slot genomes, evaluations, fitness).
  const GenomePool<State>& population() const noexcept { return cur_; }
  const Individual<State>& best() const { return result_.best; }
  std::size_t generation() const noexcept { return generation_; }

 private:
  /// Generational replacement with optional elitism. Children are spliced
  /// into the retired pool's lanes (the stale evaluations left in those
  /// slots are recycled by the next step_evaluate), then the pools swap.
  void step_reproduce_generational(util::Rng& rng) {
    const std::size_t n = cur_.slots();
    parent_of_.resize(n);
    dirty_of_.assign(n, detail::kDirtyAll);

    std::size_t filled = 0;
    if (cfg_->elite_count > 0) {
      std::vector<std::size_t> order(n);
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::partial_sort(order.begin(),
                        order.begin() + static_cast<std::ptrdiff_t>(std::min(
                                            cfg_->elite_count, order.size())),
                        order.end(), [&](std::size_t a, std::size_t b) {
                          return better_solution(cur_.eval(a), cur_.eval(b));
                        });
      for (; filled < cfg_->elite_count; ++filled) {
        const std::size_t src = order[filled];
        next_.assign(filled, cur_.genome(src));
        next_.eval(filled) = cur_.eval(src);  // elites keep genes *and* eval
        parent_of_[filled] = src;
        dirty_of_[filled] = detail::kEvalReady;
      }
    }
    while (filled < n) {
      const std::size_t ia = select(rng);
      const std::size_t ib = select(rng);
      const bool keep_b = filled + 1 < n;
      GeneLane la{next_.lane(filled), next_.stride(), 0};
      // The last slot of an odd remainder still breeds a full pair (identical
      // random sequence to always-paired breeding); the spare child lands in
      // a scratch lane and is discarded.
      GeneLane lb = keep_b ? GeneLane{next_.lane(filled + 1), next_.stride(), 0}
                           : GeneLane{spare_buf_.data(), spare_buf_.size(), 0};
      std::size_t da = kCleanGenome;
      std::size_t db = kCleanGenome;
      breed(ia, ib, rng, la, lb, da, db);
      next_.set_len(filled, la.size);
      parent_of_[filled] = ia;
      dirty_of_[filled] = detail::dirty_index(da, la.size);
      ++filled;
      if (keep_b) {
        next_.set_len(filled, lb.size);
        parent_of_[filled] = ib;
        dirty_of_[filled] = detail::dirty_index(db, lb.size);
        ++filled;
      }
    }
    cur_.swap(next_);  // next_ now holds the parents the dirty info refers to
    children_pending_ = true;
    evals_current_ = false;
  }

  /// Deterministic crowding: random disjoint parent pairs; children are
  /// evaluated immediately (resuming from their parents' trajectories) and
  /// replace their more-similar parent when at least as fit (paper ordering).
  /// A replacing child's genes are copied into the parent's lane and the two
  /// evaluations swap, so the loser's evaluation buffers become the scratch
  /// for the next pair.
  void step_reproduce_crowding(util::Rng& rng) {
    std::vector<std::size_t> order(cur_.slots());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(order);
    const bool use_incremental = cfg_->incremental_eval &&
                                 cfg_->encoding == EncodingKind::kIndirect;
    EvalContext<State>& ctx = kdec_->context();
    child_a_.resize(cur_.stride());
    child_b_.resize(cur_.stride());
    auto eval_child = [&](const GeneLane& child, std::size_t parent,
                          std::size_t dirty, Evaluation<State>& out) {
      const std::span<const Gene> genes(child.data, child.size);
      if (use_incremental && cur_.eval(parent).decoded) {
        evaluate_resume(*problem_, *cfg_, start_, genes, ctx, cur_.eval(parent),
                        cur_.genome(parent), dirty, out);
      } else {
        evaluate_into(*problem_, *cfg_, start_, genes, ctx, out);
      }
    };
    std::vector<double>& fitness = cur_.fitness();
    auto replace_if_fit = [&](std::size_t parent, const GeneLane& child,
                              Evaluation<State>& child_eval) {
      if (better_solution(cur_.eval(parent), child_eval)) return;
      cur_.assign(parent, std::span<const Gene>(child.data, child.size));
      std::swap(cur_.eval(parent), child_eval);
      fitness[parent] = cur_.eval(parent).fitness;
    };
    for (std::size_t k = 0; k + 1 < order.size(); k += 2) {
      const std::size_t p1 = order[k], p2 = order[k + 1];
      GeneLane a{child_a_.data(), child_a_.size(), 0};
      GeneLane b{child_b_.data(), child_b_.size(), 0};
      std::size_t da = kCleanGenome;
      std::size_t db = kCleanGenome;
      breed(p1, p2, rng, a, b, da, db);
      eval_child(a, p1, da, eval_a_);
      eval_child(b, p2, db, eval_b_);
      // Pair each child with its closer parent.
      const std::span<const Gene> ga(a.data, a.size), gb(b.data, b.size);
      const double straight = genome_distance(ga, cur_.genome(p1)) +
                              genome_distance(gb, cur_.genome(p2));
      const double crossed = genome_distance(ga, cur_.genome(p2)) +
                             genome_distance(gb, cur_.genome(p1));
      replace_if_fit(straight <= crossed ? p1 : p2, a, eval_a_);
      replace_if_fit(straight <= crossed ? p2 : p1, b, eval_b_);
    }
    // Every slot (survivor or freshly-evaluated child) now carries a current
    // evaluation; the next step_evaluate can skip the decode pass.
    children_pending_ = false;
    evals_current_ = true;
  }

  /// Crossover (with probability crossover_rate) then mutation of parents
  /// `ia`/`ib` into the child lanes; dirty_a/dirty_b receive each child's
  /// first gene that may differ from its parent.
  void breed(std::size_t ia, std::size_t ib, util::Rng& rng, GeneLane& la,
             GeneLane& lb, std::size_t& da, std::size_t& db) {
    bool bred = false;
    if (rng.chance(cfg_->crossover_rate)) {
      bred = crossover_lanes_into(
          *cfg_, cur_.genome(ia),
          detail::match_keys(cur_.eval(ia), cfg_->state_match),
          cur_.genome(ib),
          detail::match_keys(cur_.eval(ib), cfg_->state_match), rng,
          result_.crossover_stats, xscratch_, la, lb, da, db);
    }
    if (!bred) {  // no crossover drawn or possible: children copy parents
      copy_into(cur_.genome(ia), la);
      copy_into(cur_.genome(ib), lb);
    }
    mutate_tracked(std::span<Gene>(la.data, la.size), cfg_->mutation_rate,
                   rng, da);
    mutate_tracked(std::span<Gene>(lb.data, lb.size), cfg_->mutation_rate,
                   rng, db);
  }

  /// The population's one evaluation pass (KernelBatchDecoder::run): every
  /// slot that needs decoding joins it, with its retired parent as the
  /// resume source, and the decoder prepares, orders and decodes them
  /// (across the thread pool when there is one); eval.score_ms times the
  /// scoring that follows. The direct encoding, an ablation, decodes each
  /// slot cold on the calling thread instead. The slot list and the pass
  /// scratch are runner-owned, so a steady-state generation allocates
  /// nothing here.
  void evaluate(bool resumable) {
    kslots_.clear();
    for (std::size_t i = 0; i < cur_.slots(); ++i) {
      if (resumable && dirty_of_[i] == detail::kEvalReady) {
        continue;  // elite: evaluation carried over
      }
      detail::KernelSlot<State>& sl = kslots_.emplace_back();
      sl.genes = cur_.genome(i);
      sl.ev = &cur_.eval(i);
      if (resumable && dirty_of_[i] != detail::kDirtyAll) {
        // next_ holds the retired parent generation (double-buffered).
        const std::size_t pi = parent_of_[i];
        if (next_.eval(pi).decoded) {
          sl.prev = &next_.eval(pi);
          sl.parent_genes = next_.genome(pi);
          sl.first_dirty = dirty_of_[i];
        }
      }
    }
    if (cfg_->encoding == EncodingKind::kDirect) {
      for (const auto& sl : kslots_) {
        evaluate_into(*problem_, *cfg_, start_, sl.genes, kdec_->context(),
                      *sl.ev);
      }
      return;
    }
    kdec_->run(start_, kslots_, kscratch_, pool_);
    util::Timer timer;
    for (const auto& sl : kslots_) score(*problem_, *cfg_, *sl.ev);
    static obs::Histogram& h_score =
        obs::histogram("eval.score_ms", obs::latency_buckets_ms());
    h_score.observe(timer.millis());
  }

  std::size_t select(util::Rng& rng) const {
    return cfg_->selection == SelectionKind::kTournament
               ? tournament_select(cur_.fitness(), cfg_->tournament_size, rng)
               : roulette_select(cur_.fitness(), rng);
  }

  static void copy_into(std::span<const Gene> src, GeneLane& out) {
    out.size = std::min(src.size(), out.capacity);
    std::copy_n(src.data(), out.size, out.data);
  }

  /// Genotypic distance for crowding: L1 over the shared prefix plus half a
  /// unit per unshared gene (the expected |u - v| of unrelated genes is 1/3,
  /// so this mildly over-weights length differences, which is what we want —
  /// length is the phenotypically decisive trait here).
  static double genome_distance(std::span<const Gene> a,
                                std::span<const Gene> b) {
    const std::size_t shared = std::min(a.size(), b.size());
    double d = 0.0;
    for (std::size_t i = 0; i < shared; ++i) d += std::abs(a[i] - b[i]);
    d += 0.5 * static_cast<double>(std::max(a.size(), b.size()) - shared);
    return d;
  }

  const P* problem_;
  const GaConfig* cfg_;
  util::ThreadPool* pool_;
  State start_{};
  GenomePool<State> cur_;   ///< current population
  GenomePool<State> next_;  ///< retired parents / child build buffer
  std::vector<std::size_t> parent_of_;   ///< child i's parent slot in next_
  std::vector<std::uint32_t> dirty_of_;  ///< child i's first modified gene
  std::vector<Gene> spare_buf_;          ///< discarded odd-pair second child
  std::vector<Gene> child_a_, child_b_;  ///< crowding child lanes
  Evaluation<State> eval_a_, eval_b_;    ///< crowding child evaluations
  CrossoverScratch xscratch_;
  std::optional<KernelBatchDecoder<P>> kdec_;  ///< rebuilt by init()
  std::vector<detail::KernelSlot<State>> kslots_;  ///< evaluation pass slots
  detail::KernelScratch<State> kscratch_;  ///< evaluation pass scratch
  PhaseResult<State> result_;
  obs::SpanContext span_ctx_;  ///< parent for generation spans
  bool have_best_ = false;
  bool children_pending_ = false;  ///< cur_ holds unevaluated children with dirty info
  bool evals_current_ = false;     ///< every cur_ slot carries a current evaluation
  std::size_t generation_ = 0;
};

template <PlanningProblem P>
class Engine {
 public:
  using State = typename P::StateT;

  /// `pool` (optional) parallelizes fitness evaluation; results are identical
  /// to the serial run because evaluation is pure per individual.
  Engine(const P& problem, GaConfig cfg, util::ThreadPool* pool = nullptr)
      : problem_(&problem), cfg_(std::move(cfg)), pool_(pool) {
    analysis::enforce_config(cfg_, "engine");
  }

  const GaConfig& config() const noexcept { return cfg_; }

  /// Runs one phase from `start` with a freshly initialised random population.
  PhaseResult<State> run_phase(const State& start, util::Rng& rng) {
    return run_phase(start, rng, cfg_.stop_on_valid);
  }

  /// `stop_on_valid` overrides the config (the multi-phase driver always runs
  /// phases to completion, per the paper's procedure). `parent` places the
  /// phase span (and its generation children) in a caller's trace — the
  /// multiphase run, a serve worker slice, a replanner round; with no parent
  /// the phase roots a trace of its own.
  PhaseResult<State> run_phase(const State& start, util::Rng& rng,
                               bool stop_on_valid,
                               obs::SpanContext parent = {}) {
    obs::ScopedSpan span("phase", parent);
    // The runner persists across phases so its genome pools and Evaluation
    // buffers recycle for the whole multi-phase run.
    if (runner_ == nullptr) {
      runner_ = std::make_unique<PhaseRunner<P>>(*problem_, cfg_, pool_);
    }
    runner_->set_span_context(span.context());
    runner_->init(start, rng);
    for (std::size_t gen = 0; gen < cfg_.generations; ++gen) {
      runner_->step_evaluate();
      if (stop_on_valid && runner_->result().found_valid) break;
      if (gen + 1 == cfg_.generations) break;  // no point breeding a final pop
      runner_->step_reproduce(rng);
    }
    PhaseResult<State> result = runner_->take_result();
    record_phase_metrics(result);
    span.f("generations", result.generations_run)
        .f("found_valid", result.found_valid)
        .f("generation_found", result.generation_found)
        .f("best_goal_fit", result.best.eval.goal_fit)
        .f("best_fitness", result.best.eval.fitness);
    return result;
  }

 private:
  /// Folds a finished phase into the process-wide registry: phase/validity
  /// counts plus the crossover outcome tallies from CrossoverStats.
  static void record_phase_metrics(const PhaseResult<State>& result) {
    static obs::Counter& c_phases = obs::counter("ga.phases");
    static obs::Counter& c_valid = obs::counter("ga.phases_valid");
    static obs::Counter& c_pairs = obs::counter("ga.crossover.pairs");
    static obs::Counter& c_random = obs::counter("ga.crossover.random_done");
    static obs::Counter& c_state = obs::counter("ga.crossover.state_aware_done");
    static obs::Counter& c_uniform = obs::counter("ga.crossover.uniform_done");
    static obs::Counter& c_no_match = obs::counter("ga.crossover.no_match");
    static obs::Counter& c_too_short = obs::counter("ga.crossover.too_short");
    c_phases.inc();
    if (result.found_valid) c_valid.inc();
    const CrossoverStats& xs = result.crossover_stats;
    c_pairs.inc(xs.pairs);
    c_random.inc(xs.random_done);
    c_state.inc(xs.state_aware_done);
    c_uniform.inc(xs.uniform_done);
    c_no_match.inc(xs.no_match);
    c_too_short.inc(xs.too_short);
  }

  const P* problem_;
  GaConfig cfg_;
  util::ThreadPool* pool_;
  std::unique_ptr<PhaseRunner<P>> runner_;  ///< lazy, reused per phase
};

}  // namespace gaplan::ga
