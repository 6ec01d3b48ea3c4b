// Island-model GA (extension; §5 "ample opportunities for research").
//
// K islands each evolve an independent population in lockstep; every
// `migration_interval` generations each island's best `migrants` individuals
// are copied to the next island on a ring, replacing its worst. This is the
// natural way to spread the paper's planner across a heterogeneous grid —
// each island is an independent GA run, exactly the unit §3.5 already
// defines — and bench/island measures what migration buys.
#pragma once

#include <stdexcept>
#include <vector>

#include "core/engine.hpp"

namespace gaplan::ga {

struct IslandConfig {
  std::size_t islands = 4;
  std::size_t migration_interval = 25;  ///< generations between migrations
  std::size_t migrants = 2;             ///< individuals copied per edge
};

template <typename State>
struct IslandResult {
  Individual<State> best;              ///< best individual across all islands
  bool found_valid = false;
  std::size_t generation_found = 0;
  std::size_t generations_run = 0;
  std::size_t best_island = 0;
  std::size_t migrations = 0;
  std::vector<PhaseResult<State>> islands;  ///< per-island phase results
};

/// Ranking key of a multi-island run's winner candidate: an island's best
/// evaluation key plus the generation that best was first reached.
struct IslandRank {
  bool valid = false;
  double goal_fit = 0.0;
  double fitness = 0.0;
  std::size_t gen = 0;     ///< generation the island first reached this best
  std::size_t island = 0;  ///< global island index
};

/// Whether `a` beats `b` as the run's winner: the better evaluation key
/// (better_solution), with equal keys going to the earlier generation, then
/// to the lower island index. A generation-major, island-minor scan that
/// replaces its best only on a strict improvement ends on exactly this
/// winner, so any grouping of islands that reports per-island ranks merges
/// to the same result.
inline bool outranks(const IslandRank& a, const IslandRank& b) noexcept {
  const auto better = [](const IslandRank& x, const IslandRank& y) {
    if (x.valid != y.valid) return x.valid;
    if (x.goal_fit != y.goal_fit) return x.goal_fit > y.goal_fit;
    return x.fitness > y.fitness;
  };
  if (better(a, b)) return true;
  if (better(b, a)) return false;
  return a.gen < b.gen || (a.gen == b.gen && a.island < b.island);
}

/// Islands [begin, end) of a K-island run, evolved in lockstep: every
/// island evaluates generation g before any reproduces into g + 1. Runs
/// pause at each migration boundary after the evaluate step with the
/// reproduce step deferred, so the caller can move migrants — in process
/// (run_islands) or across processes (dist::IslandShardRunner) — and then
/// advance(). Per-island RNG streams are split off the run seed for all K
/// islands before the group keeps its range, so how the islands are grouped
/// never changes any island's randomness.
template <PlanningProblem P>
class IslandGroup {
 public:
  using State = typename P::StateT;

  /// Splits `rng` into K streams (advancing it K times, whatever the range)
  /// and initialises the group's islands from the problem's initial state.
  IslandGroup(const P& problem, const GaConfig& cfg, const IslandConfig& icfg,
              std::size_t begin, std::size_t end, util::Rng& rng,
              util::ThreadPool* pool)
      : cfg_(cfg), icfg_(icfg), begin_(begin), end_(end) {
    if (icfg_.islands == 0 || begin_ >= end_ || end_ > icfg_.islands) {
      throw std::invalid_argument("IslandGroup: bad island range");
    }
    std::vector<util::Rng> all;
    all.reserve(icfg_.islands);
    for (std::size_t i = 0; i < icfg_.islands; ++i) all.push_back(rng.split());
    const State start = problem.initial_state();
    const std::size_t local = end_ - begin_;
    runners_.reserve(local);
    rngs_.reserve(local);
    ranks_.resize(local);
    for (std::size_t i = 0; i < local; ++i) {
      rngs_.push_back(all[begin_ + i]);
      runners_.emplace_back(problem, cfg_, pool);
      runners_[i].init(start, rngs_[i]);
      ranks_[i].island = begin_ + i;
    }
  }
  // Runners hold a pointer to cfg_.
  IslandGroup(const IslandGroup&) = delete;
  IslandGroup& operator=(const IslandGroup&) = delete;

  std::size_t begin() const noexcept { return begin_; }
  std::size_t end() const noexcept { return end_; }
  const GaConfig& config() const noexcept { return cfg_; }

  /// Parents island `island`'s generation spans under `ctx`.
  void set_span_context(std::size_t island, obs::SpanContext ctx) {
    runners_.at(local_index(island)).set_span_context(ctx);
  }

  /// Runs to the next migration boundary or to the end of the phase.
  /// Returns true when paused at a boundary (populations evaluated,
  /// reproduce deferred until advance()); false when generations are
  /// exhausted or, with `stop_on_valid`, as soon as any island of the group
  /// holds a valid plan.
  bool run_interval(bool stop_on_valid) {
    if (pending_reproduce_) {
      throw std::logic_error("run_interval: advance() the boundary first");
    }
    for (;;) {
      for (std::size_t i = 0; i < runners_.size(); ++i) {
        runners_[i].step_evaluate();
        // The runner's best changes only on a strict improvement; record
        // the generation it did.
        const Evaluation<State>& ev = runners_[i].best().eval;
        const IslandRank now{ev.valid, ev.goal_fit, ev.fitness, gen_,
                             begin_ + i};
        if (gen_ == 0 || outranks(now, ranks_[i])) ranks_[i] = now;
      }
      generations_run_ = gen_ + 1;
      if (stop_on_valid && found_valid()) return false;
      if (gen_ + 1 == cfg_.generations) return false;
      if (icfg_.islands > 1 && icfg_.migration_interval > 0 &&
          (gen_ + 1) % icfg_.migration_interval == 0) {
        pending_reproduce_ = true;
        return true;
      }
      reproduce();
    }
  }

  /// Performs the reproduce step deferred at the last boundary.
  void advance() {
    if (!pending_reproduce_) {
      throw std::logic_error("advance: not paused at a boundary");
    }
    reproduce();
    pending_reproduce_ = false;
    ++migrations_;
  }

  /// Appends island `island`'s outgoing migrants to `out`: its best-of-phase
  /// first, then current-population elites.
  void collect(std::size_t island, std::vector<Individual<State>>& out) const {
    runners_.at(local_index(island)).collect_migrants(icfg_.migrants, out);
  }

  /// Replaces island `island`'s worst individuals with `migrants`.
  void inject(std::size_t island,
              const std::vector<Individual<State>>& migrants) {
    runners_.at(local_index(island)).replace_worst(migrants);
  }

  /// Any island of the group has found a valid plan.
  bool found_valid() const {
    for (const auto& r : runners_) {
      if (r.result().found_valid) return true;
    }
    return false;
  }

  /// Earliest generation any island of the group found a valid plan in
  /// (meaningful when found_valid()).
  std::size_t generation_found() const {
    std::size_t g = 0;
    bool have = false;
    for (const auto& r : runners_) {
      const auto& pr = r.result();
      if (pr.found_valid && (!have || pr.generation_found < g)) {
        g = pr.generation_found;
        have = true;
      }
    }
    return g;
  }

  std::size_t generations_run() const noexcept { return generations_run_; }
  std::size_t migrations() const noexcept { return migrations_; }

  /// The group's winning island under outranks().
  IslandRank winner() const {
    IslandRank best = ranks_.front();
    for (const IslandRank& r : ranks_) {
      if (outranks(r, best)) best = r;
    }
    return best;
  }

  /// Island `island`'s best-of-phase individual.
  const Individual<State>& best(std::size_t island) const {
    return runners_.at(local_index(island)).best();
  }

  /// Moves out every island's phase result, in island order.
  std::vector<PhaseResult<State>> take_results() {
    std::vector<PhaseResult<State>> out;
    out.reserve(runners_.size());
    for (auto& r : runners_) out.push_back(r.take_result());
    return out;
  }

 private:
  std::size_t local_index(std::size_t island) const {
    if (island < begin_ || island >= end_) {
      throw std::out_of_range("island not in this group");
    }
    return island - begin_;
  }

  void reproduce() {
    for (std::size_t i = 0; i < runners_.size(); ++i) {
      runners_[i].step_reproduce(rngs_[i]);
    }
    ++gen_;
  }

  GaConfig cfg_;
  IslandConfig icfg_;
  std::size_t begin_;
  std::size_t end_;
  std::vector<PhaseRunner<P>> runners_;
  std::vector<util::Rng> rngs_;
  std::vector<IslandRank> ranks_;  ///< each island's best-of-phase rank
  std::size_t gen_ = 0;  ///< generation being evaluated or bred from
  std::size_t generations_run_ = 0;
  std::size_t migrations_ = 0;
  bool pending_reproduce_ = false;
};

/// Runs the island model from the problem's initial state for one phase worth
/// of generations (cfg.generations): one IslandGroup over all K islands with
/// in-process ring migration. Per-island RNG streams are split off `rng` up
/// front so results do not depend on evaluation order. `parent` attaches the
/// "islands" span (and its per-island / generation descendants) to a
/// caller's trace; with no parent the run roots a fresh trace.
template <PlanningProblem P>
IslandResult<typename P::StateT> run_islands(const P& problem, const GaConfig& cfg,
                                             const IslandConfig& icfg,
                                             util::Rng& rng,
                                             util::ThreadPool* pool = nullptr,
                                             obs::SpanContext parent = {}) {
  using State = typename P::StateT;
  analysis::enforce_config(cfg, "island");
  if (icfg.islands == 0) throw std::invalid_argument("IslandConfig: islands must be >= 1");

  IslandGroup<P> group(problem, cfg, icfg, 0, icfg.islands, rng, pool);

  obs::ScopedSpan islands_span("islands", parent);
  islands_span.f("islands", icfg.islands)
      .f("migration_interval", icfg.migration_interval);
  // One child span context per island, allocated up front: every island's
  // generation events parent under its own island node, so the journal keeps
  // per-island timing attribution even though the islands interleave on one
  // thread. The island spans themselves are emitted after the loop.
  const obs::SpanContext tree = islands_span.context();
  std::vector<obs::SpanContext> island_ctx(icfg.islands);
  if (tree.valid()) {
    for (std::size_t i = 0; i < icfg.islands; ++i) {
      island_ctx[i] = {tree.trace, obs::next_span_id()};
      group.set_span_context(i, island_ctx[i]);
    }
  }
  const double islands_t0 = obs::monotonic_ms();

  while (group.run_interval(cfg.stop_on_valid)) {
    // Ring migration (populations are evaluated here): every island sends
    // copies of its best-of-phase plus current-population elites to its
    // successor, replacing the successor's worst.
    std::vector<std::vector<Individual<State>>> outgoing(icfg.islands);
    for (std::size_t i = 0; i < icfg.islands; ++i) group.collect(i, outgoing[i]);
    for (std::size_t i = 0; i < icfg.islands; ++i) {
      group.inject((i + 1) % icfg.islands, outgoing[i]);
    }
    static obs::Counter& c_migrations = obs::counter("ga.migrations");
    c_migrations.inc();
    if (obs::trace_enabled()) {
      const IslandRank w = group.winner();
      obs::TraceEvent("migration")
          .in(tree)
          .f("gen", group.generations_run() - 1)
          .f("islands", icfg.islands)
          .f("migrants_per_edge", icfg.migrants)
          .f("best_goal_fit", w.goal_fit)
          .f("best_island", w.island)
          .emit();
    }
    group.advance();
  }

  IslandResult<State> result;
  const IslandRank w = group.winner();
  result.best = group.best(w.island);
  result.best_island = w.island;
  result.found_valid = group.found_valid();
  result.generation_found = result.found_valid ? group.generation_found() : 0;
  result.generations_run = group.generations_run();
  result.migrations = group.migrations();
  result.islands = group.take_results();
  if (tree.valid()) {
    // Emit the per-island spans now that each island's work is done. The
    // islands run interleaved on the caller thread, so each span covers the
    // whole lockstep loop; its own generation children carry the per-step
    // timing. dur_ms is shared loop wall time, not exclusive island time.
    const double dur = obs::monotonic_ms() - islands_t0;
    for (std::size_t i = 0; i < island_ctx.size(); ++i) {
      const auto& pr = result.islands[i];
      obs::TraceEvent("island")
          .f("trace", tree.trace)
          .f("span", island_ctx[i].span)
          .f("parent", tree.span)
          .f("island", i)
          .f("generations_run", pr.generations_run)
          .f("found_valid", pr.found_valid)
          .f("best_goal_fit", pr.best.eval.goal_fit)
          .f("dur_ms", dur)
          .emit();
    }
  }

  islands_span.f("generations_run", result.generations_run)
      .f("migrations", result.migrations)
      .f("found_valid", result.found_valid)
      .f("best_island", result.best_island)
      .f("best_goal_fit", result.best.eval.goal_fit);
  return result;
}

}  // namespace gaplan::ga
