// Sharded island-model GA: one request's K islands split into contiguous
// shards that evolve in separate processes, exchanging migrants through the
// dist migration codec.
//
// Each shard is a ga::IslandGroup (core/island.hpp) over its island range:
// the group pauses at every migration boundary after the evaluate step with
// its reproduce deferred, the coordinator moves each island's migrants to
// its ring successor (possibly on another shard), and advance() performs the
// deferred reproduce. Because every group splits the request seed into all K
// per-island rng streams identically and migrants travel as genomes that the
// receiver re-evaluates cold (bit-identical to the sender's evaluation, see
// tests/test_golden.cpp), the merged result is a pure function of (problem,
// config, seed, K) — independent of how the islands are grouped into shards.
// With stop_on_valid=false it is bit-identical to a single-process
// run_islands call (tested in tests/test_dist.cpp); with stop_on_valid=true
// the stop condition is only checked at migration boundaries, a deliberately
// relaxed semantic that keeps the result grouping-independent (a
// mid-interval stop would depend on which shard noticed first).
//
// Each shard reports its winning island's ga::IslandRank (evaluation key
// plus the generation its best was first reached); merge_shard_outcomes
// picks the winner with ga::outranks, the same order run_islands uses.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/eval_cache.hpp"
#include "core/fitness.hpp"
#include "core/island.hpp"
#include "dist/migration.hpp"
#include "server/problem_spec.hpp"

namespace gaplan::dist {

/// What a shard reports at the end of its run: merged-result ingredients
/// only (plain data, wire-friendly) — never domain state.
struct ShardOutcome {
  bool found_valid = false;
  std::size_t generation_found = 0;  ///< min over the shard's islands
  std::size_t generations_run = 0;
  std::size_t migrations = 0;  ///< boundaries crossed (same on every shard)
  // The shard's winning candidate.
  std::size_t best_island = 0;  ///< global island index
  std::size_t best_gen = 0;     ///< generation its final best was attained
  bool best_valid = false;
  double best_goal_fit = 0.0;
  double best_fitness = 0.0;
  double best_plan_cost = 0.0;
  std::vector<int> best_ops;  ///< the candidate's effective plan
  ga::Genome best_genes;
};

/// Folds per-shard outcomes into the request's result, replicating the
/// single-process tie-breaks (see header comment). Requires at least one
/// outcome.
ShardOutcome merge_shard_outcomes(const std::vector<ShardOutcome>& outs);

/// Splits K islands into contiguous per-worker ranges proportional to the
/// worker weights (largest-remainder rounding, earlier workers win ties —
/// deterministic, so the router and tests agree). Returns [begin, end)
/// pairs; a zero-share worker gets an empty range.
std::vector<std::pair<std::size_t, std::size_t>> partition_islands(
    std::size_t islands, const std::vector<double>& weights);

/// One shard: islands [begin, end) of a K-island run, driving a
/// ga::IslandGroup that owns the islands.
template <ga::PlanningProblem P>
class IslandShardRunner {
 public:
  using State = typename P::StateT;

  IslandShardRunner(P problem, const ga::GaConfig& cfg,
                    const ga::IslandConfig& icfg, std::size_t begin,
                    std::size_t end, std::uint64_t seed,
                    util::ThreadPool* pool)
      : problem_(std::move(problem)),
        seed_rng_(checked_seed(cfg, seed)),
        group_(problem_, cfg, icfg, begin, end, seed_rng_, pool),
        start_(problem_.initial_state()),
        epoch_(ga::next_eval_epoch()) {}

  std::size_t begin() const noexcept { return group_.begin(); }
  std::size_t end() const noexcept { return group_.end(); }

  /// Attaches generation spans of every local island under `ctx` (the
  /// worker's shard span). Distributed runs do not reproduce the
  /// single-process per-island span tree; the worker roots its own.
  void set_span_context(obs::SpanContext ctx) {
    for (std::size_t i = begin(); i < end(); ++i) group_.set_span_context(i, ctx);
  }

  /// Runs to the next migration boundary (true) or to the end of the phase
  /// (false — call finish() next).
  bool run_interval() { return group_.run_interval(false); }

  /// Any local island has found a valid plan (the coordinator's boundary
  /// stop_on_valid check).
  bool found_valid() const { return group_.found_valid(); }

  /// The outgoing migrants of global island `island` (must be local):
  /// best-of-phase first plus current elites, genomes only.
  MigrantBatch collect(std::size_t island) const {
    std::vector<ga::Individual<State>> tmp;
    group_.collect(island, tmp);
    MigrantBatch batch;
    batch.genomes.reserve(tmp.size());
    for (auto& ind : tmp) batch.genomes.push_back(std::move(ind.genes));
    return batch;
  }

  /// Delivers a migrant batch to global island `island` (must be local):
  /// every genome is re-evaluated cold — bit-identical to the sender's
  /// evaluation — then replaces the island's worst individuals.
  void inject(std::size_t island, const MigrantBatch& batch) {
    if (batch.genomes.empty()) return;
    static thread_local ga::EvalContext<State> ctx;
    ctx.sync(&problem_, epoch_, 0);  // no transposition cache for one-offs
    std::vector<ga::Individual<State>> migrants(batch.genomes.size());
    for (std::size_t m = 0; m < batch.genomes.size(); ++m) {
      migrants[m].genes = batch.genomes[m];
      ga::evaluate_into(problem_, group_.config(), start_,
                        std::span<const ga::Gene>(migrants[m].genes), ctx,
                        migrants[m].eval);
    }
    group_.inject(island, migrants);
  }

  /// Performs the reproduce step deferred at the last boundary.
  void advance() { group_.advance(); }

  ShardOutcome finish() const {
    ShardOutcome out;
    out.found_valid = group_.found_valid();
    if (out.found_valid) out.generation_found = group_.generation_found();
    out.generations_run = group_.generations_run();
    out.migrations = group_.migrations();
    const ga::IslandRank w = group_.winner();
    const ga::Individual<State>& best = group_.best(w.island);
    out.best_island = w.island;
    out.best_gen = w.gen;
    out.best_valid = best.eval.valid;
    out.best_goal_fit = best.eval.goal_fit;
    out.best_fitness = best.eval.fitness;
    out.best_plan_cost = best.eval.plan_cost;
    out.best_ops = best.eval.ops;
    out.best_genes = best.genes;
    return out;
  }

 private:
  /// Rejects an invalid config before the group initialises any island.
  static std::uint64_t checked_seed(const ga::GaConfig& cfg,
                                    std::uint64_t seed) {
    analysis::enforce_config(cfg, "dist.shard");
    return seed;
  }

  P problem_;
  util::Rng seed_rng_;  ///< the request seed the group splits per island
  ga::IslandGroup<P> group_;
  State start_;
  std::uint64_t epoch_;
};

/// Type-erased shard (the worker binary's unit of work; make_shard_job builds
/// its domain through serve::with_problem, as PlanService's jobs do).
class ShardJob {
 public:
  virtual ~ShardJob() = default;
  virtual std::size_t begin() const = 0;
  virtual std::size_t end() const = 0;
  virtual void set_span_context(obs::SpanContext ctx) = 0;
  virtual bool run_interval() = 0;
  virtual bool found_valid() const = 0;
  virtual MigrantBatch collect(std::size_t island) const = 0;
  virtual void inject(std::size_t island, const MigrantBatch& batch) = 0;
  virtual void advance() = 0;
  virtual ShardOutcome finish() = 0;
};

std::unique_ptr<ShardJob> make_shard_job(const serve::ProblemSpec& spec,
                                         const ga::GaConfig& cfg,
                                         const ga::IslandConfig& icfg,
                                         std::size_t begin, std::size_t end,
                                         std::uint64_t seed,
                                         util::ThreadPool* pool);

/// Local coordinator: runs a full K-island request through `groups` shards
/// of the interval-lockstep protocol, routing every migrant batch through
/// the wire codec (encode -> parse -> cold re-evaluation) exactly as the
/// router does across processes. The parity tests drive this with one group
/// and several and compare against run_islands.
ShardOutcome run_sharded_islands(
    const serve::ProblemSpec& spec, const ga::GaConfig& cfg,
    const ga::IslandConfig& icfg, std::uint64_t seed, bool stop_on_valid,
    const std::vector<std::pair<std::size_t, std::size_t>>& groups,
    util::ThreadPool* pool = nullptr);

}  // namespace gaplan::dist
