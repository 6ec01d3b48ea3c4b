// Sharded island-model GA: one request's K islands split into contiguous
// shards, each evolving its range, exchanging migrants through the dist
// migration codec.
//
// Each shard is a ga::IslandGroup (core/island.hpp) over its island range:
// the group pauses at every migration boundary after the evaluate step with
// its reproduce deferred, the coordinator moves each island's migrants to
// its ring successor (possibly on another shard), and advance() performs the
// deferred reproduce. run_sharded_islands is the one coordinator of that
// lockstep. It drives ShardJobs, which are either in this process
// (make_shard_job) or on a gaplan_worker behind the island verbs (the
// router's remote shard, dist/router.cpp), so the router and the parity
// tests run the same loop.
//
// Because every group splits the request seed into all K per-island rng
// streams identically and migrants travel as genomes that the receiver
// re-evaluates cold (bit-identical to the sender's evaluation, see
// tests/test_golden.cpp), the merged result is a pure function of (problem,
// config, seed, K) — independent of how the islands are grouped into shards.
// With stop_on_valid=false it is bit-identical to a single-process
// run_islands call (tests/test_dist.cpp drives local shards,
// tests/test_protocol.cpp a router over in-process workers); with
// stop_on_valid=true the stop condition is only checked at migration
// boundaries, a deliberately relaxed semantic that keeps the result
// grouping-independent (a mid-interval stop would depend on which shard
// noticed first).
//
// Each shard reports its winning island's ga::IslandRank (evaluation key
// plus the generation its best was first reached); merge_shard_outcomes
// picks the winner with ga::outranks, the same order run_islands uses.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/individual.hpp"
#include "core/island.hpp"
#include "obs/trace.hpp"
#include "server/problem_spec.hpp"
#include "server/wire.hpp"

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

/// Reads the island fields of a routed submit or an ishard frame into
/// `icfg`: "islands" (required, >= 1), "interval" and "migrants" (optional,
/// icfg's values when absent). False with `error` naming the field when one
/// is missing, non-integral or out of range.
bool parse_island_fields(const serve::WireMessage& msg, ga::IslandConfig& icfg,
                         std::string& error);

/// One shard of a K-island run: islands [begin, end), driven in interval
/// lockstep by run_sharded_islands. Migrants cross the interface as wire
/// frames (dist/migration.hpp), so a shard in this process (make_shard_job)
/// and one behind a worker's island verbs (the router's remote shard) move
/// the same bytes.
class ShardJob {
 public:
  virtual ~ShardJob() = default;
  virtual std::size_t begin() const = 0;
  virtual std::size_t end() const = 0;
  /// Runs to the next migration boundary (true) or to the end of the phase
  /// (false — call finish() next).
  virtual bool run_interval() = 0;
  /// Any of the shard's islands has found a valid plan (as of the last
  /// run_interval; the coordinator's stop_on_valid check).
  virtual bool found_valid() const = 0;
  /// The encoded outgoing migrants of global island `island` (must be
  /// local): best-of-phase first plus current elites, genomes only.
  virtual std::string collect(std::size_t island) = 0;
  /// Delivers an encoded migrant batch to global island `island` (must be
  /// local): every genome is re-evaluated cold — bit-identical to the
  /// sender's evaluation — then replaces the island's worst individuals.
  /// Throws std::invalid_argument on a malformed frame.
  virtual void inject(std::size_t island, const std::string& frame) = 0;
  /// Performs the reproduce step deferred at the last boundary.
  virtual void advance() = 0;
  virtual ShardOutcome finish() = 0;
};

/// A shard that evolves its islands in this process, over a
/// ga::IslandGroup on the problem `spec` names (built through
/// serve::with_problem, as PlanService's jobs are). A valid `span` attaches
/// every island's generation spans under it (the worker's shard span).
/// Throws when `cfg` fails analysis::enforce_config.
std::unique_ptr<ShardJob> make_shard_job(const serve::ProblemSpec& spec,
                                         const ga::GaConfig& cfg,
                                         const ga::IslandConfig& icfg,
                                         std::size_t begin, std::size_t end,
                                         std::uint64_t seed,
                                         obs::SpanContext span = {});

/// The lockstep coordinator of a sharded `islands`-island run, wherever
/// its shards live. Per interval: run_interval on every shard concurrently
/// (rethrowing a shard's failure after all have joined), the stop check,
/// collect every island's migrants, inject each batch into the island's
/// ring successor, advance every shard. Then finish every shard and merge.
/// `shards` must tile [0, islands) in order.
ShardOutcome run_sharded_islands(
    const std::vector<std::unique_ptr<ShardJob>>& shards, std::size_t islands,
    bool stop_on_valid);

}  // namespace gaplan::dist
