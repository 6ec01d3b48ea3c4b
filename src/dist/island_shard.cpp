#include "dist/island_shard.hpp"

#include <algorithm>
#include <exception>
#include <span>
#include <stdexcept>
#include <thread>

#include "analysis/config_lint.hpp"
#include "core/engine.hpp"
#include "core/eval_cache.hpp"
#include "core/fitness.hpp"
#include "dist/migration.hpp"

namespace gaplan::dist {

namespace {

ga::IslandRank rank_of(const ShardOutcome& o) {
  return {o.best_valid, o.best_goal_fit, o.best_fitness, o.best_gen,
          o.best_island};
}

}  // namespace

ShardOutcome merge_shard_outcomes(const std::vector<ShardOutcome>& outs) {
  if (outs.empty()) {
    throw std::invalid_argument("merge_shard_outcomes: no outcomes");
  }
  ShardOutcome merged = outs.front();
  for (std::size_t i = 1; i < outs.size(); ++i) {
    const ShardOutcome& o = outs[i];
    if (o.found_valid && (!merged.found_valid ||
                          o.generation_found < merged.generation_found)) {
      merged.found_valid = true;
      merged.generation_found = o.generation_found;
    }
    merged.generations_run = std::max(merged.generations_run, o.generations_run);
    merged.migrations = std::max(merged.migrations, o.migrations);
    if (ga::outranks(rank_of(o), rank_of(merged))) {
      merged.best_island = o.best_island;
      merged.best_gen = o.best_gen;
      merged.best_valid = o.best_valid;
      merged.best_goal_fit = o.best_goal_fit;
      merged.best_fitness = o.best_fitness;
      merged.best_plan_cost = o.best_plan_cost;
      merged.best_ops = o.best_ops;
      merged.best_genes = o.best_genes;
    }
  }
  return merged;
}

std::vector<std::pair<std::size_t, std::size_t>> partition_islands(
    std::size_t islands, const std::vector<double>& weights) {
  std::vector<std::pair<std::size_t, std::size_t>> out(weights.size(),
                                                       {0, 0});
  if (weights.empty() || islands == 0) return out;
  double total = 0.0;
  for (const double w : weights) total += std::max(0.0, w);
  std::vector<std::size_t> share(weights.size(), 0);
  if (total <= 0.0) {
    share[0] = islands;  // degenerate weights: everything on the first
  } else {
    // Largest-remainder apportionment, deterministic: floors first, then the
    // leftover islands go to the largest fractional remainders (earlier
    // workers win remainder ties).
    std::vector<double> rem(weights.size(), 0.0);
    std::size_t assigned = 0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      const double exact =
          static_cast<double>(islands) * std::max(0.0, weights[i]) / total;
      share[i] = static_cast<std::size_t>(exact);
      rem[i] = exact - static_cast<double>(share[i]);
      assigned += share[i];
    }
    std::vector<std::size_t> order(weights.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return rem[a] > rem[b];
                     });
    for (std::size_t k = 0; assigned < islands; ++k) {
      ++share[order[k % order.size()]];
      ++assigned;
    }
  }
  std::size_t at = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    out[i] = {at, at + share[i]};
    at += share[i];
  }
  return out;
}

bool parse_island_fields(const serve::WireMessage& msg, ga::IslandConfig& icfg,
                         std::string& error) {
  std::size_t islands = 0;
  if (!msg.get_integer("islands", islands, error) ||
      !msg.get_integer("interval", icfg.migration_interval, error) ||
      !msg.get_integer("migrants", icfg.migrants, error)) {
    return false;
  }
  if (islands == 0) {
    error = "'islands' must be >= 1";
    return false;
  }
  icfg.islands = islands;
  return true;
}

namespace {

template <ga::PlanningProblem P>
class LocalShard final : public ShardJob {
 public:
  using State = typename P::StateT;

  LocalShard(P problem, const ga::GaConfig& cfg, const ga::IslandConfig& icfg,
             std::size_t begin, std::size_t end, std::uint64_t seed,
             obs::SpanContext span)
      : problem_(std::move(problem)),
        seed_rng_(checked_seed(cfg, seed)),
        group_(problem_, cfg, icfg, begin, end, seed_rng_, /*pool=*/nullptr),
        start_(problem_.initial_state()),
        epoch_(ga::next_eval_epoch()) {
    if (!span.valid()) return;
    for (std::size_t i = begin; i < end; ++i) group_.set_span_context(i, span);
  }

  std::size_t begin() const override { return group_.begin(); }
  std::size_t end() const override { return group_.end(); }
  bool run_interval() override { return group_.run_interval(false); }
  bool found_valid() const override { return group_.found_valid(); }

  std::string collect(std::size_t island) override {
    std::vector<ga::Individual<State>> tmp;
    group_.collect(island, tmp);
    MigrantBatch batch;
    batch.genomes.reserve(tmp.size());
    for (auto& ind : tmp) batch.genomes.push_back(std::move(ind.genes));
    return encode_migrants(batch);
  }

  void inject(std::size_t island, const std::string& frame) override {
    std::string err;
    const auto batch = parse_migrants(frame, &err);
    if (!batch) throw std::invalid_argument("bad frame: " + err);
    if (batch->genomes.empty()) return;
    static thread_local ga::EvalContext<State> ctx;
    ctx.sync(&problem_, epoch_, 0);  // no transposition cache for one-offs
    std::vector<ga::Individual<State>> migrants(batch->genomes.size());
    for (std::size_t m = 0; m < migrants.size(); ++m) {
      migrants[m].genes = batch->genomes[m];
      ga::evaluate_into(problem_, group_.config(), start_,
                        std::span<const ga::Gene>(migrants[m].genes), ctx,
                        migrants[m].eval);
    }
    group_.inject(island, migrants);
  }

  void advance() override { group_.advance(); }

  ShardOutcome finish() override {
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

}  // namespace

std::unique_ptr<ShardJob> make_shard_job(const serve::ProblemSpec& spec,
                                         const ga::GaConfig& cfg,
                                         const ga::IslandConfig& icfg,
                                         std::size_t begin, std::size_t end,
                                         std::uint64_t seed,
                                         obs::SpanContext span) {
  return serve::with_problem(
      spec, [&](auto problem) -> std::unique_ptr<ShardJob> {
        return std::make_unique<LocalShard<decltype(problem)>>(
            std::move(problem), cfg, icfg, begin, end, seed, span);
      });
}

ShardOutcome run_sharded_islands(
    const std::vector<std::unique_ptr<ShardJob>>& shards, std::size_t islands,
    bool stop_on_valid) {
  std::size_t covered = 0;
  for (const auto& s : shards) {
    if (s->begin() != covered || s->end() <= s->begin()) {
      throw std::invalid_argument("run_sharded_islands: shards must tile");
    }
    covered = s->end();
  }
  if (covered != islands || shards.empty()) {
    throw std::invalid_argument(
        "run_sharded_islands: shards must cover all islands");
  }
  const auto owner = [&](std::size_t island) -> ShardJob& {
    for (const auto& s : shards) {
      if (island < s->end()) return *s;
    }
    throw std::logic_error("island owner not found");
  };

  for (;;) {
    // One interval on every shard at once: shard 0 on this thread, the rest
    // on their own, so a remote shard costs one round trip per interval.
    std::vector<char> boundary(shards.size(), 0);
    std::vector<std::exception_ptr> failure(shards.size());
    const auto step = [&](std::size_t i) {
      try {
        boundary[i] = shards[i]->run_interval() ? 1 : 0;
      } catch (...) {
        failure[i] = std::current_exception();
      }
    };
    {
      std::vector<std::jthread> threads;
      threads.reserve(shards.size() - 1);
      for (std::size_t i = 1; i < shards.size(); ++i) {
        threads.emplace_back(step, i);
      }
      step(0);
    }
    for (const std::exception_ptr& e : failure) {
      if (e) std::rethrow_exception(e);
    }
    // Interval lockstep: every shard sees the same boundary schedule, so
    // they all pause or all finish together.
    if (std::count(boundary.begin(), boundary.end(), boundary[0]) !=
        static_cast<std::ptrdiff_t>(boundary.size())) {
      throw std::runtime_error("run_sharded_islands: shards left lockstep");
    }
    if (!boundary[0]) break;
    if (stop_on_valid &&
        std::any_of(shards.begin(), shards.end(),
                    [](const auto& s) { return s->found_valid(); })) {
      break;
    }
    // All collect, then all inject (matching run_islands' two passes).
    std::vector<std::string> frames(islands);
    for (std::size_t i = 0; i < islands; ++i) frames[i] = owner(i).collect(i);
    for (std::size_t i = 0; i < islands; ++i) {
      const std::size_t target = (i + 1) % islands;
      owner(target).inject(target, frames[i]);
    }
    for (const auto& s : shards) s->advance();
  }

  std::vector<ShardOutcome> outs;
  outs.reserve(shards.size());
  for (const auto& s : shards) outs.push_back(s->finish());
  return merge_shard_outcomes(outs);
}

}  // namespace gaplan::dist
