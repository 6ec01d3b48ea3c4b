#include "dist/island_shard.hpp"

#include <algorithm>

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

namespace {

template <ga::PlanningProblem P>
class ShardJobImpl final : public ShardJob {
 public:
  ShardJobImpl(P problem, const ga::GaConfig& cfg,
               const ga::IslandConfig& icfg, std::size_t begin,
               std::size_t end, std::uint64_t seed, util::ThreadPool* pool)
      : impl_(std::move(problem), cfg, icfg, begin, end, seed, pool) {}

  std::size_t begin() const override { return impl_.begin(); }
  std::size_t end() const override { return impl_.end(); }
  void set_span_context(obs::SpanContext ctx) override {
    impl_.set_span_context(ctx);
  }
  bool run_interval() override { return impl_.run_interval(); }
  bool found_valid() const override { return impl_.found_valid(); }
  MigrantBatch collect(std::size_t island) const override {
    return impl_.collect(island);
  }
  void inject(std::size_t island, const MigrantBatch& batch) override {
    impl_.inject(island, batch);
  }
  void advance() override { impl_.advance(); }
  ShardOutcome finish() override { return impl_.finish(); }

 private:
  IslandShardRunner<P> impl_;
};

}  // namespace

std::unique_ptr<ShardJob> make_shard_job(const serve::ProblemSpec& spec,
                                         const ga::GaConfig& cfg,
                                         const ga::IslandConfig& icfg,
                                         std::size_t begin, std::size_t end,
                                         std::uint64_t seed,
                                         util::ThreadPool* pool) {
  return serve::with_problem(
      spec, [&](auto problem) -> std::unique_ptr<ShardJob> {
        return std::make_unique<ShardJobImpl<decltype(problem)>>(
            std::move(problem), cfg, icfg, begin, end, seed, pool);
      });
}

ShardOutcome run_sharded_islands(
    const serve::ProblemSpec& spec, const ga::GaConfig& cfg,
    const ga::IslandConfig& icfg, std::uint64_t seed, bool stop_on_valid,
    const std::vector<std::pair<std::size_t, std::size_t>>& groups,
    util::ThreadPool* pool) {
  std::vector<std::unique_ptr<ShardJob>> shards;
  std::size_t covered = 0;
  for (const auto& [b, e] : groups) {
    if (b == e) continue;  // zero-share worker
    if (b != covered) {
      throw std::invalid_argument("run_sharded_islands: groups must tile");
    }
    covered = e;
    shards.push_back(make_shard_job(spec, cfg, icfg, b, e, seed, pool));
  }
  if (covered != icfg.islands || shards.empty()) {
    throw std::invalid_argument("run_sharded_islands: groups must cover all islands");
  }

  const auto owner = [&](std::size_t island) -> ShardJob& {
    for (auto& s : shards) {
      if (island >= s->begin() && island < s->end()) return *s;
    }
    throw std::logic_error("island owner not found");
  };

  for (;;) {
    bool at_boundary = false;
    for (auto& s : shards) at_boundary = s->run_interval();
    // Interval lockstep: every shard sees the same boundary schedule, so
    // they all pause or all finish together.
    if (!at_boundary) break;
    if (stop_on_valid) {
      bool any = false;
      for (const auto& s : shards) any = any || s->found_valid();
      if (any) break;
    }
    // All collect, then all inject (matching run_islands' two passes),
    // each batch through the wire codec — exactly the bytes the router
    // would move between processes.
    std::vector<MigrantBatch> outgoing(icfg.islands);
    for (std::size_t i = 0; i < icfg.islands; ++i) {
      const std::string frame = encode_migrants(owner(i).collect(i));
      std::string err;
      const auto decoded = parse_migrants(frame, &err);
      if (!decoded) throw std::logic_error("migrant roundtrip failed: " + err);
      outgoing[i] = *decoded;
    }
    for (std::size_t i = 0; i < icfg.islands; ++i) {
      owner((i + 1) % icfg.islands).inject((i + 1) % icfg.islands,
                                           outgoing[i]);
    }
    for (auto& s : shards) s->advance();
  }

  std::vector<ShardOutcome> outs;
  outs.reserve(shards.size());
  for (auto& s : shards) outs.push_back(s->finish());
  return merge_shard_outcomes(outs);
}

}  // namespace gaplan::dist
