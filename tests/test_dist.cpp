// Unit tests for the distribution layer (src/dist/): consistent-hash ring,
// router/backend configuration + the dist lint pass, the migration wire
// codec, island partitioning, and — the load-bearing invariant — bit parity
// between a single-process run_islands call and the same request sharded
// through the interval-lockstep protocol (one group, several groups), every
// migrant batch routed through the wire codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/dist_lint.hpp"
#include "core/island.hpp"
#include "dist/dist_config.hpp"
#include "dist/hash_ring.hpp"
#include "dist/island_shard.hpp"
#include "dist/migration.hpp"
#include "domains/hanoi.hpp"
#include "server/fingerprint.hpp"
#include "server/plan_cache.hpp"
#include "server/plan_service.hpp"
#include "server/problem_spec.hpp"
#include "server/request_codec.hpp"
#include "server/wire.hpp"
#include "util/rng.hpp"

namespace {

using namespace gaplan;
using dist::BackendSpec;
using dist::HashRing;
using dist::MigrantBatch;
using dist::RouterConfig;

// ---------------------------------------------------------------------------
// Hash ring

/// The ring expects pre-hashed keys (the router feeds it fingerprint words);
/// sequential integers would all land on one vnode.
std::uint64_t probe(std::uint64_t i) {
  std::uint64_t state = i;
  return util::splitmix64(state);
}

TEST(HashRing, DeterministicAcrossInstances) {
  HashRing a(64), b(64);
  for (const char* id : {"w1:1", "w2:2", "w3:3"}) {
    ASSERT_TRUE(a.add(id));
    ASSERT_TRUE(b.add(id));
  }
  for (std::uint64_t key = 0; key < 500; ++key) {
    EXPECT_EQ(*a.owner(probe(key)), *b.owner(probe(key)));
  }
}

TEST(HashRing, ChainListsDistinctBackendsOwnerFirst) {
  HashRing ring(64);
  ring.add("a:1");
  ring.add("b:2");
  ring.add("c:3");
  for (std::uint64_t key = 0; key < 200; ++key) {
    const auto chain = ring.chain(probe(key), 3);
    ASSERT_EQ(chain.size(), 3u);
    EXPECT_EQ(chain[0], *ring.owner(probe(key)));
    std::vector<std::string> sorted = chain;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end())
        << "chain repeats a backend";
  }
  EXPECT_EQ(ring.chain(7, 9).size(), 3u) << "chain clamps to ring size";
}

TEST(HashRing, EmptyRingHasNoOwner) {
  HashRing ring;
  EXPECT_EQ(ring.owner(1), nullptr);
  EXPECT_TRUE(ring.chain(1, 2).empty());
  EXPECT_EQ(ring.size(), 0u);
}

TEST(HashRing, DuplicateAndNonPositiveWeightRejected) {
  HashRing ring;
  EXPECT_TRUE(ring.add("a:1"));
  EXPECT_FALSE(ring.add("a:1"));
  EXPECT_FALSE(ring.add("b:2", 0.0));
  EXPECT_FALSE(ring.add("b:2", -1.0));
  EXPECT_EQ(ring.size(), 1u);
}

TEST(HashRing, RemovingBackendOnlyMovesItsKeys) {
  HashRing before(64);
  for (const char* id : {"a:1", "b:2", "c:3", "d:4"}) before.add(id);
  HashRing after(64);
  for (const char* id : {"a:1", "b:2", "d:4"}) after.add(id);

  for (std::uint64_t key = 0; key < 1000; ++key) {
    const auto was = *before.owner(probe(key));
    const auto now = *after.owner(probe(key));
    if (was != "c:3") {
      EXPECT_EQ(now, was) << "key " << key
                          << " moved although its owner survived";
    } else {
      EXPECT_NE(now, "c:3");
    }
  }
}

TEST(HashRing, WeightScalesKeyspaceShare) {
  HashRing ring(64);
  ring.add("small:1", 1.0);
  ring.add("big:2", 3.0);
  std::size_t big = 0;
  const std::size_t kKeys = 4000;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    if (*ring.owner(probe(key)) == "big:2") ++big;
  }
  const double share = static_cast<double>(big) / kKeys;
  EXPECT_GT(share, 0.55) << "weight-3 backend owns too little";
  EXPECT_LT(share, 0.92) << "weight-3 backend owns everything";
}

TEST(HashRing, StableHashIsDeterministic) {
  EXPECT_EQ(dist::stable_hash64("gaplan"), dist::stable_hash64("gaplan"));
  EXPECT_NE(dist::stable_hash64("gaplan"), dist::stable_hash64("galpan"));
  EXPECT_NE(dist::stable_hash64("a", 1), dist::stable_hash64("a", 2));
}

// ---------------------------------------------------------------------------
// Configuration parsing + lint

TEST(DistConfig, ParseBackendForms) {
  std::string err;
  auto spec = dist::parse_backend("10.0.0.7:7101", &err);
  ASSERT_TRUE(spec) << err;
  EXPECT_EQ(spec->host, "10.0.0.7");
  EXPECT_EQ(spec->port, 7101);
  EXPECT_DOUBLE_EQ(spec->weight, 1.0);

  spec = dist::parse_backend("127.0.0.1:7102:2.5", &err);
  ASSERT_TRUE(spec) << err;
  EXPECT_DOUBLE_EQ(spec->weight, 2.5);

  spec = dist::parse_backend("7103", &err);
  ASSERT_TRUE(spec) << err;
  EXPECT_EQ(spec->host, "127.0.0.1");
  EXPECT_EQ(spec->port, 7103);

  for (const char* bad : {"", ":", "host:", "host:notaport", "h:1:x", "h:1:2:3"}) {
    EXPECT_FALSE(dist::parse_backend(bad, &err)) << bad;
    EXPECT_FALSE(err.empty());
  }
}

TEST(DistConfig, ParseRouterConfigText) {
  const auto file = dist::parse_router_config_text(
      "# cluster\n"
      "backend 127.0.0.1:7101\n"
      "backend 127.0.0.1:7102:2.0\n"
      "heartbeat-interval-ms 250\n"
      "reconnect-backoff-ms 50\n"
      "reconnect-backoff-max-ms 2000\n"
      "vnodes 32\n"
      "retry-limit 3\n"
      "probe-fanout false\n");
  EXPECT_FALSE(file.parse_report.has_errors()) << file.parse_report.text();
  ASSERT_EQ(file.config.backends.size(), 2u);
  EXPECT_DOUBLE_EQ(file.config.backends[1].weight, 2.0);
  EXPECT_EQ(file.config.heartbeat_interval_ms, 250);
  EXPECT_EQ(file.config.reconnect_backoff_ms, 50);
  EXPECT_EQ(file.config.reconnect_backoff_max_ms, 2000);
  EXPECT_EQ(file.config.vnodes_per_unit, 32);
  EXPECT_EQ(file.config.retry_limit, 3);
  EXPECT_FALSE(file.config.probe_all_on_miss);
}

TEST(DistConfig, UnknownKeyAndBadValueDiagnosed) {
  const auto file = dist::parse_router_config_text(
      "backend 127.0.0.1:7101\n"
      "no-such-knob 1\n"
      "vnodes banana\n");
  EXPECT_TRUE(file.parse_report.has_code("dist.unknown-key"))
      << file.parse_report.text();
  EXPECT_TRUE(file.parse_report.has_code("dist.bad-value"))
      << file.parse_report.text();
}

RouterConfig two_backends() {
  RouterConfig cfg;
  std::string err;
  cfg.backends.push_back(*dist::parse_backend("127.0.0.1:7101", &err));
  cfg.backends.push_back(*dist::parse_backend("127.0.0.1:7102", &err));
  return cfg;
}

TEST(DistLint, CleanConfigPasses) {
  const auto report = dist::lint_router_config(two_backends());
  EXPECT_FALSE(report.has_errors()) << report.text();
}

TEST(DistLint, NoBackends) {
  const auto report = dist::lint_router_config(RouterConfig{});
  EXPECT_TRUE(report.has_code("dist.no-backends")) << report.text();
  EXPECT_TRUE(report.has_errors());
}

TEST(DistLint, DuplicateBackend) {
  RouterConfig cfg = two_backends();
  cfg.backends.push_back(cfg.backends.front());
  const auto report = dist::lint_router_config(cfg);
  EXPECT_TRUE(report.has_code("dist.duplicate-backend")) << report.text();
}

TEST(DistLint, BadHeartbeatInterval) {
  RouterConfig cfg = two_backends();
  cfg.heartbeat_interval_ms = 0;
  const auto report = dist::lint_router_config(cfg);
  EXPECT_TRUE(report.has_code("dist.bad-heartbeat-interval")) << report.text();
}

TEST(DistLint, NonPositiveWeight) {
  RouterConfig cfg = two_backends();
  cfg.backends[1].weight = -2.0;
  const auto report = dist::lint_router_config(cfg);
  EXPECT_TRUE(report.has_code("dist.weight-nonpositive")) << report.text();
}

TEST(DistLint, SingleBackendWarns) {
  RouterConfig cfg = two_backends();
  cfg.backends.pop_back();
  const auto report = dist::lint_router_config(cfg);
  EXPECT_FALSE(report.has_errors());
  EXPECT_TRUE(report.has_code("dist.single-backend")) << report.text();
}

TEST(DistLint, EnforceThrowsOnError) {
  EXPECT_THROW(dist::enforce_router_config(RouterConfig{}, "test"),
               std::invalid_argument);
  EXPECT_NO_THROW(dist::enforce_router_config(two_backends(), "test"));
}

std::string fixture(const std::string& name) {
  return std::string(GAPLAN_TEST_DATA_DIR) + "/lint/" + name;
}

TEST(DistLint, FileFixtures) {
  const struct {
    const char* file;
    const char* code;
    bool error;
  } kCases[] = {
      {"no_backends.dist", "dist.no-backends", true},
      {"dup_backend.dist", "dist.duplicate-backend", true},
      {"bad_heartbeat.dist", "dist.bad-heartbeat-interval", true},
      {"bad_weight.dist", "dist.weight-nonpositive", true},
      {"ring_too_large.dist", "dist.ring-too-large", true},
  };
  for (const auto& c : kCases) {
    const auto file = dist::parse_router_config_file(fixture(c.file));
    analysis::Report report = file.parse_report;
    report.merge(dist::lint_router_config(file.config));
    EXPECT_TRUE(report.has_code(c.code)) << c.file << ": " << report.text();
    EXPECT_EQ(report.has_errors(), c.error) << c.file;
  }
  const auto ok = dist::parse_router_config_file(fixture("ok_router.dist"));
  analysis::Report report = ok.parse_report;
  report.merge(dist::lint_router_config(ok.config));
  EXPECT_FALSE(report.has_errors()) << report.text();
}

// ---------------------------------------------------------------------------
// Migration codec

MigrantBatch sample_batch(std::uint64_t seed, std::size_t genomes,
                          std::size_t genes) {
  util::Rng rng(seed);
  MigrantBatch batch;
  for (std::size_t g = 0; g < genomes; ++g) {
    ga::Genome genome;
    for (std::size_t i = 0; i < genes; ++i) genome.push_back(rng.uniform());
    batch.genomes.push_back(std::move(genome));
  }
  return batch;
}

TEST(MigrationCodec, RoundtripIsBitExact) {
  const MigrantBatch batch = sample_batch(11, 3, 17);
  const std::string frame = dist::encode_migrants(batch);
  std::string err;
  const auto parsed = dist::parse_migrants(frame, &err);
  ASSERT_TRUE(parsed) << err;
  ASSERT_EQ(parsed->genomes.size(), batch.genomes.size());
  for (std::size_t g = 0; g < batch.genomes.size(); ++g) {
    ASSERT_EQ(parsed->genomes[g].size(), batch.genomes[g].size());
    for (std::size_t i = 0; i < batch.genomes[g].size(); ++i) {
      EXPECT_EQ(parsed->genomes[g][i], batch.genomes[g][i]);
    }
  }
}

TEST(MigrationCodec, EmptyBatchRoundtrips) {
  const std::string frame = dist::encode_migrants(MigrantBatch{});
  const auto parsed = dist::parse_migrants(frame);
  ASSERT_TRUE(parsed);
  EXPECT_TRUE(parsed->genomes.empty());
}

TEST(MigrationCodec, RejectsCorruption) {
  const std::string frame = dist::encode_migrants(sample_batch(5, 2, 8));
  std::string err;

  EXPECT_FALSE(dist::parse_migrants("v2;" + frame.substr(3), &err));
  EXPECT_FALSE(dist::parse_migrants(frame.substr(0, frame.size() - 4), &err));

  std::string flipped = frame;  // flip one payload nibble: checksum catches it
  const auto colon = flipped.find(':');
  ASSERT_NE(colon, std::string::npos);
  flipped[colon + 1] = flipped[colon + 1] == '0' ? '1' : '0';
  EXPECT_FALSE(dist::parse_migrants(flipped, &err));
  EXPECT_NE(err.find("checksum"), std::string::npos) << err;
}

TEST(MigrationCodec, BoundsRejectHugeCounts) {
  std::string frame = "v1;";
  frame += std::to_string(dist::kMaxMigrants + 1);
  frame += ";c=0000000000000000";
  EXPECT_FALSE(dist::parse_migrants(frame));

  std::string genome = "v1;1;";
  genome += std::to_string(dist::kMaxMigrantGenes + 1);
  genome += ":c=0000000000000000";
  EXPECT_FALSE(dist::parse_migrants(genome));
}

// ---------------------------------------------------------------------------
// Fingerprint hex + request codec (the router <-> worker identity carriers)

TEST(FingerprintHex, Roundtrip) {
  const serve::Fingerprint fp{0x0123456789ABCDEFULL, 0xFEDCBA9876543210ULL};
  const auto parsed = serve::parse_fingerprint_hex(fp.hex());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->hi, fp.hi);
  EXPECT_EQ(parsed->lo, fp.lo);
  EXPECT_FALSE(serve::parse_fingerprint_hex("abc"));
  EXPECT_FALSE(serve::parse_fingerprint_hex(std::string(32, 'g')));
}

TEST(RequestCodec, SubmitLineRoundtripPreservesFingerprint) {
  std::string err;
  serve::PlanRequest req;
  req.problem = *serve::ProblemSpec::parse("hanoi:4", err);
  req.config.population_size = 70;
  req.config.generations = 55;
  req.config.phases = 3;
  req.config.mutation_rate = 0.07;
  req.config.crossover_rate = 0.61;
  req.config.stop_on_valid = false;
  req.seed = 99;
  req.priority = 2;
  req.client = "codec-test";

  const std::string line = serve::render_submit_line(req);
  serve::WireMessage msg;
  ASSERT_TRUE(serve::parse_wire_message(line, msg, err)) << err;
  serve::PlanRequest back;
  ASSERT_TRUE(serve::parse_plan_request(msg, back, err)) << err;

  const auto a = serve::PlanService::fingerprint(req);
  const auto b = serve::PlanService::fingerprint(back);
  EXPECT_EQ(a.hi, b.hi);
  EXPECT_EQ(a.lo, b.lo);
  EXPECT_EQ(back.client, "codec-test");
  EXPECT_EQ(back.priority, 2);
}

// ---------------------------------------------------------------------------
// Island partitioning + sharded parity

TEST(PartitionIslands, FairSplitCoversAllIslands) {
  const auto parts = dist::partition_islands(10, {1.0, 1.0, 1.0});
  ASSERT_EQ(parts.size(), 3u);
  std::size_t covered = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    EXPECT_EQ(parts[i].first, covered) << "ranges must be contiguous";
    EXPECT_LE(parts[i].first, parts[i].second);
    covered = parts[i].second;
  }
  EXPECT_EQ(covered, 10u);
}

TEST(PartitionIslands, WeightsBiasTheSplit) {
  const auto parts = dist::partition_islands(8, {3.0, 1.0});
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].second - parts[0].first, 6u);
  EXPECT_EQ(parts[1].second - parts[1].first, 2u);
}

TEST(PartitionIslands, ZeroShareWorkerGetsEmptyRange) {
  const auto parts = dist::partition_islands(2, {1.0, 1.0, 1.0});
  ASSERT_EQ(parts.size(), 3u);
  std::size_t total = 0, empty = 0;
  for (const auto& [b, e] : parts) {
    total += e - b;
    if (b == e) ++empty;
  }
  EXPECT_EQ(total, 2u);
  EXPECT_EQ(empty, 1u);
}

TEST(PartitionIslands, DeterministicTieBreak) {
  const auto a = dist::partition_islands(7, {1.0, 1.0, 1.0});
  const auto b = dist::partition_islands(7, {1.0, 1.0, 1.0});
  EXPECT_EQ(a, b);
}

/// A K-island request through run_sharded_islands, the coordinator the
/// router runs, over one in-process shard per [begin, end) group.
dist::ShardOutcome run_local_shards(
    const serve::ProblemSpec& spec, const ga::GaConfig& cfg,
    const ga::IslandConfig& icfg, std::uint64_t seed,
    const std::vector<std::pair<std::size_t, std::size_t>>& groups) {
  std::vector<std::unique_ptr<dist::ShardJob>> shards;
  for (const auto& [begin, end] : groups) {
    shards.push_back(dist::make_shard_job(spec, cfg, icfg, begin, end, seed));
  }
  return dist::run_sharded_islands(shards, icfg.islands,
                                   /*stop_on_valid=*/false);
}

/// The tentpole invariant: the merged sharded outcome is a pure function of
/// (problem, config, seed, K) — identical whether the islands run as one
/// group, two groups, or in the single-process run_islands loop.
TEST(ShardedIslands, BitParityWithSingleProcessRun) {
  std::string err;
  const auto spec = serve::ProblemSpec::parse("hanoi:4", err);
  ga::GaConfig cfg;
  cfg.population_size = 40;
  cfg.generations = 20;
  cfg.phases = 1;
  cfg.stop_on_valid = false;  // parity demands running every generation
  ga::IslandConfig icfg;
  icfg.islands = 4;
  icfg.migration_interval = 5;
  icfg.migrants = 2;
  const std::uint64_t seed = 17;

  const domains::Hanoi hanoi(spec->disks, spec->initial_stake,
                             spec->goal_stake);
  util::Rng rng(seed);
  const auto single = ga::run_islands(hanoi, cfg, icfg, rng);

  const auto one_group = run_local_shards(*spec, cfg, icfg, seed, {{0, 4}});
  const auto two_groups =
      run_local_shards(*spec, cfg, icfg, seed, {{0, 2}, {2, 4}});
  const auto uneven = run_local_shards(*spec, cfg, icfg, seed, {{0, 1}, {1, 4}});

  for (const dist::ShardOutcome* out : {&one_group, &two_groups, &uneven}) {
    EXPECT_EQ(out->found_valid, single.found_valid);
    if (single.found_valid) {
      EXPECT_EQ(out->generation_found, single.generation_found);
    }
    EXPECT_EQ(out->generations_run, single.generations_run);
    EXPECT_EQ(out->migrations, single.migrations);
    EXPECT_EQ(out->best_island, single.best_island);
    EXPECT_EQ(out->best_valid, single.best.eval.valid);
    EXPECT_EQ(out->best_fitness, single.best.eval.fitness);
    EXPECT_EQ(out->best_goal_fit, single.best.eval.goal_fit);
    EXPECT_EQ(out->best_plan_cost, single.best.eval.plan_cost);
    EXPECT_EQ(out->best_ops, single.best.eval.ops);
  }
}

/// A shard whose interval fails, beside a healthy one.
struct FailingShard final : dist::ShardJob {
  std::size_t begin() const override { return 1; }
  std::size_t end() const override { return 2; }
  bool run_interval() override { throw std::runtime_error("shard lost"); }
  bool found_valid() const override { return false; }
  std::string collect(std::size_t) override { return {}; }
  void inject(std::size_t, const std::string&) override {}
  void advance() override {}
  dist::ShardOutcome finish() override { return {}; }
};

/// The coordinator joins every shard's interval, then rethrows a failure;
/// it refuses shards that do not tile the islands.
TEST(ShardedIslands, CoordinatorRethrowsAShardFailureAndChecksTheTiling) {
  std::string err;
  const auto spec = serve::ProblemSpec::parse("hanoi:3", err);
  ga::GaConfig cfg;
  cfg.population_size = 20;
  cfg.generations = 10;
  cfg.phases = 1;
  ga::IslandConfig icfg;
  icfg.islands = 2;
  icfg.migration_interval = 5;

  std::vector<std::unique_ptr<dist::ShardJob>> shards;
  shards.push_back(dist::make_shard_job(*spec, cfg, icfg, 0, 1, 3));
  shards.push_back(std::make_unique<FailingShard>());
  EXPECT_THROW(
      {
        try {
          dist::run_sharded_islands(shards, icfg.islands, false);
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "shard lost");
          throw;
        }
      },
      std::runtime_error);

  shards.pop_back();  // islands [0, 1) of 2
  EXPECT_THROW(dist::run_sharded_islands(shards, icfg.islands, false),
               std::invalid_argument);
}

/// The island fields of a routed submit and of ishard: one parser, errors
/// that name the field.
TEST(ShardedIslands, IslandFieldsNameTheBadField) {
  const auto parse = [](const std::string& line, ga::IslandConfig& icfg) {
    serve::WireMessage msg;
    std::string err;
    EXPECT_TRUE(serve::parse_wire_message(line, msg, err)) << err;
    EXPECT_FALSE(dist::parse_island_fields(msg, icfg, err));
    return err;
  };
  ga::IslandConfig icfg;
  EXPECT_EQ(parse(R"({"islands":0})", icfg), "'islands' must be >= 1");
  EXPECT_EQ(parse(R"({})", icfg), "'islands' must be >= 1");
  EXPECT_EQ(parse(R"({"islands":2,"interval":-1})", icfg).rfind("'interval'", 0),
            0u);
  EXPECT_EQ(parse(R"({"islands":2,"migrants":1.5})", icfg).rfind("'migrants'", 0),
            0u);

  serve::WireMessage msg;
  std::string err;
  ASSERT_TRUE(serve::parse_wire_message(
      R"({"islands":3,"interval":7,"migrants":1})", msg, err));
  ASSERT_TRUE(dist::parse_island_fields(msg, icfg, err)) << err;
  EXPECT_EQ(icfg.islands, 3u);
  EXPECT_EQ(icfg.migration_interval, 7u);
  EXPECT_EQ(icfg.migrants, 1u);
}

TEST(ShardedIslands, MergeReplicatesTieBreaks) {
  dist::ShardOutcome a;
  a.best_island = 2;
  a.best_gen = 7;
  a.best_valid = true;
  a.best_goal_fit = 1.0;
  a.best_fitness = 10.0;
  a.found_valid = true;
  a.generation_found = 9;
  a.migrations = 3;
  dist::ShardOutcome b = a;
  b.best_island = 1;
  b.best_gen = 7;  // same key, same generation: smaller island index wins
  b.generation_found = 6;

  const auto merged = dist::merge_shard_outcomes({a, b});
  EXPECT_EQ(merged.best_island, 1u);
  EXPECT_EQ(merged.generation_found, 6u) << "min over shards";
  EXPECT_EQ(merged.migrations, 3u);

  dist::ShardOutcome c = a;
  c.best_island = 3;
  c.best_gen = 4;  // same key, earlier generation: attained-first wins
  const auto merged2 = dist::merge_shard_outcomes({a, c});
  EXPECT_EQ(merged2.best_island, 3u);

  dist::ShardOutcome d = a;
  d.best_island = 0;
  d.best_valid = false;  // weaker key never wins on index
  d.best_goal_fit = 0.5;
  const auto merged3 = dist::merge_shard_outcomes({a, d});
  EXPECT_EQ(merged3.best_island, 2u);
}

// ---------------------------------------------------------------------------
// Plan cache: eviction reporting + removal (the gossip hooks)

serve::CachedPlan plan_stub(int tag) {
  serve::CachedPlan plan;
  plan.plan = {tag, tag + 1};
  plan.valid = true;
  plan.plan_cost = tag;
  return plan;
}

TEST(PlanCacheDist, InsertReportsEvictedKeys) {
  serve::PlanCache cache(2, 1);
  const serve::Fingerprint k1{1, 1}, k2{2, 2}, k3{3, 3};
  std::vector<serve::Fingerprint> evicted;
  cache.insert(k1, plan_stub(1), &evicted);
  cache.insert(k2, plan_stub(2), &evicted);
  EXPECT_TRUE(evicted.empty());
  cache.insert(k3, plan_stub(3), &evicted);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].hi, k1.hi);  // k1 was least recently used
  EXPECT_FALSE(cache.lookup(k1).has_value());
  EXPECT_TRUE(cache.lookup(k3).has_value());
}

TEST(PlanCacheDist, RemoveDropsEntry) {
  serve::PlanCache cache(4, 1);
  const serve::Fingerprint key{7, 7};
  EXPECT_FALSE(cache.remove(key));
  cache.insert(key, plan_stub(7));
  EXPECT_TRUE(cache.remove(key));
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_FALSE(cache.remove(key));
}

TEST(PlanServiceDist, DirectCacheOpsSkipListener) {
  serve::ServerConfig cfg;
  cfg.workers = 1;
  serve::PlanService svc(cfg);
  int listener_fires = 0;
  svc.set_cache_listener([&](const serve::CacheEvent&) { ++listener_fires; });

  const serve::Fingerprint key{11, 13};
  EXPECT_FALSE(svc.cache_lookup(key).has_value());
  svc.cache_insert(key, plan_stub(4));  // a gossiped insert must not re-gossip
  const auto hit = svc.cache_lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->plan, plan_stub(4).plan);
  EXPECT_TRUE(svc.cache_remove(key));
  EXPECT_EQ(listener_fires, 0);
  svc.shutdown();
}

TEST(PlanServiceDist, ListenerFiresOnFreshPlan) {
  serve::ServerConfig cfg;
  cfg.workers = 1;
  serve::PlanService svc(cfg);
  std::atomic<int> inserts{0};
  svc.set_cache_listener([&](const serve::CacheEvent& ev) {
    if (ev.kind == serve::CacheEvent::Kind::kInsert) inserts.fetch_add(1);
  });
  std::string err;
  serve::PlanRequest req;
  req.problem = *serve::ProblemSpec::parse("hanoi:3", err);
  req.config.population_size = 40;
  req.config.generations = 25;
  req.config.phases = 2;
  req.seed = 3;
  const auto out = svc.submit(req);
  ASSERT_TRUE(out.accepted);
  svc.wait(out.id);
  EXPECT_EQ(inserts.load(), 1);
  svc.shutdown();
}

}  // namespace
