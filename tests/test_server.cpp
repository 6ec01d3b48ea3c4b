// gaplan-serve: plan service lifecycle, admission control, plan-cache
// correctness (fingerprints, determinism, eviction), .serve config parsing +
// lint, and the NDJSON wire helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/multiphase.hpp"
#include "domains/hanoi.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "server/fingerprint.hpp"
#include "server/plan_cache.hpp"
#include "server/plan_service.hpp"
#include "server/problem_spec.hpp"
#include "server/request_codec.hpp"
#include "server/server_config.hpp"
#include "server/server_lint.hpp"
#include "server/wire.hpp"

namespace {

using namespace gaplan;
using namespace gaplan::serve;

std::string fixture(const std::string& name) {
  return std::string(GAPLAN_TEST_DATA_DIR) + "/lint/" + name;
}

/// Small, fast GA shape shared by the service tests.
ga::GaConfig quick_config() {
  ga::GaConfig cfg;
  cfg.population_size = 60;
  cfg.generations = 30;
  cfg.phases = 10;
  return cfg;
}

/// A GA shape that keeps planning for seconds: tiny per-phase budget on a
/// deep problem, so slice boundaries come fast but a solution does not.
PlanRequest long_request(int priority = 0) {
  PlanRequest req;
  std::string err;
  req.problem = *ProblemSpec::parse("hanoi:7", err);
  req.config.population_size = 40;
  req.config.generations = 3;
  req.config.phases = 100000;
  req.priority = priority;
  return req;
}

ServerConfig small_server() {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 16;
  cfg.cache_capacity = 32;
  cfg.cache_shards = 2;
  return cfg;
}

void wait_until_planning(PlanService& svc, std::uint64_t id) {
  for (;;) {
    const auto st = svc.status(id);
    ASSERT_TRUE(st.has_value());
    if (st->state == RequestState::kPlanning) return;
    ASSERT_FALSE(is_terminal(st->state)) << to_string(st->state);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// ---------------------------------------------------------------------------
// Fingerprints

TEST(ServeFingerprint, DistinguishesProblemConfigAndSeed) {
  PlanRequest base;
  std::string err;
  base.problem = *ProblemSpec::parse("hanoi:4", err);
  base.config = quick_config();
  base.seed = 7;

  const Fingerprint fp = PlanService::fingerprint(base);
  EXPECT_EQ(fp, PlanService::fingerprint(base)) << "must be deterministic";

  std::vector<PlanRequest> variants;
  {
    PlanRequest r = base;
    r.problem = *ProblemSpec::parse("hanoi:5", err);
    variants.push_back(r);
  }
  {
    PlanRequest r = base;
    r.problem = *ProblemSpec::parse("hanoi:4:1:2", err);
    variants.push_back(r);
  }
  {
    PlanRequest r = base;
    r.problem = *ProblemSpec::parse("sokoban:1", err);
    variants.push_back(r);
  }
  {
    PlanRequest r = base;
    r.problem = *ProblemSpec::parse("tiles:3:9", err);
    variants.push_back(r);
  }
  {
    PlanRequest r = base;
    r.seed = 8;
    variants.push_back(r);
  }
  {
    PlanRequest r = base;
    r.config.generations += 1;
    variants.push_back(r);
  }
  {
    PlanRequest r = base;
    r.config.mutation_rate += 0.001;
    variants.push_back(r);
  }
  {
    PlanRequest r = base;
    r.config.crossover = ga::CrossoverKind::kUniform;
    variants.push_back(r);
  }

  std::set<std::string> seen{fp.hex()};
  for (const PlanRequest& r : variants) {
    const auto [it, inserted] = seen.insert(PlanService::fingerprint(r).hex());
    EXPECT_TRUE(inserted) << "collision for " << r.problem.text();
  }
}

TEST(ServeFingerprint, IgnoresBitIdenticalEvalKnobs) {
  // incremental_eval / eval_checkpoint_stride / ops_cache_size change how an
  // evaluation is computed, never its result (PR 2 guarantee) — toggling
  // them must hit the same cache entry.
  PlanRequest base;
  std::string err;
  base.problem = *ProblemSpec::parse("hanoi:4", err);
  base.config = quick_config();
  const Fingerprint fp = PlanService::fingerprint(base);

  PlanRequest r = base;
  r.config.incremental_eval = !r.config.incremental_eval;
  r.config.eval_checkpoint_stride += 8;
  r.config.ops_cache_size += 100;
  EXPECT_EQ(fp, PlanService::fingerprint(r));
}

TEST(ServeFingerprint, RequestAndPretunedConfigAgree) {
  // submit() retunes stock genome lengths per problem; the fingerprint must
  // be computed over the tuned config, so submitting the explicit tuned
  // lengths hits the same entry.
  std::string err;
  PlanRequest stock;
  stock.problem = *ProblemSpec::parse("hanoi:4", err);
  PlanRequest tuned = stock;
  tuned.config = tuned_config(tuned.problem, tuned.config);
  EXPECT_NE(tuned.config.initial_length, ga::GaConfig{}.initial_length);
  EXPECT_EQ(PlanService::fingerprint(stock), PlanService::fingerprint(tuned));
}

// ---------------------------------------------------------------------------
// Plan cache

TEST(PlanCache, LruEvictionStaysWithinCapacity) {
  PlanCache cache(/*capacity=*/8, /*shards=*/2);
  std::vector<Fingerprint> keys;
  for (int i = 0; i < 64; ++i) {
    FingerprintHasher kh;
    kh.mix(static_cast<std::uint64_t>(i));
    keys.push_back(kh.digest());
    CachedPlan plan;
    plan.plan_cost = i;  // marker to verify entries never alias
    cache.insert(keys.back(), plan);
    EXPECT_LE(cache.size(), 8u);
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.capacity, 8u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.entries, 8u);
}

TEST(PlanCache, EntriesNeverAliasAcrossDistinctFingerprints) {
  PlanCache cache(/*capacity=*/128, /*shards=*/4);
  std::vector<Fingerprint> keys;
  for (int i = 0; i < 100; ++i) {
    FingerprintHasher kh;
    kh.mix(static_cast<std::uint64_t>(i * 7919));
    kh.mix(std::string("key-") + std::to_string(i));
    keys.push_back(kh.digest());
    CachedPlan plan;
    plan.plan_cost = i;
    plan.plan = {i, i + 1};
    cache.insert(keys[static_cast<std::size_t>(i)], plan);
  }
  for (int i = 0; i < 100; ++i) {
    const auto hit = cache.lookup(keys[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(hit.has_value()) << i;
    EXPECT_EQ(hit->plan_cost, i);
    EXPECT_EQ(hit->plan, (std::vector<int>{i, i + 1}));
  }
}

// The random insert/lookup eviction storm that used to live here moved onto
// the property substrate: see PropServer.PlanCacheKeepsBoundsUnderRandomOpStream
// in test_prop_server.cpp, which draws random op streams with shrinking and
// GAPLAN_PROP_SEED replay.

TEST(PlanCache, ZeroCapacityDisablesCaching) {
  PlanCache cache(0, 4);
  FingerprintHasher kh;
  kh.mix(std::uint64_t{1});
  cache.insert(kh.digest(), CachedPlan{});
  EXPECT_FALSE(cache.lookup(kh.digest()).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------------------
// Service lifecycle

TEST(PlanServiceTest, ServedPlanIsBitIdenticalToDirectRun) {
  ServerConfig cfg = small_server();
  PlanService svc(cfg);

  PlanRequest req;
  std::string err;
  req.problem = *ProblemSpec::parse("hanoi:4", err);
  req.config = quick_config();
  req.seed = 21;

  const auto out = svc.submit(req);
  ASSERT_TRUE(out.accepted);
  const auto st = svc.wait(out.id);
  ASSERT_TRUE(st.has_value());
  ASSERT_EQ(st->state, RequestState::kDone);
  EXPECT_FALSE(st->cached);

  // The exact run the service claims to have performed.
  const domains::Hanoi h(4, 0, 1);
  const auto direct =
      ga::run_multiphase(h, tuned_config(req.problem, req.config), req.seed);
  EXPECT_EQ(st->plan, direct.plan);
  EXPECT_EQ(st->plan_valid, direct.valid);
  EXPECT_EQ(st->goal_fitness, direct.goal_fitness);
  EXPECT_EQ(st->phases_run, direct.phases_run);
  EXPECT_EQ(st->generations_total, direct.generations_total);

  // Same request again: a cache hit, same bits, resolved inside submit().
  const auto out2 = svc.submit(req);
  ASSERT_TRUE(out2.accepted);
  EXPECT_EQ(out2.state, RequestState::kDone);
  const auto st2 = svc.status(out2.id);
  ASSERT_TRUE(st2.has_value());
  EXPECT_TRUE(st2->cached);
  EXPECT_EQ(st2->plan, direct.plan);

  const auto snap = svc.snapshot();
  EXPECT_EQ(snap.completed, 2u);
  EXPECT_EQ(snap.cache.hits, 1u);
}

TEST(PlanServiceTest, QueueFullRejectsAtCapacity) {
  ServerConfig cfg = small_server();
  cfg.queue_capacity = 2;
  PlanService svc(cfg);

  const auto a = svc.submit(long_request());
  ASSERT_TRUE(a.accepted);
  wait_until_planning(svc, a.id);

  const auto b = svc.submit(long_request());
  const auto c = svc.submit(long_request());
  ASSERT_TRUE(b.accepted);
  ASSERT_TRUE(c.accepted);
  const auto d = svc.submit(long_request());
  EXPECT_FALSE(d.accepted);
  EXPECT_EQ(d.reason, "queue-full");
  EXPECT_EQ(d.state, RequestState::kRejected);

  svc.shutdown(/*drain_first=*/false);
  const auto snap = svc.snapshot();
  EXPECT_EQ(snap.rejected, 1u);
  EXPECT_EQ(snap.queue_depth, 0u);
  EXPECT_GE(snap.cancelled, 2u);  // b and c died in the queue on shutdown
}

TEST(PlanServiceTest, LoadSheddingSparesHighPriority) {
  ServerConfig cfg = small_server();
  cfg.queue_capacity = 8;
  cfg.shed_depth = 1;
  PlanService svc(cfg);

  const auto a = svc.submit(long_request());
  ASSERT_TRUE(a.accepted);
  wait_until_planning(svc, a.id);

  const auto b = svc.submit(long_request());  // depth 0 -> admitted
  ASSERT_TRUE(b.accepted);
  const auto low = svc.submit(long_request(/*priority=*/0));
  EXPECT_FALSE(low.accepted);
  EXPECT_EQ(low.reason, "shed");
  const auto high = svc.submit(long_request(/*priority=*/1));
  EXPECT_TRUE(high.accepted);

  svc.shutdown(false);
}

TEST(PlanServiceTest, LintGateRejectsBrokenConfigs) {
  PlanService svc(small_server());
  PlanRequest req;
  std::string err;
  req.problem = *ProblemSpec::parse("hanoi:3", err);
  req.config.population_size = 0;  // config.no-population
  const auto out = svc.submit(req);
  EXPECT_FALSE(out.accepted);
  EXPECT_EQ(out.reason, "lint");
  EXPECT_TRUE(out.diagnostics.has_errors());
}

TEST(PlanServiceTest, DeadlineTimesOutWhilePlanning) {
  ServerConfig cfg = small_server();
  PlanService svc(cfg);
  PlanRequest req = long_request();
  req.deadline_ms = 30.0;
  const auto out = svc.submit(req);
  ASSERT_TRUE(out.accepted);
  const auto st = svc.wait(out.id);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->state, RequestState::kTimedOut);
  EXPECT_EQ(svc.snapshot().timed_out, 1u);
}

TEST(PlanServiceTest, DeadlineExpiresInQueue) {
  ServerConfig cfg = small_server();
  PlanService svc(cfg);

  const auto a = svc.submit(long_request());
  ASSERT_TRUE(a.accepted);
  wait_until_planning(svc, a.id);

  PlanRequest req = long_request();
  req.deadline_ms = 5.0;
  const auto b = svc.submit(req);
  ASSERT_TRUE(b.accepted);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(svc.cancel(a.id));
  const auto st = svc.wait(b.id);
  ASSERT_TRUE(st.has_value());
  // The worker sees b only after a stops; by then its deadline passed.
  EXPECT_EQ(st->state, RequestState::kTimedOut);
  svc.shutdown(false);
}

TEST(PlanServiceTest, CancelQueuedAndPlanningRequests) {
  PlanService svc(small_server());
  // a outranks b, so a never yields its slot to b at a phase boundary and b
  // is still queued when it is cancelled.
  const auto a = svc.submit(long_request(/*priority=*/1));
  ASSERT_TRUE(a.accepted);
  wait_until_planning(svc, a.id);
  const auto b = svc.submit(long_request(/*priority=*/0));
  ASSERT_TRUE(b.accepted);

  EXPECT_TRUE(svc.cancel(b.id));  // still queued: cancelled synchronously
  const auto stb = svc.status(b.id);
  ASSERT_TRUE(stb.has_value());
  EXPECT_EQ(stb->state, RequestState::kCancelled);

  EXPECT_TRUE(svc.cancel(a.id));  // planning: stops at a phase boundary
  const auto sta = svc.wait(a.id);
  ASSERT_TRUE(sta.has_value());
  EXPECT_EQ(sta->state, RequestState::kCancelled);
  EXPECT_FALSE(svc.cancel(a.id)) << "already terminal";
  EXPECT_FALSE(svc.cancel(9999)) << "unknown id";

  const auto snap = svc.snapshot();
  EXPECT_EQ(snap.cancelled, 2u);
  EXPECT_EQ(snap.queue_depth, 0u);
  EXPECT_EQ(snap.planning, 0u);
}

TEST(PlanServiceTest, HigherPriorityPreemptsAtPhaseBoundary) {
  ServerConfig cfg = small_server();
  cfg.slice_phases = 1;
  PlanService svc(cfg);

  const auto low = svc.submit(long_request(/*priority=*/0));
  ASSERT_TRUE(low.accepted);
  wait_until_planning(svc, low.id);

  PlanRequest quick;
  std::string err;
  quick.problem = *ProblemSpec::parse("hanoi:3", err);
  quick.config = quick_config();
  quick.priority = 5;
  const auto high = svc.submit(quick);
  ASSERT_TRUE(high.accepted);

  // The high-priority request completes while the long one is still active:
  // the worker must have yielded the slot between phases.
  const auto st = svc.wait(high.id);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->state, RequestState::kDone);

  const auto low_now = svc.status(low.id);
  ASSERT_TRUE(low_now.has_value());
  EXPECT_FALSE(is_terminal(low_now->state));
  EXPECT_GE(low_now->yields, 1u);

  ASSERT_TRUE(svc.cancel(low.id));
  const auto low_final = svc.wait(low.id);
  ASSERT_TRUE(low_final.has_value());
  EXPECT_EQ(low_final->state, RequestState::kCancelled);
  EXPECT_GE(svc.snapshot().yields, 1u);
}

TEST(PlanServiceTest, DrainWaitsForQuiesceAndShutdownRejects) {
  PlanService svc(small_server());
  std::string err;
  std::vector<std::uint64_t> ids;
  for (int seed = 1; seed <= 3; ++seed) {
    PlanRequest req;
    req.problem = *ProblemSpec::parse("hanoi:3", err);
    req.config = quick_config();
    req.seed = static_cast<std::uint64_t>(seed);
    const auto out = svc.submit(req);
    ASSERT_TRUE(out.accepted);
    ids.push_back(out.id);
  }
  svc.drain();
  auto snap = svc.snapshot();
  EXPECT_EQ(snap.queue_depth, 0u);
  EXPECT_EQ(snap.planning, 0u);
  EXPECT_EQ(snap.completed, 3u);
  for (const auto id : ids) {
    const auto st = svc.status(id);
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->state, RequestState::kDone);
  }

  svc.shutdown();
  svc.shutdown();  // idempotent
  const auto rejected = svc.submit(long_request());
  EXPECT_FALSE(rejected.accepted);
  EXPECT_EQ(rejected.reason, "shutting-down");
}

TEST(PlanServiceTest, ConcurrentClientsSeeConsistentResults) {
  // Several client threads hammer a small problem set; every response must
  // equal the direct run for its (problem, seed) pair, cached or not.
  ServerConfig cfg = small_server();
  cfg.queue_capacity = 64;
  PlanService svc(cfg);

  ga::GaConfig gcfg;
  gcfg.population_size = 40;
  gcfg.generations = 20;
  gcfg.phases = 8;

  std::vector<std::vector<int>> expected;
  std::string err;
  for (int seed = 1; seed <= 2; ++seed) {
    const domains::Hanoi h(3, 0, 1);
    ProblemSpec spec = *ProblemSpec::parse("hanoi:3", err);
    expected.push_back(
        ga::run_multiphase(h, tuned_config(spec, gcfg),
                           static_cast<std::uint64_t>(seed))
            .plan);
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&svc, &expected, &failures, gcfg, t] {
      std::string perr;
      for (int i = 0; i < 6; ++i) {
        const int seed = 1 + (t + i) % 2;
        PlanRequest req;
        req.problem = *ProblemSpec::parse("hanoi:3", perr);
        req.config = gcfg;
        req.seed = static_cast<std::uint64_t>(seed);
        const auto out = svc.submit(req);
        if (!out.accepted) {
          ++failures;
          continue;
        }
        const auto st = svc.wait(out.id);
        if (!st || st->state != RequestState::kDone ||
            st->plan != expected[static_cast<std::size_t>(seed - 1)]) {
          ++failures;
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
  const auto snap = svc.snapshot();
  EXPECT_EQ(snap.completed, 24u);
  EXPECT_GE(snap.cache.hits, 22u);  // 2 misses fill the cache, the rest hit
}

/// First integer after `"key":` in a JSONL line, or 0 when absent.
std::uint64_t json_u64(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto at = line.find(needle);
  if (at == std::string::npos) return 0;
  return std::stoull(line.substr(at + needle.size()));
}

TEST(PlanServiceTrace, InterleavedRequestsKeepSpanTreesSeparate) {
  // Eight requests race across two workers with tracing on. Every journal
  // event that names a request must sit in that request's own trace — span
  // ids minted on one worker must never leak into another request's tree —
  // and the queue-wait / slice / cache-probe histograms must advance.
  const std::string path =
      ::testing::TempDir() + "gaplan_serve_interleaved.jsonl";
  std::remove(path.c_str());

  // find_histogram points into the snapshot, so the snapshot must outlive
  // the read.
  const auto before = obs::snapshot_metrics();
  const auto* before_qw = before.find_histogram("server.queue_wait_ms");
  const std::uint64_t qw0 = before_qw ? before_qw->count : 0;

  obs::set_trace_path(path);
  std::map<std::uint64_t, std::uint64_t> req_to_trace;  // service id -> trace
  {
    ServerConfig cfg = small_server();
    cfg.workers = 2;
    PlanService svc(cfg);

    ga::GaConfig gcfg;
    gcfg.population_size = 40;
    gcfg.generations = 10;
    gcfg.phases = 4;

    std::vector<std::uint64_t> ids;
    std::string err;
    for (int seed = 1; seed <= 8; ++seed) {
      PlanRequest req;
      req.problem = *ProblemSpec::parse("hanoi:3", err);
      req.config = gcfg;
      req.seed = static_cast<std::uint64_t>(seed);  // distinct: no cache hits
      const auto out = svc.submit(req);
      ASSERT_TRUE(out.accepted);
      ids.push_back(out.id);
    }
    for (const auto id : ids) {
      const auto st = svc.wait(id);
      ASSERT_TRUE(st.has_value());
      EXPECT_EQ(st->state, RequestState::kDone);
      EXPECT_NE(st->trace_id, 0u);
      EXPECT_GE(st->slices, 1u);
      req_to_trace[id] = st->trace_id;
    }

    const auto snap = svc.snapshot();
    EXPECT_GE(snap.queue_wait_ms.count, qw0 + 8);  // every request waited once
    EXPECT_GE(snap.slice_ms.count, 8u);
    EXPECT_GE(snap.cache_probe_ms.count, 8u);
  }
  obs::set_trace_path("");  // close before asserting so failures can't leak

  // Eight requests, eight distinct traces.
  std::set<std::uint64_t> distinct;
  for (const auto& [id, trace] : req_to_trace) distinct.insert(trace);
  EXPECT_EQ(distinct.size(), 8u);

  // Every traced event naming a request must carry that request's trace id.
  std::ifstream in(path);
  std::string line;
  std::size_t cross_checked = 0;
  while (std::getline(in, line)) {
    const std::uint64_t trace = json_u64(line, "trace");
    const std::uint64_t req = json_u64(line, "req");
    if (trace == 0 || req == 0) continue;
    const auto it = req_to_trace.find(req);
    ASSERT_NE(it, req_to_trace.end()) << line;
    EXPECT_EQ(trace, it->second) << line;
    ++cross_checked;
  }
  // submit + complete + queue_wait + slice + cache_probe per request, at least.
  EXPECT_GE(cross_checked, 8u * 5u);
}

TEST(PlanServiceTest, ConstructorEnforcesServerLint) {
  ServerConfig cfg;
  cfg.workers = 0;
  EXPECT_THROW(PlanService svc(cfg), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// ServerConfig parsing + lint

TEST(ServeLint, CleanFixtureHasNoFindings) {
  const auto file = parse_server_config_file(fixture("ok_server.serve"));
  EXPECT_FALSE(file.parse_report.has_errors()) << file.parse_report.text();
  analysis::Report report = file.parse_report;
  report.merge(lint_server_config(file.config));
  EXPECT_FALSE(report.has_errors()) << report.text();
  EXPECT_EQ(file.config.workers, 1u);
  EXPECT_EQ(file.config.queue_capacity, 16u);
  EXPECT_EQ(file.config.shed_depth, 12u);
  EXPECT_EQ(file.config.slice_phases, 2u);
  EXPECT_EQ(file.config.default_deadline_ms, 2000.0);
}

TEST(ServeLint, BadFixtureReportsEveryFinding) {
  const auto file = parse_server_config_file(fixture("bad_server.serve"));
  analysis::Report report = file.parse_report;
  report.merge(lint_server_config(file.config));

  EXPECT_TRUE(report.has_code("server.bad-value"));     // ga-threads nope
  EXPECT_TRUE(report.has_code("server.unknown-key"));   // turbo
  EXPECT_TRUE(report.has_code("server.no-workers"));
  EXPECT_TRUE(report.has_code("server.no-queue"));
  EXPECT_TRUE(report.has_code("server.bad-slice"));
  EXPECT_TRUE(report.has_code("server.deadline-inverted"));
  EXPECT_TRUE(report.has_code("server.cache-smaller-than-shards"));
  EXPECT_TRUE(report.has_errors());

  // Findings carry 1-based source lines pointing into the fixture.
  bool located = false;
  for (const auto& d : report.diagnostics()) {
    if (d.code == "server.unknown-key") {
      EXPECT_TRUE(d.loc.known());
      located = true;
    }
  }
  EXPECT_TRUE(located);
}

TEST(ServeLint, OversubscriptionFixtureWarns) {
  const auto file = parse_server_config_file(fixture("oversubscribed.serve"));
  EXPECT_FALSE(file.parse_report.has_errors()) << file.parse_report.text();
  analysis::Report report = file.parse_report;
  report.merge(lint_server_config(file.config));
  // 64 workers x 64 GA threads = 4096 concurrent threads — beyond any
  // plausible hardware_concurrency, so the warning always fires.
  EXPECT_TRUE(report.has_code("config.oversubscription")) << report.text();
  EXPECT_FALSE(report.has_errors()) << report.text();
}

TEST(ServeLint, ProgrammaticInvariants) {
  ServerConfig cfg;
  cfg.ga_threads = 0;
  cfg.default_deadline_ms = -1.0;
  cfg.cache_capacity = 16;
  cfg.cache_shards = 0;
  const auto report = lint_server_config(cfg);
  EXPECT_TRUE(report.has_code("server.bad-worker-budget"));
  EXPECT_TRUE(report.has_code("server.bad-deadline"));
  EXPECT_TRUE(report.has_code("server.no-shards"));

  ServerConfig warn;
  warn.shed_depth = warn.queue_capacity;
  warn.cache_capacity = 0;
  const auto wreport = lint_server_config(warn);
  EXPECT_TRUE(wreport.has_code("server.shed-beyond-queue"));
  EXPECT_TRUE(wreport.has_code("server.no-cache"));
  EXPECT_FALSE(wreport.has_errors());
}

TEST(ServeLint, TunedConfigScalesWithProblemDepth) {
  std::string err;
  const auto hanoi = *ProblemSpec::parse("hanoi:5", err);
  const auto tuned = tuned_config(hanoi, ga::GaConfig{});
  EXPECT_EQ(tuned.initial_length, 31u);  // 2^5 - 1
  EXPECT_EQ(tuned.max_length, 310u);

  ga::GaConfig custom;
  custom.initial_length = 12;
  custom.max_length = 99;
  const auto kept = tuned_config(hanoi, custom);
  EXPECT_EQ(kept.initial_length, 12u);
  EXPECT_EQ(kept.max_length, 99u);
}

TEST(ServeLint, ProblemSpecParsingRoundTripsAndRejects) {
  std::string err;
  const auto spec = ProblemSpec::parse("hanoi:5:2:0", err);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->text(), "hanoi:5:2:0");
  const auto again = ProblemSpec::parse(spec->text(), err);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->disks, 5);
  EXPECT_EQ(again->initial_stake, 2);
  EXPECT_EQ(again->goal_stake, 0);

  EXPECT_FALSE(ProblemSpec::parse("hanoi:0", err).has_value());
  EXPECT_FALSE(ProblemSpec::parse("hanoi:4:1:1", err).has_value());
  EXPECT_FALSE(ProblemSpec::parse("sokoban:99", err).has_value());
  EXPECT_FALSE(ProblemSpec::parse("tiles:1", err).has_value());
  EXPECT_FALSE(ProblemSpec::parse("chess:1", err).has_value());
  EXPECT_FALSE(err.empty());
  // A malformed or surplus field is rejected by name, never truncated to
  // the spec it starts with.
  EXPECT_FALSE(ProblemSpec::parse("tiles:3x:7", err).has_value());
  EXPECT_NE(err.find("size"), std::string::npos) << err;
  EXPECT_FALSE(ProblemSpec::parse("tiles:3:7:9", err).has_value());
  EXPECT_NE(err.find("too many fields"), std::string::npos) << err;
  EXPECT_FALSE(ProblemSpec::parse("hanoi:5:0:1:2", err).has_value());
  EXPECT_FALSE(ProblemSpec::parse("sokoban:1:0", err).has_value());
  EXPECT_TRUE(ProblemSpec::parse("tiles:3:7", err).has_value());
}

// ---------------------------------------------------------------------------
// Wire helpers

TEST(Wire, ParsesFlatObjects) {
  WireMessage msg;
  std::string err;
  ASSERT_TRUE(parse_wire_message(
      R"({"cmd":"submit","problem":"hanoi:4","gens":40,"rate":0.5,)"
      R"("deep":true,"skip":null,"note":"a\"b\nA"})",
      msg, err))
      << err;
  ASSERT_NE(msg.get_string("cmd"), nullptr);
  EXPECT_EQ(*msg.get_string("cmd"), "submit");
  EXPECT_EQ(*msg.get_string("problem"), "hanoi:4");
  EXPECT_EQ(msg.get_number("gens"), 40.0);
  EXPECT_EQ(msg.get_number("rate"), 0.5);
  EXPECT_EQ(msg.get_bool("deep"), true);
  EXPECT_EQ(msg.get_string("skip"), nullptr) << "null keys are absent";
  EXPECT_EQ(*msg.get_string("note"), "a\"b\nA");

  ASSERT_TRUE(parse_wire_message("  { }  ", msg, err)) << err;
  EXPECT_TRUE(msg.strings.empty());

  ASSERT_TRUE(parse_wire_message(R"({"plan":[3,1,2],"empty":[]})", msg, err))
      << err;
  ASSERT_NE(msg.get_array("plan"), nullptr);
  EXPECT_EQ(*msg.get_array("plan"), (std::vector<double>{3.0, 1.0, 2.0}));
  ASSERT_NE(msg.get_array("empty"), nullptr);
  EXPECT_TRUE(msg.get_array("empty")->empty());
}

TEST(Wire, RejectsMalformedLines) {
  WireMessage msg;
  std::string err;
  EXPECT_FALSE(parse_wire_message("", msg, err));
  EXPECT_FALSE(parse_wire_message("not json", msg, err));
  EXPECT_FALSE(parse_wire_message(R"({"a":1} trailing)", msg, err));
  EXPECT_FALSE(parse_wire_message(R"({"a":{"nested":1}})", msg, err));
  // Flat number arrays are a supported value type (the dist layer relays
  // plan arrays), but nesting and non-number elements stay malformed.
  EXPECT_FALSE(parse_wire_message(R"({"a":[[1],2]})", msg, err));
  EXPECT_FALSE(parse_wire_message(R"({"a":["x"]})", msg, err));
  EXPECT_FALSE(parse_wire_message(R"({"a":[1,2)", msg, err));
  EXPECT_FALSE(parse_wire_message(R"({"a":tru})", msg, err));
  EXPECT_FALSE(parse_wire_message(R"({"a":"unterminated)", msg, err));
  EXPECT_FALSE(parse_wire_message(R"({"a" 1})", msg, err));
  EXPECT_FALSE(parse_wire_message(R"({"a":1,)", msg, err));
  EXPECT_FALSE(err.empty());
}

/// parse_plan_request's verdict on one submit frame.
bool parse_submit(const std::string& line, PlanRequest& req,
                  std::string& err) {
  WireMessage msg;
  if (!parse_wire_message(line, msg, err)) return false;
  return parse_plan_request(msg, req, err);
}

TEST(Wire, IntegerFieldsAreExactOrRejectedByName) {
  // Integer fields travel as JSON numbers (doubles). Each must be answered
  // exactly or rejected with a diagnostic naming the field — never coerced
  // through an out-of-range conversion or silently rounded.
  const std::string head = R"({"cmd":"submit","problem":"hanoi:4",)";
  const std::vector<std::pair<std::string, std::string>> rejected = {
      {R"("pop":-1})", "'pop'"},
      {R"("gens":1e30})", "'gens'"},
      {R"("seed":18446744073709551615})", "'seed'"},
      {R"("seed":9007199254740993})", "'seed'"},  // parses as 2^53
      {R"("phases":2.5})", "'phases'"},
      {R"("priority":3000000000})", "'priority'"},
      {R"("trace":-4})", "'trace'"},
  };
  for (const auto& [tail, field] : rejected) {
    PlanRequest req;
    std::string err;
    EXPECT_FALSE(parse_submit(head + tail, req, err)) << tail;
    EXPECT_NE(err.find(field), std::string::npos)
        << tail << " -> error '" << err << "' does not name " << field;
  }

  PlanRequest req;
  std::string err;
  ASSERT_TRUE(parse_submit(
      head + R"("seed":9007199254740991,"pop":12,"gens":1e2,"priority":-3})",
      req, err))
      << err;
  EXPECT_EQ(req.seed, static_cast<std::uint64_t>(kMaxExactWireInteger));
  EXPECT_EQ(req.config.population_size, 12u);
  EXPECT_EQ(req.config.generations, 100u);
  EXPECT_EQ(req.priority, -3);
}

TEST(Wire, WriterEscapesAndOrdersFields) {
  JsonWriter w;
  w.field("ok", true)
      .field("id", std::uint64_t{7})
      .field("msg", "a\"b")
      .field("x", 1.5)
      .raw_field("plan", "[1,2]");
  const std::string line = w.finish();
  EXPECT_EQ(line, R"({"ok":true,"id":7,"msg":"a\"b","x":1.5,"plan":[1,2]})");

  // Round-trip through the parser (raw arrays excluded by design).
  JsonWriter w2;
  w2.field("state", "done").field("n", std::int64_t{-3});
  WireMessage msg;
  std::string err;
  ASSERT_TRUE(parse_wire_message(w2.finish(), msg, err)) << err;
  EXPECT_EQ(*msg.get_string("state"), "done");
  EXPECT_EQ(msg.get_number("n"), -3.0);
}

}  // namespace
