// bench_serve: closed-loop throughput/latency of the gaplan-serve planning
// service, swept over concurrent client counts and cache-hit mixes, against
// a serialized one-shot baseline (the pre-service workflow: every request
// pays a fresh run_multiphase).
//
// Each client thread owns a slice of a shared request list drawn from K
// distinct (problem, seed) pairs — Hanoi and Sokoban mixed — submits one
// request at a time, and blocks on wait(): a closed loop, so concurrency
// equals the client count. The speedup over the baseline comes from the plan
// cache (K GA runs + R-K warm hits instead of R runs) plus admission-time
// completion of warm hits; on a single hardware thread (this repro
// environment) the cache is the entire effect, which keeps the headline
// honest.
//
// Writes BENCH_serve.json (schema checked by scripts/check_bench.py):
// client_sweep (1/2/4/8 clients), mix_sweep (cache-hit ratio via K),
// baseline_serialized, speedup_8_clients, warm_hit_p50_ms.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/multiphase.hpp"
#include "obs/metrics.hpp"
#include "server/plan_service.hpp"
#include "server/problem_spec.hpp"
#include "util/timer.hpp"

namespace {

using namespace gaplan;
using serve::PlanRequest;
using serve::PlanService;
using serve::ProblemSpec;
using serve::RequestState;
using serve::ServerConfig;

struct WorkItem {
  ProblemSpec spec;
  std::uint64_t seed;
};

struct LoadResult {
  double seconds = 0.0;
  double requests_per_sec = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double cache_hit_rate = 0.0;
  std::size_t completed = 0;
  std::size_t rejected = 0;
};

double percentile(std::vector<double>& xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(xs.size() - 1));
  return xs[idx];
}

/// K distinct (problem, seed) pairs: alternating Hanoi depths and Sokoban
/// catalog levels, seeds advancing so every pair fingerprints differently.
std::vector<WorkItem> distinct_pool(std::size_t k, std::uint64_t base_seed) {
  static const char* kSpecs[] = {"hanoi:3", "sokoban:1", "hanoi:4",
                                 "sokoban:2"};
  std::vector<WorkItem> pool;
  for (std::size_t i = 0; i < k; ++i) {
    std::string err;
    const auto spec = ProblemSpec::parse(kSpecs[i % 4], err);
    pool.push_back({*spec, base_seed + i / 4});
  }
  return pool;
}

/// The full request list for one load run: every client issues `per_client`
/// requests drawn round-robin from the pool, offset by client id so the
/// first touches differ across clients.
std::vector<WorkItem> request_list(const std::vector<WorkItem>& pool,
                                   std::size_t clients,
                                   std::size_t per_client) {
  std::vector<WorkItem> list;
  for (std::size_t c = 0; c < clients; ++c) {
    for (std::size_t i = 0; i < per_client; ++i) {
      list.push_back(pool[(c + i) % pool.size()]);
    }
  }
  return list;
}

ga::GaConfig bench_ga_config(const bench::BenchParams& p) {
  ga::GaConfig cfg;
  cfg.population_size = p.population;
  cfg.generations = p.generations;
  cfg.phases = 6;
  return cfg;
}

/// Closed-loop load: `clients` threads split `list`, each submit+wait one
/// request at a time. Latency is the client-observed wall time per request.
LoadResult run_service_load(const std::vector<WorkItem>& list,
                            std::size_t clients, const ga::GaConfig& ga_cfg) {
  ServerConfig cfg;
  cfg.workers = 1;  // one planning core; concurrency capital is the cache
  cfg.queue_capacity = list.size() + 8;
  cfg.cache_capacity = 256;
  cfg.cache_shards = 4;
  PlanService svc(cfg);

  const std::size_t per_client = list.size() / clients;
  std::vector<std::vector<double>> latencies(clients);
  std::atomic<std::size_t> rejected{0};

  util::Timer wall;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      latencies[c].reserve(per_client);
      for (std::size_t i = 0; i < per_client; ++i) {
        const WorkItem& item = list[c * per_client + i];
        PlanRequest req;
        req.problem = item.spec;
        req.config = ga_cfg;
        req.seed = item.seed;
        req.client = "bench-" + std::to_string(c);
        util::Timer t;
        const auto out = svc.submit(req);
        if (!out.accepted) {
          rejected.fetch_add(1);
          continue;
        }
        const auto st = svc.wait(out.id);
        if (st && st->state == RequestState::kDone) {
          latencies[c].push_back(t.millis());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double seconds = wall.seconds();
  svc.shutdown();

  LoadResult r;
  std::vector<double> all;
  for (const auto& per : latencies) all.insert(all.end(), per.begin(), per.end());
  r.completed = all.size();
  r.rejected = rejected.load();
  r.seconds = seconds;
  r.requests_per_sec = seconds > 0.0 ? static_cast<double>(all.size()) / seconds : 0.0;
  r.p50_ms = percentile(all, 0.50);
  r.p95_ms = percentile(all, 0.95);
  const auto snap = svc.snapshot();
  const auto probes = snap.cache.hits + snap.cache.misses;
  r.cache_hit_rate =
      probes > 0 ? static_cast<double>(snap.cache.hits) / static_cast<double>(probes)
                 : 0.0;
  return r;
}

/// The pre-service workflow: the same request list, strictly serialized,
/// one fresh GA run per request, no cache, no queue.
LoadResult run_serialized_baseline(const std::vector<WorkItem>& list,
                                   const ga::GaConfig& ga_cfg) {
  LoadResult r;
  std::vector<double> lat;
  util::Timer wall;
  for (const WorkItem& item : list) {
    const ga::GaConfig cfg = serve::tuned_config(item.spec, ga_cfg);
    util::Timer t;
    serve::with_problem(item.spec, [&](const auto& problem) {
      ga::run_multiphase(problem, cfg, item.seed);
    });
    lat.push_back(t.millis());
    ++r.completed;
  }
  r.seconds = wall.seconds();
  r.requests_per_sec =
      r.seconds > 0.0 ? static_cast<double>(list.size()) / r.seconds : 0.0;
  r.p50_ms = percentile(lat, 0.50);
  r.p95_ms = percentile(lat, 0.95);
  return r;
}

/// Median submit() latency for a request already in the cache.
void warm_hit_latency(const ga::GaConfig& ga_cfg, double& p50, double& p95) {
  ServerConfig cfg;
  cfg.workers = 1;
  PlanService svc(cfg);
  std::string err;
  PlanRequest req;
  req.problem = *ProblemSpec::parse("hanoi:3", err);
  req.config = ga_cfg;
  req.seed = 1;
  const auto first = svc.submit(req);
  if (first.accepted) svc.wait(first.id);

  std::vector<double> lat;
  for (int i = 0; i < 101; ++i) {
    util::Timer t;
    const auto out = svc.submit(req);
    if (out.accepted && out.state == RequestState::kDone) {
      lat.push_back(t.millis());
    }
  }
  svc.shutdown();
  p50 = percentile(lat, 0.50);
  p95 = percentile(lat, 0.95);
}

/// Latency attribution from the service's own process-wide histograms — the
/// same queue-wait / planning-slice / cache-probe split that
/// scripts/analyze_trace.py rebuilds from a journal's span trees, so the
/// histogram view and the span-tree view can be diffed against each other.
/// Accumulated across every sweep in this process.
void write_attribution(std::FILE* f) {
  const auto snap = gaplan::obs::snapshot_metrics();
  std::fprintf(f, "  \"attribution\": {");
  bool first = true;
  for (const auto& [key, metric] :
       {std::pair{"queue_wait", "server.queue_wait_ms"},
        std::pair{"slice", "server.slice_ms"},
        std::pair{"cache_probe", "server.cache_probe_ms"}}) {
    const auto* h = snap.find_histogram(metric);
    std::fprintf(f,
                 "%s\n    \"%s\": {\"count\": %llu, \"sum_ms\": %.4f, "
                 "\"mean_ms\": %.6f, \"p95_ms\": %.6f}",
                 first ? "" : ",", key,
                 h ? static_cast<unsigned long long>(h->count) : 0ull,
                 h ? h->sum : 0.0, h ? h->mean() : 0.0, h ? h->p95() : 0.0);
    first = false;
  }
  std::fprintf(f, "\n  },\n");
}

void write_load_entry(std::FILE* f, const LoadResult& r, const char* indent) {
  std::fprintf(f,
               "%s\"seconds\": %.6f, \"requests_per_sec\": %.4f,\n"
               "%s\"p50_ms\": %.4f, \"p95_ms\": %.4f,\n"
               "%s\"cache_hit_rate\": %.4f, \"completed\": %zu, "
               "\"rejected\": %zu",
               indent, r.seconds, r.requests_per_sec, indent, r.p50_ms,
               r.p95_ms, indent, r.cache_hit_rate, r.completed, r.rejected);
}

}  // namespace

int main() {
  const bench::BenchParams p = bench::resolve(/*quick_runs=*/1,
                                              /*quick_gens=*/25,
                                              /*paper_runs=*/3,
                                              /*paper_gens=*/60);
  const ga::GaConfig ga_cfg = bench_ga_config(p);
  // Requests per client scale with the replication count; the distinct pool
  // stays fixed so higher client counts mean warmer caches — exactly the
  // grid front-end scenario the service targets.
  const std::size_t per_client = 4 * std::max<std::size_t>(1, p.runs);
  const std::size_t distinct_k = 4;

  std::printf("bench_serve: closed-loop service load (per_client=%zu, "
              "distinct=%zu, pop=%zu, gens=%zu)\n",
              per_client, distinct_k, p.population, p.generations);

  const std::vector<WorkItem> pool = distinct_pool(distinct_k, /*base_seed=*/1);

  const std::size_t client_counts[] = {1, 2, 4, 8};
  std::vector<LoadResult> client_sweep;
  for (const std::size_t clients : client_counts) {
    const auto list = request_list(pool, clients, per_client);
    client_sweep.push_back(run_service_load(list, clients, ga_cfg));
    const LoadResult& r = client_sweep.back();
    std::printf("  clients=%zu  %7.1f req/s  p50 %7.3f ms  p95 %7.3f ms  "
                "hit-rate %.2f\n",
                clients, r.requests_per_sec, r.p50_ms, r.p95_ms,
                r.cache_hit_rate);
  }

  // Cache-mix sweep at a fixed client count: K distinct requests over the
  // same total volume — from everything-repeats to everything-distinct.
  const std::size_t mix_clients = 4;
  const std::size_t mix_ks[] = {2, 8, 16};
  std::vector<std::pair<std::size_t, LoadResult>> mix_sweep;
  for (const std::size_t k : mix_ks) {
    const auto mix_pool = distinct_pool(k, /*base_seed=*/100);
    const auto list = request_list(mix_pool, mix_clients, per_client);
    mix_sweep.emplace_back(k, run_service_load(list, mix_clients, ga_cfg));
    const LoadResult& r = mix_sweep.back().second;
    std::printf("  distinct=%-2zu %7.1f req/s  hit-rate %.2f\n", k,
                r.requests_per_sec, r.cache_hit_rate);
  }

  // Serialized baseline over the 8-client request list.
  const auto baseline_list = request_list(pool, 8, per_client);
  const LoadResult baseline = run_serialized_baseline(baseline_list, ga_cfg);
  const LoadResult& at8 = client_sweep.back();
  const double speedup = baseline.requests_per_sec > 0.0
                             ? at8.requests_per_sec / baseline.requests_per_sec
                             : 0.0;
  std::printf("  baseline    %7.1f req/s (serialized one-shot)\n",
              baseline.requests_per_sec);
  std::printf("  speedup @8 clients: %.2fx\n", speedup);

  double warm_p50 = 0.0, warm_p95 = 0.0;
  warm_hit_latency(ga_cfg, warm_p50, warm_p95);
  std::printf("  warm cache hit: p50 %.4f ms, p95 %.4f ms\n", warm_p50,
              warm_p95);

  const std::string path = bench::csv_path("BENCH_serve.json");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_serve\",\n  \"schema_version\": 1,\n");
  std::fprintf(f,
               "  \"workload\": \"closed-loop hanoi/sokoban mix, %zu distinct "
               "over %zu per client, pop %zu, gens %zu, phases 6\",\n",
               distinct_k, per_client, p.population, p.generations);
  std::fprintf(f, "  \"client_sweep\": [\n");
  for (std::size_t i = 0; i < client_sweep.size(); ++i) {
    std::fprintf(f, "    {\"clients\": %zu,\n", client_counts[i]);
    write_load_entry(f, client_sweep[i], "     ");
    std::fprintf(f, "}%s\n", i + 1 < client_sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"mix_sweep\": [\n");
  for (std::size_t i = 0; i < mix_sweep.size(); ++i) {
    std::fprintf(f, "    {\"distinct\": %zu, \"clients\": %zu,\n",
                 mix_sweep[i].first, mix_clients);
    write_load_entry(f, mix_sweep[i].second, "     ");
    std::fprintf(f, "}%s\n", i + 1 < mix_sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"baseline_serialized\": {\n");
  write_load_entry(f, baseline, "    ");
  std::fprintf(f, "},\n");
  write_attribution(f);
  std::fprintf(f, "  \"speedup_8_clients\": %.4f,\n", speedup);
  std::fprintf(f, "  \"warm_hit_p50_ms\": %.6f,\n", warm_p50);
  std::fprintf(f, "  \"warm_hit_p95_ms\": %.6f\n", warm_p95);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());

  bench::export_metrics("bench_serve");
  return 0;
}
