// Metrics-registry tests: shard-merge correctness under real ThreadPool
// concurrency, survival of counts past worker-thread exit, histogram bucket
// edge semantics, and percentile estimation.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "domains/hanoi.hpp"
#include "domains/navigation.hpp"
#include "obs/report.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace {

namespace obs = gaplan::obs;

std::uint64_t counter_value(const std::string& name) {
  const auto snap = obs::snapshot_metrics();
  const auto* c = snap.find_counter(name);
  return c != nullptr ? c->value : 0;
}

TEST(Metrics, CounterAccumulates) {
  obs::Counter& c = obs::counter("test.counter_accumulates");
  const std::uint64_t before = counter_value("test.counter_accumulates");
  c.inc();
  c.inc(41);
  EXPECT_EQ(counter_value("test.counter_accumulates"), before + 42);
}

TEST(Metrics, SameNameReturnsSameHandle) {
  obs::Counter& a = obs::counter("test.same_name");
  obs::Counter& b = obs::counter("test.same_name");
  EXPECT_EQ(&a, &b);
  // Kind mismatch on a registered name is a programming error.
  EXPECT_THROW(obs::gauge("test.same_name"), std::logic_error);
  EXPECT_THROW(obs::histogram("test.same_name", {1.0}), std::logic_error);
}

TEST(Metrics, GaugeSetAddMax) {
  obs::Gauge& g = obs::gauge("test.gauge");
  g.set(7);
  EXPECT_EQ(g.value(), 7);
  g.add(3);
  EXPECT_EQ(g.value(), 10);
  g.add(-4);
  EXPECT_EQ(g.value(), 6);
  obs::Gauge& m = obs::gauge("test.gauge_max");
  m.set(5);
  m.set_max(3);
  EXPECT_EQ(m.value(), 5);
  m.set_max(9);
  EXPECT_EQ(m.value(), 9);
  const auto snap = obs::snapshot_metrics();
  ASSERT_NE(snap.find_gauge("test.gauge_max"), nullptr);
  EXPECT_EQ(snap.find_gauge("test.gauge_max")->value, 9);
}

TEST(Metrics, ShardMergeUnderThreadPoolConcurrency) {
  obs::Counter& c = obs::counter("test.concurrent_counter");
  const std::uint64_t before = counter_value("test.concurrent_counter");
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kIncsPerTask = 1000;
  {
    gaplan::util::ThreadPool pool(4);
    pool.parallel_for(0, kTasks, [&](std::size_t) {
      for (std::size_t k = 0; k < kIncsPerTask; ++k) c.inc();
    });
    // Snapshot while worker threads (and their live shards) still exist.
    EXPECT_EQ(counter_value("test.concurrent_counter"),
              before + kTasks * kIncsPerTask);
  }
  // Workers are joined: their shards retired. Nothing may be lost.
  EXPECT_EQ(counter_value("test.concurrent_counter"),
            before + kTasks * kIncsPerTask);
}

TEST(Metrics, HistogramSumSurvivesThreadExit) {
  obs::Histogram& h = obs::histogram("test.hist_retire", {10.0, 20.0});
  double expected_sum = 0.0;
  {
    gaplan::util::ThreadPool pool(3);
    pool.parallel_for(0, 30, [&](std::size_t i) {
      h.observe(static_cast<double>(i));
    });
  }
  for (std::size_t i = 0; i < 30; ++i) expected_sum += static_cast<double>(i);
  const auto snap = obs::snapshot_metrics();
  const auto* s = snap.find_histogram("test.hist_retire");
  ASSERT_NE(s, nullptr);
  EXPECT_GE(s->count, 30u);  // >= in case the binary reuses the name
  EXPECT_NEAR(s->sum, expected_sum, 1e-9);
}

TEST(Metrics, HistogramBucketEdges) {
  // Bounds are inclusive upper edges: x lands in the first bucket with
  // x <= bound; past the last edge is the overflow bucket.
  obs::Histogram& h = obs::histogram("test.hist_edges", {1.0, 2.0});
  h.observe(0.5);   // bucket 0
  h.observe(1.0);   // bucket 0 (inclusive edge)
  h.observe(1.5);   // bucket 1
  h.observe(2.0);   // bucket 1 (inclusive edge)
  h.observe(3.0);   // overflow
  const auto snap = obs::snapshot_metrics();
  const auto* s = snap.find_histogram("test.hist_edges");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->counts.size(), 3u);
  EXPECT_EQ(s->counts[0], 2u);
  EXPECT_EQ(s->counts[1], 2u);
  EXPECT_EQ(s->counts[2], 1u);
  EXPECT_EQ(s->count, 5u);
  EXPECT_DOUBLE_EQ(s->sum, 8.0);
}

TEST(Metrics, HistogramPercentile) {
  obs::Histogram& h = obs::histogram("test.hist_pct", {1.0, 2.0, 4.0});
  for (int i = 0; i < 90; ++i) h.observe(0.5);
  for (int i = 0; i < 10; ++i) h.observe(3.0);
  const auto snap = obs::snapshot_metrics();
  const auto* s = snap.find_histogram("test.hist_pct");
  ASSERT_NE(s, nullptr);
  // p50 interpolates inside the first bucket (edge 1.0).
  EXPECT_LE(s->percentile(0.5), 1.0);
  EXPECT_GT(s->percentile(0.5), 0.0);
  // p95 lands in the (2, 4] bucket.
  EXPECT_GT(s->p95(), 2.0);
  EXPECT_LE(s->p95(), 4.0);
  // Degenerate queries.
  EXPECT_EQ(obs::HistogramSample{}.percentile(0.5), 0.0);
}

TEST(Metrics, HistogramRejectsBadBounds) {
  EXPECT_THROW(obs::histogram("test.hist_bad_empty", {}), std::invalid_argument);
  EXPECT_THROW(obs::histogram("test.hist_bad_order", {2.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(obs::histogram("test.hist_bad_dup", {1.0, 1.0}),
               std::invalid_argument);
}

TEST(Metrics, ResetZeroesValuesButKeepsRegistrations) {
  obs::Counter& c = obs::counter("test.reset_counter");
  obs::Gauge& g = obs::gauge("test.reset_gauge");
  c.inc(5);
  g.set(5);
  obs::reset_metrics();
  EXPECT_EQ(counter_value("test.reset_counter"), 0u);
  EXPECT_EQ(g.value(), 0);
  c.inc(2);  // the handle stays usable after reset
  EXPECT_EQ(counter_value("test.reset_counter"), 2u);
}

TEST(Metrics, SnapshotIsSortedByName) {
  obs::counter("test.zz_sorted");
  obs::counter("test.aa_sorted");
  const auto snap = obs::snapshot_metrics();
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }
}

TEST(Metrics, EvalCountersAppearInExport) {
  // The incremental-decode engine must surface its work through the registry:
  // after a short GA run on a cacheable domain the cache and resume counters
  // are registered, populated, and present in the GAPLAN_METRICS JSON export.
  namespace ga = gaplan::ga;
  namespace domains = gaplan::domains;
  // A kernel-less domain: SIMD-kernel domains decode through their LUT and
  // never probe the ops cache whose counters this test is about.
  const domains::Navigation nav(6, 6, {8, 14, 20, 21, 27}, {0, 5}, {35, 30});
  static_assert(!ga::SimdDecodable<domains::Navigation>);
  ga::GaConfig cfg;
  cfg.population_size = 30;
  cfg.generations = 12;
  cfg.initial_length = 16;
  cfg.max_length = 64;
  cfg.stop_on_valid = false;
  ga::Engine<domains::Navigation> engine(nav, cfg);
  gaplan::util::Rng rng(17);
  engine.run_phase(nav.initial_state(), rng, false);

  const auto snap = obs::snapshot_metrics();
  for (const char* name : {"eval.cache_hits", "eval.cache_misses",
                           "eval.resume_genes_skipped", "eval.ops_decoded"}) {
    ASSERT_NE(snap.find_counter(name), nullptr) << name;
  }
  // Navigation opts into the cache and every state repeats across the
  // population, so hits must actually accrue — as must resumed genes.
  EXPECT_GT(counter_value("eval.cache_hits"), 0u);
  EXPECT_GT(counter_value("eval.resume_genes_skipped"), 0u);
  EXPECT_GT(counter_value("eval.ops_decoded"), 0u);

  const std::string json = obs::render_metrics_json(snap);
  EXPECT_NE(json.find("eval.cache_hits"), std::string::npos);
  EXPECT_NE(json.find("eval.cache_misses"), std::string::npos);
  EXPECT_NE(json.find("eval.resume_genes_skipped"), std::string::npos);
}

TEST(Metrics, PooledEvalCountersAppearInExport) {
  // The struct-of-arrays kernel evaluator must surface its work: after a
  // run on a SIMD-kernel domain, the pass and lane counters are registered,
  // populated, and exported to Prometheus.
  namespace ga = gaplan::ga;
  namespace domains = gaplan::domains;
  const domains::Hanoi h(5);
  ga::GaConfig cfg;
  cfg.population_size = 30;
  cfg.generations = 10;
  cfg.initial_length = 16;
  cfg.max_length = 64;
  cfg.stop_on_valid = false;
  ga::Engine<domains::Hanoi> engine(h, cfg);
  gaplan::util::Rng rng(23);
  engine.run_phase(h.initial_state(), rng, false);

  const auto snap = obs::snapshot_metrics();
  ASSERT_NE(snap.find_counter("eval.batches"), nullptr);
  ASSERT_NE(snap.find_counter("eval.simd_lanes_used"), nullptr);
  EXPECT_GT(counter_value("eval.batches"), 0u);
  // Every individual decodes through a kernel lane on this domain.
  EXPECT_GE(counter_value("eval.simd_lanes_used"),
            counter_value("eval.batches"));
  // The vector-step counter that lane occupancy is computed from; it only
  // moves where the CPU runs the AVX-512 decode.
  ASSERT_NE(snap.find_counter("eval.simd_steps"), nullptr);
  if (gaplan::util::has_avx512_decode()) {
    EXPECT_GT(counter_value("eval.simd_steps"), 0u);
  }

  const std::string text = obs::render_metrics_prometheus(snap);
  EXPECT_NE(text.find("gaplan_eval_batches_total"), std::string::npos);
  EXPECT_NE(text.find("gaplan_eval_simd_lanes_used_total"), std::string::npos);
  EXPECT_NE(text.find("gaplan_eval_simd_steps_total"), std::string::npos);
}

/// Runs one phase of `problem` and requires every eval.*_ms histogram of
/// the evaluation pass to count exactly the passes run: each
/// KernelBatchDecoder::run observes its prepare step, its ordering and its
/// group decode once, and the runner scores each pass once.
template <typename P>
void expect_pass_split_histograms(const P& problem) {
  namespace ga = gaplan::ga;
  const auto hist_count = [](const char* name) -> std::uint64_t {
    const auto snap = obs::snapshot_metrics();
    const auto* h = snap.find_histogram(name);
    return h != nullptr ? h->count : 0;
  };
  const std::uint64_t batches0 = counter_value("eval.batches");
  const std::uint64_t prepare0 = hist_count("eval.prepare_ms");
  const std::uint64_t order0 = hist_count("eval.order_ms");
  const std::uint64_t decode0 = hist_count("eval.group_decode_ms");
  const std::uint64_t score0 = hist_count("eval.score_ms");
  ga::GaConfig cfg;
  cfg.population_size = 30;
  cfg.generations = 10;
  cfg.initial_length = 16;
  cfg.max_length = 64;
  cfg.stop_on_valid = false;
  ga::Engine<P> engine(problem, cfg);
  gaplan::util::Rng rng(29);
  engine.run_phase(problem.initial_state(), rng, false);

  const auto snap = obs::snapshot_metrics();
  const auto* prepare = snap.find_histogram("eval.prepare_ms");
  const auto* order = snap.find_histogram("eval.order_ms");
  const auto* decode = snap.find_histogram("eval.group_decode_ms");
  const auto* score = snap.find_histogram("eval.score_ms");
  ASSERT_NE(prepare, nullptr);
  ASSERT_NE(order, nullptr);
  ASSERT_NE(decode, nullptr);
  ASSERT_NE(score, nullptr);
  const std::uint64_t passes = counter_value("eval.batches") - batches0;
  EXPECT_GT(passes, 0u);
  EXPECT_EQ(prepare->count - prepare0, passes);
  EXPECT_EQ(order->count - order0, passes);
  EXPECT_EQ(decode->count - decode0, passes);
  EXPECT_EQ(score->count - score0, passes);
  EXPECT_GT(prepare->sum, 0.0);
  EXPECT_GT(decode->sum, 0.0);
}

TEST(Metrics, KernelPassSplitHistograms) {
  // A domain with a SIMD kernel (LutOps lanes) and one without (ProblemOps
  // lanes) run the same pass, so both observe the whole split.
  namespace domains = gaplan::domains;
  static_assert(gaplan::ga::SimdDecodable<domains::Hanoi>);
  static_assert(!gaplan::ga::SimdDecodable<domains::Navigation>);
  expect_pass_split_histograms(domains::Hanoi(5));
  // The kernel-less pass decodes through each thread's valid-ops cache.
  const std::uint64_t hits0 = counter_value("eval.cache_hits");
  const std::uint64_t misses0 = counter_value("eval.cache_misses");
  expect_pass_split_histograms(
      domains::Navigation(6, 6, {8, 14, 20, 21, 27}, {0, 5}, {35, 30}));
  EXPECT_GT(counter_value("eval.cache_hits"), hits0);
  EXPECT_GT(counter_value("eval.cache_misses"), misses0);
}

TEST(Metrics, LatencyBucketsAreSane) {
  const auto& b = obs::latency_buckets_ms();
  ASSERT_FALSE(b.empty());
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_LT(b[i - 1], b[i]);
}

TEST(Metrics, PrometheusExpositionIsScrapeReady) {
  obs::counter("test.prom_counter").inc(3);
  obs::gauge("test.prom_gauge").set(42);  // gauges are integral
  obs::Histogram& h =
      obs::histogram("test.prom_hist", std::vector<double>{1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);

  const std::string text =
      obs::render_metrics_prometheus(obs::snapshot_metrics());
  // Names are prefixed and sanitized; counters gain _total.
  EXPECT_NE(text.find("# TYPE gaplan_test_prom_counter_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("gaplan_test_prom_counter_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE gaplan_test_prom_gauge gauge"),
            std::string::npos);
  EXPECT_NE(text.find("gaplan_test_prom_gauge 42"), std::string::npos);
  // Histogram buckets are cumulative and terminate at le="+Inf" == _count.
  EXPECT_NE(text.find("gaplan_test_prom_hist_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("gaplan_test_prom_hist_bucket{le=\"10\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("gaplan_test_prom_hist_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("gaplan_test_prom_hist_sum 55.5"), std::string::npos);
  EXPECT_NE(text.find("gaplan_test_prom_hist_count 3"), std::string::npos);
  // No unsanitized dotted names leak through.
  EXPECT_EQ(text.find("test.prom_"), std::string::npos);
}

TEST(Metrics, JsonExportRendersNonFiniteAsNull) {
  // An infinite observation poisons the histogram sum; the JSON export must
  // degrade to null rather than emit the invalid-JSON literal "inf".
  obs::Histogram& h =
      obs::histogram("test.inf_hist", std::vector<double>{1.0});
  h.observe(std::numeric_limits<double>::infinity());
  const std::string json = obs::render_metrics_json(obs::snapshot_metrics());
  const auto at = json.find("test.inf_hist");
  ASSERT_NE(at, std::string::npos);
  const std::string entry = json.substr(at, 200);
  EXPECT_NE(entry.find("\"sum\":null"), std::string::npos) << entry;
  EXPECT_EQ(entry.find("inf,"), std::string::npos) << entry;
}

TEST(Metrics, JsonFileHoldsTheRegistry) {
  const std::string path = ::testing::TempDir() + "gaplan_metrics.json";
  std::remove(path.c_str());
  obs::counter("test.json_file_counter").inc(3);
  ASSERT_TRUE(obs::write_metrics_json(path));
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"test.json_file_counter\":3"), std::string::npos)
      << text;
  std::remove(path.c_str());
  EXPECT_FALSE(obs::write_metrics_json("/nonexistent/dir/metrics.json"));
}

TEST(Metrics, DumperWritesFinalExpositionOnStop) {
  const std::string path = ::testing::TempDir() + "gaplan_metrics_dump.prom";
  std::remove(path.c_str());
  obs::counter("test.dumper_counter").inc();
  {
    obs::MetricsDumper dumper(path, /*interval_ms=*/50.0);
    dumper.stop();  // stop() must leave one complete dump behind
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("gaplan_test_dumper_counter_total"), std::string::npos);
}

}  // namespace
