// Tables, CSV, env config, thread pool, timer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace gaplan::util;

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(1.0, 0), "1");
  EXPECT_EQ(Table::integer(-42), "-42");
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/gaplan_test.csv";
  {
    CsvWriter w(path, {"a", "b"});
    w.add_row({"1", "x,y"});
    w.add_row({"2", "say \"hi\""});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,\"x,y\"");
  std::getline(in, line);
  EXPECT_EQ(line, "2,\"say \"\"hi\"\"\"");
  std::remove(path.c_str());
}

TEST(Csv, RejectsWrongArity) {
  const std::string path = ::testing::TempDir() + "/gaplan_test2.csv";
  CsvWriter w(path, {"a"});
  EXPECT_THROW(w.add_row({"1", "2"}), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(Csv, EscapePassthroughForPlainCells) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("new\nline"), "\"new\nline\"");
}

TEST(Env, IntParsingAndFallback) {
  ::setenv("GAPLAN_TEST_INT", "123", 1);
  EXPECT_EQ(env_int("GAPLAN_TEST_INT", 7), 123);
  ::setenv("GAPLAN_TEST_INT", "junk", 1);
  EXPECT_EQ(env_int("GAPLAN_TEST_INT", 7), 7);
  ::unsetenv("GAPLAN_TEST_INT");
  EXPECT_EQ(env_int("GAPLAN_TEST_INT", 7), 7);
}

TEST(Env, StringAndFallback) {
  ::setenv("GAPLAN_TEST_S", "hello", 1);
  EXPECT_EQ(env_str("GAPLAN_TEST_S", "d"), "hello");
  ::unsetenv("GAPLAN_TEST_S");
  EXPECT_EQ(env_str("GAPLAN_TEST_S", "d"), "d");
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.thread_count(), 2u);
  auto f = pool.submit([] { return 40 + 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(0, 100, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  pool.parallel_for(7, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, SingleWorkerRunsSerially) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.parallel_for(0, 10, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ParallelForOversubscribesChunks) {
  // The static-partition fix: with enough iterations, parallel_for must queue
  // ~kChunksPerWorker chunks per worker (not one), so fast workers steal the
  // leftovers of slow ones. Chunk count is observed via the pool's
  // tasks_submitted counter delta.
  auto submitted = [] {
    const auto snap = gaplan::obs::snapshot_metrics();
    const auto* c = snap.find_counter("pool.tasks_submitted");
    return c != nullptr ? c->value : 0;
  };
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(160);
  const auto before = submitted();
  pool.parallel_for(0, 160, [&](std::size_t i) { ++hits[i]; });
  const auto chunks = submitted() - before;
  EXPECT_EQ(chunks, pool.thread_count() * ThreadPool::kChunksPerWorker);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForHonorsMinGrain) {
  auto submitted = [] {
    const auto snap = gaplan::obs::snapshot_metrics();
    const auto* c = snap.find_counter("pool.tasks_submitted");
    return c != nullptr ? c->value : 0;
  };
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  const auto before = submitted();
  pool.parallel_for(0, 100, [&](std::size_t i) { ++hits[i]; }, /*min_grain=*/50);
  EXPECT_EQ(submitted() - before, 2u);  // 100 items / grain 50
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForTinyRangeStillCoversOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(0, 3, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesTaskException) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(0, 10,
                                 [&](std::size_t i) {
                                   if (i == 4) throw std::logic_error("bad");
                                 }),
               std::logic_error);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  // Just verify monotonicity and reset; no sleeping in unit tests.
  const double a = t.seconds();
  const double b = t.seconds();
  EXPECT_GE(b, a);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
  EXPECT_GE(t.millis(), 0.0);
}

}  // namespace
