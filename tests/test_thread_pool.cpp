// util::ThreadPool: nested-submission safety (the gaplan-serve scheduler
// runs GA evaluation chunks on the same pool family its workers live on),
// the try_submit backlog bound, and the try_run_one helping primitive.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace {

using gaplan::util::ThreadPool;

// Blocks a pool worker until released; lets tests pin the pool busy
// deterministically.
class Gate {
 public:
  void wait() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }
  void open() {
    {
      std::lock_guard lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // Every worker enters an outer chunk that itself runs parallel_for on the
  // same pool. Without the helping wait, the inner chunks would sit in the
  // queue behind the outer chunks occupying all workers — a deadlock. The
  // outer waiters must drain them instead.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(0, 8, [&](std::size_t) {
    pool.parallel_for(0, 100, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 8 * 100);
}

TEST(ThreadPool, TaskSubmittingBackIntoSamePoolCompletes) {
  // A pool task enqueues follow-up work into its own pool and waits for it
  // with the budgeted-run primitive. On a single-worker pool the inner task
  // can only ever run on the waiting thread itself.
  ThreadPool pool(1);
  auto outer = pool.submit([&pool] {
    auto inner = pool.submit([] { return 21; });
    while (inner.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      pool.try_run_one();
    }
    return inner.get() * 2;
  });
  EXPECT_EQ(outer.get(), 42);
}

TEST(ThreadPool, TryRunOneDrainsQueueOnCallingThread) {
  ThreadPool pool(1);
  Gate gate;
  std::atomic<bool> started{false};
  auto blocker = pool.submit([&gate, &started] {
    started.store(true);
    gate.wait();
  });
  while (!started.load()) std::this_thread::yield();

  std::atomic<int> ran{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 5; ++i) {
    futs.push_back(pool.submit([&ran] { ran.fetch_add(1); }));
  }
  // The worker is parked in the gate; only this thread can run the backlog.
  int helped = 0;
  while (pool.try_run_one()) ++helped;
  EXPECT_EQ(helped, 5);
  EXPECT_EQ(ran.load(), 5);
  EXPECT_FALSE(pool.try_run_one());  // queue empty now

  gate.open();
  blocker.get();
  for (auto& f : futs) f.get();
}

TEST(ThreadPool, TrySubmitHonorsBacklogBound) {
  ThreadPool pool(1);
  Gate gate;
  std::atomic<bool> started{false};
  auto blocker = pool.submit([&gate, &started] {
    started.store(true);
    gate.wait();
  });
  // Wait until the worker popped the blocker, so the queue is empty.
  while (!started.load()) std::this_thread::yield();

  auto first = pool.try_submit([] { return 1; }, /*max_queue=*/1);
  EXPECT_TRUE(first.has_value());
  auto second = pool.try_submit([] { return 2; }, /*max_queue=*/1);
  EXPECT_FALSE(second.has_value());  // backlog already at the bound
  auto zero = pool.try_submit([] { return 3; }, /*max_queue=*/0);
  EXPECT_FALSE(zero.has_value());  // a zero bound never enqueues

  gate.open();
  blocker.get();
  EXPECT_EQ(first->get(), 1);
}

TEST(ThreadPool, GrainForScalesDownOnTinyInputs) {
  // One chunk of ~n/workers per worker.
  EXPECT_EQ(ThreadPool::grain_for(256, 4), 64u);
  // Tiny population: the grain shrinks so every worker still gets a chunk.
  EXPECT_EQ(ThreadPool::grain_for(8, 4), 2u);
  EXPECT_EQ(ThreadPool::grain_for(4, 4), 1u);
  // Degenerate inputs clamp sanely: n = 0 yields 1, zero workers behaves
  // like a single worker (whole range in one chunk).
  EXPECT_EQ(ThreadPool::grain_for(0, 4), 1u);
  EXPECT_EQ(ThreadPool::grain_for(3, 0), 3u);
  EXPECT_EQ(ThreadPool::grain_for(100, 1), 100u);
}

TEST(ThreadPool, ParallelForRangesNoWorkerStarvesOnTinyPopulation) {
  // Small populations: with n = 8 and 4 workers, grain_for must split the
  // range so the chunk count reaches the worker count, every index runs
  // exactly once, and no chunk exceeds the grain.
  ThreadPool pool(4);
  const std::size_t n = 8;
  const std::size_t grain = ThreadPool::grain_for(n, pool.thread_count());
  EXPECT_EQ(grain, 2u);

  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  std::vector<int> hits(n, 0);
  pool.parallel_for_ranges(
      0, n,
      [&](std::size_t lo, std::size_t hi) {
        std::lock_guard lock(mu);
        chunks.emplace_back(lo, hi);
        for (std::size_t i = lo; i < hi; ++i) ++hits[i];
      },
      grain);

  EXPECT_EQ(chunks.size(), n / grain);  // enough chunks for every worker
  for (const auto& [lo, hi] : chunks) {
    EXPECT_LE(hi - lo, grain);
    EXPECT_LT(lo, hi);
  }
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(ThreadPool, ParallelForRangesSerialOnSingleWorker) {
  // With one worker the range form runs as a single serial call — no
  // queueing, exact bounds.
  ThreadPool pool(1);
  std::vector<std::pair<std::size_t, std::size_t>> calls;
  pool.parallel_for_ranges(
      3, 11,
      [&](std::size_t lo, std::size_t hi) { calls.emplace_back(lo, hi); }, 2);
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], std::make_pair(std::size_t{3}, std::size_t{11}));
}

TEST(ThreadPool, ParallelForRangesPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for_ranges(
                   0, 16,
                   [](std::size_t lo, std::size_t) {
                     if (lo == 8) throw std::runtime_error("boom");
                   },
                   4),
               std::runtime_error);
}

TEST(ThreadPool, ParallelDealRunsEachIndexOnce) {
  // The kernel decoder deals its lane groups this way: every index runs
  // exactly once, on at most thread_count() threads at a time.
  ThreadPool pool(4);
  const std::size_t n = 37;
  std::vector<std::atomic<int>> hits(n);
  std::atomic<int> live{0};
  std::atomic<int> peak{0};
  pool.parallel_deal(n, [&](std::size_t i) {
    const int now = live.fetch_add(1) + 1;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    hits[i].fetch_add(1);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    live.fetch_sub(1);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  EXPECT_LE(peak.load(), 4);
  pool.parallel_deal(0, [](std::size_t) { FAIL() << "no index to run"; });
}

TEST(ThreadPool, ParallelDealSerialInOrderOnSingleWorker) {
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  pool.parallel_deal(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ParallelDealPropagatesExceptions) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_deal(20,
                                  [&](std::size_t i) {
                                    ran.fetch_add(1);
                                    if (i == 5) throw std::runtime_error("boom");
                                  }),
               std::runtime_error);
  EXPECT_GE(ran.load(), 6);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 16,
                                 [](std::size_t i) {
                                   if (i == 7) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

}  // namespace
