// Fixed-size worker pool with a blocking task queue and a structured
// parallel_for helper.
//
// Following the C++ Core Guidelines concurrency rules: the pool owns its
// threads (RAII, joined in the destructor — CP.23/CP.25), tasks communicate
// only through the queue and returned futures (CP.2: no data races), and
// callers never see raw threads.
//
// On a single hardware thread (this repro environment) parallel_for degrades
// to a serial loop with zero queueing overhead, so benchmarks stay honest.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <future>
#include <limits>
#include <optional>
#include <queue>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/sync.hpp"

namespace gaplan::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Enqueues a task; the future resolves with its result (or exception).
  template <typename F>
  std::future<std::invoke_result_t<F>> submit(F&& fn) GAPLAN_EXCLUDES(mutex_) {
    auto fut = try_submit(std::forward<F>(fn));
    if (!fut) throw std::runtime_error("ThreadPool: submit after shutdown");
    return std::move(*fut);
  }

  /// Non-throwing submit for schedulers that must bound their own backlog:
  /// returns std::nullopt instead of enqueueing when the pool is shutting
  /// down or the queue already holds `max_queue` tasks. Never blocks.
  template <typename F>
  std::optional<std::future<std::invoke_result_t<F>>> try_submit(
      F&& fn, std::size_t max_queue = std::numeric_limits<std::size_t>::max())
      GAPLAN_EXCLUDES(mutex_) {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    static obs::Counter& c_submitted = obs::counter("pool.tasks_submitted");
    static obs::Gauge& g_depth = obs::gauge("pool.queue_depth");
    static obs::Gauge& g_depth_max = obs::gauge("pool.queue_depth_max");
    {
      MutexLock lock(mutex_);
      if (stopping_ || queue_.size() >= max_queue) return std::nullopt;
      queue_.emplace([task] { (*task)(); });
      const auto depth = static_cast<std::int64_t>(queue_.size());
      g_depth.set(depth);
      g_depth_max.set_max(depth);
    }
    c_submitted.inc();
    cv_.notify_one();
    return fut;
  }

  /// Pops and runs one queued task on the *calling* thread; returns false when
  /// the queue is empty. This is the budgeted-run primitive that makes nested
  /// submission safe: a pool task waiting on work it enqueued into the same
  /// pool helps drain the queue instead of deadlocking on an occupied worker
  /// (parallel_for uses it while waiting on its chunk futures).
  bool try_run_one() GAPLAN_EXCLUDES(mutex_);

  /// Runs fn(i) for i in [begin, end), blocking until all complete. Work is
  /// split into contiguous chunks, oversubscribed ~kChunksPerWorker× per
  /// worker so a worker that draws short tasks picks up further chunks
  /// instead of idling while a long chunk finishes elsewhere (iteration costs
  /// vary widely under variable-length genomes). `min_grain` bounds how small
  /// a chunk may get, for loops whose per-index work is tiny. Exceptions
  /// propagate (the first one thrown rethrows here). With <= 1 worker, runs
  /// serially on the calling thread so results are identical and
  /// deterministic. Safe to call from inside a pool task: while waiting on
  /// its chunks the caller runs queued tasks itself (try_run_one), so nested
  /// parallel_for never deadlocks even on a single-worker pool.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn,
                    std::size_t min_grain = 1) GAPLAN_EXCLUDES(mutex_);

  /// Runs fn(lo, hi) over contiguous [lo, hi) chunks of exactly `grain`
  /// indices (the final chunk may be shorter), blocking until all complete.
  /// The range form of parallel_for, for callees that amortise per-chunk
  /// setup (the kernel decoder's prepare pass takes a chunk of slots per
  /// call). Serial on <= 1 worker; helps drain the queue while waiting, like
  /// parallel_for.
  void parallel_for_ranges(std::size_t begin, std::size_t end,
                           const std::function<void(std::size_t, std::size_t)>& fn,
                           std::size_t grain) GAPLAN_EXCLUDES(mutex_);

  /// Runs fn(i) for i in [0, n), blocking until all complete. Indices are
  /// dealt one at a time, in increasing order, from a shared cursor to up to
  /// thread_count() tasks, so when per-index cost falls with the index (the
  /// kernel decoder's longest-first lane groups) no task finishes more than
  /// one index behind another. Serial on <= 1 worker; exceptions and
  /// waiting as in parallel_for.
  void parallel_deal(std::size_t n, const std::function<void(std::size_t)>& fn)
      GAPLAN_EXCLUDES(mutex_);

  /// Grain for parallel_for_ranges that gives each of `workers` one
  /// contiguous chunk of ~n/workers indices. Always >= 1; zero workers count
  /// as one.
  static std::size_t grain_for(std::size_t n, std::size_t workers) noexcept {
    return std::max<std::size_t>(1, n / std::max<std::size_t>(1, workers));
  }

  /// Target chunks per worker in parallel_for (static-partition imbalance
  /// fix; see docs/API.md).
  static constexpr std::size_t kChunksPerWorker = 4;

 private:
  void worker_loop() GAPLAN_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_ GAPLAN_GUARDED_BY(mutex_);
  Mutex mutex_{"pool.queue", lock_order::kRankPoolQueue};
  CondVar cv_;
  bool stopping_ GAPLAN_GUARDED_BY(mutex_) = false;
};

}  // namespace gaplan::util
