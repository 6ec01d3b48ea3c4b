#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "util/timer.hpp"

namespace gaplan::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  static obs::Counter& c_executed = obs::counter("pool.tasks_executed");
  static obs::Gauge& g_depth = obs::gauge("pool.queue_depth");
  static obs::Gauge& g_busy = obs::gauge("pool.workers_busy");
  static obs::Histogram& h_task =
      obs::histogram("pool.task_ms", obs::latency_buckets_ms());
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) cv_.wait(lock);
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
      g_depth.set(static_cast<std::int64_t>(queue_.size()));
    }
    g_busy.add(1);
    Timer timer;
    task();
    h_task.observe(timer.millis());
    g_busy.add(-1);
    c_executed.inc();
  }
}

bool ThreadPool::try_run_one() {
  static obs::Counter& c_executed = obs::counter("pool.tasks_executed");
  static obs::Counter& c_helped = obs::counter("pool.tasks_helped");
  static obs::Gauge& g_depth = obs::gauge("pool.queue_depth");
  std::function<void()> task;
  {
    MutexLock lock(mutex_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop();
    g_depth.set(static_cast<std::int64_t>(queue_.size()));
  }
  task();
  c_executed.inc();
  c_helped.inc();
  return true;
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t min_grain) {
  if (begin >= end) return;
  static obs::Counter& c_pfor = obs::counter("pool.parallel_for");
  c_pfor.inc();
  const std::size_t n = end - begin;
  const std::size_t workers = thread_count();
  if (workers <= 1 || n == 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  // Oversubscribe: ~kChunksPerWorker chunks per worker, so uneven per-index
  // costs rebalance through the queue instead of serializing on the slowest
  // statically-assigned range. min_grain floors the chunk size.
  const std::size_t target = workers * kChunksPerWorker;
  const std::size_t chunk =
      std::max({min_grain, std::size_t{1}, (n + target - 1) / target});
  const std::size_t chunks = (n + chunk - 1) / chunk;
  std::vector<std::future<void>> futs;
  futs.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    if (lo >= hi) break;
    futs.push_back(submit([lo, hi, &fn] {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    }));
  }
  // Help while waiting: if a chunk is still queued (all workers busy — or the
  // caller *is* the only worker, mid-task), run queued tasks here instead of
  // blocking. Once the queue is dry, any unfinished chunk is running on
  // another thread, so a plain wait cannot deadlock.
  for (auto& f : futs) {
    while (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      if (!try_run_one()) {
        f.wait();
        break;
      }
    }
  }
  for (auto& f : futs) f.get();  // rethrows the first task exception
}

void ThreadPool::parallel_for_ranges(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t grain) {
  if (begin >= end) return;
  static obs::Counter& c_pfor = obs::counter("pool.parallel_for");
  c_pfor.inc();
  grain = std::max<std::size_t>(1, grain);
  const std::size_t workers = thread_count();
  if (workers <= 1) {
    fn(begin, end);
    return;
  }
  const std::size_t n = end - begin;
  const std::size_t chunks = (n + grain - 1) / grain;
  std::vector<std::future<void>> futs;
  futs.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * grain;
    const std::size_t hi = std::min(end, lo + grain);
    if (lo >= hi) break;
    futs.push_back(submit([lo, hi, &fn] { fn(lo, hi); }));
  }
  // Same help-while-waiting discipline as parallel_for (see above).
  for (auto& f : futs) {
    while (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      if (!try_run_one()) {
        f.wait();
        break;
      }
    }
  }
  for (auto& f : futs) f.get();  // rethrows the first task exception
}

void ThreadPool::parallel_deal(std::size_t n,
                               const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> cursor{0};
  const auto drain = [&](std::size_t) {
    for (std::size_t i = cursor++; i < n; i = cursor++) fn(i);
  };
  // One draining task per worker: parallel_for's chunk is a single index
  // here, since it never exceeds thread_count() indices.
  parallel_for(0, std::min(n, thread_count()), drain);
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace gaplan::util
