// PlanService: the in-process, multi-client planning service (gaplan-serve).
//
// Turns the one-shot engine/multiphase stack into a long-lived
// request-serving subsystem:
//
//  * Admission control — a bounded, priority-aware queue. Submissions beyond
//    queue_capacity are rejected outright; beyond shed_depth, only requests
//    with priority > 0 are still admitted (load shedding). Every request
//    passes the PR 4 lint gate (GaConfig + problem lint) before admission:
//    lint errors reject with the diagnostics attached.
//  * Plan cache — requests are fingerprinted (problem + GaConfig + seed,
//    server/fingerprint.hpp) and looked up in a sharded LRU (plan_cache.hpp)
//    both at submit and again at dequeue, so a request identical to one that
//    completed while it queued never runs the GA. A warm hit completes
//    inside submit() in microseconds.
//  * Worker scheduler — cfg.workers planner slots multiplexed onto one
//    util::ThreadPool, each GA run evaluating serially or on a shared
//    cfg.ga_threads evaluation pool (never workers x ga_threads fresh
//    threads, so the service cannot oversubscribe the machine). Long
//    multiphase runs yield their slot between phases whenever equal- or
//    higher-priority work waits, so short requests are not starved behind
//    long ones.
//  * Lifecycle — queued -> planning -> done | failed | timed-out | cancelled
//    (or rejected at admission), with per-transition trace events
//    (ev "server"), server.* metrics, and a snapshot() stats API.
//
// Thread-safety: every public method may be called from any thread.
// Determinism: a served plan is bit-identical to run_multiphase() with the
// same problem, config, and seed — cached or fresh. This holds by
// construction: a request's job builds its problem through with_problem()
// and steps the same ga::MultiPhaseRun that run_multiphase_from() loops
// over, with an Rng seeded the same way (tests/test_prop_server.cpp checks
// it on every spec kind).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "core/config.hpp"
#include "obs/metrics.hpp"
#include "server/fingerprint.hpp"
#include "server/plan_cache.hpp"
#include "server/problem_spec.hpp"
#include "server/server_config.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"

namespace gaplan::serve {

enum class RequestState {
  kQueued,
  kPlanning,
  kDone,
  kFailed,
  kTimedOut,
  kCancelled,
  kRejected,
};

const char* to_string(RequestState s) noexcept;

inline bool is_terminal(RequestState s) noexcept {
  return s != RequestState::kQueued && s != RequestState::kPlanning;
}

struct PlanRequest {
  ProblemSpec problem;
  /// Base GA configuration; genome lengths still at their stock defaults are
  /// retuned to the problem's depth (tuned_config).
  ga::GaConfig config;
  std::uint64_t seed = 1;
  /// Higher runs first; > 0 additionally survives load shedding.
  int priority = 0;
  /// Wall-clock budget from admission (ms); 0 = server default. Clamped to
  /// ServerConfig::max_deadline_ms.
  double deadline_ms = 0.0;
  /// Free-form client tag, echoed in trace events.
  std::string client;
  /// Remote trace propagation (distribution layer): a nonzero `trace` makes
  /// the request's span tree join that trace id instead of starting a fresh
  /// one, and a nonzero `parent_span` is recorded on the root "complete"
  /// event as `remote_parent` — an annotation, not a `parent` link, because
  /// the caller's span lives in a *different process's* journal and span
  /// parents must resolve within one journal (scripts/check_trace.py).
  std::uint64_t trace = 0;
  std::uint64_t parent_span = 0;
};

/// Point-in-time view of one request (a copy; never aliases live state).
struct RequestStatus {
  std::uint64_t id = 0;
  RequestState state = RequestState::kQueued;
  bool cached = false;      ///< answered from the plan cache
  bool plan_valid = false;  ///< the plan reaches the goal
  std::vector<int> plan;
  double plan_cost = 0.0;
  double goal_fitness = 0.0;
  std::size_t phases_run = 0;
  std::size_t generations_total = 0;
  std::size_t yields = 0;   ///< times the request gave up its worker slot
  std::size_t slices = 0;   ///< worker slices consumed (yields + 1 when run)
  double queue_ms = 0.0;    ///< admission -> first dequeue
  /// Total time spent queued, every segment: the admission wait plus each
  /// post-yield re-queue wait (yield-preemption time). queue_ms is only the
  /// first segment.
  double queue_wait_ms = 0.0;
  double cache_probe_ms = 0.0;  ///< submit probe + dequeue re-probes
  double plan_ms = 0.0;     ///< time actually spent planning
  double total_ms = 0.0;    ///< admission -> terminal state
  /// Trace id of the request's span tree in the run journal (0 when tracing
  /// was off at admission) — the handle `scripts/analyze_trace.py` and the
  /// wire `trace` verb key on.
  std::uint64_t trace_id = 0;
  std::string detail;       ///< failure / timeout / cancel reason
};

struct SubmitOutcome {
  bool accepted = false;
  std::uint64_t id = 0;  ///< 0 when rejected
  RequestState state = RequestState::kRejected;
  std::string reason;            ///< rejection reason ("queue-full", ...)
  analysis::Report diagnostics;  ///< lint findings when the gate rejected
};

struct ServiceSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t yields = 0;
  std::size_t queue_depth = 0;
  std::size_t planning = 0;
  PlanCache::Stats cache;
  /// Latency attribution histograms (process-wide server.* metrics, so
  /// instances in one process share them): time requests spent waiting in
  /// the queue per segment, worker slice durations, and cache probe costs.
  obs::HistogramSample queue_wait_ms;
  obs::HistogramSample slice_ms;
  obs::HistogramSample cache_probe_ms;
};

namespace detail {
class JobBase;
struct Record;
}  // namespace detail

/// A cache mutation made by the serving path (a freshly planned result
/// landing in the cache, or the LRU entries it pushed out). The distribution
/// layer turns these into cache_put / cache_del gossip frames.
struct CacheEvent {
  enum class Kind { kInsert, kEvict };
  Kind kind = Kind::kInsert;
  Fingerprint fp;
  CachedPlan plan;  ///< populated for kInsert only
};

class PlanService {
 public:
  /// Enforces `cfg` through server_lint (errors throw, warnings journal) and
  /// spawns the scheduler pool.
  explicit PlanService(ServerConfig cfg);

  /// Equivalent to shutdown(false): queued work is cancelled, in-flight runs
  /// stop at their next phase boundary.
  ~PlanService();

  PlanService(const PlanService&) = delete;
  PlanService& operator=(const PlanService&) = delete;

  /// Admission: lint gate, cache probe, then the bounded priority queue.
  /// Returns an accepted outcome whose state is kDone (cache hit) or
  /// kQueued, or a rejection with the reason (and lint diagnostics, if any).
  SubmitOutcome submit(PlanRequest req) GAPLAN_EXCLUDES(mu_);

  /// Status copy, or std::nullopt for an unknown id.
  std::optional<RequestStatus> status(std::uint64_t id) const
      GAPLAN_EXCLUDES(mu_);

  /// Blocks until the request reaches a terminal state (or `timeout_ms`
  /// elapses; negative = wait forever). Returns the final status, or the
  /// current one on timeout, or std::nullopt for an unknown id.
  std::optional<RequestStatus> wait(std::uint64_t id, double timeout_ms = -1.0)
      GAPLAN_EXCLUDES(mu_);

  /// Cancels a queued request immediately; asks a planning request to stop
  /// at its next phase boundary. Returns false when the request is unknown
  /// or already terminal.
  bool cancel(std::uint64_t id) GAPLAN_EXCLUDES(mu_);

  ServiceSnapshot snapshot() const GAPLAN_EXCLUDES(mu_);

  /// Blocks until no request is queued or planning (new submissions are
  /// still accepted, so callers coordinate their own quiesce).
  void drain() GAPLAN_EXCLUDES(mu_);

  /// Stops accepting work; drains gracefully (default) or cancels
  /// everything, then waits for in-flight runs to stop. Idempotent.
  void shutdown(bool drain_first = true) GAPLAN_EXCLUDES(mu_);

  const ServerConfig& config() const noexcept { return cfg_; }

  /// The request's cache fingerprint as the service computes it (tests).
  static Fingerprint fingerprint(const PlanRequest& req);

  // --- Distribution-layer cache plumbing -------------------------------
  // Direct plan-cache access for the dist tier: cache_probe answers come
  // from cache_lookup; a cache_put gossip frame from a peer lands via
  // cache_insert; cache_del via cache_remove. None of these fire the cache
  // listener (gossip must not re-gossip), and none touch mu_ — the cache has
  // its own shard locks.

  std::optional<CachedPlan> cache_lookup(const Fingerprint& fp)
      GAPLAN_EXCLUDES(mu_);
  void cache_insert(const Fingerprint& fp, CachedPlan plan)
      GAPLAN_EXCLUDES(mu_);
  bool cache_remove(const Fingerprint& fp) GAPLAN_EXCLUDES(mu_);

  /// Called after a freshly planned (not cached, not gossiped) result is
  /// inserted — once with kInsert, then once per kEvict it displaced. Fired
  /// with no service locks held, from the planning worker thread; the
  /// listener may block briefly but must not call back into this service's
  /// submit/wait path.
  using CacheListener = std::function<void(const CacheEvent&)>;
  void set_cache_listener(CacheListener listener) GAPLAN_EXCLUDES(mu_);

 private:
  /// Queue key: higher priority first, then FIFO by admission (or re-queue)
  /// sequence.
  struct QKey {
    int priority;
    std::uint64_t seq;
    std::uint64_t id;
    bool operator<(const QKey& o) const noexcept {
      if (priority != o.priority) return priority > o.priority;
      return seq < o.seq;
    }
  };

  void worker_main() GAPLAN_EXCLUDES(mu_);
  void ensure_workers_locked() GAPLAN_REQUIRES(mu_);
  void finish_locked(detail::Record& r, RequestState state,
                     std::string detail_text) GAPLAN_REQUIRES(mu_);
  RequestStatus status_locked(const detail::Record& r) const
      GAPLAN_REQUIRES(mu_);

  ServerConfig cfg_;
  PlanCache cache_;
  std::unique_ptr<util::ThreadPool> eval_pool_;  ///< shared GA-eval budget

  /// The service state lock. Never held across a cache probe, a GA slice,
  /// or a pool submit's queue wait (pool.queue ranks above it, so holding
  /// mu_ over try_submit is ordering-legal but still kept brief).
  mutable util::Mutex mu_{"serve.service", util::lock_order::kRankServeService};
  util::CondVar cv_done_;  ///< terminal transitions + quiesce
  /// Record *slots* are guarded by mu_; the pointed-to Record's fields are
  /// owned by the planning worker while state == kPlanning (see detail::
  /// Record), which is why this is not PT_GUARDED_BY.
  std::unordered_map<std::uint64_t, std::unique_ptr<detail::Record>> records_
      GAPLAN_GUARDED_BY(mu_);
  std::set<QKey> queue_ GAPLAN_GUARDED_BY(mu_);
  CacheListener cache_listener_ GAPLAN_GUARDED_BY(mu_);
  std::uint64_t next_id_ GAPLAN_GUARDED_BY(mu_) = 1;
  std::uint64_t next_seq_ GAPLAN_GUARDED_BY(mu_) = 1;
  std::size_t active_workers_ GAPLAN_GUARDED_BY(mu_) = 0;
  std::size_t planning_ GAPLAN_GUARDED_BY(mu_) = 0;
  bool stopping_ GAPLAN_GUARDED_BY(mu_) = false;

  // Lifetime tallies (under mu_), mirrored into server.* counters.
  std::uint64_t submitted_ GAPLAN_GUARDED_BY(mu_) = 0;
  std::uint64_t admitted_ GAPLAN_GUARDED_BY(mu_) = 0;
  std::uint64_t rejected_ GAPLAN_GUARDED_BY(mu_) = 0;
  std::uint64_t completed_ GAPLAN_GUARDED_BY(mu_) = 0;
  std::uint64_t failed_ GAPLAN_GUARDED_BY(mu_) = 0;
  std::uint64_t timed_out_ GAPLAN_GUARDED_BY(mu_) = 0;
  std::uint64_t cancelled_ GAPLAN_GUARDED_BY(mu_) = 0;
  std::uint64_t yields_ GAPLAN_GUARDED_BY(mu_) = 0;

  /// Declared last: destroyed first, so worker loops join while every other
  /// member is still alive.
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace gaplan::serve
