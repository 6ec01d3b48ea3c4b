// Debug lock-order registry: the runtime half of the concurrency analysis
// layer (sync.hpp is the compile-time half).
//
// Every util::Mutex carries a name and a rank. Names identify *lock classes*
// (all PlanCache shards share "serve.cache.shard"), not instances; ranks
// place each class in the global hierarchy documented in docs/API.md. While
// the detector is enabled, each blocking acquisition is checked two ways:
//
//  * Rank check — acquiring a mutex whose rank is *below* the highest rank
//    already held inverts the hierarchy and is reported immediately, on the
//    first occurrence, whatever the other thread is doing.
//  * Acquired-before graph — each (held, acquired) pair adds an edge to a
//    process-wide graph; an edge that closes a cycle means two code paths
//    take the same locks in opposite orders, i.e. a potential deadlock that
//    TSan only finds when the orders actually interleave. The report carries
//    both witness stacks: where the opposite order was established and where
//    the violating acquisition happened.
//
// Violations go to a replaceable handler; the default prints the full report
// to stderr and aborts. The registry is process-wide and immortal, and all
// hooks are safe to call during static construction/destruction.
//
// Cost model: compiled out entirely when GAPLAN_LOCK_ORDER_CHECKS is 0
// (Release builds — sync.hpp never calls in); when compiled in, a disabled
// detector costs one relaxed atomic load per lock/unlock. Enabled, each
// acquisition captures a small raw backtrace and repeat edges are filtered
// through a per-thread cache before touching the global graph.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace gaplan::util::lock_order {

// The lock hierarchy: a thread may only block-acquire a mutex whose rank is
// >= every rank it already holds (equal ranks are allowed and disambiguated
// by the graph). Lower rank = acquired first = closer to the call sites.
// kRankDefault (0) is the outermost tier: an unranked caller-side mutex may
// wrap calls into any subsystem, but no subsystem lock may be held when one
// is acquired.
inline constexpr int kRankDefault = 0;
inline constexpr int kRankDistRouter = 6;      ///< dist::RouterService::mu_
inline constexpr int kRankDistBackends = 7;    ///< dist::BackendPool backend table
inline constexpr int kRankDistShards = 8;      ///< worker island-shard table (dist/worker_verbs)
inline constexpr int kRankDistGossip = 9;      ///< dist::GossipSender queue
inline constexpr int kRankServeService = 10;   ///< PlanService::mu_
inline constexpr int kRankPoolQueue = 20;      ///< ThreadPool::mutex_
inline constexpr int kRankCacheShard = 25;     ///< PlanCache::Shard::mu
inline constexpr int kRankServeClients = 28;   ///< serve::TcpLineServer client list
inline constexpr int kRankMetricsDumper = 30;  ///< obs::MetricsDumper::Impl::mu
inline constexpr int kRankMetrics = 40;        ///< obs::MetricsRegistry::Impl::mu
inline constexpr int kRankTrace = 50;          ///< obs trace journal sink

/// One detected ordering violation. `held` is the lock already owned,
/// `acquired` the one whose acquisition tripped the check.
struct Violation {
  std::string kind;  ///< "rank" (hierarchy inversion) or "cycle"
  std::string held_name;
  int held_rank = 0;
  std::string acquired_name;
  int acquired_rank = 0;
  /// For cycles: the existing acquired-before chain `acquired -> ... -> held`
  /// that the new edge closes, rendered as "a -> b -> c".
  std::string cycle;
  /// Witness stack of the *prior* side: for cycles, where the first edge of
  /// the opposite-order chain was recorded; for rank inversions, where the
  /// held lock was acquired.
  std::string first_stack;
  /// Witness stack of the violating acquisition itself.
  std::string second_stack;
  /// Human-readable one-paragraph rendering of all of the above.
  std::string message;
};

using Handler = std::function<void(const Violation&)>;

/// Interns `name` as a lock-class node and returns its id. Two mutexes with
/// the same name share a node (and the first registration's rank). Safe
/// pre-main; never throws on rank disagreement (first rank wins).
std::uint32_t register_node(const char* name, int rank) noexcept;

/// Runtime gate, one relaxed load. Defaults on in Debug (!NDEBUG) builds and
/// off otherwise; the GAPLAN_LOCK_ORDER environment variable (1/0) overrides
/// the default, and set_enabled() overrides both (tests force it on).
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Hooks called by util::Mutex / util::SharedMutex. on_lock runs *before*
/// the blocking acquisition so a violation is reported before the process
/// can actually deadlock. on_try_lock records ownership only: a try-lock
/// never blocks, so it cannot deadlock and adds no ordering edges.
void on_lock(std::uint32_t node, const char* name, int rank) noexcept;
void on_try_lock(std::uint32_t node, const char* name, int rank) noexcept;
void on_unlock(std::uint32_t node) noexcept;

struct Stats {
  std::uint64_t nodes = 0;         ///< registered lock classes
  std::uint64_t edges = 0;         ///< distinct acquired-before pairs seen
  std::uint64_t acquisitions = 0;  ///< tracked lock/try_lock events
  std::uint64_t violations = 0;
};

/// Zeros when GAPLAN_LOCK_ORDER_CHECKS is 0 or the detector never ran.
/// Mirrored into the lockorder.edges / lockorder.violations gauges by
/// obs::snapshot_metrics().
Stats stats() noexcept;

/// Replaces the violation handler, returning the previous one. An empty
/// handler restores the default (print to stderr + abort). The handler runs
/// with no registry-internal locks held.
Handler set_violation_handler(Handler h);

/// Clears the acquired-before graph and counters (registered nodes survive:
/// live mutexes hold their ids). Per-thread edge caches are invalidated.
/// Only meant for tests that build intentional cycles.
void reset_for_tests();

}  // namespace gaplan::util::lock_order
