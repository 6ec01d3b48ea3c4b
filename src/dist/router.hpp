// RouterService: the client-facing front door of a distributed gaplan
// deployment (gaplan-router).
//
// Speaks the same NDJSON protocol as gaplan_serve on the client side and
// fans out to gaplan_worker backends over a BackendPool:
//
//  * Placement — every submit is fingerprinted exactly as PlanService would
//    (server/fingerprint.hpp) and consistently hashed onto the worker ring,
//    so identical requests always land on the same worker and its plan
//    cache concentrates instead of diluting N ways.
//  * Distributed cache tier — before dispatching, the router cache_probes
//    the primary (and, with probe-fanout on, every other up worker). A hit
//    anywhere answers the client without re-planning; a fanout hit is
//    repaired onto the primary via cache_put so the next probe hits first.
//  * Transparent retry — submits are idempotent (planning is deterministic
//    in problem+config+seed), so when a worker dies the router replays the
//    stored submit line on the next up backend of the key's chain and
//    re-forwards the pending wait/poll, bounded by retry-limit. The client
//    keeps its router-side id throughout; responses are re-rendered with the
//    id remapped.
//  * Cross-process islands — a submit carrying "islands":K runs one GA as K
//    islands sharded across every up worker (weights-proportional), driving
//    the ishard/istep/icollect/imigrate/iadvance/ifinish worker verbs in
//    interval lockstep and merging deterministically (dist/island_shard.hpp
//    documents why the merge is bit-exact for a fixed worker count). A
//    worker death mid-run aborts and restarts the run on the survivors,
//    bounded by retry-limit.
//
// handle_line() is safe from any connection thread. The router's own lock
// ("dist.router", rank below the backend table's) only guards the request
// map and tallies — it is never held across socket IO.
#pragma once

#include "dist/net.hpp"

#ifdef GAPLAN_TCP

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "dist/backend.hpp"
#include "dist/dist_config.hpp"
#include "obs/trace.hpp"
#include "server/plan_cache.hpp"
#include "server/plan_service.hpp"
#include "server/wire.hpp"
#include "util/lock_order.hpp"
#include "util/sync.hpp"

namespace gaplan::dist {

class RouterService {
 public:
  /// `cfg` must already have passed analysis::enforce_router_config (the
  /// binary lints before constructing). start() brings the backend pool up.
  explicit RouterService(RouterConfig cfg);
  ~RouterService();
  RouterService(const RouterService&) = delete;
  RouterService& operator=(const RouterService&) = delete;

  void start();
  void stop();

  /// One protocol frame in, one response frame out (both sans newline).
  /// Verbs: submit, wait, poll, cancel, stats, backends, route, ping,
  /// shutdown.
  std::string handle_line(const std::string& line, bool& close_after);

  /// True once a shutdown verb has been accepted (the front end exits).
  bool shutdown_requested() const GAPLAN_EXCLUDES(mu_);

  BackendPool& pool() noexcept { return pool_; }

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t cache_hits_primary = 0;
    std::uint64_t cache_hits_fanout = 0;
    std::uint64_t repairs = 0;
    std::uint64_t retries = 0;
    std::uint64_t island_runs = 0;
    std::uint64_t island_restarts = 0;
  };
  Stats stats() const GAPLAN_EXCLUDES(mu_);

 private:
  /// Router-side view of one dispatched (or locally answered) request.
  struct Request {
    std::string backend;       ///< current owner ("" when answered locally)
    std::uint64_t remote_id = 0;
    std::string submit_line;   ///< idempotent replay payload
    serve::Fingerprint fp;
    std::uint64_t key = 0;     ///< ring key
    int retries = 0;
    bool local = false;        ///< answered from the distributed cache
    serve::CachedPlan local_plan;
  };

  std::string route_submit(const serve::WireMessage& msg);
  std::string handle_forward(const serve::WireMessage& msg);
  std::string handle_route(const serve::WireMessage& msg);
  std::string render_router_stats() const GAPLAN_EXCLUDES(mu_);
  std::string render_backends() const;

  /// Probes the distributed cache tier for `fp` along `chain`. On a hit,
  /// fills `plan` (and repairs a fanout hit onto the primary) and returns
  /// true.
  bool probe_cache(const serve::Fingerprint& fp,
                   const std::vector<std::string>& chain,
                   serve::CachedPlan& plan) GAPLAN_EXCLUDES(mu_);

  /// Replays the stored submit line for `id` on the next up backend of its
  /// chain. False when the retry budget is spent or no backend is up.
  bool resubmit(std::uint64_t id, std::string& error) GAPLAN_EXCLUDES(mu_);

  /// The blocking cross-process island run (submit with "islands":K).
  std::string handle_island(serve::PlanRequest req,
                            const serve::WireMessage& msg);

  RouterConfig cfg_;
  BackendPool pool_;
  mutable util::Mutex mu_{"dist.router", util::lock_order::kRankDistRouter};
  std::unordered_map<std::uint64_t, Request> requests_ GAPLAN_GUARDED_BY(mu_);
  std::uint64_t next_id_ GAPLAN_GUARDED_BY(mu_) = 1;
  std::uint64_t next_shard_token_ GAPLAN_GUARDED_BY(mu_) = 1;
  bool shutdown_requested_ GAPLAN_GUARDED_BY(mu_) = false;
  Stats stats_ GAPLAN_GUARDED_BY(mu_);
};

}  // namespace gaplan::dist

#endif  // GAPLAN_TCP
