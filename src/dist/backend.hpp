// BackendPool: the router's live view of its workers.
//
// Owns one persistent Conn per configured backend plus the consistent-hash
// ring over all of them. A background heartbeat thread pings every backend
// each heartbeat_interval_ms; a failed RPC or ping marks the backend down
// and starts exponential-backoff reconnects (reconnect_backoff_ms doubling
// to reconnect_backoff_max_ms); a successful reconnect ping marks it back
// up. The ring never changes — route() filters the key's successor chain to
// currently-up backends, so a recovered worker gets its original key range
// back (warm cache intact) instead of a reshuffled one.
//
// Locking: the backend table is guarded by one mutex ("dist.backends").
// Socket IO never happens under it — rpc() checks the connection out (a
// per-backend busy flag, waited on via condvar), does the roundtrip
// unlocked, then checks it back in. The heartbeat thread uses the same
// checkout protocol, so it can never race a request on the same socket.
#pragma once

#include "dist/net.hpp"

#ifdef GAPLAN_TCP

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "dist/dist_config.hpp"
#include "dist/hash_ring.hpp"
#include "server/wire.hpp"
#include "util/lock_order.hpp"
#include "util/sync.hpp"

namespace gaplan::dist {

class BackendPool {
 public:
  /// Builds the ring from cfg.backends (weights scale vnode counts). Call
  /// start() to connect and begin heartbeating.
  explicit BackendPool(RouterConfig cfg);
  ~BackendPool();
  BackendPool(const BackendPool&) = delete;
  BackendPool& operator=(const BackendPool&) = delete;

  /// Connects every backend (failures just start it down) and launches the
  /// heartbeat thread.
  void start() GAPLAN_EXCLUDES(mu_);
  void stop() GAPLAN_EXCLUDES(mu_);

  /// The first `n` *up* backends on `key`'s ring chain (primary first).
  std::vector<std::string> route(std::uint64_t key, std::size_t n) const
      GAPLAN_EXCLUDES(mu_);
  /// Every currently-up backend id, in config order.
  std::vector<std::string> up_backends() const GAPLAN_EXCLUDES(mu_);
  bool is_up(const std::string& id) const GAPLAN_EXCLUDES(mu_);

  /// One request/response roundtrip on `id`'s persistent connection. On any
  /// transport or parse failure the backend is marked down (reconnect
  /// backoff begins) and false is returned with `error` filled. Safe from
  /// any thread; concurrent calls to the same backend serialize on its
  /// connection.
  bool rpc(const std::string& id, const std::string& line,
           serve::WireMessage& response, std::string& error)
      GAPLAN_EXCLUDES(mu_);

  struct BackendState {
    std::string id;
    double weight = 1.0;
    bool up = false;
    std::uint64_t rpcs = 0;
    std::uint64_t failures = 0;
    std::uint64_t mark_downs = 0;
    std::int64_t backoff_ms = 0;  ///< current reconnect backoff (down only)
  };
  std::vector<BackendState> snapshot() const GAPLAN_EXCLUDES(mu_);

  const RouterConfig& config() const noexcept { return cfg_; }

 private:
  struct Backend {
    BackendSpec spec;
    Conn conn;
    bool up = false;
    bool busy = false;  ///< conn checked out for IO
    std::int64_t backoff_ms = 0;
    double next_attempt_ms = 0.0;  ///< monotonic deadline for next reconnect
    std::uint64_t rpcs = 0;
    std::uint64_t failures = 0;
    std::uint64_t mark_downs = 0;
  };

  Backend* find_locked(const std::string& id) GAPLAN_REQUIRES(mu_);
  /// Marks `b` down (counting the transition) and backs it off.
  void mark_down_locked(Backend& b) GAPLAN_REQUIRES(mu_);
  /// Closes `b`'s connection and takes one step up the reconnect backoff
  /// ladder (reconnect_backoff_ms, doubling to reconnect_backoff_max_ms).
  void back_off_locked(Backend& b) GAPLAN_REQUIRES(mu_);
  /// Recounts the up backends into the dist.backends_up gauge.
  void publish_up_count_locked() GAPLAN_REQUIRES(mu_);
  void heartbeat_main() GAPLAN_EXCLUDES(mu_);
  /// Pings backends_[index] (checkout protocol; reconnects when needed).
  /// Returns whether the backend answered.
  bool probe(std::size_t index) GAPLAN_EXCLUDES(mu_);

  RouterConfig cfg_;
  HashRing ring_;
  mutable util::Mutex mu_{"dist.backends",
                          util::lock_order::kRankDistBackends};
  util::CondVar cv_;  ///< busy-flag handoffs + heartbeat shutdown
  std::vector<Backend> backends_ GAPLAN_GUARDED_BY(mu_);
  bool stopping_ GAPLAN_GUARDED_BY(mu_) = false;
  bool started_ GAPLAN_GUARDED_BY(mu_) = false;
  std::thread heartbeat_;
};

}  // namespace gaplan::dist

#endif  // GAPLAN_TCP
