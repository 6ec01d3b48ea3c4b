// GossipSender: best-effort asynchronous fan-out of cache events to peer
// workers.
//
// A worker that finishes a plan (or evicts one) enqueues a pre-rendered wire
// frame (cache_put / cache_del); a single background thread replays each
// frame to every peer over a persistent Conn. Delivery is best-effort by
// design — the queue is bounded (oldest frames dropped under pressure,
// counted in dist.gossip_dropped), a dead peer just costs a reconnect
// backoff, and nothing ever blocks the planning path. Correctness never
// depends on gossip: the router's cache_probe fan-out finds a plan wherever
// it landed; gossip only raises the chance the *primary* already has it.
//
// Locking: one mutex ("dist.gossip") guards the queue and counters. Socket
// IO happens only on the sender thread, outside the lock.
#pragma once

#include "dist/net.hpp"

#ifdef GAPLAN_TCP

#include <cstdint>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "dist/dist_config.hpp"
#include "util/lock_order.hpp"
#include "util/sync.hpp"

namespace gaplan::dist {

/// Frames queued beyond this bound evict the oldest queued frame.
inline constexpr std::size_t kMaxGossipQueue = 1024;

class GossipSender {
 public:
  /// `peers` are the other workers' listen addresses; an empty list makes
  /// every enqueue a no-op.
  explicit GossipSender(std::vector<BackendSpec> peers);
  ~GossipSender();
  GossipSender(const GossipSender&) = delete;
  GossipSender& operator=(const GossipSender&) = delete;

  void start() GAPLAN_EXCLUDES(mu_);
  void stop() GAPLAN_EXCLUDES(mu_);

  /// Queues one wire frame for delivery to every peer. Never blocks; drops
  /// the oldest queued frame when the queue is full.
  void enqueue(std::string line) GAPLAN_EXCLUDES(mu_);

  /// Blocks until every frame enqueued so far has been attempted against
  /// every peer (delivered or counted as a failure). Test/bench hook; the
  /// serving path never calls it.
  void flush() GAPLAN_EXCLUDES(mu_);

  struct Stats {
    std::uint64_t enqueued = 0;
    std::uint64_t dropped = 0;
    std::uint64_t sent = 0;      ///< per-peer successful deliveries
    std::uint64_t failures = 0;  ///< per-peer failed attempts
    std::size_t peers = 0;
  };
  Stats stats() const GAPLAN_EXCLUDES(mu_);

 private:
  struct Peer {
    BackendSpec spec;
    Conn conn;
    std::int64_t backoff_ms = 0;
    double next_attempt_ms = 0.0;
  };

  void sender_main() GAPLAN_EXCLUDES(mu_);
  /// Attempts one frame against one peer; true on a delivered roundtrip.
  bool deliver(Peer& peer, const std::string& line);

  std::vector<Peer> peers_;  ///< sender-thread-only after start()
  mutable util::Mutex mu_{"dist.gossip", util::lock_order::kRankDistGossip};
  util::CondVar cv_;
  std::deque<std::string> queue_ GAPLAN_GUARDED_BY(mu_);
  bool in_flight_ GAPLAN_GUARDED_BY(mu_) = false;
  bool stopping_ GAPLAN_GUARDED_BY(mu_) = false;
  bool started_ GAPLAN_GUARDED_BY(mu_) = false;
  std::uint64_t enqueued_ GAPLAN_GUARDED_BY(mu_) = 0;
  std::uint64_t dropped_ GAPLAN_GUARDED_BY(mu_) = 0;
  std::uint64_t sent_ GAPLAN_GUARDED_BY(mu_) = 0;
  std::uint64_t failures_ GAPLAN_GUARDED_BY(mu_) = 0;
  std::thread thread_;
};

}  // namespace gaplan::dist

#endif  // GAPLAN_TCP
