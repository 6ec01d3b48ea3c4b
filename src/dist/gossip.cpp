#include "dist/gossip.hpp"

#ifdef GAPLAN_TCP

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gaplan::dist {

GossipSender::GossipSender(std::vector<BackendSpec> peers) {
  peers_.reserve(peers.size());
  for (BackendSpec& spec : peers) {
    Peer p;
    p.spec = std::move(spec);
    peers_.push_back(std::move(p));
  }
}

GossipSender::~GossipSender() { stop(); }

void GossipSender::start() {
  {
    util::MutexLock lock(mu_);
    if (started_ || stopping_) return;
    started_ = true;
  }
  thread_ = std::thread([this] { sender_main(); });
}

void GossipSender::stop() {
  {
    util::MutexLock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
  for (Peer& p : peers_) p.conn.close();
}

void GossipSender::enqueue(std::string line) {
  if (peers_.empty()) return;
  static obs::Counter& c_dropped = obs::counter("dist.gossip_dropped");
  util::MutexLock lock(mu_);
  if (stopping_) return;
  ++enqueued_;
  if (queue_.size() >= kMaxGossipQueue) {
    queue_.pop_front();
    ++dropped_;
    c_dropped.inc();
  }
  queue_.push_back(std::move(line));
  cv_.notify_all();
}

void GossipSender::flush() {
  util::MutexLock lock(mu_);
  while (!stopping_ && (!queue_.empty() || in_flight_)) cv_.wait(lock);
}

GossipSender::Stats GossipSender::stats() const {
  util::MutexLock lock(mu_);
  Stats s;
  s.enqueued = enqueued_;
  s.dropped = dropped_;
  s.sent = sent_;
  s.failures = failures_;
  s.peers = peers_.size();
  return s;
}

bool GossipSender::deliver(Peer& peer, const std::string& line) {
  if (!peer.conn.connected()) {
    if (obs::monotonic_ms() < peer.next_attempt_ms) return false;
    if (!peer.conn.connect(peer.spec.host, peer.spec.port)) {
      peer.backoff_ms =
          peer.backoff_ms <= 0 ? 100 : std::min<std::int64_t>(
                                           peer.backoff_ms * 2, 5000);
      peer.next_attempt_ms =
          obs::monotonic_ms() + static_cast<double>(peer.backoff_ms);
      return false;
    }
    peer.backoff_ms = 0;
  }
  std::string resp;
  if (!peer.conn.roundtrip(line, resp)) {
    peer.backoff_ms = 100;
    peer.next_attempt_ms =
        obs::monotonic_ms() + static_cast<double>(peer.backoff_ms);
    return false;
  }
  return true;
}

void GossipSender::sender_main() {
  static obs::Counter& c_sent = obs::counter("dist.gossip_sent");
  static obs::Counter& c_failures = obs::counter("dist.gossip_failures");
  for (;;) {
    std::string line;
    {
      util::MutexLock lock(mu_);
      while (queue_.empty() && !stopping_) cv_.wait(lock);
      if (queue_.empty()) return;  // stopping with nothing left
      line = std::move(queue_.front());
      queue_.pop_front();
      in_flight_ = true;
    }
    std::uint64_t ok = 0, bad = 0;
    for (Peer& p : peers_) {
      if (deliver(p, line)) {
        ++ok;
      } else {
        ++bad;
      }
    }
    if (ok) c_sent.inc(ok);
    if (bad) c_failures.inc(bad);
    util::MutexLock lock(mu_);
    sent_ += ok;
    failures_ += bad;
    in_flight_ = false;
    cv_.notify_all();
    if (stopping_ && queue_.empty()) return;
  }
}

}  // namespace gaplan::dist

#endif  // GAPLAN_TCP
