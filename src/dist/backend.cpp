#include "dist/backend.hpp"

#ifdef GAPLAN_TCP

#include <algorithm>
#include <chrono>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gaplan::dist {

namespace {

obs::Counter& c_rpcs() { return obs::counter("dist.rpcs"); }
obs::Counter& c_failures() { return obs::counter("dist.rpc_failures"); }
obs::Counter& c_mark_downs() { return obs::counter("dist.mark_downs"); }
obs::Counter& c_mark_ups() { return obs::counter("dist.mark_ups"); }
obs::Gauge& g_up() { return obs::gauge("dist.backends_up"); }

}  // namespace

BackendPool::BackendPool(RouterConfig cfg)
    : cfg_(std::move(cfg)),
      ring_(static_cast<std::size_t>(std::max<std::int64_t>(
          1, cfg_.vnodes_per_unit))) {
  util::MutexLock lock(mu_);
  backends_.reserve(cfg_.backends.size());
  for (const BackendSpec& spec : cfg_.backends) {
    ring_.add(spec.id(), spec.weight);
    Backend b;
    b.spec = spec;
    backends_.push_back(std::move(b));
  }
}

BackendPool::~BackendPool() { stop(); }

void BackendPool::start() {
  std::size_t count = 0;
  {
    util::MutexLock lock(mu_);
    if (started_ || stopping_) return;
    started_ = true;
    count = backends_.size();
  }
  for (std::size_t i = 0; i < count; ++i) probe(i);
  heartbeat_ = std::thread([this] { heartbeat_main(); });
}

void BackendPool::stop() {
  {
    util::MutexLock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    cv_.notify_all();
  }
  if (heartbeat_.joinable()) heartbeat_.join();
  util::MutexLock lock(mu_);
  for (Backend& b : backends_) b.conn.close();
}

BackendPool::Backend* BackendPool::find_locked(const std::string& id) {
  for (Backend& b : backends_) {
    if (b.spec.id() == id) return &b;
  }
  return nullptr;
}

void BackendPool::publish_up_count_locked() {
  std::int64_t up_now = 0;
  for (const Backend& x : backends_) up_now += x.up ? 1 : 0;
  g_up().set(up_now);
}

void BackendPool::back_off_locked(Backend& b) {
  b.conn.close();
  b.backoff_ms = b.backoff_ms <= 0
                     ? cfg_.reconnect_backoff_ms
                     : std::min(b.backoff_ms * 2, cfg_.reconnect_backoff_max_ms);
  b.next_attempt_ms =
      obs::monotonic_ms() + static_cast<double>(b.backoff_ms);
}

void BackendPool::mark_down_locked(Backend& b) {
  if (b.up) {
    b.up = false;
    ++b.mark_downs;
    c_mark_downs().inc();
    publish_up_count_locked();
  }
  back_off_locked(b);
}

bool BackendPool::probe(std::size_t index) {
  std::string host;
  int port = 0;
  Conn conn;
  bool was_up = false;
  {
    util::MutexLock lock(mu_);
    Backend& b = backends_[index];
    while (b.busy && !stopping_) cv_.wait(lock);
    if (stopping_) return false;
    b.busy = true;
    conn = std::move(b.conn);
    host = b.spec.host;
    port = b.spec.port;
    was_up = b.up;
  }
  bool ok = conn.connected() || conn.connect(host, port);
  if (ok) {
    std::string raw;
    ok = conn.roundtrip("{\"cmd\":\"ping\"}", raw);
    if (ok) {
      serve::WireMessage pong;
      std::string err;
      ok = serve::parse_wire_message(raw, pong, err) &&
           pong.get_bool("ok").value_or(false);
    }
  }
  util::MutexLock lock(mu_);
  Backend& b = backends_[index];
  b.conn = std::move(conn);
  b.busy = false;
  if (ok) {
    b.backoff_ms = 0;
    if (!b.up) {
      b.up = true;
      c_mark_ups().inc();
      publish_up_count_locked();
    }
  } else if (was_up) {
    mark_down_locked(b);
  } else {
    back_off_locked(b);  // still down: advance the ladder toward its cap
  }
  cv_.notify_all();
  return ok;
}

void BackendPool::heartbeat_main() {
  for (;;) {
    {
      util::MutexLock lock(mu_);
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(cfg_.heartbeat_interval_ms);
      while (!stopping_) {
        if (!cv_.wait_until(lock, deadline)) break;  // interval elapsed
      }
      if (stopping_) return;
    }
    std::vector<std::size_t> due;
    {
      util::MutexLock lock(mu_);
      const double now = obs::monotonic_ms();
      for (std::size_t i = 0; i < backends_.size(); ++i) {
        const Backend& b = backends_[i];
        if (b.up || now >= b.next_attempt_ms) due.push_back(i);
      }
    }
    for (const std::size_t i : due) probe(i);
  }
}

std::vector<std::string> BackendPool::route(std::uint64_t key,
                                            std::size_t n) const {
  // The ring is immutable after construction; only the up flags need mu_.
  const std::vector<std::string> chain = ring_.chain(key, ring_.size());
  std::vector<std::string> out;
  util::MutexLock lock(mu_);
  for (const std::string& id : chain) {
    if (out.size() >= n) break;
    for (const Backend& b : backends_) {
      if (b.up && b.spec.id() == id) {
        out.push_back(id);
        break;
      }
    }
  }
  return out;
}

std::vector<std::string> BackendPool::up_backends() const {
  std::vector<std::string> out;
  util::MutexLock lock(mu_);
  for (const Backend& b : backends_) {
    if (b.up) out.push_back(b.spec.id());
  }
  return out;
}

bool BackendPool::is_up(const std::string& id) const {
  util::MutexLock lock(mu_);
  for (const Backend& b : backends_) {
    if (b.spec.id() == id) return b.up;
  }
  return false;
}

bool BackendPool::rpc(const std::string& id, const std::string& line,
                      serve::WireMessage& response, std::string& error) {
  Conn conn;
  std::size_t index = 0;
  {
    util::MutexLock lock(mu_);
    Backend* b = find_locked(id);
    if (!b) {
      error = "unknown backend '" + id + "'";
      return false;
    }
    index = static_cast<std::size_t>(b - backends_.data());
    while (b->busy && !stopping_) cv_.wait(lock);
    if (stopping_) {
      error = "pool stopping";
      return false;
    }
    if (!b->up) {
      error = "backend '" + id + "' is down";
      return false;
    }
    b->busy = true;
    ++b->rpcs;
    conn = std::move(b->conn);
  }
  c_rpcs().inc();

  std::string raw;
  bool ok = conn.roundtrip(line, raw);
  serve::WireMessage msg;
  if (!ok) {
    error = "transport failure to '" + id + "'";
  } else {
    std::string perr;
    if (!serve::parse_wire_message(raw, msg, perr)) {
      ok = false;
      error = "bad response from '" + id + "': " + perr;
    }
  }

  util::MutexLock lock(mu_);
  Backend& b = backends_[index];
  b.conn = std::move(conn);
  b.busy = false;
  if (ok) {
    response = std::move(msg);
  } else {
    ++b.failures;
    c_failures().inc();
    mark_down_locked(b);
  }
  cv_.notify_all();
  return ok;
}

std::vector<BackendPool::BackendState> BackendPool::snapshot() const {
  std::vector<BackendState> out;
  util::MutexLock lock(mu_);
  out.reserve(backends_.size());
  for (const Backend& b : backends_) {
    BackendState s;
    s.id = b.spec.id();
    s.weight = b.spec.weight;
    s.up = b.up;
    s.rpcs = b.rpcs;
    s.failures = b.failures;
    s.mark_downs = b.mark_downs;
    s.backoff_ms = b.up ? 0 : b.backoff_ms;
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace gaplan::dist

#endif  // GAPLAN_TCP
