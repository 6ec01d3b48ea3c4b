// The localhost TCP line server of every gaplan process: gaplan_serve
// --tcp, gaplan_worker and gaplan_router are each this plus a handler.
//
// It speaks the NDJSON wire framing (one newline-terminated frame of at most
// kMaxWireFrameBytes per request, one response line back) with one thread
// per connection. A connection thread is joined as soon as it finishes, by
// the next connection thread to finish or by stop(), so a process serving
// short connections forever holds at most one finished thread.
//
// GAPLAN_TCP marks the platforms that have it (POSIX sockets); every TCP
// consumer, here and in dist/, is compiled under it.
#pragma once

#ifndef _WIN32
#define GAPLAN_TCP 1
#endif

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include "util/lock_order.hpp"
#include "util/sync.hpp"

namespace gaplan::serve {

/// Parses a --tcp value: a decimal integer in [0, 65535]. False (and `port`
/// untouched) on anything else.
bool parse_tcp_port(const char* text, int& port);

#ifdef GAPLAN_TCP

/// One call per received line; the returned frame (without newline) is
/// written back. Set `close_after` to end the connection after the response
/// (shutdown verbs). Called from many connection threads at once.
using LineHandler =
    std::function<std::string(const std::string& line, bool& close_after)>;

class TcpLineServer {
 public:
  explicit TcpLineServer(LineHandler handler);
  ~TcpLineServer();
  TcpLineServer(const TcpLineServer&) = delete;
  TcpLineServer& operator=(const TcpLineServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 picks a free port) and starts accepting.
  bool start(int port);
  /// The bound port (after a successful start).
  int port() const noexcept { return port_; }
  /// Stops accepting, unblocks every connection and joins its thread.
  /// Idempotent; call it from one thread.
  void stop();

  /// Connection threads still serving a client.
  std::size_t connections() const GAPLAN_EXCLUDES(mu_);

 private:
  void accept_loop(int listen_fd);
  void serve_client(int fd);

  LineHandler handler_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;
  mutable util::Mutex mu_{"serve.clients",
                          util::lock_order::kRankServeClients};
  util::CondVar idle_;  ///< signalled when `serving_` empties
  struct Connection {
    std::thread thread;
    int fd = -1;
  };
  /// The connections still being served, by their thread's id.
  std::map<std::thread::id, Connection> serving_ GAPLAN_GUARDED_BY(mu_);
  /// The last connection thread to finish; the next one to finish (or
  /// stop()) joins it.
  std::thread finished_ GAPLAN_GUARDED_BY(mu_);
};

#endif  // GAPLAN_TCP

}  // namespace gaplan::serve
