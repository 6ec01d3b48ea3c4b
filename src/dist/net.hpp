// Blocking TCP client connection of the distribution layer (POSIX only;
// GAPLAN_TCP from server/line_server.hpp gates every consumer).
//
// Conn speaks the NDJSON wire framing (one newline-terminated frame, at most
// serve::kMaxWireFrameBytes): connect, send a line, read the reply line.
// Used by the router's backend pool, the gossip sender, and the bench/e2e
// drivers. Not thread-safe; callers serialize access (the BackendPool checks
// a connection out under its table lock and does the socket IO outside it).
// The server side is serve::TcpLineServer.
#pragma once

#include "server/line_server.hpp"

#ifdef GAPLAN_TCP

#include <string>
#include <utility>

namespace gaplan::dist {

class Conn {
 public:
  Conn() = default;
  ~Conn() { close(); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  Conn(Conn&& o) noexcept : fd_(o.fd_), buf_(std::move(o.buf_)) { o.fd_ = -1; }
  Conn& operator=(Conn&& o) noexcept;

  /// Blocking connect; false (and closed state) on failure.
  bool connect(const std::string& host, int port);
  bool connected() const noexcept { return fd_ >= 0; }
  void close();

  /// Writes `line` plus a trailing newline. False on any short write.
  bool send_line(const std::string& line);

  /// Reads the next newline-terminated frame into `out` (newline stripped).
  /// False on EOF, error, or a frame past kMaxWireFrameBytes (the connection
  /// is closed in every failure case, so a poisoned stream cannot desync).
  bool recv_line(std::string& out);

  /// send_line + recv_line.
  bool roundtrip(const std::string& line, std::string& response);

 private:
  int fd_ = -1;
  std::string buf_;  ///< bytes past the last returned frame
};

}  // namespace gaplan::dist

#endif  // GAPLAN_TCP
