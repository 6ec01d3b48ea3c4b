#include "server/line_server.hpp"

#include <charconv>
#include <cstring>
#include <system_error>
#include <utility>

#ifdef GAPLAN_TCP
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "server/protocol.hpp"
#include "server/wire.hpp"
#endif

namespace gaplan::serve {

bool parse_tcp_port(const char* text, int& port) {
  const char* end = text + std::strlen(text);
  int value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end || ptr == text || value < 0 ||
      value > 65535) {
    return false;
  }
  port = value;
  return true;
}

#ifdef GAPLAN_TCP

namespace {

/// Writes all of `data`. MSG_NOSIGNAL turns a peer that reset mid-write
/// into EPIPE instead of a process-killing SIGPIPE.
bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

TcpLineServer::TcpLineServer(LineHandler handler)
    : handler_(std::move(handler)) {}

TcpLineServer::~TcpLineServer() { stop(); }

bool TcpLineServer::start(int port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // localhost only
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listen_fd_, 64) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = static_cast<int>(ntohs(addr.sin_port));
  }
  // The loop gets the descriptor by value: stop() resets listen_fd_.
  accept_thread_ = std::thread([this, fd = listen_fd_] { accept_loop(fd); });
  return true;
}

void TcpLineServer::stop() {
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::thread last;
  {
    util::MutexLock lock(mu_);
    // Unblock connection threads parked in recv(); they close their own fd.
    for (const auto& [id, conn] : serving_) ::shutdown(conn.fd, SHUT_RDWR);
    while (!serving_.empty()) idle_.wait(lock);
    last = std::move(finished_);
  }
  // Joining the last thread to finish joins them all: each joined the one
  // that finished before it.
  if (last.joinable()) last.join();
}

std::size_t TcpLineServer::connections() const {
  util::MutexLock lock(mu_);
  return serving_.size();
}

void TcpLineServer::accept_loop(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) break;  // listener closed (stop) or hard error
    // Registered under the lock the new thread takes on exit, so it always
    // finds its own entry.
    util::MutexLock lock(mu_);
    try {
      std::thread t([this, fd] { serve_client(fd); });
      const std::thread::id id = t.get_id();
      serving_.emplace(id, Connection{std::move(t), fd});
    } catch (const std::system_error&) {
      ::close(fd);  // no thread to serve it: refuse the connection
    }
  }
}

void TcpLineServer::serve_client(int fd) {
  std::string buf;
  char chunk[4096];
  bool open = true;
  while (open) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t pos = 0, nl = 0;
    while (open && (nl = buf.find('\n', pos)) != std::string::npos) {
      const std::string line = buf.substr(pos, nl - pos);
      pos = nl + 1;
      if (line.empty()) continue;
      bool close_after = false;
      std::string resp = handler_(line, close_after);
      resp += '\n';
      open = send_all(fd, resp) && !close_after;
    }
    buf.erase(0, pos);
    if (open && buf.size() > kMaxWireFrameBytes) {
      // An unterminated line past the frame cap can only produce a protocol
      // error; answer once and drop the client instead of buffering it.
      send_all(fd, error_response("frame exceeds size limit") + '\n');
      open = false;
    }
  }
  std::thread previous;
  {
    util::MutexLock lock(mu_);
    ::close(fd);  // under the lock, so stop() never shuts down a reused fd
    auto self = serving_.extract(std::this_thread::get_id());
    previous = std::exchange(finished_, std::move(self.mapped().thread));
    if (serving_.empty()) idle_.notify_all();
  }
  if (previous.joinable()) previous.join();
}

#endif  // GAPLAN_TCP

}  // namespace gaplan::serve
