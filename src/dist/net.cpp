#include "dist/net.hpp"

#ifdef GAPLAN_TCP

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "server/wire.hpp"

namespace gaplan::dist {

Conn& Conn::operator=(Conn&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    buf_ = std::move(o.buf_);
    o.fd_ = -1;
  }
  return *this;
}

bool Conn::connect(const std::string& host, int port) {
  close();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return false;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  buf_.clear();
  return true;
}

void Conn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buf_.clear();
}

bool Conn::send_line(const std::string& line) {
  if (fd_ < 0) return false;
  std::string framed = line;
  framed += '\n';
  std::size_t sent = 0;
  while (sent < framed.size()) {
    // MSG_NOSIGNAL: a peer that died mid-write surfaces as EPIPE, not a
    // process-killing SIGPIPE (the router must survive worker crashes).
    const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      close();
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool Conn::recv_line(std::string& out) {
  if (fd_ < 0) return false;
  for (;;) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      out.assign(buf_, 0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    if (buf_.size() > serve::kMaxWireFrameBytes) {
      close();
      return false;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      close();
      return false;
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool Conn::roundtrip(const std::string& line, std::string& response) {
  return send_line(line) && recv_line(response);
}

}  // namespace gaplan::dist

#endif  // GAPLAN_TCP
