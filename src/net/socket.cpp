#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>

#include "common/error.h"

namespace openei::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw IoError(what + ": " + std::strerror(errno));
}

timeval to_timeval(double seconds) {
  timeval tv;
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - std::floor(seconds)) * 1e6);
  return tv;
}

}  // namespace

FdHandle::~FdHandle() {
  if (fd_ >= 0) ::close(fd_);
}

FdHandle::FdHandle(FdHandle&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

FdHandle& FdHandle::operator=(FdHandle&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

int FdHandle::release() {
  int fd = fd_;
  fd_ = -1;
  return fd;
}

std::size_t TcpConnection::read_some(char* buffer, std::size_t max_bytes) {
  OPENEI_CHECK(fd_.valid(), "read on closed connection");
  ssize_t n = ::recv(fd_.get(), buffer, max_bytes, 0);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      throw TimeoutError("recv timed out");
    }
    throw_errno("recv failed");
  }
  return static_cast<std::size_t>(n);
}

void TcpConnection::write_all(const char* data, std::size_t size) {
  OPENEI_CHECK(fd_.valid(), "write on closed connection");
  std::size_t sent = 0;
  while (sent < size) {
    ssize_t n = ::send(fd_.get(), data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw TimeoutError("send timed out");
      }
      throw_errno("send failed");
    }
    sent += static_cast<std::size_t>(n);
  }
}

void TcpConnection::set_read_timeout(double seconds) {
  OPENEI_CHECK(fd_.valid() && seconds > 0.0, "bad read timeout");
  timeval tv = to_timeval(seconds);
  if (::setsockopt(fd_.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    throw_errno("setsockopt(SO_RCVTIMEO) failed");
  }
}

void TcpConnection::set_write_timeout(double seconds) {
  OPENEI_CHECK(fd_.valid() && seconds > 0.0, "bad write timeout");
  timeval tv = to_timeval(seconds);
  if (::setsockopt(fd_.get(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
    throw_errno("setsockopt(SO_SNDTIMEO) failed");
  }
}

void TcpConnection::set_nonblocking(bool nonblocking) {
  OPENEI_CHECK(fd_.valid(), "set_nonblocking on closed connection");
  int flags = ::fcntl(fd_.get(), F_GETFL, 0);
  if (flags < 0) throw_errno("fcntl(F_GETFL) failed");
  flags = nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd_.get(), F_SETFL, flags) < 0) {
    throw_errno("fcntl(F_SETFL) failed");
  }
}

void TcpConnection::set_nodelay(bool on) {
  OPENEI_CHECK(fd_.valid(), "set_nodelay on closed connection");
  int flag = on ? 1 : 0;
  ::setsockopt(fd_.get(), IPPROTO_TCP, TCP_NODELAY, &flag, sizeof(flag));
}

std::ptrdiff_t TcpConnection::read_nonblocking(char* buffer,
                                               std::size_t max_bytes) {
  OPENEI_CHECK(fd_.valid(), "read on closed connection");
  while (true) {
    ssize_t n = ::recv(fd_.get(), buffer, max_bytes, 0);
    if (n >= 0) return static_cast<std::ptrdiff_t>(n);
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    if (errno == EINTR) continue;
    throw_errno("recv failed");
  }
}

std::ptrdiff_t TcpConnection::write_nonblocking(const char* data,
                                                std::size_t size) {
  OPENEI_CHECK(fd_.valid(), "write on closed connection");
  while (true) {
    ssize_t n = ::send(fd_.get(), data, size, MSG_NOSIGNAL);
    if (n >= 0) return static_cast<std::ptrdiff_t>(n);
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    if (errno == EINTR) continue;
    throw_errno("send failed");
  }
}

void TcpConnection::close() { FdHandle dropped = std::move(fd_); }

void TcpConnection::reset() {
  if (!fd_.valid()) return;
  linger hard{};
  hard.l_onoff = 1;
  hard.l_linger = 0;
  ::setsockopt(fd_.get(), SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  close();
}

TcpListener::TcpListener(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket() failed");
  fd_ = FdHandle(fd);

  int yes = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &yes, sizeof(yes));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw_errno("bind() failed");
  }
  // A deep backlog: the event-loop server accepts in bursts, so connect
  // storms queue here instead of getting SYN-dropped.
  if (::listen(fd, 512) != 0) throw_errno("listen() failed");

  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw_errno("getsockname() failed");
  }
  port_ = ntohs(addr.sin_port);
}

TcpConnection TcpListener::accept_connection() {
  OPENEI_CHECK(fd_.valid(), "accept on closed listener");
  int client = ::accept(fd_.get(), nullptr, nullptr);
  if (client < 0) throw_errno("accept() failed (listener shut down?)");
  return TcpConnection(FdHandle(client));
}

void TcpListener::shutdown() {
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
}

TcpConnection connect_local(std::uint16_t port, double timeout_s) {
  OPENEI_CHECK(timeout_s > 0.0, "bad connect timeout ", timeout_s);
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket() failed");
  FdHandle handle(fd);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);

  // Non-blocking connect + poll so a dead or saturated peer cannot hang the
  // caller past the deadline (a plain connect() has no portable timeout).
  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0) {
    if (errno != EINPROGRESS) throw_errno("connect() to 127.0.0.1 failed");
    pollfd waiter{fd, POLLOUT, 0};
    int timeout_ms = static_cast<int>(timeout_s * 1e3);
    int ready = ::poll(&waiter, 1, timeout_ms > 0 ? timeout_ms : 1);
    if (ready == 0) {
      throw TimeoutError("connect() to 127.0.0.1:" + std::to_string(port) +
                         " timed out after " + std::to_string(timeout_s) + "s");
    }
    if (ready < 0) throw_errno("poll() during connect failed");
    int err = 0;
    socklen_t err_len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len);
    if (err != 0) {
      throw IoError(std::string("connect() to 127.0.0.1 failed: ") +
                    std::strerror(err));
    }
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking with SO_*TIMEO deadlines

  timeval tv = to_timeval(timeout_s);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  return TcpConnection(std::move(handle));
}

}  // namespace openei::net
