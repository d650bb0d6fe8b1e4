#include "net/socket_channel.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace ppdbscan {

namespace {

Status Errno(const char* what) {
  return Status::Unavailable(std::string(what) + ": " +
                             std::strerror(errno));
}

void SetNoDelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void SetNonBlocking(int fd, bool nonblocking) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return;
  flags = nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  fcntl(fd, F_SETFL, flags);
}

}  // namespace

Result<SocketListener> SocketListener::Bind(uint16_t port, int backlog) {
  if (backlog < 1) {
    return Status::InvalidArgument("listener backlog must be >= 1");
  }
  int listener = socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) return Errno("socket");
  int one = 1;
  setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    close(listener);
    return Errno("bind");
  }
  if (listen(listener, backlog) < 0) {
    close(listener);
    return Errno("listen");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (getsockname(listener, reinterpret_cast<sockaddr*>(&bound),
                  &bound_len) < 0) {
    close(listener);
    return Errno("getsockname");
  }
  return SocketListener(listener, ntohs(bound.sin_port));
}

SocketListener::SocketListener(SocketListener&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
}

SocketListener& SocketListener::operator=(SocketListener&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) close(fd_);
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
  }
  return *this;
}

SocketListener::~SocketListener() {
  if (fd_ >= 0) close(fd_);
}

void SocketListener::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

Result<std::unique_ptr<SocketChannel>> SocketListener::Accept(int timeout_ms) {
  if (fd_ < 0) return Status::FailedPrecondition("listener closed");
  int fd = -1;
  if (timeout_ms < 0) {
    // A previous timed Accept may have left the socket non-blocking.
    SetNonBlocking(fd_, false);
    while (true) {
      fd = accept(fd_, nullptr, nullptr);
      if (fd < 0 && (errno == EINTR || errno == ECONNABORTED)) continue;
      break;
    }
  } else {
    // Non-blocking poll+accept loop against a deadline: a queued
    // connection that is reset before we reach accept() (peer crashed
    // between connect and our wakeup) surfaces as EAGAIN and we keep
    // waiting for the remainder of the budget instead of blocking forever.
    // Every exit leaves the listening socket open — a mesh party accepts
    // its next peer off the same listener, timeout or not.
    SetNonBlocking(fd_, true);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (true) {
      const auto remaining = std::chrono::duration_cast<
          std::chrono::milliseconds>(deadline -
                                     std::chrono::steady_clock::now());
      if (remaining.count() <= 0) {
        return Status::Unavailable("accept timed out");
      }
      pollfd pending{fd_, POLLIN, 0};
      int ready = poll(&pending, 1, static_cast<int>(remaining.count()));
      if (ready < 0 && errno == EINTR) continue;
      if (ready < 0) return Errno("poll");
      if (ready == 0) continue;  // loop re-checks the deadline
      fd = accept(fd_, nullptr, nullptr);
      if (fd < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                     errno == ECONNABORTED || errno == EINTR)) {
        continue;
      }
      break;
    }
  }
  if (fd < 0) return Errno("accept");
  // Accepted sockets must be blocking regardless of the listener's flags
  // (inheritance is platform-dependent).
  SetNonBlocking(fd, false);
  SetNoDelay(fd);
  return std::unique_ptr<SocketChannel>(new SocketChannel(fd));
}

Result<std::unique_ptr<SocketChannel>> SocketChannel::Connect(
    const std::string& host, uint16_t port, int timeout_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("invalid IPv4 address: " + host);
  }
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (true) {
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Errno("socket");
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      SetNoDelay(fd);
      return std::unique_ptr<SocketChannel>(new SocketChannel(fd));
    }
    close(fd);
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::Unavailable("connect timed out");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

SocketChannel::~SocketChannel() {
  // Destruction means no other thread still uses this channel, so this is
  // the one place the descriptor may actually be released (see Close()).
  if (fd_ >= 0) {
    shutdown(fd_, SHUT_RDWR);
    close(fd_);
    fd_ = -1;
  }
}

void SocketChannel::Close() {
  // Shutdown only — never close(2) here. Close() is routinely called from
  // a thread other than the one blocked in read(2) on this socket (the mux
  // tears down its base channel to wake its reader; a heal drops a link a
  // job thread is still parked on). shutdown both wakes those readers and
  // sends FIN, while leaving the descriptor allocated so the kernel cannot
  // hand the same fd number to a concurrent accept/connect mid-read. The
  // fd is released in the destructor, once no user can remain.
  if (fd_ >= 0 && !closed_.exchange(true)) shutdown(fd_, SHUT_RDWR);
}

Status SocketChannel::WriteAll(const uint8_t* data, size_t len) {
  size_t sent = 0;
  while (sent < len) {
    // MSG_NOSIGNAL: a write to a peer that crashed mid-protocol must
    // surface as EPIPE -> kUnavailable, not raise SIGPIPE and kill the
    // whole process (a daemon serving many jobs dies with its first dead
    // peer otherwise).
    ssize_t n = send(fd_, data + sent, len - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status SocketChannel::ReadAll(
    uint8_t* data, size_t len, int budget_ms,
    const std::chrono::steady_clock::time_point& deadline) {
  size_t got = 0;
  while (got < len) {
    if (budget_ms >= 0) {
      // Poll-gate the blocking read against the remaining Recv budget: a
      // peer that goes silent mid-frame surfaces as kDeadlineExceeded
      // instead of wedging this thread in read(2) forever.
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now());
      if (remaining.count() <= 0) {
        return Status::DeadlineExceeded("recv deadline of " +
                                        std::to_string(budget_ms) +
                                        "ms exceeded");
      }
      pollfd readable{fd_, POLLIN, 0};
      int ready = poll(&readable, 1, static_cast<int>(remaining.count()));
      if (ready < 0 && errno == EINTR) continue;
      if (ready < 0) return Errno("poll");
      if (ready == 0) continue;  // loop re-checks the deadline
    }
    ssize_t n = read(fd_, data + got, len - got);
    if (n == 0) return Status::Unavailable("peer closed connection");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("read");
    }
    got += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status SocketChannel::SendImpl(const std::vector<uint8_t>& frame) {
  if (fd_ < 0 || closed_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("channel closed");
  }
  // Same bound the receiver checks: a frame that does not fit the 4-byte
  // header would silently truncate its length and desync the stream.
  if (frame.size() > kMaxFrame) {
    return Status::InvalidArgument(
        "frame of " + std::to_string(frame.size()) +
        " bytes exceeds the " + std::to_string(kMaxFrame) +
        "-byte wire limit");
  }
  uint8_t header[4] = {
      static_cast<uint8_t>(frame.size() >> 24),
      static_cast<uint8_t>(frame.size() >> 16),
      static_cast<uint8_t>(frame.size() >> 8),
      static_cast<uint8_t>(frame.size()),
  };
  PPD_RETURN_IF_ERROR(WriteAll(header, 4));
  return WriteAll(frame.data(), frame.size());
}

Result<std::vector<uint8_t>> SocketChannel::RecvImpl() {
  if (fd_ < 0 || closed_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("channel closed");
  }
  // One budget for the whole frame: header and payload reads share it, so
  // a peer that stalls after sending half a frame still trips the deadline.
  const int budget_ms = recv_deadline_ms();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(budget_ms < 0 ? 0 : budget_ms);
  uint8_t header[4];
  PPD_RETURN_IF_ERROR(ReadAll(header, 4, budget_ms, deadline));
  uint32_t len = static_cast<uint32_t>(header[0]) << 24 |
                 static_cast<uint32_t>(header[1]) << 16 |
                 static_cast<uint32_t>(header[2]) << 8 | header[3];
  if (len > kMaxFrame) return Status::DataLoss("oversized frame");
  std::vector<uint8_t> frame(len);
  PPD_RETURN_IF_ERROR(ReadAll(frame.data(), len, budget_ms, deadline));
  return frame;
}

}  // namespace ppdbscan
