#ifndef PPDBSCAN_NET_SOCKET_CHANNEL_H_
#define PPDBSCAN_NET_SOCKET_CHANNEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "net/channel.h"

namespace ppdbscan {

class SocketChannel;

/// A bound, listening TCP socket. Binding is split from Accept so callers
/// can bind port 0 (kernel-assigned), learn the actual port, hand it to
/// the connecting side, and only then block in Accept — the pattern tests
/// use to avoid fixed-port collisions. The listener is persistent:
/// Accept may be called repeatedly (a mesh party accepts P−1 peers off one
/// listener; a daemon re-accepts after a peer reconnects), and `backlog`
/// sizes the kernel's pending-connection queue so P−1 simultaneous
/// connects queue instead of being refused.
class SocketListener {
 public:
  /// Binds and listens on `port` (0 = pick a free ephemeral port). The
  /// backlog must cover the number of peers that may connect before the
  /// first Accept runs (a mesh passes at least its party count).
  static Result<SocketListener> Bind(uint16_t port, int backlog = 8);

  SocketListener(SocketListener&& other) noexcept;
  SocketListener& operator=(SocketListener&& other) noexcept;
  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;
  ~SocketListener();

  /// The port actually bound (resolves port 0 to the kernel's choice).
  uint16_t port() const { return port_; }

  /// True until Close() (or a move) releases the socket.
  bool listening() const { return fd_ >= 0; }

  /// Accepts one queued peer. Repeatable: the listening socket stays open
  /// after every outcome — success, timeout, or error — until Close().
  /// A non-negative `timeout_ms` bounds the wait (kUnavailable on expiry),
  /// so a thread blocked in Accept cannot hang forever when the connecting
  /// side fails; -1 blocks indefinitely.
  Result<std::unique_ptr<SocketChannel>> Accept(int timeout_ms = -1);

  /// Releases the listening socket. Idempotent.
  void Close();

 private:
  SocketListener(int fd, uint16_t port) : fd_(fd), port_(port) {}

  int fd_;
  uint16_t port_;
};

/// TCP transport for running the parties as separate processes (see
/// examples/tcp_parties.cc and net/party_mesh.h). Frames are sent as a
/// 4-byte big-endian length followed by the payload.
class SocketChannel : public Channel {
 public:
  /// Largest frame either side will put on (or take off) the wire. The
  /// sender enforces it in SendImpl — a frame whose size does not fit the
  /// 4-byte length header must fail loudly (kInvalidArgument) instead of
  /// silently truncating the header and desyncing the stream — and the
  /// receiver enforces the same bound on incoming headers (kDataLoss), so
  /// the two limits can never disagree.
  static constexpr uint32_t kMaxFrame = 64u << 20;  // 64 MiB

  /// Connects to a listening peer, retrying for up to `timeout_ms` so the
  /// two processes can be started in either order.
  static Result<std::unique_ptr<SocketChannel>> Connect(
      const std::string& host, uint16_t port, int timeout_ms = 5000);

  ~SocketChannel() override;

  /// Shuts the socket down (both directions) without releasing the fd:
  /// wakes any thread blocked in Recv on this channel and sends FIN, but
  /// the descriptor itself is only closed by the destructor, so a reader
  /// mid-read(2) can never see its fd number reused. Idempotent and safe
  /// to call from a thread other than the reader's.
  void Close() override;

  /// The underlying socket descriptor (valid until destruction; after
  /// Close() it is shut down but still allocated). Exposed so a daemon's
  /// signal handler can shutdown(2) blocked reads — shutdown is
  /// async-signal-safe, Close() is not.
  int native_handle() const { return fd_; }

 protected:
  Status SendImpl(const std::vector<uint8_t>& frame) override;
  Result<std::vector<uint8_t>> RecvImpl() override;

 private:
  friend class SocketListener;

  explicit SocketChannel(int fd) : fd_(fd) {}

  Status WriteAll(const uint8_t* data, size_t len);
  /// Reads exactly `len` bytes. With a non-negative `budget_ms` every read
  /// is poll-gated against one shared budget (the per-Recv deadline covers
  /// header + payload together), failing kDeadlineExceeded on expiry.
  Status ReadAll(uint8_t* data, size_t len, int budget_ms,
                 const std::chrono::steady_clock::time_point& deadline);

  /// Written only by the constructor and destructor; Close() leaves it
  /// alone (shutdown-only) so concurrent readers can load it race-free.
  int fd_;
  /// Set by Close(); later Send/Recv fail kFailedPrecondition.
  std::atomic<bool> closed_{false};
};

}  // namespace ppdbscan

#endif  // PPDBSCAN_NET_SOCKET_CHANNEL_H_
