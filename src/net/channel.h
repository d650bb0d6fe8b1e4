#ifndef PPDBSCAN_NET_CHANNEL_H_
#define PPDBSCAN_NET_CHANNEL_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace ppdbscan {

/// Exact traffic accounting for one endpoint of a two-party channel. The
/// communication-complexity experiments (E2/E3/E5 in DESIGN.md) read these
/// counters; `rounds` counts direction switches (a send following a receive
/// or vice versa), the standard round measure for interactive protocols.
/// `deadline_trips` and `aborts_seen` are failure-health counters (they
/// feed LinkHealth): receives that ran out their recv deadline, and abort
/// frames the message layer parsed off this channel.
struct ChannelStats {
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t frames_sent = 0;
  uint64_t frames_received = 0;
  uint64_t rounds = 0;
  uint64_t deadline_trips = 0;
  uint64_t aborts_seen = 0;

  uint64_t total_bytes() const { return bytes_sent + bytes_received; }
};

/// Operator-facing health record for one long-lived mesh link, accumulated
/// across jobs by a PartyServer (core/serve.h) and surfaced through
/// PartyServer::link_health() and the CLI's periodic health line. All
/// counters are cumulative since the daemon started; `idle_seconds` is
/// computed at snapshot time.
struct LinkHealth {
  size_t peer = 0;
  uint64_t frames_sent = 0;
  uint64_t frames_received = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  /// Receives on this link's job streams that ran out their deadline.
  uint64_t deadline_trips = 0;
  /// Abort frames received on this link (a peer bailing out of a job).
  uint64_t aborts_seen = 0;
  /// Times the TCP link was re-established (and its session re-keyed).
  uint64_t reconnects = 0;
  /// Most recent non-OK event attributed to this link ("" while clean).
  std::string last_error;
  /// Seconds since this link last moved a frame, at snapshot time.
  double idle_seconds = 0;
};

/// Reliable, ordered, blocking frame transport between two parties. One
/// instance is one endpoint. Implementations: MemoryChannel (in-process,
/// two threads) and SocketChannel (TCP, two processes).
class Channel {
 public:
  virtual ~Channel() = default;

  /// Sends one frame. Fails with kUnavailable once the peer has closed.
  Status Send(const std::vector<uint8_t>& frame);

  /// Blocks until a frame arrives. Fails with kUnavailable if the channel
  /// is closed and drained.
  Result<std::vector<uint8_t>> Recv();

  /// Signals end-of-stream to the peer. Idempotent.
  virtual void Close() = 0;

  /// Bounds every subsequent Recv: a call that cannot produce a frame
  /// within `deadline_ms` fails with kDeadlineExceeded instead of blocking
  /// forever — how a silent or stalled peer surfaces as a named error. A
  /// negative value (the default) restores unbounded blocking. Implemented
  /// by MemoryChannel (timed condition wait), SocketChannel (poll-gated
  /// reads), and ChannelMux streams; decorators override to forward to the
  /// wrapped channel. Not synchronized with a concurrent Recv: set it from
  /// the receiving thread, or before handing the channel to it.
  virtual void set_recv_deadline_ms(int deadline_ms) {
    recv_deadline_ms_ = deadline_ms;
  }
  /// The current Recv deadline (-1 = block forever).
  int recv_deadline_ms() const { return recv_deadline_ms_; }

  /// Snapshot of the traffic counters. Returned by value: a channel under
  /// a ChannelMux is sent to and received from by different threads (job
  /// streams vs the reader), so the counters are mutex-guarded and a
  /// reference would race with the next frame.
  ChannelStats stats() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
  }
  /// Zeroes the traffic counters (used between benchmark phases).
  void ResetStats() {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_ = ChannelStats();
    last_dir_ = LastDir::kNone;
  }

  /// Called by the message layer (net/message.h) when it parses an abort
  /// frame off this channel, so per-link health can attribute it.
  void NoteAbortReceived() {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.aborts_seen += 1;
  }

 protected:
  virtual Status SendImpl(const std::vector<uint8_t>& frame) = 0;
  virtual Result<std::vector<uint8_t>> RecvImpl() = 0;

 private:
  enum class LastDir { kNone, kSend, kRecv };

  /// Guards stats_ and last_dir_ (leaf lock, never held across I/O).
  mutable std::mutex stats_mu_;
  ChannelStats stats_;
  LastDir last_dir_ = LastDir::kNone;
  int recv_deadline_ms_ = -1;
};

}  // namespace ppdbscan

#endif  // PPDBSCAN_NET_CHANNEL_H_
