#ifndef PPDBSCAN_NET_FAULT_H_
#define PPDBSCAN_NET_FAULT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "net/channel.h"

namespace ppdbscan {

/// What a FaultInjectingChannel does once its trigger frame is reached.
enum class FaultKind : uint8_t {
  kNone = 0,       // pass-through (the decorator is inert)
  kDropLink,       // close the inner channel; every later op fails kUnavailable
  kStall,          // sends are swallowed, recvs never yield a frame again
  kCorruptFrame,   // flip a bit in one outgoing frame, then go clean
  kTruncateFrame,  // forward only half of one outgoing frame, then go clean
  kSendError,      // fail one send kUnavailable and close the link
};

const char* FaultKindToString(FaultKind kind);

/// A scripted fault: after `after_frames` clean frames have crossed the
/// channel (sends and recvs both count), `kind` fires. `seed` perturbs
/// which byte kCorruptFrame flips so matrices of runs exercise different
/// corruption sites deterministically.
struct FaultSchedule {
  FaultKind kind = FaultKind::kNone;
  uint64_t after_frames = 0;
  uint64_t seed = 0;
};

/// Channel decorator that injects one scripted fault into an otherwise
/// healthy link. Wraps any Channel (MemoryChannel endpoints in-process,
/// SocketChannel links in a real mesh) and is what chaos_test and the
/// serve daemon's fault hooks use to prove failure containment: every
/// party must surface a *named* error — never hang, crash, or return
/// wrong labels.
///
/// Fault semantics:
///  - kDropLink   : persistent. The inner channel is closed at the trigger;
///                  the op that tripped it (and all later ops) fail
///                  kUnavailable.
///  - kStall      : persistent, silent. Sends return Ok without
///                  transmitting; recvs discard whatever arrives and keep
///                  waiting, so only a recv deadline (forwarded to the
///                  inner channel) gets the caller out — with
///                  kDeadlineExceeded, exactly like a silent peer.
///  - kCorruptFrame : one-shot, send-side. One outgoing frame has a high
///                  bit flipped in its leading bytes (message tag / mux id),
///                  so the peer sees an unknown tag (kDataLoss) or a
///                  mis-routed stream (deadline) — a named failure, never a
///                  silently wrong payload.
///  - kTruncateFrame: one-shot, send-side. One outgoing frame is cut to
///                  half its length (framing stays intact; the *message*
///                  inside is short), so the peer fails parsing it.
///  - kSendError  : one-shot. One send fails kUnavailable and the link is
///                  closed, as if the kernel reported a broken pipe.
///
/// Thread-safe: the frame counter and fired flag are mutex-guarded, so a
/// send and a recv racing on the same wrapped link count consistently.
class FaultInjectingChannel : public Channel {
 public:
  /// Wraps a borrowed channel (must outlive this object).
  FaultInjectingChannel(Channel* inner, FaultSchedule schedule)
      : inner_(inner), schedule_(schedule) {}

  /// Wraps an owned channel.
  FaultInjectingChannel(std::unique_ptr<Channel> inner, FaultSchedule schedule)
      : owned_(std::move(inner)), inner_(owned_.get()), schedule_(schedule) {}

  ~FaultInjectingChannel() override { Close(); }

  void Close() override { inner_->Close(); }

  void set_recv_deadline_ms(int deadline_ms) override {
    Channel::set_recv_deadline_ms(deadline_ms);
    inner_->set_recv_deadline_ms(deadline_ms);
  }

 protected:
  Status SendImpl(const std::vector<uint8_t>& frame) override;
  Result<std::vector<uint8_t>> RecvImpl() override;

 private:
  /// Returns true when this frame is the one the schedule targets, and
  /// marks the fault fired. One-shot kinds only ever return true once.
  bool ShouldFire();

  std::unique_ptr<Channel> owned_;
  Channel* inner_;
  FaultSchedule schedule_;

  std::mutex mu_;
  uint64_t frames_ = 0;  // clean frames forwarded, both directions
  bool fired_ = false;
  bool dropped_ = false;  // kDropLink/kSendError closed the inner channel
};

}  // namespace ppdbscan

#endif  // PPDBSCAN_NET_FAULT_H_
