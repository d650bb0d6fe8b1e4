#include "net/fault.h"

#include <algorithm>
#include <vector>

namespace ppdbscan {

const char* FaultKindToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "NONE";
    case FaultKind::kDropLink:
      return "DROP_LINK";
    case FaultKind::kStall:
      return "STALL";
    case FaultKind::kCorruptFrame:
      return "CORRUPT_FRAME";
    case FaultKind::kTruncateFrame:
      return "TRUNCATE_FRAME";
    case FaultKind::kSendError:
      return "SEND_ERROR";
  }
  return "UNKNOWN";
}

Status FaultInjectingChannel::SendImpl(const std::vector<uint8_t>& frame) {
  FaultKind action = FaultKind::kNone;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dropped_) return Status::Unavailable("fault injection: link dropped");
    if (fired_ && schedule_.kind == FaultKind::kStall) {
      return Status::Ok();  // persistent stall swallows every later send
    }
    if (!fired_ && schedule_.kind != FaultKind::kNone &&
        frames_ >= schedule_.after_frames) {
      fired_ = true;
      action = schedule_.kind;
      if (action == FaultKind::kDropLink || action == FaultKind::kSendError) {
        dropped_ = true;
      }
    } else {
      ++frames_;
    }
  }
  switch (action) {
    case FaultKind::kNone:
      return inner_->Send(frame);
    case FaultKind::kStall:
      return Status::Ok();  // swallowed: the peer waits for a frame that
                            // never comes and must trip its recv deadline
    case FaultKind::kDropLink:
      inner_->Close();
      return Status::Unavailable("fault injection: link dropped");
    case FaultKind::kSendError:
      inner_->Close();
      return Status::Unavailable("fault injection: injected send error");
    case FaultKind::kCorruptFrame: {
      // Flip a high bit in the frame's leading bytes — the message tag or
      // mux stream id — so the peer sees an unknown tag or a mis-routed
      // stream. Under the semi-honest model payloads carry no MACs, so
      // corrupting deeper bytes could yield silently wrong labels; the
      // chaos suite requires every fault to surface as a *named* error.
      std::vector<uint8_t> bad = frame;
      if (!bad.empty()) {
        bad[schedule_.seed % std::min<size_t>(2, bad.size())] ^= 0x80;
      }
      return inner_->Send(bad);
    }
    case FaultKind::kTruncateFrame: {
      std::vector<uint8_t> cut(frame.begin(), frame.begin() + frame.size() / 2);
      return inner_->Send(cut);
    }
  }
  return Status::Internal("unreachable fault kind");
}

Result<std::vector<uint8_t>> FaultInjectingChannel::RecvImpl() {
  while (true) {
    bool stalling = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const bool due = !fired_ && schedule_.kind != FaultKind::kNone &&
                       frames_ >= schedule_.after_frames;
      // Only link-level kinds affect the receive path; the frame-mangling
      // kinds fire on the sending side.
      if (due && (schedule_.kind == FaultKind::kDropLink ||
                  schedule_.kind == FaultKind::kStall)) {
        fired_ = true;
        if (schedule_.kind == FaultKind::kDropLink) dropped_ = true;
      }
      if (dropped_) {
        inner_->Close();
        return Status::Unavailable("fault injection: link dropped");
      }
      stalling = fired_ && schedule_.kind == FaultKind::kStall;
    }
    Result<std::vector<uint8_t>> frame = inner_->Recv();
    if (!stalling) {
      if (frame.ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        ++frames_;
      }
      return frame;
    }
    // Stalling: discard whatever arrived and keep waiting. Only the recv
    // deadline (forwarded to the inner channel) or a link error gets the
    // caller out — exactly how a silent peer looks from the outside.
    if (!frame.ok()) return frame.status();
  }
}

}  // namespace ppdbscan
