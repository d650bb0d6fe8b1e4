#ifndef PPDBSCAN_NET_MESSAGE_H_
#define PPDBSCAN_NET_MESSAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "net/channel.h"

namespace ppdbscan {

/// A tagged protocol message: a 16-bit type identifier plus an opaque
/// payload. Message type values are defined by each protocol (see
/// core/wire.h for the DBSCAN protocol's and the serve control plane's
/// tag space).
///
/// Besides the framing, this header owns two shared payload codecs: the
/// abort frame (a failing party's origin code and reason) and the status
/// report (a serve follower's job or heal outcome).
struct Message {
  uint16_t type = 0;
  std::vector<uint8_t> payload;
};

/// Reserved tag: a party that must bail out of a sub-protocol before its
/// next send (e.g. local input validation failed) sends an abort frame so
/// the peer's blocking receive fails fast instead of hanging. The payload
/// is one origin-code byte (the ORIGINATING failure's StatusCode, so
/// receivers can classify the abort without parsing text) followed by a
/// human-readable reason.
inline constexpr uint16_t kAbortMessageType = 0xFFFF;

/// The origin-code byte to embed when relaying `status` in an abort frame:
/// the status's own code, except for a kAborted already carrying an origin
/// — then the origin survives the relay unchanged.
uint8_t AbortOriginCode(const Status& status);

/// Builds the kAborted status for a received abort-frame payload: origin
/// byte decoded into Status::origin_code(), reason text in the message.
/// Payloads without a valid leading code byte (reason text starts
/// immediately) decode with an unknown origin.
Status AbortedFromPayload(const std::vector<uint8_t>& payload);

/// Sends an abort frame carrying `reason` plus `status`'s origin byte,
/// then returns `status` so the caller can
/// `return AbortPeer(channel, std::move(status), reason);`.
Status AbortPeer(Channel& channel, Status status, const std::string& reason);

/// Writes a status report: the (ok, code, origin, message) tail of the
/// serve control plane's kServeJobDone and kServeLinkHealed payloads,
/// laid out `[ok u8][code u8][origin u8][u32 len][message]`. A failure
/// carries its code, AbortOriginCode(status) — so the receiver's retry
/// classifier sees the sender's underlying failure class through a
/// kAborted relay — and its message; OK writes `[1][0][0][0 0 0 0]`.
void PutStatusReport(ByteWriter& writer, const Status& status);

/// Reads one status report into `*report`; kDataLoss when the bytes end
/// early (trailing bytes are left to the caller). A nonzero ok byte reads
/// as OK. A failure whose code byte is 0 or beyond kAborted (a peer
/// speaking a newer code space) reads as kInternal with the sent message;
/// a nonzero origin byte within the code space becomes
/// report->origin_code().
Status GetStatusReport(ByteReader& reader, Status* report);

/// Sends `payload` under `type` as one frame.
Status SendMessage(Channel& channel, uint16_t type,
                   const std::vector<uint8_t>& payload);

/// Sends the contents of a ByteWriter under `type`.
Status SendMessage(Channel& channel, uint16_t type, const ByteWriter& payload);

/// Receives the next message; kDataLoss on malformed frames.
Result<Message> RecvMessage(Channel& channel);

/// Receives the next message and verifies its type tag; a mismatch is a
/// protocol error (kDataLoss), which the DBSCAN responder loop surfaces
/// instead of misinterpreting payloads. A peer's abort frame maps to
/// kAborted with the peer's reason as the message.
Result<std::vector<uint8_t>> ExpectMessage(Channel& channel,
                                           uint16_t expected_type);

}  // namespace ppdbscan

#endif  // PPDBSCAN_NET_MESSAGE_H_
