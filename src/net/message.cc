#include "net/message.h"

#include <string>

namespace ppdbscan {

Status SendMessage(Channel& channel, uint16_t type,
                   const std::vector<uint8_t>& payload) {
  ByteWriter frame;
  frame.PutU16(type);
  frame.PutRaw(payload.data(), payload.size());
  return channel.Send(frame.data());
}

Status SendMessage(Channel& channel, uint16_t type,
                   const ByteWriter& payload) {
  return SendMessage(channel, type, payload.data());
}

Result<Message> RecvMessage(Channel& channel) {
  PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> frame, channel.Recv());
  if (frame.size() < 2) {
    return Status::DataLoss("frame shorter than message header");
  }
  Message msg;
  msg.type = static_cast<uint16_t>(frame[0] << 8 | frame[1]);
  msg.payload.assign(frame.begin() + 2, frame.end());
  if (msg.type == kAbortMessageType) channel.NoteAbortReceived();
  return msg;
}

Result<std::vector<uint8_t>> ExpectMessage(Channel& channel,
                                           uint16_t expected_type) {
  PPD_ASSIGN_OR_RETURN(Message msg, RecvMessage(channel));
  if (msg.type == kAbortMessageType) {
    return AbortedFromPayload(msg.payload);
  }
  if (msg.type != expected_type) {
    return Status::DataLoss("unexpected message type " +
                            std::to_string(msg.type) + ", wanted " +
                            std::to_string(expected_type));
  }
  return std::move(msg.payload);
}

uint8_t AbortOriginCode(const Status& status) {
  if (status.code() == StatusCode::kAborted &&
      status.origin_code() != StatusCode::kOk) {
    return static_cast<uint8_t>(status.origin_code());
  }
  return static_cast<uint8_t>(status.code());
}

Status AbortedFromPayload(const std::vector<uint8_t>& payload) {
  StatusCode origin = StatusCode::kOk;  // unknown
  size_t text_begin = 0;
  // Valid code bytes are all below any printable character, so a legacy
  // text-only payload can never be misread as carrying one.
  if (!payload.empty() && payload[0] != 0 &&
      payload[0] <= static_cast<uint8_t>(StatusCode::kAborted)) {
    origin = static_cast<StatusCode>(payload[0]);
    text_begin = 1;
  }
  return Status::Aborted(
             "peer aborted protocol: " +
             std::string(payload.begin() + static_cast<long>(text_begin),
                         payload.end()))
      .WithOrigin(origin);
}

void PutStatusReport(ByteWriter& writer, const Status& status) {
  writer.PutU8(status.ok() ? 1 : 0);
  writer.PutU8(static_cast<uint8_t>(status.code()));
  writer.PutU8(AbortOriginCode(status));
  const std::string message = status.ok() ? std::string() : status.message();
  writer.PutBytes(std::vector<uint8_t>(message.begin(), message.end()));
}

Status GetStatusReport(ByteReader& reader, Status* report) {
  PPD_ASSIGN_OR_RETURN(uint8_t ok, reader.GetU8());
  PPD_ASSIGN_OR_RETURN(uint8_t code, reader.GetU8());
  PPD_ASSIGN_OR_RETURN(uint8_t origin, reader.GetU8());
  PPD_ASSIGN_OR_RETURN(std::vector<uint8_t> text, reader.GetBytes());
  std::string message(text.begin(), text.end());
  constexpr uint8_t kLastCode = static_cast<uint8_t>(StatusCode::kAborted);
  if (ok != 0) {
    *report = Status::Ok();
  } else if (code == 0 || code > kLastCode) {
    *report = Status::Internal(std::move(message));
  } else {
    *report = Status(static_cast<StatusCode>(code), std::move(message));
    if (origin != 0 && origin <= kLastCode) {
      *report = report->WithOrigin(static_cast<StatusCode>(origin));
    }
  }
  return Status::Ok();
}

Status AbortPeer(Channel& channel, Status status, const std::string& reason) {
  std::vector<uint8_t> payload;
  payload.reserve(reason.size() + 1);
  payload.push_back(AbortOriginCode(status));
  payload.insert(payload.end(), reason.begin(), reason.end());
  // Best effort: the abort itself may fail if the channel is gone.
  (void)SendMessage(channel, kAbortMessageType, payload);
  return status;
}

}  // namespace ppdbscan
