#include "net/message.h"

#include <gtest/gtest.h>

#include "net/memory_channel.h"

namespace ppdbscan {
namespace {

TEST(MessageTest, TaggedRoundTrip) {
  auto [a, b] = MemoryChannel::CreatePair();
  ASSERT_TRUE(SendMessage(*a, 0x1234, std::vector<uint8_t>{5, 6}).ok());
  Result<Message> msg = RecvMessage(*b);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->type, 0x1234);
  EXPECT_EQ(msg->payload, (std::vector<uint8_t>{5, 6}));
}

TEST(MessageTest, WriterOverloads) {
  auto [a, b] = MemoryChannel::CreatePair();
  ByteWriter w;
  w.PutU32(777);
  ASSERT_TRUE(SendMessage(*a, 7, w).ok());
  Result<std::vector<uint8_t>> payload = ExpectMessage(*b, 7);
  ASSERT_TRUE(payload.ok());
  ByteReader r(*payload);
  EXPECT_EQ(*r.GetU32(), 777u);
}

TEST(MessageTest, EmptyPayload) {
  auto [a, b] = MemoryChannel::CreatePair();
  ASSERT_TRUE(SendMessage(*a, 9, std::vector<uint8_t>()).ok());
  Result<Message> msg = RecvMessage(*b);
  ASSERT_TRUE(msg.ok());
  EXPECT_TRUE(msg->payload.empty());
}

TEST(MessageTest, ExpectMessageRejectsWrongTag) {
  auto [a, b] = MemoryChannel::CreatePair();
  ASSERT_TRUE(SendMessage(*a, 1, std::vector<uint8_t>()).ok());
  Result<std::vector<uint8_t>> payload = ExpectMessage(*b, 2);
  EXPECT_EQ(payload.status().code(), StatusCode::kDataLoss);
}

TEST(MessageTest, MalformedShortFrame) {
  auto [a, b] = MemoryChannel::CreatePair();
  ASSERT_TRUE(a->Send({0x12}).ok());  // 1-byte frame, header needs 2
  EXPECT_EQ(RecvMessage(*b).status().code(), StatusCode::kDataLoss);
}

TEST(MessageTest, AbortFrameSurfacesAsAborted) {
  auto [a, b] = MemoryChannel::CreatePair();
  Status original = Status::OutOfRange("bad input");
  Status returned = AbortPeer(*a, original, "validation failed");
  EXPECT_EQ(returned.code(), StatusCode::kOutOfRange);  // passthrough
  Result<std::vector<uint8_t>> payload = ExpectMessage(*b, 0x1111);
  EXPECT_EQ(payload.status().code(), StatusCode::kAborted);
  EXPECT_NE(payload.status().message().find("validation failed"),
            std::string::npos);
}

// The abort frame carries the originating StatusCode as a leading payload
// byte so the receiving side can classify retryability structurally —
// serve-mode retry must never parse message text.
TEST(MessageTest, AbortFrameCarriesOriginCode) {
  auto [a, b] = MemoryChannel::CreatePair();
  (void)AbortPeer(*a, Status::InvalidArgument("bad share"), "bad share");
  Result<std::vector<uint8_t>> payload = ExpectMessage(*b, 0x1);
  EXPECT_EQ(payload.status().code(), StatusCode::kAborted);
  EXPECT_EQ(payload.status().origin_code(), StatusCode::kInvalidArgument);
  EXPECT_NE(payload.status().message().find("bad share"), std::string::npos);
}

TEST(MessageTest, RelayedAbortPreservesDeepOrigin) {
  // A party that relays a peer's abort re-aborts with a kAborted status
  // that already carries an origin; the origin (not kAborted) must survive
  // the second hop.
  auto [a, b] = MemoryChannel::CreatePair();
  const Status nested =
      Status::Aborted("peer aborted").WithOrigin(StatusCode::kUnavailable);
  (void)AbortPeer(*a, nested, "relay");
  Result<std::vector<uint8_t>> payload = ExpectMessage(*b, 0x1);
  EXPECT_EQ(payload.status().code(), StatusCode::kAborted);
  EXPECT_EQ(payload.status().origin_code(), StatusCode::kUnavailable);
}

TEST(MessageTest, LegacyTextAbortPayloadDecodesWithUnknownOrigin) {
  // Pre-origin-byte senders shipped the reason text alone. Printable
  // ASCII can't collide with a valid code byte (codes are <= kAborted),
  // so the whole payload must decode as the reason with unknown origin.
  auto [a, b] = MemoryChannel::CreatePair();
  ASSERT_TRUE(SendMessage(*a, kAbortMessageType,
                          std::vector<uint8_t>{'o', 'l', 'd'})
                  .ok());
  Result<std::vector<uint8_t>> payload = ExpectMessage(*b, 0x1);
  EXPECT_EQ(payload.status().code(), StatusCode::kAborted);
  EXPECT_EQ(payload.status().origin_code(), StatusCode::kOk);  // unknown
  EXPECT_NE(payload.status().message().find("old"), std::string::npos);
}

TEST(MessageTest, RecvMessagePassesAbortThrough) {
  // RecvMessage (unlike ExpectMessage) hands the abort tag to the caller,
  // which dispatch loops handle explicitly.
  auto [a, b] = MemoryChannel::CreatePair();
  (void)AbortPeer(*a, Status::Internal("x"), "reason");
  Result<Message> msg = RecvMessage(*b);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->type, kAbortMessageType);
}

// The status report both serve follower replies end in. One codec, so its
// layout is pinned here: [ok][code][origin][u32 len][message].
Status RoundTripReport(const Status& status) {
  ByteWriter writer;
  PutStatusReport(writer, status);
  ByteReader reader(writer.data());
  Status report = Status::Internal("never decoded");
  EXPECT_TRUE(GetStatusReport(reader, &report).ok());
  EXPECT_TRUE(reader.Done());
  return report;
}

TEST(MessageTest, StatusReportRoundTrips) {
  EXPECT_TRUE(RoundTripReport(Status::Ok()).ok());

  const Status error =
      RoundTripReport(Status::DeadlineExceeded("round 7 timed out"));
  EXPECT_EQ(error.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(error.message(), "round 7 timed out");
  EXPECT_EQ(error.origin_code(), StatusCode::kDeadlineExceeded);

  // A relayed abort keeps the ORIGINATING class for retry classification.
  const Status relayed = RoundTripReport(
      Status::Aborted("peer aborted protocol: eps")
          .WithOrigin(StatusCode::kFailedPrecondition));
  EXPECT_EQ(relayed.code(), StatusCode::kAborted);
  EXPECT_EQ(relayed.origin_code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(relayed.message(), "peer aborted protocol: eps");
}

TEST(MessageTest, StatusReportPinsTheWireLayout) {
  ByteWriter failed;
  PutStatusReport(failed,
                  Status::Aborted("no").WithOrigin(StatusCode::kUnavailable));
  // ok 0, code kAborted (8), origin kUnavailable (5), u32 length 2, "no".
  EXPECT_EQ(failed.data(),
            (std::vector<uint8_t>{0, 8, 5, 0, 0, 0, 2, 'n', 'o'}));
  ByteWriter ok;
  PutStatusReport(ok, Status::Ok());
  EXPECT_EQ(ok.data(), (std::vector<uint8_t>{1, 0, 0, 0, 0, 0, 0}));
}

TEST(MessageTest, StatusReportStrictPrefixesAreDataLoss) {
  ByteWriter writer;
  PutStatusReport(writer, Status::Unavailable("peer closed connection"));
  const std::vector<uint8_t>& full = writer.data();
  for (size_t n = 0; n < full.size(); ++n) {
    const std::vector<uint8_t> prefix(full.begin(),
                                      full.begin() + static_cast<long>(n));
    ByteReader reader(prefix);
    Status report;
    EXPECT_EQ(GetStatusReport(reader, &report).code(), StatusCode::kDataLoss)
        << n << "-byte prefix";
  }
}

TEST(MessageTest, StatusReportOutsideTheCodeSpaceReadsAsInternal) {
  // A failure code of 0 or past kAborted (a newer peer's code space) reads
  // as kInternal carrying the sent message, with no origin.
  for (uint8_t code : {uint8_t{0}, uint8_t{9}, uint8_t{200}, uint8_t{255}}) {
    const std::vector<uint8_t> bytes = {0, code, 5, 0, 0, 0, 3, 'n', 'e', 'w'};
    ByteReader reader(bytes);
    Status report;
    ASSERT_TRUE(GetStatusReport(reader, &report).ok());
    EXPECT_EQ(report.code(), StatusCode::kInternal) << int{code};
    EXPECT_EQ(report.message(), "new");
    EXPECT_EQ(report.origin_code(), StatusCode::kOk);
  }
  // An origin byte past kAborted is dropped; any nonzero ok byte is OK.
  const std::vector<uint8_t> bad_origin = {0, 8, 9, 0, 0, 0, 0};
  ByteReader origin_reader(bad_origin);
  Status report;
  ASSERT_TRUE(GetStatusReport(origin_reader, &report).ok());
  EXPECT_EQ(report.code(), StatusCode::kAborted);
  EXPECT_EQ(report.origin_code(), StatusCode::kOk);
  const std::vector<uint8_t> ok_byte = {7, 6, 6, 0, 0, 0, 1, 'x'};
  ByteReader ok_reader(ok_byte);
  ASSERT_TRUE(GetStatusReport(ok_reader, &report).ok());
  EXPECT_TRUE(report.ok());
}

}  // namespace
}  // namespace ppdbscan
