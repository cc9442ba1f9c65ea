// Malformed-input rules of the serve protocol (serve/protocol.h): strings
// past 255 bytes are refused before anything is sent, counts are bounded by
// the bytes left, trailing bytes are rejected, and no single-bit flip of a
// message message makes a decoder throw.

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/protocol_goldens.h"
#include "test_util.h"

namespace lossyts::serve {
namespace {

Status EncodeStatus(const Result<std::vector<uint8_t>>& bytes) {
  return bytes.status();
}

Request WithSeries(RequestType type, const std::string& series) {
  Request request;
  request.type = type;
  request.series = series;
  request.values = {1.0};
  return request;
}

TEST(ProtocolTest, OverlongStringsAreRefusedBeforeEncoding) {
  const std::string longest(255, 'a');
  const std::string too_long(300, 'a');
  for (const RequestType type : {RequestType::kAppend,
                                 RequestType::kReadRange,
                                 RequestType::kStreamInfo}) {
    SCOPED_TRACE(static_cast<int>(type));
    const Request request = WithSeries(type, longest);
    auto fits = DecodeRequest(golden::Bytes(EncodeRequest(request)));
    ASSERT_TRUE(fits.ok()) << fits.status().ToString();
    EXPECT_EQ(fits->series, longest);
    EXPECT_EQ(EncodeStatus(EncodeRequest(WithSeries(type, too_long))).code(),
              StatusCode::kInvalidArgument);
  }

  Request query;
  query.type = RequestType::kQuery;
  query.query.match = std::string(259, 'm');
  EXPECT_EQ(EncodeStatus(EncodeRequest(query)).code(),
            StatusCode::kInvalidArgument);
  query.query.match.clear();
  query.query.metrics = {"mae", std::string(256, 'x')};
  EXPECT_EQ(EncodeStatus(EncodeRequest(query)).code(),
            StatusCode::kInvalidArgument);

  Reply names;
  names.names = {"a", std::string(256, 'n')};
  EXPECT_EQ(EncodeStatus(EncodeReply(RequestType::kListSeries, names)).code(),
            StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, ErrorMessagesAreTruncatedNotRefused) {
  const Reply error =
      ReplyFromStatus(Status::NotFound(std::string(5000, 'e')), 0);
  const std::vector<uint8_t> bytes =
      golden::Bytes(EncodeReply(RequestType::kPing, error));
  auto decoded = DecodeReply(RequestType::kPing, bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->message, std::string(4096, 'e'));
  EXPECT_EQ(StatusFromReply(*decoded).code(), StatusCode::kNotFound);
}

TEST(ProtocolTest, ClientRefusesAnOverlongStringAndSendsNothing) {
  // A listener that never answers: whatever the client sends stays queued
  // on the accepted socket for inspection.
  const std::string path = test::UniqueTestDir() + "/mute.sock";
  Result<int> listener = ListenUnix(path);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  ClientOptions options;
  options.timeout_ms = 200;
  options.max_retries = 0;
  auto client = Client::Connect(path, options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  const std::string too_long(300, 's');
  EXPECT_EQ((*client)->Append(too_long, 0, 60, {1.0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*client)->ReadRange(too_long, 0, 60).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*client)->StreamInfo(too_long).status().code(),
            StatusCode::kInvalidArgument);
  QuerySpec spec;
  spec.match = std::string(259, 'm');
  EXPECT_EQ((*client)->Query(spec).status().code(),
            StatusCode::kInvalidArgument);

  const int fd = ::accept(*listener, nullptr, nullptr);
  ASSERT_GE(fd, 0);
  struct pollfd pfd = {fd, POLLIN, 0};
  EXPECT_EQ(::poll(&pfd, 1, 0), 0) << "the client sent bytes";
  ::close(fd);
  ::close(*listener);
}

TEST(ProtocolTest, ListSeriesReplyCountIsBoundedByTheBytesLeft) {
  const std::vector<uint8_t> payload = {0x00, 0xff, 0xff, 0xff, 0x7f};
  Status status;
  EXPECT_NO_THROW(
      status = DecodeReply(RequestType::kListSeries, payload).status());
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
}

TEST(ProtocolTest, TrailingBytesAreRejectedAfterEveryMessage) {
  for (const golden::ProtocolGolden& message : golden::ProtocolGoldens()) {
    SCOPED_TRACE(message.name);
    std::vector<uint8_t> bytes = golden::FromHex(message.hex);
    ASSERT_TRUE(golden::Decode(message, bytes).ok());
    bytes.push_back(0);
    EXPECT_EQ(golden::Decode(message, bytes).code(), StatusCode::kCorruption);
  }
}

TEST(ProtocolTest, EverySingleBitFlipDecodesWithoutThrowing) {
  for (const golden::ProtocolGolden& message : golden::ProtocolGoldens()) {
    SCOPED_TRACE(message.name);
    const std::vector<uint8_t> bytes = golden::FromHex(message.hex);
    for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
      std::vector<uint8_t> flipped = bytes;
      flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      // A flip that still decodes is a different valid message, and it
      // encodes back to exactly the flipped bytes.
      try {
        std::vector<uint8_t> again = flipped;
        if (message.is_reply) {
          Result<Reply> reply = DecodeReply(message.type, flipped);
          if (reply.ok()) {
            again = golden::Bytes(EncodeReply(message.type, *reply));
          }
        } else {
          Result<Request> request = DecodeRequest(flipped);
          if (request.ok()) again = golden::Bytes(EncodeRequest(*request));
        }
        EXPECT_EQ(golden::Hex(again), golden::Hex(flipped)) << "bit " << bit;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "bit " << bit << " threw: " << e.what();
      }
    }
  }
}

}  // namespace
}  // namespace lossyts::serve
