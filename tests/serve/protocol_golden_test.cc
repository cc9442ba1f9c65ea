// Golden bytes of every serve-protocol message (protocol_goldens.h): each
// encodes to its pinned hex, decodes back to the struct it came from, and
// no strict prefix of it decodes. The test only uses entry points every
// version of the codec has, so it pins the wire format across rewrites.

#include <gtest/gtest.h>

#include "serve/protocol_goldens.h"

namespace lossyts::serve {
namespace {

TEST(ProtocolGoldenTest, EveryMessageEncodesToItsGoldenBytes) {
  for (const golden::ProtocolGolden& message : golden::ProtocolGoldens()) {
    SCOPED_TRACE(message.name);
    EXPECT_EQ(golden::Hex(golden::Encode(message)), message.hex);
  }
}

TEST(ProtocolGoldenTest, EveryGoldenDecodesToItsStruct) {
  for (const golden::ProtocolGolden& message : golden::ProtocolGoldens()) {
    SCOPED_TRACE(message.name);
    const std::vector<uint8_t> bytes = golden::FromHex(message.hex);
    if (message.is_reply) {
      Result<Reply> reply = DecodeReply(message.type, bytes);
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      golden::ExpectEqual(*reply, message.reply);
    } else {
      Result<Request> request = DecodeRequest(bytes);
      ASSERT_TRUE(request.ok()) << request.status().ToString();
      golden::ExpectEqual(*request, message.request);
    }
  }
}

TEST(ProtocolGoldenTest, EveryStrictPrefixFailsToDecode) {
  for (const golden::ProtocolGolden& message : golden::ProtocolGoldens()) {
    SCOPED_TRACE(message.name);
    const std::vector<uint8_t> bytes = golden::FromHex(message.hex);
    ASSERT_FALSE(bytes.empty());
    for (size_t n = 0; n < bytes.size(); ++n) {
      const std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + n);
      EXPECT_FALSE(golden::Decode(message, prefix).ok()) << "prefix " << n;
    }
  }
}

}  // namespace
}  // namespace lossyts::serve
