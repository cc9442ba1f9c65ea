// The shared CRC frame codec (src/zip/frame.{h,cc}): round trip, every
// truncation and every header/CRC bit flip rejected, the [1, max] size
// bounds on both the encoder and the parser, and the valid-prefix scan.

#include "zip/frame.h"

#include <gtest/gtest.h>

#include <vector>

namespace lossyts::zip {
namespace {

constexpr uint32_t kMagic = 0x4B545354u;
constexpr uint32_t kMax = 64;

std::vector<uint8_t> Payload(size_t n, uint8_t seed) {
  std::vector<uint8_t> payload(n);
  for (size_t i = 0; i < n; ++i) {
    payload[i] = static_cast<uint8_t>(seed + 31 * i);
  }
  return payload;
}

std::vector<uint8_t> MustEncode(const std::vector<uint8_t>& payload) {
  Result<std::vector<uint8_t>> frame = EncodeFrame(kMagic, kMax, payload);
  EXPECT_TRUE(frame.ok()) << frame.status().ToString();
  return frame.ok() ? *frame : std::vector<uint8_t>();
}

TEST(FrameTest, RoundTrip) {
  for (const size_t n : {size_t{1}, size_t{7}, size_t{kMax}}) {
    const std::vector<uint8_t> payload = Payload(n, 3);
    const std::vector<uint8_t> frame = MustEncode(payload);
    ASSERT_EQ(frame.size(), n + kFrameOverhead);
    Result<Frame> parsed =
        ParseFrameAt(frame.data(), 0, frame.size(), kMagic, kMax);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->payload, frame.data() + kFrameHeaderSize);
    EXPECT_EQ(parsed->size, frame.size());
    EXPECT_EQ(std::vector<uint8_t>(parsed->payload,
                                   parsed->payload + parsed->payload_size),
              payload);
    Result<uint32_t> size = ParseFrameHeader(frame.data(), kMagic, kMax);
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(*size, n);
    EXPECT_TRUE(CheckFrameCrc(frame.data() + kFrameHeaderSize, *size).ok());
  }
}

TEST(FrameTest, SealFrameFramesAPayloadInPlace) {
  const std::vector<uint8_t> payload = Payload(9, 11);
  std::vector<uint8_t> buffer = payload;
  buffer.insert(buffer.begin(), kFrameHeaderSize, 0);  // Reserved header.
  ASSERT_TRUE(SealFrame(kMagic, kMax, buffer).ok());
  EXPECT_EQ(buffer, MustEncode(payload));
}

TEST(FrameTest, EveryTruncatedPrefixIsRejected) {
  const std::vector<uint8_t> frame = MustEncode(Payload(10, 5));
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    EXPECT_EQ(ParseFrameAt(frame.data(), 0, cut, kMagic, kMax).status().code(),
              StatusCode::kCorruption)
        << "prefix of " << cut << " bytes";
  }
}

TEST(FrameTest, EveryHeaderAndCrcBitFlipIsRejected) {
  const std::vector<uint8_t> frame = MustEncode(Payload(10, 5));
  std::vector<size_t> bytes;
  for (size_t i = 0; i < kFrameHeaderSize; ++i) bytes.push_back(i);
  for (size_t i = frame.size() - 4; i < frame.size(); ++i) bytes.push_back(i);
  for (const size_t byte : bytes) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> flipped = frame;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_FALSE(
          ParseFrameAt(flipped.data(), 0, flipped.size(), kMagic, kMax).ok())
          << "flip of byte " << byte << " bit " << bit;
    }
  }
}

TEST(FrameTest, PayloadFlipsFailTheCrc) {
  const std::vector<uint8_t> frame = MustEncode(Payload(10, 5));
  for (size_t byte = kFrameHeaderSize; byte < frame.size() - 4; ++byte) {
    std::vector<uint8_t> flipped = frame;
    flipped[byte] ^= 0x01;
    EXPECT_FALSE(
        ParseFrameAt(flipped.data(), 0, flipped.size(), kMagic, kMax).ok());
  }
}

TEST(FrameTest, SizeZeroAndOverCapAreRejected) {
  // The encoder refuses both and leaves its buffer alone.
  EXPECT_EQ(EncodeFrame(kMagic, kMax, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(EncodeFrame(kMagic, kMax, Payload(kMax + 1, 0)).status().code(),
            StatusCode::kInvalidArgument);
  std::vector<uint8_t> buffer(kFrameHeaderSize + kMax + 1, 0x5A);
  const std::vector<uint8_t> before = buffer;
  EXPECT_FALSE(SealFrame(kMagic, kMax, buffer).ok());
  EXPECT_EQ(buffer, before);
  std::vector<uint8_t> short_buffer(kFrameHeaderSize);  // Header only.
  EXPECT_FALSE(SealFrame(kMagic, kMax, short_buffer).ok());

  // The parser refuses both from the size field alone, however many bytes
  // follow it.
  std::vector<uint8_t> frame = MustEncode(Payload(kMax, 1));
  frame.resize(frame.size() + 8, 0);
  for (const uint32_t size : {uint32_t{0}, kMax + 1}) {
    std::vector<uint8_t> spliced = frame;
    for (int i = 0; i < 4; ++i) {
      spliced[4 + i] = static_cast<uint8_t>(size >> (8 * i));
    }
    EXPECT_EQ(ParseFrameHeader(spliced.data(), kMagic, kMax).status().code(),
              StatusCode::kCorruption);
    EXPECT_EQ(ParseFrameAt(spliced.data(), 0, spliced.size(), kMagic, kMax)
                  .status()
                  .code(),
              StatusCode::kCorruption);
  }
}

TEST(FrameTest, ScanStopsAtTheFirstBadFrame) {
  std::vector<uint8_t> bytes = {0xEE};  // A prefix the scan starts past.
  std::vector<size_t> ends;
  for (uint8_t i = 0; i < 4; ++i) {
    const std::vector<uint8_t> frame = MustEncode(Payload(3 + i, i));
    bytes.insert(bytes.end(), frame.begin(), frame.end());
    ends.push_back(bytes.size());
  }
  std::vector<size_t> offsets;
  const auto record = [&offsets](const Frame&, size_t offset) {
    offsets.push_back(offset);
    return Status::OK();
  };

  FrameScan scan = ScanFrames(bytes.data(), 1, bytes.size(), kMagic, kMax,
                              record);
  EXPECT_TRUE(scan.status.ok());
  EXPECT_EQ(scan.valid_end, bytes.size());
  EXPECT_EQ(offsets, (std::vector<size_t>{1, ends[0], ends[1], ends[2]}));

  // A CRC defect in the third frame ends the prefix after the second.
  std::vector<uint8_t> corrupt = bytes;
  corrupt[ends[2] - 1] ^= 0x80;
  offsets.clear();
  scan = ScanFrames(corrupt.data(), 1, corrupt.size(), kMagic, kMax, record);
  EXPECT_EQ(scan.status.code(), StatusCode::kCorruption);
  EXPECT_EQ(scan.valid_end, ends[1]);
  EXPECT_EQ(offsets.size(), 2u);

  // So does a torn tail.
  scan = ScanFrames(bytes.data(), 1, bytes.size() - 1, kMagic, kMax, record);
  EXPECT_FALSE(scan.status.ok());
  EXPECT_EQ(scan.valid_end, ends[2]);

  // And so does the visitor refusing a frame, whose status is reported.
  scan = ScanFrames(bytes.data(), 1, bytes.size(), kMagic, kMax,
                    [&ends](const Frame&, size_t offset) {
                      return offset == ends[0]
                                 ? Status::OutOfRange("refused")
                                 : Status::OK();
                    });
  EXPECT_EQ(scan.status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(scan.valid_end, ends[0]);

  // An empty range is a clean, empty prefix.
  scan = ScanFrames(bytes.data(), 1, 1, kMagic, kMax, record);
  EXPECT_TRUE(scan.status.ok());
  EXPECT_EQ(scan.valid_end, 1u);
}

}  // namespace
}  // namespace lossyts::zip
