// Golden bytes of the three users of the CRC frame (zip/frame.h): one store
// chunk frame, one WAL file with one record, and one socket frame, pinned
// as hex literals. The literals were produced by the hand-written encoders
// each format had before it moved onto the shared codec, and the test only
// uses entry points both versions have, so any byte drift in the move fails
// here.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "serve/wal.h"
#include "store/reader.h"
#include "store/writer.h"
#include "test_util.h"

namespace lossyts {
namespace {

std::string Hex(const uint8_t* data, size_t size) {
  std::string out;
  char byte[3];
  for (size_t i = 0; i < size; ++i) {
    std::snprintf(byte, sizeof(byte), "%02x", data[i]);
    out += byte;
  }
  return out;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(file)),
                              std::istreambuf_iterator<char>());
}

TEST(FrameGoldenTest, StoreChunkFrame) {
  const std::string path = test::UniqueTestDir() + "/golden.lts";
  store::StoreOptions options;
  options.chunk_span = 4;
  options.codecs = {"GORILLA"};
  auto writer = store::StoreWriter::Create(path, options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(
      (*writer)->Append(TimeSeries(1000, 60, {1.5, 2.5, 2.5, -4.0})).ok());
  ASSERT_TRUE((*writer)->Finish().ok());

  const std::vector<uint8_t> bytes = ReadFileBytes(path);
  auto reader = store::StoreReader::OpenBytes(bytes);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ((*reader)->chunks().size(), 1u);
  const store::ChunkInfo& chunk = (*reader)->chunks()[0];
  const size_t frame_size = chunk.payload_size + 12;  // magic, size, crc.
  ASSERT_LE(chunk.offset + frame_size, bytes.size());
  EXPECT_EQ(Hex(bytes.data() + chunk.offset, frame_size),
            "4c5453431e00000004e80300003c00040000000f000000fc1f00000000000007"
            "e6ff1b3401281ca6f816");
}

TEST(FrameGoldenTest, WalRecord) {
  const std::string path = test::UniqueTestDir() + "/golden.wal";
  {
    auto writer = serve::WalWriter::Open(path, serve::kWalHeaderSize);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    serve::WalRecord record;
    record.series = "srv.cpu";
    record.first_timestamp = 1000;
    record.interval_seconds = 60;
    record.first_index = 7;
    record.values = {1.5, -2.25};
    ASSERT_TRUE((*writer)->Append(record).ok());
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  const std::vector<uint8_t> bytes = ReadFileBytes(path);
  EXPECT_EQ(Hex(bytes.data(), bytes.size()),
            "4c545357011bdf05a54c54535230000000077372762e637075e8030000000000"
            "003c000000070000000000000002000000000000000000f83f00000000000002"
            "c05975470f");
}

TEST(FrameGoldenTest, SocketFrame) {
  serve::Request request;
  request.type = serve::RequestType::kAppend;
  request.series = "cpu";
  request.first_timestamp = 60;
  request.interval_seconds = 30;
  request.values = {0.5, 8.0};
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(
      serve::WriteFrame(fds[0], *serve::EncodeRequest(request), 1000).ok());
  ::close(fds[0]);
  std::vector<uint8_t> bytes;
  uint8_t buffer[256];
  ssize_t n;
  while ((n = ::recv(fds[1], buffer, sizeof(buffer), 0)) > 0) {
    bytes.insert(bytes.end(), buffer, buffer + n);
  }
  ::close(fds[1]);
  EXPECT_EQ(Hex(bytes.data(), bytes.size()),
            "4c54534d2500000002036370753c000000000000001e00000002000000000000"
            "000000e03f0000000000002040d68f1558");
}

}  // namespace
}  // namespace lossyts
