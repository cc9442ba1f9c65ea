// Interoperability tests against the system gzip tool: our encoder's output
// must decompress with gunzip, and gzip's output must decompress with our
// decoder. These are the strongest end-to-end checks that the from-scratch
// DEFLATE implementation is RFC 1951/1952 conformant. Skipped when no gzip
// binary is available.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "zip/gzip.h"
#include "test_util.h"

namespace lossyts::zip {
namespace {

bool HaveSystemGzip() {
  return std::system("command -v gzip > /dev/null 2>&1") == 0;
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(file)),
                              std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& data) {
  std::ofstream file(path, std::ios::binary);
  file.write(reinterpret_cast<const char*>(data.data()),
             static_cast<std::streamsize>(data.size()));
}

std::vector<uint8_t> MakePayload(size_t n, uint64_t seed, int alphabet) {
  Rng rng(seed);
  std::vector<uint8_t> data(n);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.UniformInt(static_cast<uint64_t>(alphabet)));
  }
  return data;
}

class GzipInteropTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!HaveSystemGzip()) GTEST_SKIP() << "no system gzip available";
    base_ = test::UniqueTestDir() + "/lossyts_interop";
  }
  void TearDown() override {
    std::remove((base_ + ".bin").c_str());
    std::remove((base_ + ".bin.gz").c_str());
    std::remove((base_ + ".gz").c_str());
    std::remove((base_ + ".out").c_str());
  }

  std::string base_;
};

TEST_F(GzipInteropTest, SystemGunzipReadsOurOutput) {
  const std::vector<uint8_t> payload = MakePayload(50000, 1, 32);
  WriteFile(base_ + ".gz", GzipCompress(payload));
  const std::string cmd =
      "gunzip -c " + base_ + ".gz > " + base_ + ".out 2> /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << "gunzip rejected our stream";
  EXPECT_EQ(ReadFile(base_ + ".out"), payload);
}

TEST_F(GzipInteropTest, WeReadSystemGzipOutput) {
  const std::vector<uint8_t> payload = MakePayload(50000, 2, 48);
  WriteFile(base_ + ".bin", payload);
  // gzip writes FNAME into the header; our decoder must skip it.
  const std::string cmd = "gzip -kf " + base_ + ".bin 2> /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  Result<std::vector<uint8_t>> out = GzipDecompress(ReadFile(base_ + ".bin.gz"));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, payload);
}

TEST_F(GzipInteropTest, WeReadSystemGzipBestCompression) {
  const std::vector<uint8_t> payload = MakePayload(80000, 3, 8);
  WriteFile(base_ + ".bin", payload);
  const std::string cmd = "gzip -9kf " + base_ + ".bin 2> /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  Result<std::vector<uint8_t>> out = GzipDecompress(ReadFile(base_ + ".bin.gz"));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, payload);
}

TEST_F(GzipInteropTest, RoundTripSweepThroughSystemTool) {
  for (size_t n : {0u, 1u, 100u, 10000u}) {
    const std::vector<uint8_t> payload = MakePayload(n, 4 + n, 200);
    WriteFile(base_ + ".gz", GzipCompress(payload));
    const std::string cmd =
        "gunzip -c " + base_ + ".gz > " + base_ + ".out 2> /dev/null";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << "n=" << n;
    EXPECT_EQ(ReadFile(base_ + ".out"), payload) << "n=" << n;
  }
}

TEST_F(GzipInteropTest, OurRatioIsCompetitiveWithSystemGzip) {
  // Same low-entropy payload: our encoder should land within 2x of gzip -6.
  std::vector<uint8_t> payload;
  Rng rng(9);
  double x = 1000.0;
  for (int i = 0; i < 20000; ++i) {
    x += rng.Normal();
    const auto bits = static_cast<long long>(x * 100.0);
    payload.push_back(static_cast<uint8_t>(bits & 0xFF));
    payload.push_back(static_cast<uint8_t>((bits >> 8) & 0xFF));
  }
  WriteFile(base_ + ".bin", payload);
  ASSERT_EQ(std::system(("gzip -kf " + base_ + ".bin 2> /dev/null").c_str()),
            0);
  const size_t system_size = ReadFile(base_ + ".bin.gz").size();
  const size_t our_size = GzipCompress(payload).size();
  EXPECT_LT(our_size, system_size * 2) << "ours " << our_size << " vs gzip "
                                       << system_size;
}

}  // namespace
}  // namespace lossyts::zip
