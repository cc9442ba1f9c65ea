// Golden digests of the two segment codecs: PMC with f32 and with f64
// coefficients, and Swing. Each digest is an FNV-1a hash over every blob's
// bytes and every decoded value's bits across the conformance corpus × the
// conform bounds, plus a signed-zero series and two series that hit the
// segment-length cap. The constants were recorded from the per-codec
// encoders and decoders that predate the shared segment core
// (compress/segments.h). Batch Compress and the streaming compressors now
// drive that one core, so they can no longer disagree with each other; this
// test is the oracle that still notices when the core itself drifts.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "compress/pmc.h"
#include "compress/swing.h"
#include "conform/corpus.h"

namespace lossyts::compress {
namespace {

class Fnv {
 public:
  void Mix(const uint8_t* data, size_t size) {
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= data[i];
      hash_ *= 0x100000001B3ULL;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

uint64_t Digest(const Compressor& codec) {
  std::vector<TimeSeries> inputs;
  for (conform::CorpusCase& c : conform::GenerateCorpus(1, 6)) {
    inputs.push_back(std::move(c.series));
  }
  const double z = -0.0;
  inputs.push_back(TimeSeries(0, 60, {z, z, z, z, 1.0, 1.0, z, z}));
  // A constant and an exact ramp that each codec covers with one model, so
  // both hit the u16 segment-length cap twice.
  std::vector<double> constant(140000, 3.0);
  std::vector<double> ramp(140000);
  for (size_t i = 0; i < ramp.size(); ++i) ramp[i] = 1.0 + 0.5 * i;
  inputs.push_back(TimeSeries(0, 60, std::move(constant)));
  inputs.push_back(TimeSeries(0, 60, std::move(ramp)));

  Fnv fnv;
  for (const TimeSeries& series : inputs) {
    for (double eb : {0.01, 0.05, 0.2, 0.8}) {
      Result<std::vector<uint8_t>> blob = codec.Compress(series, eb);
      EXPECT_TRUE(blob.ok()) << blob.status().ToString();
      if (!blob.ok()) continue;
      fnv.Mix(blob->data(), blob->size());
      Result<TimeSeries> decoded = codec.Decompress(*blob);
      EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
      if (!decoded.ok()) continue;
      const std::vector<double>& v = decoded->values();
      fnv.Mix(reinterpret_cast<const uint8_t*>(v.data()),
              v.size() * sizeof(double));
    }
  }
  return fnv.value();
}

TEST(SegmentGoldenTest, PmcF32) {
  EXPECT_EQ(Digest(PmcCompressor()), 0x03a6a717df3dd27dULL);
}

TEST(SegmentGoldenTest, PmcF64) {
  PmcCompressor::Options options;
  options.f32_coefficients = false;
  EXPECT_EQ(Digest(PmcCompressor(options)), 0x8220ce06dc28538eULL);
}

TEST(SegmentGoldenTest, Swing) {
  EXPECT_EQ(Digest(SwingCompressor()), 0xb6e928a612b0c5d0ULL);
}

}  // namespace
}  // namespace lossyts::compress
