#include "stream/streaming_compressor.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "compress/pipeline.h"
#include "conform/corpus.h"
#include "conform/stream_oracle.h"
#include "core/rng.h"

namespace lossyts::stream {
namespace {

TimeSeries NoisySine(size_t n, uint64_t seed, double base = 20.0) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = base + 5.0 * std::sin(static_cast<double>(i) * 0.05) +
           0.2 * rng.Normal();
  }
  return TimeSeries(0, 60, std::move(v));
}

std::vector<uint8_t> BatchBlob(const std::string& codec, const TimeSeries& ts,
                               double eb) {
  Result<std::unique_ptr<compress::Compressor>> c =
      compress::MakeCompressor(codec);
  EXPECT_TRUE(c.ok());
  Result<std::vector<uint8_t>> blob = (*c)->Compress(ts, eb);
  EXPECT_TRUE(blob.ok()) << blob.status().message();
  return *blob;
}

std::vector<uint8_t> StreamBlob(const std::string& codec, const TimeSeries& ts,
                                double eb,
                                std::vector<StreamSegment>* segments = nullptr) {
  Result<std::unique_ptr<StreamingCompressor>> sc =
      MakeStreamingCompressor(codec);
  EXPECT_TRUE(sc.ok());
  EXPECT_TRUE((*sc)
                  ->Open(ts.start_timestamp(), ts.interval_seconds(), eb)
                  .ok());
  for (size_t i = 0; i < ts.size(); ++i) {
    EXPECT_TRUE((*sc)->Append(ts[i], segments).ok()) << "index " << i;
  }
  Result<std::vector<uint8_t>> blob = (*sc)->Flush(segments);
  EXPECT_TRUE(blob.ok()) << blob.status().message();
  return *blob;
}

TEST(StreamingCompressorTest, FactoryKnowsPmcAndSwing) {
  // Spelling rules mirror compress::MakeCompressor: exact upper-case names,
  // InvalidArgument (echoing the input) otherwise.
  EXPECT_TRUE(HasStreamingCompressor("PMC"));
  EXPECT_TRUE(HasStreamingCompressor("SWING"));
  EXPECT_FALSE(HasStreamingCompressor("pmc"));
  EXPECT_FALSE(HasStreamingCompressor("SZ"));
  EXPECT_FALSE(HasStreamingCompressor(""));
  EXPECT_TRUE(MakeStreamingCompressor("PMC").ok());
  EXPECT_TRUE(MakeStreamingCompressor("SWING").ok());
  EXPECT_EQ(MakeStreamingCompressor("GORILLA").status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_EQ(StreamingCompressorNames().size(), 2u);
}

TEST(StreamingCompressorTest, FlushMatchesBatchOnSmoothSeries) {
  for (const std::string codec : {"PMC", "SWING"}) {
    for (double eb : {0.01, 0.05, 0.2, 0.8}) {
      TimeSeries ts = NoisySine(2000, 17);
      EXPECT_EQ(StreamBlob(codec, ts, eb), BatchBlob(codec, ts, eb))
          << codec << " eb=" << eb;
    }
  }
}

TEST(StreamingCompressorTest, FlushMatchesBatchAcrossCorpusFamilies) {
  // cases_per_family >= 6 crosses the u16 cap in the "lengths" family
  // (65535 / 65536 / 65537), exercising forced segment closes.
  const std::vector<conform::CorpusCase> corpus =
      conform::GenerateCorpus(11, 6);
  for (const std::string codec : {"PMC", "SWING"}) {
    for (const conform::CorpusCase& c : corpus) {
      EXPECT_EQ(StreamBlob(codec, c.series, 0.05),
                BatchBlob(codec, c.series, 0.05))
          << codec << " " << c.family << "#" << c.index;
    }
  }
}

TEST(StreamingCompressorTest, EveryPrefixMatchesBatch) {
  // Flushing mid-segment at *every* cut of a small series: each prefix's
  // Flush() must equal batch Compress of that prefix.
  TimeSeries ts = NoisySine(64, 3);
  for (const std::string codec : {"PMC", "SWING"}) {
    for (size_t cut = 1; cut <= ts.size(); ++cut) {
      Result<TimeSeries> prefix = ts.Slice(0, cut);
      ASSERT_TRUE(prefix.ok());
      EXPECT_EQ(StreamBlob(codec, *prefix, 0.05),
                BatchBlob(codec, *prefix, 0.05))
          << codec << " cut=" << cut;
    }
  }
}

TEST(StreamingCompressorTest, LengthOneSeries) {
  TimeSeries ts(0, 60, std::vector<double>{42.5});
  for (const std::string codec : {"PMC", "SWING"}) {
    std::vector<StreamSegment> segments;
    EXPECT_EQ(StreamBlob(codec, ts, 0.05, &segments),
              BatchBlob(codec, ts, 0.05));
    ASSERT_EQ(segments.size(), 1u) << codec;
    EXPECT_EQ(segments[0].start_index, 0u);
    EXPECT_EQ(segments[0].length, 1u);
  }
}

TEST(StreamingCompressorTest, SegmentsTileAndReconstruct) {
  TimeSeries ts = NoisySine(1500, 29);
  for (const std::string codec : {"PMC", "SWING"}) {
    std::vector<StreamSegment> segments;
    const std::vector<uint8_t> blob = StreamBlob(codec, ts, 0.1, &segments);

    uint64_t covered = 0;
    for (const StreamSegment& s : segments) {
      EXPECT_EQ(s.start_index, covered);
      EXPECT_GT(s.length, 0u);
      covered += s.length;
    }
    EXPECT_EQ(covered, ts.size());

    Result<std::unique_ptr<compress::Compressor>> batch =
        compress::MakeCompressor(codec);
    ASSERT_TRUE(batch.ok());
    Result<TimeSeries> decoded = (*batch)->Decompress(blob);
    ASSERT_TRUE(decoded.ok());
    for (const StreamSegment& s : segments) {
      for (size_t k = 0; k < s.length; ++k) {
        const size_t i = static_cast<size_t>(s.start_index) + k;
        const double rec = s.ValueAt(k);
        const double dec = (*decoded)[i];
        uint64_t a;
        uint64_t b;
        std::memcpy(&a, &rec, sizeof(a));
        std::memcpy(&b, &dec, sizeof(b));
        EXPECT_EQ(a, b) << codec << " index " << i;
      }
    }
  }
}

TEST(StreamingCompressorTest, ValueAtKeepsSignedZeroMeans) {
  // After the break at the 1.0s, PMC's last window has mean -0.0. Every
  // closed segment's ValueAt must equal Decompress bit for bit, sign
  // included.
  const double z = -0.0;
  const TimeSeries ts(0, 60, {z, z, z, z, 1.0, 1.0, z, z});
  for (const std::string codec : {"PMC", "SWING"}) {
    std::vector<StreamSegment> segments;
    const std::vector<uint8_t> blob = StreamBlob(codec, ts, 0.05, &segments);
    Result<std::unique_ptr<compress::Compressor>> batch =
        compress::MakeCompressor(codec);
    ASSERT_TRUE(batch.ok());
    Result<TimeSeries> decoded = (*batch)->Decompress(blob);
    ASSERT_TRUE(decoded.ok());
    size_t checked = 0;
    for (const StreamSegment& s : segments) {
      for (size_t k = 0; k < s.length; ++k) {
        const size_t i = static_cast<size_t>(s.start_index) + k;
        const double rec = s.ValueAt(k);
        const double dec = (*decoded)[i];
        uint64_t a;
        uint64_t b;
        std::memcpy(&a, &rec, sizeof(a));
        std::memcpy(&b, &dec, sizeof(b));
        EXPECT_EQ(a, b) << codec << " index " << i;
        ++checked;
      }
    }
    EXPECT_EQ(checked, ts.size()) << codec;
  }
}

TEST(StreamingCompressorTest, NonFinitePointRejectedWithoutCorruption) {
  TimeSeries ts = NoisySine(300, 5);
  for (const std::string codec : {"PMC", "SWING"}) {
    Result<std::unique_ptr<StreamingCompressor>> sc =
        MakeStreamingCompressor(codec);
    ASSERT_TRUE(sc.ok());
    ASSERT_TRUE((*sc)->Open(0, 60, 0.05).ok());
    for (size_t i = 0; i < ts.size(); ++i) {
      if (i == 150) {
        // A bad point mid-stream must bounce without perturbing state.
        for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
          Status s = (*sc)->Append(bad);
          EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
        }
        EXPECT_EQ((*sc)->points(), 150u);
      }
      ASSERT_TRUE((*sc)->Append(ts[i]).ok());
    }
    Result<std::vector<uint8_t>> blob = (*sc)->Flush();
    ASSERT_TRUE(blob.ok());
    EXPECT_EQ(*blob, BatchBlob(codec, ts, 0.05)) << codec;
  }
}

TEST(StreamingCompressorTest, EmptyFlushAndClosedStateRejected) {
  for (const std::string codec : {"PMC", "SWING"}) {
    Result<std::unique_ptr<StreamingCompressor>> sc =
        MakeStreamingCompressor(codec);
    ASSERT_TRUE(sc.ok());
    // Append/Flush before Open.
    EXPECT_EQ((*sc)->Append(1.0).code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ((*sc)->Flush().status().code(),
              StatusCode::kFailedPrecondition);
    ASSERT_TRUE((*sc)->Open(0, 60, 0.05).ok());
    // Flush with zero accepted points mirrors batch's empty-series error.
    EXPECT_EQ((*sc)->Flush().status().code(), StatusCode::kInvalidArgument);
    // The failed Flush leaves the stream open; points still ingestible.
    EXPECT_TRUE((*sc)->Append(1.0).ok());
    EXPECT_TRUE((*sc)->Flush().ok());
    // Flush closed the stream.
    EXPECT_EQ((*sc)->Append(1.0).code(), StatusCode::kFailedPrecondition);
  }
}

TEST(StreamingCompressorTest, OpenValidatesLikeBatch) {
  Result<std::unique_ptr<StreamingCompressor>> sc =
      MakeStreamingCompressor("PMC");
  ASSERT_TRUE(sc.ok());
  EXPECT_EQ((*sc)->Open(0, 60, 0.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*sc)->Open(0, 60, 1.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*sc)->Open(0, 60, std::nan("")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*sc)->Open(0, 70000, 0.05).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*sc)->Open(0, -1, 0.05).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE((*sc)->Open(0, 65535, 0.05).ok());
  // Reopen resets everything.
  ASSERT_TRUE((*sc)->Append(1.0).ok());
  ASSERT_TRUE((*sc)->Open(0, 60, 0.05).ok());
  EXPECT_EQ((*sc)->points(), 0u);
}

TEST(StreamingCompressorTest, ProvisionalTracksOpenWindow) {
  // A constant series never closes a segment, so the whole prefix lives in
  // the provisional window and must reconstruct from it.
  for (const std::string codec : {"PMC", "SWING"}) {
    Result<std::unique_ptr<StreamingCompressor>> sc =
        MakeStreamingCompressor(codec);
    ASSERT_TRUE(sc.ok());
    ASSERT_TRUE((*sc)->Open(0, 60, 0.05).ok());
    for (int i = 0; i < 100; ++i) ASSERT_TRUE((*sc)->Append(7.0).ok());
    EXPECT_EQ((*sc)->closed_points(), 0u);
    const compress::SegmentModel prov = (*sc)->Provisional();
    ASSERT_EQ(prov.length, 100u);
    for (uint64_t k = 0; k < prov.length; ++k) {
      EXPECT_NEAR(prov.ValueAt(k), 7.0, 0.05 * 7.0) << codec << " k=" << k;
    }
    std::vector<double> tail;
    (*sc)->ProvisionalTail(&tail);
    ASSERT_EQ(tail.size(), 100u);
    EXPECT_EQ(tail[0], prov.ValueAt(0));
  }
}

TEST(StreamingCompressorTest, RunStreamOraclesCleanOnGoodCodecs) {
  TimeSeries ts = NoisySine(500, 23);
  for (const std::string codec : {"PMC", "SWING"}) {
    size_t checked = 0;
    const std::vector<conform::OracleFailure> failures =
        conform::RunStreamOracles(codec, ts, 0.05, 7, &checked);
    EXPECT_TRUE(failures.empty())
        << codec << ": " << failures.front().oracle << " "
        << failures.front().detail;
    EXPECT_EQ(checked, 5u);  // replay, flush-first, flush-mid, 2 injects.
  }
  // No streaming implementation: the battery is empty, not a failure.
  size_t checked = 0;
  EXPECT_TRUE(conform::RunStreamOracles("SZ", ts, 0.05, 7, &checked).empty());
  EXPECT_EQ(checked, 0u);
}

}  // namespace
}  // namespace lossyts::stream
