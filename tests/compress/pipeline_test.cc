#include "compress/pipeline.h"

#include <atomic>
#include <cmath>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "zip/gzip.h"

namespace lossyts::compress {
namespace {

TimeSeries SmoothSeries(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  double x = 50.0;
  for (size_t i = 0; i < n; ++i) {
    x += 0.05 * rng.Normal();
    v[i] = x + 3.0 * std::sin(static_cast<double>(i) * 0.02);
  }
  return TimeSeries(0, 900, std::move(v));
}

TEST(PipelineTest, SerializeRawCsvIsParsableText) {
  TimeSeries ts = SmoothSeries(10, 1);
  std::vector<uint8_t> csv = SerializeRawCsv(ts);
  const std::string text(csv.begin(), csv.end());
  EXPECT_EQ(text.rfind("timestamp,value\n", 0), 0u);
  // One header line plus one line per point.
  size_t lines = 0;
  for (char c : text) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 11u);
}

TEST(PipelineTest, RawGzipShrinksSmoothData) {
  TimeSeries ts = SmoothSeries(5000, 2);
  EXPECT_LT(RawGzipSize(ts), SerializeRawCsv(ts).size());
}

TEST(PipelineTest, RunPipelineProducesConsistentResult) {
  TimeSeries ts = SmoothSeries(3000, 3);
  Result<std::unique_ptr<Compressor>> pmc = MakeCompressor("PMC");
  ASSERT_TRUE(pmc.ok());
  Result<PipelineResult> result = RunPipeline(**pmc, ts, 0.05);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->compressor_name, "PMC");
  EXPECT_DOUBLE_EQ(result->error_bound, 0.05);
  EXPECT_GT(result->compression_ratio, 1.0);
  EXPECT_GT(result->segment_count, 0u);
  EXPECT_LT(result->segment_count, ts.size());
  EXPECT_GT(result->te_rmse, 0.0);
  EXPECT_LE(result->te_max_rel, 0.05 * (1.0 + 1e-9));
  EXPECT_EQ(result->decompressed.size(), ts.size());
  EXPECT_EQ(result->raw_gz_bytes, RawGzipSize(ts));
  EXPECT_DOUBLE_EQ(result->compression_ratio,
                   static_cast<double>(result->raw_gz_bytes) /
                       static_cast<double>(result->gz_bytes));
}

TEST(PipelineTest, CrIncreasesWithErrorBoundForPmc) {
  TimeSeries ts = SmoothSeries(4000, 5);
  Result<std::unique_ptr<Compressor>> pmc = MakeCompressor("PMC");
  ASSERT_TRUE(pmc.ok());
  Result<PipelineResult> low = RunPipeline(**pmc, ts, 0.01);
  Result<PipelineResult> high = RunPipeline(**pmc, ts, 0.5);
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());
  EXPECT_GT(high->compression_ratio, low->compression_ratio);
  EXPECT_GE(high->te_rmse, low->te_rmse);
  EXPECT_LT(high->segment_count, low->segment_count);
}

TEST(PipelineTest, AllThreeLossyCompressorsBeatGorillaOnSmoothData) {
  TimeSeries ts = SmoothSeries(4000, 7);
  Result<std::unique_ptr<Compressor>> gorilla = MakeCompressor("GORILLA");
  ASSERT_TRUE(gorilla.ok());
  Result<PipelineResult> baseline = RunPipeline(**gorilla, ts, 0.0);
  ASSERT_TRUE(baseline.ok());
  for (const std::string& name : LossyCompressorNames()) {
    Result<std::unique_ptr<Compressor>> c = MakeCompressor(name);
    ASSERT_TRUE(c.ok());
    Result<PipelineResult> r = RunPipeline(**c, ts, 0.1);
    ASSERT_TRUE(r.ok()) << name;
    EXPECT_GT(r->compression_ratio, baseline->compression_ratio) << name;
  }
}

TEST(PipelineTest, GorillaIsLosslessThroughPipeline) {
  TimeSeries ts = SmoothSeries(2000, 9);
  Result<std::unique_ptr<Compressor>> gorilla = MakeCompressor("GORILLA");
  ASSERT_TRUE(gorilla.ok());
  Result<PipelineResult> r = RunPipeline(**gorilla, ts, 0.0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->te_rmse, 0.0);
  EXPECT_EQ(r->te_max_rel, 0.0);
}

TEST(PipelineTest, SegmentCountsMatchFigure3Ordering) {
  // Swing's two-coefficient model needs fewer segments than PMC's constant.
  TimeSeries ts = SmoothSeries(4000, 11);
  Result<std::unique_ptr<Compressor>> pmc = MakeCompressor("PMC");
  Result<std::unique_ptr<Compressor>> swing = MakeCompressor("SWING");
  ASSERT_TRUE(pmc.ok());
  ASSERT_TRUE(swing.ok());
  Result<PipelineResult> pmc_result = RunPipeline(**pmc, ts, 0.1);
  Result<PipelineResult> swing_result = RunPipeline(**swing, ts, 0.1);
  ASSERT_TRUE(pmc_result.ok());
  ASSERT_TRUE(swing_result.ok());
  EXPECT_LE(swing_result->segment_count, pmc_result->segment_count);
}

// The CR numerator computed from scratch, bypassing the memo.
struct FreshRawSizes {
  size_t raw_bytes;
  size_t raw_gz_bytes;
};

FreshRawSizes ComputeFresh(const TimeSeries& ts) {
  const std::vector<uint8_t> csv = SerializeRawCsv(ts);
  return {csv.size(), zip::GzipCompress(csv).size()};
}

// Both memoized entry points, RawGzipSize and RunPipeline, must report what a
// fresh SerializeRawCsv + gzip of `ts` gives. Returns the fresh sizes.
FreshRawSizes ExpectMatchesFresh(const TimeSeries& ts) {
  const FreshRawSizes fresh = ComputeFresh(ts);
  EXPECT_EQ(RawGzipSize(ts), fresh.raw_gz_bytes);
  Result<std::unique_ptr<Compressor>> gorilla = MakeCompressor("GORILLA");
  EXPECT_TRUE(gorilla.ok());
  if (!gorilla.ok()) return fresh;
  Result<PipelineResult> r = RunPipeline(**gorilla, ts, 0.0);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return fresh;
  EXPECT_EQ(r->raw_bytes, fresh.raw_bytes);
  EXPECT_EQ(r->raw_gz_bytes, fresh.raw_gz_bytes);
  return fresh;
}

TEST(PipelineTest, RawSizesRepeatedCallMatchesFresh) {
  const TimeSeries ts = SmoothSeries(2000, 21);
  ExpectMatchesFresh(ts);
  ExpectMatchesFresh(ts);
  ExpectMatchesFresh(TimeSeries(ts));
}

TEST(PipelineTest, RawSizesSeeMutableValuesEdit) {
  TimeSeries ts = SmoothSeries(2000, 23);
  const FreshRawSizes before = ExpectMatchesFresh(ts);
  // "0" is far shorter than the ~11-character values it replaces, so a stale
  // memo hit would report the old, larger sizes.
  for (size_t i = 0; i < 500; ++i) ts.mutable_values()[i] = 0.0;
  const FreshRawSizes after = ExpectMatchesFresh(ts);
  EXPECT_LT(after.raw_bytes, before.raw_bytes);
}

TEST(PipelineTest, RawSizesSeeStartAndInterval) {
  const TimeSeries base = SmoothSeries(2000, 25);
  const TimeSeries later(1700000000, base.interval_seconds(), base.values());
  const TimeSeries denser(base.start_timestamp(), 7, base.values());
  const FreshRawSizes b = ExpectMatchesFresh(base);
  const FreshRawSizes l = ExpectMatchesFresh(later);
  const FreshRawSizes d = ExpectMatchesFresh(denser);
  // Equal values, different timestamp columns: the CSV sizes must differ.
  EXPECT_NE(b.raw_bytes, l.raw_bytes);
  EXPECT_NE(b.raw_bytes, d.raw_bytes);
}

TEST(PipelineTest, RawSizesTellZeroFromNegativeZero) {
  // Zeros between ones: RunPipeline's NRMSE needs a non-constant series.
  std::vector<double> zeros(1000, 1.0);
  std::vector<double> negative_zeros(1000, 1.0);
  for (size_t i = 0; i < zeros.size(); i += 2) {
    zeros[i] = 0.0;
    negative_zeros[i] = -0.0;
  }
  const FreshRawSizes z = ExpectMatchesFresh(TimeSeries(0, 60, zeros));
  const FreshRawSizes n =
      ExpectMatchesFresh(TimeSeries(0, 60, negative_zeros));
  // 0.0 == -0.0 compares equal, but the CSV prints "-0": 500 more bytes.
  EXPECT_EQ(n.raw_bytes, z.raw_bytes + 500u);
}

TEST(PipelineTest, RawSizesSurviveEviction) {
  // Far more distinct series than the memo holds, then the first again: it
  // was evicted, and whatever the memo now holds must not answer for it.
  const TimeSeries first = SmoothSeries(1500, 27);
  ExpectMatchesFresh(first);
  for (uint64_t seed = 100; seed < 120; ++seed) {
    ExpectMatchesFresh(SmoothSeries(1000 + seed, seed));
  }
  ExpectMatchesFresh(first);
}

// Workers on a shared series and on distinct series at once; the memo's lock
// and its compute-outside-the-lock path are the cross-thread state. Named
// *ConcurrencyTest so the TSan CI leg picks it up.
TEST(PipelineConcurrencyTest, SharedAndDistinctSeriesMatchFresh) {
  std::vector<TimeSeries> series;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    series.push_back(SmoothSeries(800 + 50 * seed, 300 + seed));
  }
  std::vector<FreshRawSizes> fresh;
  for (const TimeSeries& ts : series) fresh.push_back(ComputeFresh(ts));

  constexpr size_t kTasks = 96;
  std::atomic<size_t> mismatches{0};
  ThreadPool pool(4);
  for (size_t task = 0; task < kTasks; ++task) {
    pool.Submit([&, task] {
      // Even tasks share series 0; odd tasks cycle through all of them.
      const size_t index = task % 2 == 0 ? 0 : (task / 2) % series.size();
      const TimeSeries& ts = series[index];
      Result<std::unique_ptr<Compressor>> gorilla = MakeCompressor("GORILLA");
      if (!gorilla.ok()) {
        mismatches.fetch_add(1);
        return;
      }
      Result<PipelineResult> r = RunPipeline(**gorilla, ts, 0.0);
      if (RawGzipSize(ts) != fresh[index].raw_gz_bytes || !r.ok() ||
          r->raw_bytes != fresh[index].raw_bytes ||
          r->raw_gz_bytes != fresh[index].raw_gz_bytes) {
        mismatches.fetch_add(1);
      }
    });
  }
  pool.Wait();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(PipelineTest, MakeCompressorRejectsUnknownName) {
  // The name is a caller-supplied argument (a --codecs flag), so the failure
  // is InvalidArgument — not NotFound — and the message must echo the input
  // so a typo is diagnosable from the error alone.
  Result<std::unique_ptr<Compressor>> c = MakeCompressor("LZMA");
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(c.status().message().find("LZMA"), std::string::npos)
      << c.status().ToString();
}

TEST(PipelineTest, MakeCompressorIsCaseSensitive) {
  for (const std::string name : {"pmc", "Swing", "sz", "lfzip", "cameo"}) {
    Result<std::unique_ptr<Compressor>> c = MakeCompressor(name);
    EXPECT_FALSE(c.ok()) << name;
    EXPECT_EQ(c.status().code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(c.status().message().find(name), std::string::npos) << name;
  }
}

TEST(PipelineTest, CompressionRatioIsExactlyRawGzOverGz) {
  // Eq. 3 regression: the ratio must be the plain double division of the two
  // gzipped byte counts, with no rounding, clamping, or epsilon.
  TimeSeries ts = SmoothSeries(2500, 13);
  for (const std::string name :
       {"PMC", "SWING", "SZ", "PPA", "LFZIP", "CAMEO"}) {
    Result<std::unique_ptr<Compressor>> c = MakeCompressor(name);
    ASSERT_TRUE(c.ok()) << name;
    Result<PipelineResult> r = RunPipeline(**c, ts, 0.05);
    ASSERT_TRUE(r.ok()) << name << ": " << r.status().ToString();
    ASSERT_GT(r->gz_bytes, 0u) << name;
    EXPECT_EQ(r->compression_ratio,
              static_cast<double>(r->raw_gz_bytes) /
                  static_cast<double>(r->gz_bytes))
        << name;
  }
}

// All eight registered algorithm-id bytes, as (id, MakeCompressor name).
struct IdCase {
  AlgorithmId id;
  const char* name;
};

class DecompressAnyIdTest : public ::testing::TestWithParam<IdCase> {};

INSTANTIATE_TEST_SUITE_P(
    AllEightIds, DecompressAnyIdTest,
    ::testing::Values(IdCase{AlgorithmId::kPmc, "PMC"},
                      IdCase{AlgorithmId::kSwing, "SWING"},
                      IdCase{AlgorithmId::kSz, "SZ"},
                      IdCase{AlgorithmId::kGorilla, "GORILLA"},
                      IdCase{AlgorithmId::kChimp, "CHIMP"},
                      IdCase{AlgorithmId::kPpa, "PPA"},
                      IdCase{AlgorithmId::kLfzip, "LFZIP"},
                      IdCase{AlgorithmId::kCameo, "CAMEO"}),
    [](const ::testing::TestParamInfo<IdCase>& info) {
      return info.param.name;
    });

TEST_P(DecompressAnyIdTest, DispatchesRegisteredIdToItsCodec) {
  TimeSeries ts = SmoothSeries(300, 17);
  Result<std::unique_ptr<Compressor>> codec = MakeCompressor(GetParam().name);
  ASSERT_TRUE(codec.ok());
  Result<std::vector<uint8_t>> blob = (*codec)->Compress(ts, 0.05);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  ASSERT_EQ((*blob)[0], static_cast<uint8_t>(GetParam().id));
  Result<TimeSeries> round = DecompressAny(*blob);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->size(), ts.size());
}

TEST_P(DecompressAnyIdTest, RegisteredIdOverGarbagePayloadFailsCleanly) {
  // A valid id byte over a garbage payload must be a Status, never a crash
  // or a misparse that silently returns data.
  std::vector<uint8_t> blob(64, 0xA5);
  blob[0] = static_cast<uint8_t>(GetParam().id);
  Result<TimeSeries> r = DecompressAny(blob);
  EXPECT_FALSE(r.ok());
}

TEST(PipelineTest, DecompressAnyRejectsUnregisteredIdByte) {
  // Every id byte outside the eight registered ones must fail with
  // Corruption before any codec-specific parsing happens. A real header
  // follows the id byte so a misdispatch would otherwise have bytes to chew.
  TimeSeries ts = SmoothSeries(100, 19);
  Result<std::unique_ptr<Compressor>> pmc = MakeCompressor("PMC");
  ASSERT_TRUE(pmc.ok());
  Result<std::vector<uint8_t>> blob = (*pmc)->Compress(ts, 0.05);
  ASSERT_TRUE(blob.ok());
  for (int id : {0, 9, 10, 127, 255}) {
    std::vector<uint8_t> spliced = *blob;
    spliced[0] = static_cast<uint8_t>(id);
    Result<TimeSeries> r = DecompressAny(spliced);
    ASSERT_FALSE(r.ok()) << "id byte " << id;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << "id byte " << id;
  }
  EXPECT_FALSE(DecompressAny({}).ok());
}

TEST(PipelineTest, PaperErrorBoundsMatchSection32) {
  const std::vector<double>& ebs = PaperErrorBounds();
  ASSERT_EQ(ebs.size(), 13u);
  EXPECT_DOUBLE_EQ(ebs.front(), 0.01);
  EXPECT_DOUBLE_EQ(ebs.back(), 0.8);
  for (size_t i = 1; i < ebs.size(); ++i) EXPECT_GT(ebs[i], ebs[i - 1]);
}

TEST(PipelineTest, CountConstantRuns) {
  EXPECT_EQ(CountConstantRuns(TimeSeries()), 0u);
  EXPECT_EQ(CountConstantRuns(TimeSeries(0, 1, {1.0})), 1u);
  EXPECT_EQ(CountConstantRuns(TimeSeries(0, 1, {1.0, 1.0, 2.0, 2.0, 1.0})),
            3u);
}

}  // namespace
}  // namespace lossyts::compress
