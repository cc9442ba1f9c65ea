// Chunk store round-trip: ingestion determinism, grid enforcement, point
// and range reads, and the open/salvage contract (src/store/).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>

#include "compress/compressor.h"
#include "core/rng.h"
#include "store/format.h"
#include "store/reader.h"
#include "store/writer.h"
#include "test_util.h"

namespace lossyts::store {
namespace {

std::string TempPath(const std::string& name) {
  return test::UniqueTestDir() + "/" + name;
}

TimeSeries MakeWalk(size_t n, uint64_t seed = 42) {
  Rng rng(seed);
  std::vector<double> v(n);
  double x = 100.0;
  for (auto& val : v) {
    x += 0.1 * rng.Normal();
    val = x;
  }
  return TimeSeries(1000, 60, std::move(v));
}

std::vector<uint8_t> ReadBytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.is_open()) << path;
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(file)),
                              std::istreambuf_iterator<char>());
}

std::unique_ptr<StoreReader> Ingest(const TimeSeries& series,
                                    const StoreOptions& options,
                                    const std::string& name) {
  const std::string path = TempPath(name);
  auto writer = StoreWriter::Create(path, options);
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  EXPECT_TRUE((*writer)->Append(series).ok());
  EXPECT_TRUE((*writer)->Finish().ok());
  auto reader = StoreReader::Open(path);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  return std::move(*reader);
}

TEST(StoreTest, RoundTripEveryCodecWithinBound) {
  const TimeSeries series = MakeWalk(2500);
  for (const char* codec : {"PMC", "SWING", "SZ", "GORILLA", "CHIMP"}) {
    StoreOptions options;
    options.error_bound = 0.05;
    options.chunk_span = 512;
    options.codecs = {codec};
    auto reader =
        Ingest(series, options, std::string("rt_") + codec + ".lts");
    EXPECT_TRUE(reader->clean());
    ASSERT_EQ(reader->total_points(), series.size());
    EXPECT_EQ(reader->start_timestamp(), series.start_timestamp());
    EXPECT_EQ(reader->interval_seconds(), series.interval_seconds());
    Result<TimeSeries> out = reader->ReadAll();
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    const bool lossless =
        std::string(codec) == "GORILLA" || std::string(codec) == "CHIMP";
    for (size_t i = 0; i < series.size(); ++i) {
      const double v = series.values()[i];
      const double v_hat = out->values()[i];
      if (lossless) {
        EXPECT_EQ(v, v_hat) << codec << " point " << i;
      } else {
        const compress::Allowance a = compress::RelativeAllowance(v, 0.05);
        EXPECT_GE(v_hat, a.lo) << codec << " point " << i;
        EXPECT_LE(v_hat, a.hi) << codec << " point " << i;
      }
    }
  }
}

TEST(StoreTest, IngestionIsByteDeterministic) {
  const TimeSeries series = MakeWalk(3000);
  StoreOptions options;  // Default multi-codec trial.
  const std::string a = TempPath("det_a.lts");
  const std::string b = TempPath("det_b.lts");
  for (const std::string& path : {a, b}) {
    auto writer = StoreWriter::Create(path, options);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(series).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  EXPECT_EQ(ReadBytes(a), ReadBytes(b));
}

TEST(StoreTest, SplitAppendsWriteTheSameFile) {
  // One Append, and Appends cut off the chunk_span boundaries (a one-point
  // piece, pieces inside one chunk, a piece spanning several), must write
  // the same bytes.
  const TimeSeries series = MakeWalk(2300);
  StoreOptions options;
  options.chunk_span = 256;
  const std::string whole = TempPath("split_whole.lts");
  const std::string split = TempPath("split_pieces.lts");
  const std::vector<size_t> cuts = {0, 1, 100, 700, 701, 1999, 2300};
  for (const std::string& path : {whole, split}) {
    auto writer = StoreWriter::Create(path, options);
    ASSERT_TRUE(writer.ok());
    if (path == whole) {
      ASSERT_TRUE((*writer)->Append(series).ok());
    } else {
      for (size_t c = 0; c + 1 < cuts.size(); ++c) {
        Result<TimeSeries> piece = series.Slice(cuts[c], cuts[c + 1]);
        ASSERT_TRUE(piece.ok());
        ASSERT_TRUE((*writer)->Append(*piece).ok()) << "piece " << c;
      }
    }
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  EXPECT_EQ(ReadBytes(whole), ReadBytes(split));
}

TEST(StoreTest, TailChunkIsShorter) {
  StoreOptions options;
  options.chunk_span = 1000;
  auto reader = Ingest(MakeWalk(2500), options, "tail.lts");
  ASSERT_EQ(reader->chunks().size(), 3u);
  EXPECT_EQ(reader->chunks()[0].num_points, 1000u);
  EXPECT_EQ(reader->chunks()[1].num_points, 1000u);
  EXPECT_EQ(reader->chunks()[2].num_points, 500u);
}

TEST(StoreTest, MultiAppendMustContinueTheGrid) {
  const std::string path = TempPath("grid.lts");
  auto writer = StoreWriter::Create(path, StoreOptions());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(TimeSeries(0, 60, {1.0, 2.0, 3.0})).ok());
  // Continuation at the expected next timestamp is fine.
  ASSERT_TRUE((*writer)->Append(TimeSeries(180, 60, {4.0, 5.0})).ok());
  // A gap is InvalidArgument, as is an interval change.
  EXPECT_EQ((*writer)->Append(TimeSeries(600, 60, {6.0})).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*writer)->Append(TimeSeries(300, 30, {6.0})).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE((*writer)->Finish().ok());
  auto reader = StoreReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->total_points(), 5u);
}

TEST(StoreTest, CreateValidatesOptions) {
  StoreOptions bad_bound;
  bad_bound.error_bound = 1.5;
  EXPECT_EQ(StoreWriter::Create(TempPath("bad1.lts"), bad_bound)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  StoreOptions bad_span;
  bad_span.chunk_span = 0;
  EXPECT_EQ(
      StoreWriter::Create(TempPath("bad2.lts"), bad_span).status().code(),
      StatusCode::kInvalidArgument);
  StoreOptions bad_codec;
  bad_codec.codecs = {"NOPE"};
  EXPECT_FALSE(StoreWriter::Create(TempPath("bad3.lts"), bad_codec).ok());
}

TEST(StoreTest, OpenMissingFileIsNotFound) {
  EXPECT_EQ(StoreReader::Open(TempPath("nonexistent.lts")).status().code(),
            StatusCode::kNotFound);
}

TEST(StoreTest, ReadPointMatchesReadAllOnEveryCodecPath) {
  // The second series holds a PMC segment whose mean is -0.0, after a
  // break: a point read must carry the sign bit the full decode carries.
  const double z = -0.0;
  const std::vector<TimeSeries> inputs = {
      MakeWalk(1500), TimeSeries(1000, 60, {z, z, z, z, 1.0, 1.0, z, z})};
  // Probe chunk starts, chunk ends, and interior points.
  const std::vector<size_t> probes = {0, 1, 5, 7, 399, 400, 799, 800, 1234,
                                      1499};
  for (size_t s = 0; s < inputs.size(); ++s) {
    const TimeSeries& series = inputs[s];
    for (const char* codec : {"PMC", "SWING", "SZ", "GORILLA", "CHIMP"}) {
      StoreOptions options;
      options.chunk_span = 400;
      options.codecs = {codec};
      auto reader = Ingest(series, options,
                           "pt" + std::to_string(s) + "_" + codec + ".lts");
      // Point reads first: ReadAll fills the chunk cache, which point reads
      // would then answer from instead of taking their partial path.
      std::vector<double> points;
      for (size_t g : probes) {
        if (g >= series.size()) break;
        const int64_t t =
            series.start_timestamp() +
            static_cast<int64_t>(g) * series.interval_seconds();
        Result<double> point = reader->ReadPoint(t);
        ASSERT_TRUE(point.ok()) << codec << " index " << g;
        points.push_back(*point);
      }
      Result<TimeSeries> all = reader->ReadAll();
      ASSERT_TRUE(all.ok());
      // Exactly the decoder's value, bit for bit: partial paths (segment
      // walk, prefix decode) must be identical to the full decode.
      for (size_t p = 0; p < points.size(); ++p) {
        const double want = all->values()[probes[p]];
        uint64_t got_bits;
        uint64_t want_bits;
        std::memcpy(&got_bits, &points[p], sizeof(got_bits));
        std::memcpy(&want_bits, &want, sizeof(want_bits));
        EXPECT_EQ(got_bits, want_bits) << codec << " index " << probes[p];
      }
    }
  }
}

TEST(StoreTest, ReadPointRejectsOffGridAndOutOfRange) {
  auto reader = Ingest(MakeWalk(100), StoreOptions(), "ptedge.lts");
  EXPECT_EQ(reader->ReadPoint(1000 - 60).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(reader->ReadPoint(1000 + 100 * 60).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(reader->ReadPoint(1030).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StoreTest, ReadRangeClampsAndMatchesSlice) {
  const TimeSeries series = MakeWalk(2000);
  StoreOptions options;
  options.chunk_span = 300;
  auto reader = Ingest(series, options, "range.lts");
  Result<TimeSeries> all = reader->ReadAll();
  ASSERT_TRUE(all.ok());
  // A range cutting across three chunks, off both chunk boundaries.
  const int64_t t0 = 1000 + 350 * 60;
  const int64_t t1 = 1000 + 950 * 60;
  Result<TimeSeries> range = reader->ReadRange(t0, t1);
  ASSERT_TRUE(range.ok());
  ASSERT_EQ(range->size(), 601u);
  EXPECT_EQ(range->start_timestamp(), t0);
  for (size_t i = 0; i < range->size(); ++i) {
    EXPECT_EQ(range->values()[i], all->values()[350 + i]);
  }
  // Clamping: a range past both ends is the whole series.
  Result<TimeSeries> clamped =
      reader->ReadRange(INT64_MIN / 2, INT64_MAX / 2);
  ASSERT_TRUE(clamped.ok());
  EXPECT_EQ(clamped->values(), all->values());
  // Empty intersection yields an empty series, not an error.
  Result<TimeSeries> empty = reader->ReadRange(0, 500);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->size(), 0u);
  // Inverted ranges are an argument error.
  EXPECT_EQ(reader->ReadRange(2000, 1000).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StoreTest, ReadRangeIsIdenticalAcrossJobs) {
  StoreOptions options;
  options.chunk_span = 128;
  auto reader = Ingest(MakeWalk(4000), options, "jobs.lts");
  Result<TimeSeries> sequential = reader->ReadAll(1);
  ASSERT_TRUE(sequential.ok());
  for (int jobs : {2, 4, 8}) {
    reader->ClearChunkCache();
    Result<TimeSeries> parallel = reader->ReadAll(jobs);
    ASSERT_TRUE(parallel.ok());
    ASSERT_EQ(parallel->size(), sequential->size());
    EXPECT_EQ(0, std::memcmp(parallel->values().data(),
                             sequential->values().data(),
                             sequential->size() * sizeof(double)))
        << "jobs=" << jobs;
  }
}

TEST(StoreTest, ChunkCacheCountsHitsAndMisses) {
  StoreOptions options;
  options.chunk_span = 500;
  options.codecs = {"SZ"};  // SZ point reads go through the decode cache.
  auto reader = Ingest(MakeWalk(1000), options, "cache.lts");
  EXPECT_EQ(reader->cache_hits(), 0u);
  EXPECT_EQ(reader->cache_misses(), 0u);
  ASSERT_TRUE(reader->ReadPoint(1000).ok());  // Cold: decodes chunk 0.
  EXPECT_EQ(reader->cache_misses(), 1u);
  ASSERT_TRUE(reader->ReadPoint(1060).ok());  // Warm: same chunk.
  EXPECT_EQ(reader->cache_hits(), 1u);
  ASSERT_TRUE(reader->ReadAll().ok());  // Chunk 0 hit, chunk 1 miss.
  EXPECT_EQ(reader->cache_hits(), 2u);
  EXPECT_EQ(reader->cache_misses(), 2u);
}

TEST(StoreTest, TruncatedFileSalvagesThePrefix) {
  const TimeSeries series = MakeWalk(2500);
  StoreOptions options;
  options.chunk_span = 500;
  const std::string path = TempPath("trunc.lts");
  {
    auto writer = StoreWriter::Create(path, options);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(series).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  std::vector<uint8_t> bytes = ReadBytes(path);
  auto clean = StoreReader::OpenBytes(bytes);
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ((*clean)->chunks().size(), 5u);
  // Cut inside the fourth chunk's payload: the footer and index are gone,
  // the fourth frame is torn, and the first three salvage.
  const size_t cut = static_cast<size_t>((*clean)->chunks()[3].offset) + 17;
  std::vector<uint8_t> torn(bytes.begin(), bytes.begin() + cut);
  auto salvaged = StoreReader::OpenBytes(std::move(torn));
  ASSERT_TRUE(salvaged.ok()) << salvaged.status().ToString();
  EXPECT_FALSE((*salvaged)->clean());
  EXPECT_EQ((*salvaged)->chunks().size(), 3u);
  EXPECT_EQ((*salvaged)->total_points(), 1500u);
  Result<TimeSeries> prefix = (*salvaged)->ReadAll();
  ASSERT_TRUE(prefix.ok());
  Result<TimeSeries> full = (*clean)->ReadAll();
  ASSERT_TRUE(full.ok());
  for (size_t i = 0; i < prefix->size(); ++i) {
    EXPECT_EQ(prefix->values()[i], full->values()[i]);
  }
}

TEST(StoreTest, CompleteFileWithCorruptChunkIsRejected) {
  const std::string path = TempPath("corrupt.lts");
  {
    auto writer = StoreWriter::Create(path, StoreOptions());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(MakeWalk(2000)).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  std::vector<uint8_t> bytes = ReadBytes(path);
  auto clean = StoreReader::OpenBytes(bytes);
  ASSERT_TRUE(clean.ok());
  // Flip a payload byte: the footer still claims completeness, so strict
  // mode must reject rather than salvage around it.
  bytes[static_cast<size_t>((*clean)->chunks()[0].offset) + 20] ^= 0x01;
  EXPECT_EQ(StoreReader::OpenBytes(std::move(bytes)).status().code(),
            StatusCode::kCorruption);
}

TEST(StoreTest, LosslessCodecsAcceptNonFiniteValues) {
  std::vector<double> v(600, 1.0);
  v[10] = std::nan("");
  v[500] = std::numeric_limits<double>::infinity();
  const TimeSeries series(0, 60, std::move(v));
  StoreOptions options;
  options.chunk_span = 256;  // Mixed: chunk 0/1 non-finite, chunk 2 finite.
  auto reader = Ingest(series, options, "nonfinite.lts");
  Result<TimeSeries> out = reader->ReadAll();
  ASSERT_TRUE(out.ok());
  // Non-finite chunks must have fallen back to a lossless codec and
  // round-trip bit-exactly.
  EXPECT_TRUE(std::isnan(out->values()[10]));
  EXPECT_EQ(out->values()[500], std::numeric_limits<double>::infinity());
  EXPECT_TRUE(IsLosslessAlgorithm(reader->chunks()[0].algorithm));
}

}  // namespace
}  // namespace lossyts::store
