// Crash recovery: the "store_write" failpoint kills ingestion mid-chunk
// (leaving a genuinely torn half-frame on disk) or between the last chunk
// and the footer; reopening must salvage exactly the complete chunks and
// drop the torn tail (src/store/writer.cc, src/store/reader.cc).

#include <gtest/gtest.h>

#include <cstdio>

#include "core/failpoint.h"
#include "core/rng.h"
#include "store/reader.h"
#include "store/writer.h"
#include "test_util.h"

namespace lossyts::store {
namespace {

class StoreRecoveryTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPoints::DisarmAll(); }
};

std::string TempPath(const std::string& name) {
  return test::UniqueTestDir() + "/" + name;
}

TimeSeries MakeWalk(size_t n) {
  Rng rng(42);
  std::vector<double> v(n);
  double x = 100.0;
  for (auto& val : v) {
    x += 0.1 * rng.Normal();
    val = x;
  }
  return TimeSeries(0, 60, std::move(v));
}

TEST_F(StoreRecoveryTest, KilledMidChunkSalvagesCompletePrefix) {
  const TimeSeries series = MakeWalk(2500);  // 5 chunks of 500.
  StoreOptions options;
  options.chunk_span = 500;
  const std::string path = TempPath("crash_mid.lts");

  // Die on the third chunk write: two complete frames plus half of the
  // third reach the file.
  FailPoints::Arm("store_write", 3);
  auto writer = StoreWriter::Create(path, options);
  ASSERT_TRUE(writer.ok());
  Status append = (*writer)->Append(series);
  EXPECT_EQ(append.code(), StatusCode::kInternal);
  // The writer is dead: every later call refuses instead of corrupting.
  EXPECT_EQ((*writer)->Append(series).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*writer)->Finish().code(), StatusCode::kFailedPrecondition);
  FailPoints::DisarmAll();

  auto reader = StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_FALSE((*reader)->clean());
  ASSERT_EQ((*reader)->chunks().size(), 2u);
  EXPECT_EQ((*reader)->total_points(), 1000u);
  Result<TimeSeries> salvaged = (*reader)->ReadAll();
  ASSERT_TRUE(salvaged.ok());
  // The salvaged prefix reconstructs the same values a clean ingestion of
  // the full series would have produced for those chunks.
  const std::string clean_path = TempPath("crash_ref.lts");
  auto ref_writer = StoreWriter::Create(clean_path, options);
  ASSERT_TRUE(ref_writer.ok());
  ASSERT_TRUE((*ref_writer)->Append(series).ok());
  ASSERT_TRUE((*ref_writer)->Finish().ok());
  auto ref_reader = StoreReader::Open(clean_path);
  ASSERT_TRUE(ref_reader.ok());
  Result<TimeSeries> reference = (*ref_reader)->ReadAll();
  ASSERT_TRUE(reference.ok());
  for (size_t i = 0; i < salvaged->size(); ++i) {
    EXPECT_EQ(salvaged->values()[i], reference->values()[i]) << i;
  }
}

TEST_F(StoreRecoveryTest, KilledBeforeFooterSalvagesEveryChunk) {
  const TimeSeries series = MakeWalk(1000);  // 2 chunks + epilogue hit.
  StoreOptions options;
  options.chunk_span = 500;
  const std::string path = TempPath("crash_footer.lts");
  FailPoints::Arm("store_write", 3);  // Hits 1-2 are chunks; 3 the epilogue.
  auto writer = StoreWriter::Create(path, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(series).ok());
  EXPECT_EQ((*writer)->Finish().code(), StatusCode::kInternal);
  FailPoints::DisarmAll();

  auto reader = StoreReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE((*reader)->clean());
  EXPECT_EQ((*reader)->total_points(), 1000u);  // Nothing lost but the index.
}

TEST_F(StoreRecoveryTest, ReingestAfterCrashProducesACleanStore) {
  const TimeSeries series = MakeWalk(1200);
  StoreOptions options;
  options.chunk_span = 400;
  const std::string path = TempPath("crash_reingest.lts");
  FailPoints::Arm("store_write", 2);
  {
    auto writer = StoreWriter::Create(path, options);
    ASSERT_TRUE(writer.ok());
    EXPECT_FALSE((*writer)->Append(series).ok());
  }
  FailPoints::DisarmAll();
  // Create() truncates: the torn file is simply replaced.
  auto writer = StoreWriter::Create(path, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(series).ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  auto reader = StoreReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE((*reader)->clean());
  EXPECT_EQ((*reader)->total_points(), 1200u);
}

TEST_F(StoreRecoveryTest, FirstChunkTornSalvagesAnEmptyStore) {
  StoreOptions options;
  options.chunk_span = 100;
  const std::string path = TempPath("crash_first.lts");
  FailPoints::Arm("store_write", 1);
  auto writer = StoreWriter::Create(path, options);
  ASSERT_TRUE(writer.ok());
  EXPECT_FALSE((*writer)->Append(MakeWalk(250)).ok());
  FailPoints::DisarmAll();

  auto reader = StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_FALSE((*reader)->clean());
  EXPECT_EQ((*reader)->total_points(), 0u);
  Result<TimeSeries> empty = (*reader)->ReadAll();
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->size(), 0u);
  EXPECT_EQ((*reader)->ReadPoint(0).status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace lossyts::store
