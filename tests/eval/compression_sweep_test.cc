#include "eval/compression_sweep.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "test_util.h"

namespace lossyts::eval {
namespace {

SweepOptions TinySweep() {
  SweepOptions options;
  options.datasets = {"ETTm1"};
  options.error_bounds = {0.05, 0.3};
  options.data.length_fraction = 0.02;
  return options;
}

TEST(SweepTest, ProducesLossyAndGorillaRows) {
  Result<std::vector<SweepRecord>> records = RunCompressionSweep(TinySweep());
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  // 3 lossy methods x 2 bounds + 1 GORILLA row.
  EXPECT_EQ(records->size(), 7u);
  size_t gorilla_rows = 0;
  for (const SweepRecord& r : *records) {
    EXPECT_GT(r.compression_ratio, 0.0);
    EXPECT_GT(r.raw_gz_bytes, 0.0);
    EXPECT_GT(r.gz_bytes, 0.0);
    if (r.compressor == "GORILLA") {
      ++gorilla_rows;
      EXPECT_EQ(r.error_bound, 0.0);
      EXPECT_EQ(r.te_nrmse, 0.0);
    } else {
      EXPECT_GT(r.te_nrmse, 0.0);
    }
  }
  EXPECT_EQ(gorilla_rows, 1u);
}

TEST(SweepTest, GorillaCanBeExcluded) {
  SweepOptions options = TinySweep();
  options.include_gorilla = false;
  Result<std::vector<SweepRecord>> records = RunCompressionSweep(options);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 6u);
}

TEST(SweepTest, TeAndCrGrowWithBound) {
  Result<std::vector<SweepRecord>> records = RunCompressionSweep(TinySweep());
  ASSERT_TRUE(records.ok());
  for (const std::string& method : {"PMC", "SWING", "SZ"}) {
    const SweepRecord* low = nullptr;
    const SweepRecord* high = nullptr;
    for (const SweepRecord& r : *records) {
      if (r.compressor != method) continue;
      if (r.error_bound == 0.05) low = &r;
      if (r.error_bound == 0.3) high = &r;
    }
    ASSERT_NE(low, nullptr);
    ASSERT_NE(high, nullptr);
    EXPECT_GT(high->te_nrmse, low->te_nrmse) << method;
    EXPECT_GT(high->compression_ratio, low->compression_ratio) << method;
  }
}

TEST(SweepTest, CsvRoundTrip) {
  Result<std::vector<SweepRecord>> records = RunCompressionSweep(TinySweep());
  ASSERT_TRUE(records.ok());
  const std::string path = test::UniqueTestDir() + "/sweep_cache_test.csv";
  ASSERT_TRUE(SaveSweepCsv(*records, path).ok());
  Result<std::vector<SweepRecord>> loaded = LoadSweepCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), records->size());
  for (size_t i = 0; i < records->size(); ++i) {
    EXPECT_EQ((*loaded)[i].dataset, (*records)[i].dataset);
    EXPECT_EQ((*loaded)[i].compressor, (*records)[i].compressor);
    EXPECT_NEAR((*loaded)[i].compression_ratio,
                (*records)[i].compression_ratio, 1e-9);
    EXPECT_NEAR((*loaded)[i].segment_count, (*records)[i].segment_count,
                1e-9);
  }
  std::remove(path.c_str());
}

TEST(SweepTest, LoadOrRunCaches) {
  const std::string path = test::UniqueTestDir() + "/sweep_cache_test2.csv";
  std::remove(path.c_str());
  Result<std::vector<SweepRecord>> first = LoadOrRunSweep(TinySweep(), path);
  ASSERT_TRUE(first.ok());
  Result<std::vector<SweepRecord>> second = LoadOrRunSweep(TinySweep(), path);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->size(), second->size());
  std::remove(path.c_str());
}

TEST(SweepTest, MissingCacheIsNotFound) {
  EXPECT_EQ(LoadSweepCsv("/nonexistent/sweep.csv").status().code(),
            StatusCode::kNotFound);
}

TEST(SweepTest, UnknownDatasetFails) {
  SweepOptions options = TinySweep();
  options.datasets = {"Nope"};
  EXPECT_FALSE(RunCompressionSweep(options).ok());
}

}  // namespace
}  // namespace lossyts::eval
