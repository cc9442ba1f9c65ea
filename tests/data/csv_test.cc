#include "data/csv.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "test_util.h"

namespace lossyts::data {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = test::UniqueTestDir() + "/lossyts_csv_test.csv";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteFile(const std::string& content) {
    std::ofstream file(path_);
    file << content;
  }

  std::string path_;
};

TEST_F(CsvTest, SaveLoadRoundTrip) {
  TimeSeries ts(1000, 60, {1.5, 2.5, 3.5});
  ASSERT_TRUE(SaveCsv(ts, path_).ok());
  Result<TimeSeries> loaded = LoadCsv(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 3u);
  EXPECT_EQ(loaded->start_timestamp(), 1000);
  EXPECT_EQ(loaded->interval_seconds(), 60);
  EXPECT_DOUBLE_EQ((*loaded)[0], 1.5);
  EXPECT_DOUBLE_EQ((*loaded)[2], 3.5);
}

TEST_F(CsvTest, LoadWithoutTimestampColumn) {
  WriteFile("value\n10\n20\n30\n");
  CsvOptions options;
  options.timestamp_column = -1;
  options.value_column = 0;
  options.fallback_interval_seconds = 300;
  Result<TimeSeries> loaded = LoadCsv(path_, options);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 3u);
  EXPECT_EQ(loaded->interval_seconds(), 300);
  EXPECT_DOUBLE_EQ((*loaded)[1], 20.0);
}

TEST_F(CsvTest, NonEpochTimestampsFallBack) {
  WriteFile("date,value\n2022-01-01,5\n2022-01-02,6\n");
  CsvOptions options;
  options.fallback_interval_seconds = 86400;
  Result<TimeSeries> loaded = LoadCsv(path_, options);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 2u);
  EXPECT_EQ(loaded->interval_seconds(), 86400);
}

TEST_F(CsvTest, MissingFileFails) {
  Result<TimeSeries> loaded = LoadCsv("/nonexistent/file.csv");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(CsvTest, ShortRowFails) {
  WriteFile("timestamp,value\n100,1\n200\n");
  EXPECT_FALSE(LoadCsv(path_).ok());
}

TEST_F(CsvTest, NonNumericValueFails) {
  WriteFile("timestamp,value\n100,1\n200,oops\n");
  Result<TimeSeries> loaded = LoadCsv(path_);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(CsvTest, EmptyFileFails) {
  WriteFile("timestamp,value\n");
  EXPECT_FALSE(LoadCsv(path_).ok());
}

TEST_F(CsvTest, CustomDelimiter) {
  WriteFile("timestamp;value\n100;1.5\n160;2.5\n");
  CsvOptions options;
  options.delimiter = ';';
  Result<TimeSeries> loaded = LoadCsv(path_, options);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 2u);
  EXPECT_EQ(loaded->interval_seconds(), 60);
}

TEST_F(CsvTest, SelectsValueColumn) {
  WriteFile("timestamp,a,b\n100,1,10\n200,2,20\n");
  CsvOptions options;
  options.value_column = 2;
  Result<TimeSeries> loaded = LoadCsv(path_, options);
  ASSERT_TRUE(loaded.ok());
  EXPECT_DOUBLE_EQ((*loaded)[0], 10.0);
  EXPECT_DOUBLE_EQ((*loaded)[1], 20.0);
}

}  // namespace
}  // namespace lossyts::data
