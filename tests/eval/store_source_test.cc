// Sourcing CompressAtBound artifacts from chunk store files
// (eval/store_source.h): the stored path must reproduce the recompression
// path's reconstructed series, reject stale/mismatched stores, and fall
// back cleanly inside CompressAtBoundStage.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "eval/grid_stages.h"
#include "eval/store_source.h"
#include "store/reader.h"
#include "store/writer.h"
#include "test_util.h"

namespace lossyts::eval {
namespace {

std::string TempDir(const std::string& name) {
  std::string dir = test::UniqueTestDir() + "/" + name;
  return dir;
}

GridOptions SmallGrid() {
  GridOptions options;
  options.datasets = {"Solar"};
  options.compressors = {"PMC"};
  options.error_bounds = {0.05};
  options.data.length_fraction = 0.02;
  return options;
}

TEST(StoreSourceTest, BuildThenLoadMatchesRecompression) {
  const GridOptions options = SmallGrid();
  const std::string dir = TempDir("stores_match");
  ASSERT_TRUE(BuildTransformStores(options, dir).ok());

  DatasetArtifact dataset = LoadDatasetStage("Solar", options.data);
  ASSERT_TRUE(dataset.status.ok());
  Result<TransformArtifact> stored =
      LoadTransformFromStore(dir, "Solar", "PMC", 0.05, dataset.split.test);
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  EXPECT_TRUE(stored->from_store);
  EXPECT_TRUE(stored->status.ok());

  TransformArtifact recompressed = CompressAtBoundStage(
      "Solar", "PMC", 0.05, dataset.split.test, "", 1, false);
  ASSERT_TRUE(recompressed.status.ok());
  ASSERT_EQ(stored->series.size(), recompressed.series.size());
  // The store holds the same codec output chunked; reconstruction must be
  // bit-identical to running the codec over the whole split (both paths
  // reconstruct segment models with the same arithmetic), except that
  // chunking can place segment boundaries differently — so compare under
  // the error bound instead of bitwise.
  for (size_t i = 0; i < stored->series.size(); ++i) {
    const double raw = dataset.split.test.values()[i];
    const double from_store = stored->series.values()[i];
    EXPECT_LE(std::abs(from_store - raw), 0.05 * std::abs(raw) + 1e-12)
        << "point " << i;
  }
  EXPECT_TRUE(std::isfinite(stored->te_nrmse));
  EXPECT_GT(stored->compression_ratio, 0.0);
  EXPECT_GT(stored->segment_count, 0.0);
}

TEST(StoreSourceTest, MissingStoreIsNotFound) {
  DatasetArtifact dataset = LoadDatasetStage("Solar", SmallGrid().data);
  ASSERT_TRUE(dataset.status.ok());
  EXPECT_EQ(LoadTransformFromStore(TempDir("stores_none"), "Solar", "PMC",
                                   0.05, dataset.split.test)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(StoreSourceTest, MismatchedStoreIsRejected) {
  const GridOptions options = SmallGrid();
  const std::string dir = TempDir("stores_stale");
  ASSERT_TRUE(BuildTransformStores(options, dir).ok());
  DatasetArtifact dataset = LoadDatasetStage("Solar", options.data);
  ASSERT_TRUE(dataset.status.ok());
  // Wrong bound: the file exists for 0.05, the request says 0.1 — the path
  // encodes the bound, so this is NotFound rather than a silent mismatch.
  EXPECT_FALSE(LoadTransformFromStore(dir, "Solar", "PMC", 0.1,
                                      dataset.split.test)
                   .ok());
  // Stale store: same path, different split (a longer dataset). The grid
  // check must refuse rather than serve the wrong series.
  data::DatasetOptions bigger = options.data;
  bigger.length_fraction = 0.04;
  DatasetArtifact other = LoadDatasetStage("Solar", bigger);
  ASSERT_TRUE(other.status.ok());
  Result<TransformArtifact> stale =
      LoadTransformFromStore(dir, "Solar", "PMC", 0.05, other.split.test);
  EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition);
}

TEST(StoreSourceTest, SalvagedStoreIsRefused) {
  const GridOptions options = SmallGrid();
  const std::string dir = TempDir("stores_salvaged");
  ASSERT_TRUE(BuildTransformStores(options, dir).ok());
  const std::string path = TransformStorePath(dir, "Solar", "PMC", 0.05);
  // Chop the footer off: the file reopens as a salvage, which the eval
  // integration must refuse (it needs the complete split).
  FILE* file = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(file, nullptr);
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  ASSERT_EQ(0, std::fclose(file));
  ASSERT_EQ(0, truncate(path.c_str(), size - 20));
  DatasetArtifact dataset = LoadDatasetStage("Solar", options.data);
  ASSERT_TRUE(dataset.status.ok());
  Result<TransformArtifact> refused =
      LoadTransformFromStore(dir, "Solar", "PMC", 0.05, dataset.split.test);
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
}

TEST(StoreSourceTest, StageFallsBackToRecompression) {
  DatasetArtifact dataset = LoadDatasetStage("Solar", SmallGrid().data);
  ASSERT_TRUE(dataset.status.ok());
  // A store_dir with no store for this combination: the stage must still
  // produce a good artifact via recompression, flagged as not-from-store.
  TransformArtifact artifact = CompressAtBoundStage(
      "Solar", "PMC", 0.05, dataset.split.test, TempDir("stores_fallback"),
      1, false);
  EXPECT_TRUE(artifact.status.ok()) << artifact.status.ToString();
  EXPECT_FALSE(artifact.from_store);
  EXPECT_EQ(artifact.series.size(), dataset.split.test.size());
}

TEST(StoreSourceTest, StageUsesTheStoreWhenPresent) {
  const GridOptions options = SmallGrid();
  const std::string dir = TempDir("stores_used");
  ASSERT_TRUE(BuildTransformStores(options, dir).ok());
  DatasetArtifact dataset = LoadDatasetStage("Solar", options.data);
  ASSERT_TRUE(dataset.status.ok());
  TransformArtifact artifact = CompressAtBoundStage(
      "Solar", "PMC", 0.05, dataset.split.test, dir, 1, false);
  EXPECT_TRUE(artifact.status.ok());
  EXPECT_TRUE(artifact.from_store);
}

TEST(StoreSourceTest, BuildIsDeterministic) {
  const GridOptions options = SmallGrid();
  const std::string dir_a = TempDir("stores_det_a");
  const std::string dir_b = TempDir("stores_det_b");
  ASSERT_TRUE(BuildTransformStores(options, dir_a).ok());
  ASSERT_TRUE(BuildTransformStores(options, dir_b).ok());
  auto read = [](const std::string& path) {
    std::ifstream file(path, std::ios::binary);
    EXPECT_TRUE(file.is_open()) << path;
    return std::vector<uint8_t>((std::istreambuf_iterator<char>(file)),
                                std::istreambuf_iterator<char>());
  };
  EXPECT_EQ(read(TransformStorePath(dir_a, "Solar", "PMC", 0.05)),
            read(TransformStorePath(dir_b, "Solar", "PMC", 0.05)));
}

}  // namespace
}  // namespace lossyts::eval
