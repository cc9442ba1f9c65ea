// Concurrency suite for the chunk store, run under TSan by tools/ci.sh:
// many threads hammering one reader's cache, point reads, range scans and
// pushdown queries concurrently. Correctness assertions double as the
// determinism check — every thread must see identical bytes.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "store/query.h"
#include "store/reader.h"
#include "store/writer.h"
#include "test_util.h"

namespace lossyts::store {
namespace {

std::string TempPath(const std::string& name) {
  return test::UniqueTestDir() + "/" + name;
}

std::unique_ptr<StoreReader> MakeStore(const std::string& name,
                                       size_t n, uint32_t span) {
  Rng rng(11);
  std::vector<double> v(n);
  double x = 10.0;
  for (auto& val : v) {
    x += 0.05 * rng.Normal();
    val = x;
  }
  StoreOptions options;
  options.chunk_span = span;
  const std::string path = TempPath(name);
  auto writer = StoreWriter::Create(path, options);
  EXPECT_TRUE(writer.ok());
  EXPECT_TRUE((*writer)->Append(TimeSeries(0, 60, std::move(v))).ok());
  EXPECT_TRUE((*writer)->Finish().ok());
  auto reader = StoreReader::Open(path);
  EXPECT_TRUE(reader.ok());
  return std::move(*reader);
}

TEST(StoreConcurrencyTest, ParallelRangeScansAreIdentical) {
  auto reader = MakeStore("conc_range.lts", 6000, 256);
  Result<TimeSeries> reference = reader->ReadAll(1);
  ASSERT_TRUE(reference.ok());
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      // Every thread scans with internal parallelism too (jobs = 2), so the
      // chunk cache sees nested concurrent access.
      Result<TimeSeries> got = reader->ReadAll(2);
      if (!got.ok() || got->size() != reference->size() ||
          std::memcmp(got->values().data(), reference->values().data(),
                      reference->size() * sizeof(double)) != 0) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Every decode was either a hit or a miss; the counters saw all of them.
  EXPECT_GT(reader->cache_hits() + reader->cache_misses(), 0u);
}

TEST(StoreConcurrencyTest, MixedReadersShareOneCache) {
  auto reader = MakeStore("conc_mixed.lts", 4000, 128);
  Result<TimeSeries> reference = reader->ReadAll(1);
  ASSERT_TRUE(reference.ok());
  reader->ClearChunkCache();
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < 200; ++i) {
        const size_t g = static_cast<size_t>(rng.UniformInt(4000));
        Result<double> point =
            reader->ReadPoint(static_cast<int64_t>(g) * 60);
        if (!point.ok() || *point != reference->values()[g]) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Two more threads run pushdown aggregates over moving windows while the
  // point readers race the cache.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        const int64_t t0 = (i * 37 % 2000) * 60;
        const int64_t t1 = t0 + 1000 * 60;
        Result<AggregateResult> got =
            AggregateRange(*reader, AggregateKind::kSum, t0, t1);
        if (!got.ok()) failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(StoreConcurrencyTest, AggregateStoresFanOutIsDeterministic) {
  std::vector<std::unique_ptr<StoreReader>> readers;
  std::vector<const StoreReader*> pointers;
  for (int i = 0; i < 4; ++i) {
    readers.push_back(
        MakeStore("conc_fan_" + std::to_string(i) + ".lts", 3000, 200));
    pointers.push_back(readers.back().get());
  }
  AggregateOptions sequential;
  sequential.jobs = 1;
  Result<std::vector<AggregateResult>> reference = AggregateStores(
      pointers, AggregateKind::kMean, 0, 3000 * 60, sequential);
  ASSERT_TRUE(reference.ok());
  for (int jobs : {2, 8}) {
    for (auto& reader : readers) reader->ClearChunkCache();
    AggregateOptions parallel;
    parallel.jobs = jobs;
    Result<std::vector<AggregateResult>> got = AggregateStores(
        pointers, AggregateKind::kMean, 0, 3000 * 60, parallel);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->size(), reference->size());
    for (size_t i = 0; i < got->size(); ++i) {
      EXPECT_EQ(0, std::memcmp(&(*got)[i].value, &(*reference)[i].value,
                               sizeof(double)))
          << "store " << i << " jobs " << jobs;
    }
  }
}

}  // namespace
}  // namespace lossyts::store
