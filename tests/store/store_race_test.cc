// Salvage-opening a store file that an active writer is still appending to:
// every open must yield a consistent frame prefix of what was ingested (or a
// clean Corruption before the header lands) — never a crash, never garbage
// values. Includes the torn-frame crash model via the "store_write"
// failpoint. Named *ConcurrencyTest so the TSan CI leg picks it up.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/failpoint.h"
#include "core/time_series.h"
#include "store/format.h"
#include "store/reader.h"
#include "store/writer.h"
#include "test_util.h"

namespace lossyts::store {
namespace {

std::string TempPath(const std::string& name) {
  return test::UniqueTestDir() + "/" + name;
}

double ExpectedValue(size_t i) {
  return static_cast<double>(i) * 0.125 - 42.0;
}

StoreOptions RaceOptions() {
  StoreOptions options;
  options.chunk_span = 8;
  options.codecs = {"GORILLA"};  // Lossless: prefix checks are exact.
  return options;
}

// Asserts that `reader` holds exactly the first total_points() values of the
// deterministic stream, chunk-aligned except for a finished tail.
void CheckPrefix(StoreReader& reader, size_t max_points) {
  const uint64_t points = reader.total_points();
  ASSERT_LE(points, max_points);
  if (points == 0) return;
  auto all = reader.ReadAll();
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->values().size(), points);
  for (size_t i = 0; i < points; ++i) {
    ASSERT_EQ(all->values()[i], ExpectedValue(i)) << "point " << i;
  }
  ASSERT_EQ(all->start_timestamp(), 0);
}

TEST(StoreRaceConcurrencyTest, SalvageOpenRacesAnActiveWriter) {
  const std::string path = TempPath("race_live.lts");
  std::remove(path.c_str());
  constexpr size_t kChunks = 150;
  constexpr size_t kSpan = 8;

  // One mid-ingest open attempt; asserts the salvage contract either way.
  auto try_open = [&](bool& opened) {
    auto reader = StoreReader::Open(path);
    if (!reader.ok()) {
      // Before the header lands (or mid header write) the file is not a
      // store yet; a clean rejection is the only acceptable failure.
      ASSERT_TRUE(reader.status().code() == StatusCode::kCorruption ||
                  reader.status().code() == StatusCode::kNotFound ||
                  reader.status().code() == StatusCode::kIoError)
          << reader.status().ToString();
      return;
    }
    // Mid-ingest there is no footer: every successful open is a salvage of
    // a consistent chunk prefix.
    EXPECT_FALSE((*reader)->clean());
    CheckPrefix(**reader, kChunks * kSpan);
    opened = true;
  };

  // A free-running racer adds nondeterministic interleavings on top of the
  // writer's own deterministic mid-ingest opens below (on a loaded single
  // core it may never get a slot, so nothing is asserted about its count).
  std::atomic<bool> done{false};
  std::thread reader_thread([&] {
    bool opened = false;
    while (!done.load()) try_open(opened);
  });

  bool salvaged_midway = false;
  {
    auto writer = StoreWriter::Create(path, RaceOptions());
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (size_t c = 0; c < kChunks; ++c) {
      std::vector<double> values;
      for (size_t i = 0; i < kSpan; ++i) {
        values.push_back(ExpectedValue(c * kSpan + i));
      }
      ASSERT_TRUE(
          (*writer)
              ->Append(TimeSeries(static_cast<int64_t>(c * kSpan) * 60, 60,
                                  std::move(values)))
              .ok());
      if (c % 10 == 9) try_open(salvaged_midway);
    }
    done.store(true);
    reader_thread.join();
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  EXPECT_TRUE(salvaged_midway);

  // After Finish the footer is valid: the final open is complete and exact.
  auto reader = StoreReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE((*reader)->clean());
  EXPECT_EQ((*reader)->total_points(), kChunks * kSpan);
  CheckPrefix(**reader, kChunks * kSpan);
}

TEST(StoreRaceConcurrencyTest, TornFrameFromStoreWriteFailpointSalvages) {
  const std::string path = TempPath("race_torn.lts");
  std::remove(path.c_str());
  constexpr size_t kSpan = 8;

  auto writer = StoreWriter::Create(path, RaceOptions());
  ASSERT_TRUE(writer.ok());
  size_t appended = 0;
  // The 6th chunk write tears mid-frame, exactly the kill -9 crash model.
  FailPoints::Arm("store_write", 6);
  for (size_t c = 0; c < 10; ++c) {
    std::vector<double> values;
    for (size_t i = 0; i < kSpan; ++i) {
      values.push_back(ExpectedValue(c * kSpan + i));
    }
    const Status s = (*writer)->Append(
        TimeSeries(static_cast<int64_t>(c * kSpan) * 60, 60,
                   std::move(values)));
    if (!s.ok()) {
      EXPECT_EQ(s.code(), StatusCode::kInternal);
      break;
    }
    ++appended;
  }
  FailPoints::DisarmAll();
  ASSERT_EQ(appended, 5u);  // Five chunks landed before the tear.

  // Salvage-open while the writer object (and its fd) is still alive — the
  // reader must see the five complete chunks and drop the torn sixth.
  auto reader = StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_FALSE((*reader)->clean());
  EXPECT_EQ((*reader)->total_points(), 5 * kSpan);
  CheckPrefix(**reader, 10 * kSpan);
}

}  // namespace
}  // namespace lossyts::store
