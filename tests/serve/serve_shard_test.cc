// Shard semantics: group commit, per-op validation, checkpoint + idempotent
// WAL replay, incremental checkpoints (byte identity with a one-shot store
// write, reuse across restarts), crash failpoints at every stage, and
// snapshot-consistent concurrent reads (src/serve/shard.{h,cc}).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "compress/compressor.h"
#include "core/failpoint.h"
#include "serve/shard.h"
#include "store/reader.h"
#include "store/writer.h"
#include "test_util.h"

namespace lossyts::serve {
namespace {

class ServeShardTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPoints::DisarmAll(); }
};

std::string TempDir(const std::string& name) {
  const std::string dir = test::UniqueTestDir() + "/" + name;
  // Start from a clean slate: stale files from a previous run would change
  // recovery behaviour.
  std::string cmd = "rm -rf '" + dir + "'";
  [[maybe_unused]] const int rc = std::system(cmd.c_str());
  return dir;
}

ShardOptions LosslessOptions() {
  ShardOptions options;
  options.codecs = {"GORILLA"};  // Bit-exact recovery assertions.
  options.sync = false;          // In-process tests need no real fsync.
  return options;
}

AppendOp MakeOp(const std::string& series, int64_t first_timestamp,
                std::vector<double> values) {
  AppendOp op;
  op.series = series;
  op.first_timestamp = first_timestamp;
  op.interval_seconds = 60;
  op.values = std::move(values);
  return op;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(file)),
                              std::istreambuf_iterator<char>());
}

/// The bytes of a store written in one go, StoreWriter::Append + Finish,
/// over `values` on the tests' grid (start 0, interval 60) under the
/// shard's checkpoint options.
std::vector<uint8_t> OneShotStore(const std::string& path,
                                  const ShardOptions& options,
                                  const std::vector<double>& values) {
  store::StoreOptions store_options;
  store_options.error_bound = options.error_bound;
  store_options.chunk_span = options.chunk_span;
  store_options.codecs = options.codecs;
  auto writer = store::StoreWriter::Create(path, store_options);
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  if (!writer.ok()) return {};
  EXPECT_TRUE((*writer)->Append(TimeSeries(0, 60, values)).ok());
  EXPECT_TRUE((*writer)->Finish().ok());
  return ReadFileBytes(path);
}

/// A random walk of `count` points continuing from `level`.
std::vector<double> RandomWalk(std::mt19937& rng, size_t count,
                               double& level) {
  std::normal_distribution<double> step(0.0, 1.0);
  std::vector<double> values;
  for (size_t i = 0; i < count; ++i) {
    level += step(rng);
    values.push_back(level);
  }
  return values;
}

TEST_F(ServeShardTest, GroupCommitAppliesTheWholeBatch) {
  const std::string dir = TempDir("shard_batch");
  auto shard = Shard::Open(dir, LosslessOptions());
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();

  const std::vector<Status> statuses = (*shard)->AppendBatch({
      MakeOp("cpu", 0, {1.0, 2.0}),
      MakeOp("mem", 500, {-3.5}),
      MakeOp("cpu", 120, {3.0, 4.0}),  // Chains onto the first op's grid.
  });
  ASSERT_EQ(statuses.size(), 3u);
  for (const Status& s : statuses) EXPECT_TRUE(s.ok()) << s.ToString();

  auto cpu = (*shard)->ReadRange("cpu", 0, 10000);
  ASSERT_TRUE(cpu.ok());
  EXPECT_EQ(cpu->values(), (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
  auto mem = (*shard)->ReadRange("mem", 0, 10000);
  ASSERT_TRUE(mem.ok());
  EXPECT_EQ(mem->start_timestamp(), 500);
  EXPECT_EQ((*shard)->ListSeries(),
            (std::vector<std::string>{"cpu", "mem"}));
}

TEST_F(ServeShardTest, InvalidOpsFailTheirSlotWithoutPoisoningTheBatch) {
  const std::string dir = TempDir("shard_slot");
  auto shard = Shard::Open(dir, LosslessOptions());
  ASSERT_TRUE(shard.ok());

  const std::vector<Status> statuses = (*shard)->AppendBatch({
      MakeOp("ok", 0, {1.0}),
      MakeOp("bad name!", 0, {1.0}),   // Invalid id.
      MakeOp("ok", 999, {2.0}),        // Breaks the grid (expected 60).
      MakeOp("ok", 60, {2.0}),         // Valid continuation.
      MakeOp("empty", 0, {}),          // No points.
  });
  ASSERT_EQ(statuses.size(), 5u);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_EQ(statuses[1].code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(statuses[2].code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(statuses[3].ok()) << statuses[3].ToString();
  EXPECT_EQ(statuses[4].code(), StatusCode::kInvalidArgument);

  auto ok = (*shard)->ReadRange("ok", 0, 10000);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->values(), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ((*shard)->ReadRange("empty", 0, 1).status().code(),
            StatusCode::kNotFound);
}

TEST_F(ServeShardTest, CheckpointThenReopenIsBitExactWithLosslessCodecs) {
  const std::string dir = TempDir("shard_ckpt");
  std::vector<double> values;
  for (int i = 0; i < 700; ++i) values.push_back(i * 0.017 - 3.0);
  {
    auto shard = Shard::Open(dir, LosslessOptions());
    ASSERT_TRUE(shard.ok());
    for (size_t at = 0; at < values.size(); at += 100) {
      std::vector<double> slice(values.begin() + static_cast<long>(at),
                                values.begin() + static_cast<long>(at + 100));
      const auto statuses = (*shard)->AppendBatch(
          {MakeOp("walk", static_cast<int64_t>(at) * 60, std::move(slice))});
      ASSERT_TRUE(statuses[0].ok()) << statuses[0].ToString();
    }
    ASSERT_TRUE((*shard)->Flush().ok());
    const ShardStats stats = (*shard)->Stats();
    EXPECT_GE(stats.flushes, 1u);
    EXPECT_EQ(stats.points, 700u);
  }
  auto reopened = Shard::Open(dir, LosslessOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const ShardStats stats = (*reopened)->Stats();
  EXPECT_EQ(stats.points, 700u);
  EXPECT_EQ(stats.replayed_records, 0u);  // The WAL was reset by Flush.
  EXPECT_TRUE(stats.wal_clean);
  auto all = (*reopened)->ReadRange("walk", 0, 700 * 60);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->values().size(), values.size());
  EXPECT_EQ(0, std::memcmp(all->values().data(), values.data(),
                           values.size() * sizeof(double)));
}

TEST_F(ServeShardTest, CrashBetweenCheckpointAndWalResetReplaysIdempotently) {
  const std::string dir = TempDir("shard_midflush");
  {
    auto shard = Shard::Open(dir, LosslessOptions());
    ASSERT_TRUE(shard.ok());
    ASSERT_TRUE(
        (*shard)->AppendBatch({MakeOp("s", 0, {1.0, 2.0, 3.0})})[0].ok());
    // Hit 1 is before the store rewrite, hit 2 before the WAL reset: the
    // checkpoint store lands on disk but the old WAL survives — the
    // double-apply hazard first_index exists to kill.
    FailPoints::Arm("shard_flush", 2);
    EXPECT_EQ((*shard)->Flush().code(), StatusCode::kInternal);
    FailPoints::DisarmAll();
    EXPECT_EQ((*shard)->Stats().flush_failures, 1u);
    // The shard is still alive: a flush failure is not fatal.
    EXPECT_TRUE((*shard)->AppendBatch({MakeOp("s", 180, {4.0})})[0].ok());
  }
  auto reopened = Shard::Open(dir, LosslessOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto all = (*reopened)->ReadRange("s", 0, 10000);
  ASSERT_TRUE(all.ok());
  // Exactly once: the store covers {1,2,3}, the replayed WAL record for it
  // is skipped, and the post-crash append {4} applies as a suffix.
  EXPECT_EQ(all->values(), (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
}

TEST_F(ServeShardTest, WalWriteCrashMakesNothingVisibleAndKillsTheShard) {
  const std::string dir = TempDir("shard_walcrash");
  auto shard = Shard::Open(dir, LosslessOptions());
  ASSERT_TRUE(shard.ok());
  ASSERT_TRUE((*shard)->AppendBatch({MakeOp("s", 0, {1.0})})[0].ok());

  FailPoints::Arm("wal_write", 1);
  const auto statuses =
      (*shard)->AppendBatch({MakeOp("s", 60, {2.0}), MakeOp("t", 0, {9.0})});
  FailPoints::DisarmAll();
  EXPECT_EQ(statuses[0].code(), StatusCode::kInternal);
  EXPECT_EQ(statuses[1].code(), StatusCode::kInternal);

  // Nothing of the failed batch is visible; the shard writer is dead.
  auto s = (*shard)->ReadRange("s", 0, 10000);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->values(), (std::vector<double>{1.0}));
  EXPECT_EQ((*shard)->ReadRange("t", 0, 1).status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE((*shard)->Stats().failed);
  EXPECT_EQ((*shard)->AppendBatch({MakeOp("u", 0, {1.0})})[0].code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*shard)->Flush().code(), StatusCode::kFailedPrecondition);

  // Recovery drops the torn frame: only the acked point survives.
  shard->reset();
  auto reopened = Shard::Open(dir, LosslessOptions());
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE((*reopened)->Stats().wal_clean);
  auto recovered = (*reopened)->ReadRange("s", 0, 10000);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->values(), (std::vector<double>{1.0}));
}

TEST_F(ServeShardTest, FsyncCrashNeverLeavesHalfAnOpVisible) {
  const std::string dir = TempDir("shard_fsynccrash");
  {
    auto shard = Shard::Open(dir, LosslessOptions());
    ASSERT_TRUE(shard.ok());
    FailPoints::Arm("wal_fsync", 1);
    const auto statuses = (*shard)->AppendBatch(
        {MakeOp("s", 0, {1.0, 2.0}), MakeOp("s", 120, {3.0})});
    FailPoints::DisarmAll();
    EXPECT_EQ(statuses[0].code(), StatusCode::kInternal);
    EXPECT_EQ(statuses[1].code(), StatusCode::kInternal);
    // Un-synced means un-acked means invisible, even though the records hit
    // the file.
    EXPECT_EQ((*shard)->ReadRange("s", 0, 1).status().code(),
              StatusCode::kNotFound);
  }
  // After the "crash", fully-written un-acked records may legitimately be
  // recovered — but only at op granularity, never split.
  auto reopened = Shard::Open(dir, LosslessOptions());
  ASSERT_TRUE(reopened.ok());
  auto recovered = (*reopened)->ReadRange("s", 0, 10000);
  if (recovered.ok()) {
    EXPECT_TRUE(recovered->values() == (std::vector<double>{1.0, 2.0}) ||
                recovered->values() ==
                    (std::vector<double>{1.0, 2.0, 3.0}))
        << "recovered " << recovered->values().size() << " points";
  } else {
    EXPECT_EQ(recovered.status().code(), StatusCode::kNotFound);
  }
}

// Incremental checkpoints copy each full chunk's frame forward instead of
// encoding it again; the result must be the store a one-shot write of the
// same values gives, byte for byte, under random schedules: random chunk
// spans, partial tail chunks, several series, and checkpoints aborted part
// way by the shard_flush failpoint and then retried.
TEST_F(ServeShardTest, CheckpointsMatchAOneShotStoreWriteByteForByte) {
  constexpr uint32_t kSpans[] = {5, 16, 32, 64, 100};
  const std::string scratch = TempDir("shard_oneshot_scratch");
  ASSERT_TRUE(EnsureDirectory(scratch).ok());
  int aborted = 0;
  for (uint32_t seed = 0; seed < 6; ++seed) {
    std::mt19937 rng(0x1C4E0000u + seed);
    const std::string dir = TempDir("shard_oneshot_" + std::to_string(seed));
    ShardOptions options;  // The default lossy codec list.
    options.sync = false;
    options.chunk_span = kSpans[rng() % std::size(kSpans)];
    options.flush_wal_bytes = 1u << 30;  // Checkpoint only when asked.
    auto shard = Shard::Open(dir, options);
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();

    const std::string names[] = {"a", "b"};
    std::vector<double> acked[2];
    double level[2] = {50.0, -20.0};
    for (int step = 0; step < 24; ++step) {
      const size_t s = rng() % 2;
      const std::vector<double> values =
          RandomWalk(rng, 1 + rng() % 150, level[s]);
      const auto statuses = (*shard)->AppendBatch({MakeOp(
          names[s], static_cast<int64_t>(acked[s].size()) * 60, values)});
      ASSERT_TRUE(statuses[0].ok()) << statuses[0].ToString();
      acked[s].insert(acked[s].end(), values.begin(), values.end());
      if (rng() % 3 != 0) continue;

      if (rng() % 3 == 0) {
        // Abort at the first or second series, or before the WAL reset.
        FailPoints::Arm("shard_flush", 1 + rng() % 3);
        const Status failed = (*shard)->Flush();
        FailPoints::DisarmAll();
        if (!failed.ok()) ++aborted;
      }
      ASSERT_TRUE((*shard)->Flush().ok());
      for (size_t i = 0; i < 2; ++i) {
        if (acked[i].empty()) continue;
        const std::vector<uint8_t> expected =
            OneShotStore(scratch + "/" + names[i] + ".lts", options, acked[i]);
        EXPECT_EQ(ReadFileBytes(dir + "/" + names[i] + ".lts"), expected)
            << "seed " << seed << " span " << options.chunk_span << " step "
            << step << " series " << names[i];
      }
    }
  }
  EXPECT_GT(aborted, 0) << "no checkpoint was aborted part way";
}

// Points in full chunks are encoded once, from the acked values, and stay
// so across restarts: the chunk frames a store held before a restart are
// copied into every later checkpoint unchanged, so each such point stays
// within the error bound of its acked value. A restart used to decode the
// store and encode the reconstructions again, compounding the error.
TEST_F(ServeShardTest, RestartsKeepFullChunksByteIdenticalAndWithinTheBound) {
  const std::string dir = TempDir("shard_restarts");
  ShardOptions options;  // The default lossy codec list.
  options.sync = false;
  options.chunk_span = 64;
  options.flush_wal_bytes = 1u << 30;
  std::mt19937 rng(42);
  double level = 100.0;
  std::vector<double> acked;
  // False for points that sat in a short tail chunk at a restart: later
  // checkpoints encode their reconstructions again (a documented caveat).
  std::vector<bool> encoded_once;
  std::vector<uint8_t> kept_frames;  // Full-chunk frames before a restart.
  for (int generation = 0; generation < 4; ++generation) {
    auto shard = Shard::Open(dir, options);
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();
    for (int batch = 0; batch < 3; ++batch) {
      const std::vector<double> values =
          RandomWalk(rng, 40 + rng() % 200, level);
      const auto statuses = (*shard)->AppendBatch(
          {MakeOp("walk", static_cast<int64_t>(acked.size()) * 60, values)});
      ASSERT_TRUE(statuses[0].ok()) << statuses[0].ToString();
      acked.insert(acked.end(), values.begin(), values.end());
      encoded_once.resize(acked.size(), true);
      ASSERT_TRUE((*shard)->Flush().ok());
    }

    const std::vector<uint8_t> bytes = ReadFileBytes(dir + "/walk.lts");
    ASSERT_GE(bytes.size(), kept_frames.size());
    EXPECT_TRUE(std::equal(kept_frames.begin(), kept_frames.end(),
                           bytes.begin()))
        << "generation " << generation
        << ": a chunk frame from before the restart changed";
    auto reader = store::StoreReader::OpenBytes(bytes);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    auto stored = (*reader)->ReadAll();
    ASSERT_TRUE(stored.ok());
    ASSERT_EQ(stored->size(), acked.size());
    size_t outside = 0;
    for (size_t i = 0; i < acked.size(); ++i) {
      const compress::Allowance a =
          compress::RelativeAllowance(acked[i], options.error_bound);
      const double v = stored->values()[i];
      if (encoded_once[i] && (v < a.lo || v > a.hi)) ++outside;
    }
    EXPECT_EQ(outside, 0u) << "generation " << generation;

    // The restart: everything past the full-chunk prefix is re-encoded from
    // its reconstruction by the next checkpoint.
    const store::ChunkPrefix prefix =
        store::FullChunkPrefix((*reader)->chunks(), options.chunk_span);
    kept_frames.assign(bytes.begin(),
                       bytes.begin() + static_cast<long>(prefix.end_offset));
    std::fill(encoded_once.begin() + static_cast<long>(prefix.points),
              encoded_once.end(), false);
  }
}

// A store written under another error bound or codec list has no chunks the
// shard would write again: the next checkpoint rewrites it in full, under
// the shard's header, from the recovered values.
TEST_F(ServeShardTest, ReopenUnderAnotherHeaderRewritesTheStoreInFull) {
  ShardOptions bound;
  bound.error_bound = 0.1;
  ShardOptions codecs;
  codecs.codecs = {"SWING", "GORILLA"};
  int variant = 0;
  for (ShardOptions reopened_options : {bound, codecs}) {
    const std::string dir = TempDir("shard_header_" + std::to_string(variant));
    ShardOptions options;
    options.sync = false;
    options.chunk_span = 32;
    reopened_options.sync = false;
    reopened_options.chunk_span = 32;
    std::mt19937 rng(7 + variant);
    double level = 10.0;
    {
      auto shard = Shard::Open(dir, options);
      ASSERT_TRUE(shard.ok());
      const auto first =
          (*shard)->AppendBatch({MakeOp("s", 0, RandomWalk(rng, 200, level))});
      ASSERT_TRUE(first[0].ok());
      ASSERT_TRUE((*shard)->Flush().ok());
    }
    auto shard = Shard::Open(dir, reopened_options);
    ASSERT_TRUE(shard.ok());
    const auto more = (*shard)->AppendBatch(
        {MakeOp("s", 200 * 60, RandomWalk(rng, 10, level))});
    ASSERT_TRUE(more[0].ok());
    ASSERT_TRUE((*shard)->Flush().ok());
    auto values = (*shard)->ReadRange("s", 0, 1LL << 40);
    ASSERT_TRUE(values.ok());
    ASSERT_EQ(values->size(), 210u);
    EXPECT_EQ(ReadFileBytes(dir + "/s.lts"),
              OneShotStore(dir + "/oneshot.tmp", reopened_options,
                           values->values()))
        << "variant " << variant;
    auto reader = store::StoreReader::Open(dir + "/s.lts");
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ((*reader)->header().error_bound, reopened_options.error_bound);
    ++variant;
  }
}

// A live store whose prefix frames no longer check out (bit rot) is not
// copied: the checkpoint encodes the whole series from memory instead.
TEST_F(ServeShardTest, ACorruptPrefixFrameFallsBackToAFullRewrite) {
  const std::string dir = TempDir("shard_rot");
  ShardOptions options;
  options.sync = false;
  options.chunk_span = 16;
  std::mt19937 rng(3);
  double level = 5.0;
  std::vector<double> acked = RandomWalk(rng, 100, level);
  auto shard = Shard::Open(dir, options);
  ASSERT_TRUE(shard.ok());
  ASSERT_TRUE((*shard)->AppendBatch({MakeOp("s", 0, acked)})[0].ok());
  ASSERT_TRUE((*shard)->Flush().ok());

  // Flip one byte inside the second chunk's payload.
  auto reader = store::StoreReader::Open(dir + "/s.lts");
  ASSERT_TRUE(reader.ok());
  ASSERT_GE((*reader)->chunks().size(), 3u);
  const uint64_t at = (*reader)->chunks()[1].offset + 12;
  reader->reset();
  std::vector<uint8_t> bytes = ReadFileBytes(dir + "/s.lts");
  bytes[at] ^= 0x5A;
  std::ofstream(dir + "/s.lts", std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));

  const std::vector<double> more = RandomWalk(rng, 20, level);
  ASSERT_TRUE((*shard)->AppendBatch({MakeOp("s", 100 * 60, more)})[0].ok());
  ASSERT_TRUE((*shard)->Flush().ok());
  acked.insert(acked.end(), more.begin(), more.end());
  EXPECT_EQ(ReadFileBytes(dir + "/s.lts"),
            OneShotStore(dir + "/oneshot.tmp", options, acked));
}

TEST_F(ServeShardTest, ValidSeriesNames) {
  EXPECT_TRUE(Shard::ValidSeriesName("cpu.load-1_a"));
  EXPECT_TRUE(Shard::ValidSeriesName("A"));
  EXPECT_FALSE(Shard::ValidSeriesName(""));
  EXPECT_FALSE(Shard::ValidSeriesName(".hidden"));
  EXPECT_FALSE(Shard::ValidSeriesName("has space"));
  EXPECT_FALSE(Shard::ValidSeriesName("slash/ok"));
  EXPECT_FALSE(Shard::ValidSeriesName(std::string(129, 'a')));
}

// Snapshot-consistent reads while a writer ingests: every read must observe
// a clean prefix of the deterministic sequence, never a half-applied batch.
// Named *ConcurrencyTest so the TSan CI leg picks it up.
TEST(ServeConcurrencyTest, ReadersSeeOnlyCleanPrefixesDuringIngest) {
  const std::string dir = TempDir("shard_concurrent");
  ShardOptions options;
  options.codecs = {"GORILLA"};
  options.sync = false;
  options.flush_wal_bytes = 1 << 14;  // Force checkpoints mid-run.
  auto shard = Shard::Open(dir, options);
  ASSERT_TRUE(shard.ok());

  constexpr int kBatches = 60;
  constexpr int kPerBatch = 5;  // Every batch is one op of 5 points.
  auto expected_value = [](size_t i) {
    return static_cast<double>(i) * 1.0625 - 7.0;
  };

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int b = 0; b < kBatches; ++b) {
      std::vector<double> values;
      for (int i = 0; i < kPerBatch; ++i) {
        values.push_back(expected_value(b * kPerBatch + i));
      }
      const auto statuses = (*shard)->AppendBatch(
          {MakeOp("hot", static_cast<int64_t>(b) * kPerBatch * 60,
                  std::move(values))});
      ASSERT_TRUE(statuses[0].ok()) << statuses[0].ToString();
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      size_t last_seen = 0;
      while (!done.load()) {
        auto read = (*shard)->ReadRange("hot", 0, 1LL << 40);
        if (!read.ok()) {
          ASSERT_EQ(read.status().code(), StatusCode::kNotFound);
          continue;
        }
        const std::vector<double>& got = read->values();
        // Prefix consistency: op-granular length, exact values.
        ASSERT_EQ(got.size() % kPerBatch, 0u);
        ASSERT_GE(got.size(), last_seen);  // Monotone visibility.
        last_seen = got.size();
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i], expected_value(i));
        }
        (*shard)->Stats();  // Exercise the stats path under contention.
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  auto final_read = (*shard)->ReadRange("hot", 0, 1LL << 40);
  ASSERT_TRUE(final_read.ok());
  EXPECT_EQ(final_read->values().size(),
            static_cast<size_t>(kBatches * kPerBatch));
}

// Readers and Stats run while checkpoints copy store prefixes forward: with
// lossy codecs and a small chunk span, every checkpoint after the first
// copies full chunks and encodes only the tail. Named *ConcurrencyTest so
// the TSan CI leg picks it up.
TEST(ServeConcurrencyTest, ReadsDuringIncrementalCheckpoints) {
  const std::string dir = TempDir("shard_incremental_concurrent");
  ShardOptions options;  // The default lossy codec list.
  options.sync = false;
  options.chunk_span = 16;
  options.flush_wal_bytes = 1 << 10;  // A checkpoint every few batches.
  auto shard = Shard::Open(dir, options);
  ASSERT_TRUE(shard.ok());

  constexpr int kBatches = 80;
  constexpr int kPerBatch = 12;
  const std::string names[] = {"left", "right"};
  auto expected_value = [](size_t series, size_t i) {
    return static_cast<double>(series + 1) * 40.0 +
           static_cast<double>(i % 37) * 0.25;
  };

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int b = 0; b < kBatches; ++b) {
      const size_t s = static_cast<size_t>(b) % 2;
      const size_t first = static_cast<size_t>(b / 2) * kPerBatch;
      std::vector<double> values;
      for (int i = 0; i < kPerBatch; ++i) {
        values.push_back(expected_value(s, first + static_cast<size_t>(i)));
      }
      const auto statuses = (*shard)->AppendBatch(
          {MakeOp(names[s], static_cast<int64_t>(first) * 60,
                  std::move(values))});
      ASSERT_TRUE(statuses[0].ok()) << statuses[0].ToString();
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      const size_t s = static_cast<size_t>(r);
      while (!done.load()) {
        auto read = (*shard)->ReadRange(names[s], 0, 1LL << 40);
        if (!read.ok()) {
          ASSERT_EQ(read.status().code(), StatusCode::kNotFound);
          continue;
        }
        const std::vector<double>& got = read->values();
        ASSERT_EQ(got.size() % kPerBatch, 0u);
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i], expected_value(s, i));
        }
        (*shard)->Stats();
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  EXPECT_GE((*shard)->Stats().flushes, 3u);
  ASSERT_TRUE((*shard)->Flush().ok());
  for (size_t s = 0; s < 2; ++s) {
    std::vector<double> all;
    for (size_t i = 0; i < kBatches / 2 * kPerBatch; ++i) {
      all.push_back(expected_value(s, i));
    }
    EXPECT_EQ(ReadFileBytes(dir + "/" + names[s] + ".lts"),
              OneShotStore(dir + "/oneshot.tmp", options, all))
        << names[s];
  }
}

}  // namespace
}  // namespace lossyts::serve
