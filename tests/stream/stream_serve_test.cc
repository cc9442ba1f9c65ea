// Streaming state inside the serve layer: per-series open compressor state
// is a pure function of the durable value sequence, so it must (a) track
// live appends, (b) be rebuilt bit-exactly across clean restarts and
// checkpoint/WAL replay, and (c) survive randomized kill-at-failpoint runs —
// after any crash, StreamInfo equals a fresh stream fed exactly the
// recovered points. Also covers the kStreamInfo wire round trip end to end.
//
// Chaos iterations default to 60; scale with LOSSYTS_STREAM_CHAOS_ITERS.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/failpoint.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/shard.h"
#include "stream/streaming_compressor.h"
#include "test_util.h"

namespace lossyts::serve {
namespace {

int ChaosIterations() {
  const char* env = std::getenv("LOSSYTS_STREAM_CHAOS_ITERS");
  if (env != nullptr && *env != '\0') {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return 60;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = test::UniqueTestDir() + "/" + name;
  const std::string cmd = "rm -rf '" + dir + "'";
  [[maybe_unused]] const int rc = std::system(cmd.c_str());
  return dir;
}

// Deterministic, drifting value stream: piecewise trends so both PMC and
// Swing close a healthy number of segments.
double ExpectedValue(int series, size_t index) {
  const double base = 10.0 * (series + 1);
  const double phase = static_cast<double>((index / 40) % 3);
  return base + phase * 4.0 + std::sin(static_cast<double>(index) * 0.7);
}

ShardOptions StreamingOptions() {
  ShardOptions options;
  options.codecs = {"GORILLA"};  // Bit-exact recovery: re-fed stream must
                                 // see the exact pre-crash values.
  options.sync = false;
  options.stream_codec = "PMC";
  options.stream_error_bound = 0.05;
  return options;
}

// The oracle: what StreamInfo must report for a series whose durable value
// sequence is `values` on the given grid.
SeriesStreamInfo ReferenceInfo(const ShardOptions& options,
                               int64_t start_timestamp,
                               int32_t interval_seconds,
                               const std::vector<double>& values) {
  auto made = stream::MakeStreamingCompressor(options.stream_codec);
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  auto& stream = *made;
  EXPECT_TRUE(stream
                  ->Open(start_timestamp, interval_seconds,
                         options.stream_error_bound)
                  .ok());
  uint64_t rejected = 0;
  for (double v : values) {
    if (!stream->Append(v).ok()) ++rejected;
  }
  SeriesStreamInfo info;
  info.codec = options.stream_codec;
  info.error_bound = options.stream_error_bound;
  info.points = stream->points();
  info.rejected = rejected;
  info.segments = stream->segments();
  info.open_length = stream->open_length();
  const auto open = stream->Provisional();
  info.open_anchor = open.anchor;
  info.open_slope = open.slope;
  return info;
}

void ExpectInfoEq(const SeriesStreamInfo& got, const SeriesStreamInfo& want,
                  const std::string& context) {
  EXPECT_EQ(got.codec, want.codec) << context;
  EXPECT_EQ(got.error_bound, want.error_bound) << context;
  EXPECT_EQ(got.points, want.points) << context;
  EXPECT_EQ(got.rejected, want.rejected) << context;
  EXPECT_EQ(got.segments, want.segments) << context;
  EXPECT_EQ(got.open_length, want.open_length) << context;
  // Bit-equality: the stream is deterministic, so the provisional model of
  // the open window must match exactly, not approximately.
  EXPECT_EQ(got.open_anchor, want.open_anchor) << context;
  EXPECT_EQ(got.open_slope, want.open_slope) << context;
}

class StreamServeTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPoints::DisarmAll(); }
};

// --- Live tracking --------------------------------------------------------

TEST_F(StreamServeTest, StreamInfoTracksAppendsAcrossBatches) {
  const std::string dir = FreshDir("stream_serve_live");
  const ShardOptions options = StreamingOptions();
  auto shard = Shard::Open(dir, options);
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();

  std::vector<double> fed;
  for (int batch = 0; batch < 7; ++batch) {
    AppendOp op;
    op.series = "cpu";
    op.interval_seconds = 60;
    op.first_timestamp = static_cast<int64_t>(fed.size()) * 60;
    for (int i = 0; i < 23; ++i) {
      op.values.push_back(ExpectedValue(0, fed.size() + i));
    }
    const auto statuses = (*shard)->AppendBatch({op});
    ASSERT_EQ(statuses.size(), 1u);
    ASSERT_TRUE(statuses[0].ok()) << statuses[0].ToString();
    fed.insert(fed.end(), op.values.begin(), op.values.end());

    auto info = (*shard)->StreamInfo("cpu");
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    ExpectInfoEq(*info, ReferenceInfo(options, 0, 60, fed),
                 "after batch " + std::to_string(batch));
  }

  const ShardStats stats = (*shard)->Stats();
  EXPECT_EQ(stats.streamed_points, fed.size());
  EXPECT_GT(stats.stream_segments, 0u);
  EXPECT_EQ(stats.stream_rejected, 0u);
}

TEST_F(StreamServeTest, NonFinitePointsAreCountedRejectedNotFed) {
  const std::string dir = FreshDir("stream_serve_nonfinite");
  const ShardOptions options = StreamingOptions();
  auto shard = Shard::Open(dir, options);
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();

  std::vector<double> values;
  for (int i = 0; i < 50; ++i) values.push_back(ExpectedValue(1, i));
  values[10] = std::numeric_limits<double>::quiet_NaN();
  values[31] = std::numeric_limits<double>::infinity();

  AppendOp op;
  op.series = "noisy";
  op.interval_seconds = 30;
  op.first_timestamp = 0;
  op.values = values;
  const auto statuses = (*shard)->AppendBatch({op});
  ASSERT_EQ(statuses.size(), 1u);
  ASSERT_TRUE(statuses[0].ok()) << statuses[0].ToString();

  auto info = (*shard)->StreamInfo("noisy");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->rejected, 2u);
  EXPECT_EQ(info->points, 48u);  // Accepted points only.
  ExpectInfoEq(*info, ReferenceInfo(options, 0, 30, values), "non-finite");
  EXPECT_EQ((*shard)->Stats().stream_rejected, 2u);
}

// --- Error surface --------------------------------------------------------

TEST_F(StreamServeTest, ErrorsWhenDisabledUnknownOrUnrepresentable) {
  const std::string dir = FreshDir("stream_serve_errors");

  {  // Streaming off: FailedPrecondition regardless of the series.
    ShardOptions off;
    off.codecs = {"GORILLA"};
    off.sync = false;
    auto shard = Shard::Open(dir + "_off", off);
    ASSERT_TRUE(shard.ok());
    auto info = (*shard)->StreamInfo("anything");
    EXPECT_EQ(info.status().code(), StatusCode::kFailedPrecondition);
  }

  const ShardOptions options = StreamingOptions();
  auto shard = Shard::Open(dir, options);
  ASSERT_TRUE(shard.ok());
  EXPECT_EQ((*shard)->StreamInfo("missing").status().code(),
            StatusCode::kNotFound);

  // A grid the streaming header cannot carry (interval past u16): the
  // series serves appends and reads, but has no stream state.
  AppendOp op;
  op.series = "coarse";
  op.interval_seconds = 70000;
  op.first_timestamp = 0;
  op.values = {1.0, 2.0, 3.0};
  const auto statuses = (*shard)->AppendBatch({op});
  ASSERT_EQ(statuses.size(), 1u);
  ASSERT_TRUE(statuses[0].ok()) << statuses[0].ToString();
  auto read = (*shard)->ReadRange("coarse", 0, 1LL << 40);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->values().size(), 3u);
  EXPECT_EQ((*shard)->StreamInfo("coarse").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*shard)->Stats().streamed_points, 0u);
}

TEST_F(StreamServeTest, OpenRejectsAnUnknownStreamCodec) {
  ShardOptions options = StreamingOptions();
  options.stream_codec = "GORILLA";  // No streaming counterpart.
  auto shard = Shard::Open(FreshDir("stream_serve_badcodec"), options);
  EXPECT_FALSE(shard.ok());
  EXPECT_EQ(shard.status().code(), StatusCode::kInvalidArgument);

  options.stream_codec = "PMC";
  options.stream_error_bound = 1.5;  // Outside (0, 1).
  auto bad_eb = Shard::Open(FreshDir("stream_serve_badeb"), options);
  EXPECT_FALSE(bad_eb.ok());
  EXPECT_EQ(bad_eb.status().code(), StatusCode::kInvalidArgument);
}

// --- Restart / recovery ---------------------------------------------------

TEST_F(StreamServeTest, StreamStateRebuildsAcrossCleanRestart) {
  const std::string dir = FreshDir("stream_serve_restart");
  const ShardOptions options = StreamingOptions();
  std::vector<double> fed;
  {
    auto shard = Shard::Open(dir, options);
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();
    AppendOp op;
    op.series = "mem";
    op.interval_seconds = 15;
    op.first_timestamp = 0;
    for (int i = 0; i < 130; ++i) op.values.push_back(ExpectedValue(2, i));
    const auto statuses = (*shard)->AppendBatch({op});
    ASSERT_TRUE(statuses[0].ok()) << statuses[0].ToString();
    fed = op.values;
    // Checkpoint so the reopen exercises the store-recovery path, then add
    // a WAL-only tail so replay feeds the stream too.
    ASSERT_TRUE((*shard)->Flush().ok());
    AppendOp tail;
    tail.series = "mem";
    tail.interval_seconds = 15;
    tail.first_timestamp = static_cast<int64_t>(fed.size()) * 15;
    for (int i = 0; i < 37; ++i) {
      tail.values.push_back(ExpectedValue(2, fed.size() + i));
    }
    ASSERT_TRUE((*shard)->AppendBatch({tail})[0].ok());
    fed.insert(fed.end(), tail.values.begin(), tail.values.end());
    // No clean close: the shard object just dies.
  }
  auto reopened = Shard::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto info = (*reopened)->StreamInfo("mem");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  ExpectInfoEq(*info, ReferenceInfo(options, 0, 15, fed), "clean restart");
  EXPECT_EQ((*reopened)->Stats().streamed_points, fed.size());
}

// The chaos leg: kill mid-stream at a WAL or checkpoint failpoint, reopen,
// and require the rebuilt stream state to equal a fresh stream fed exactly
// the recovered (durable) values — the crash-consistency contract of
// satellite (b): no acked point lost, segment stream batch-equivalent.
TEST_F(StreamServeTest, StreamStateSurvivesRandomKills) {
  struct CrashSite {
    const char* site;
    uint32_t max_fire_on;
  };
  constexpr CrashSite kCrashSites[] = {
      {"wal_write", 30},
      {"wal_fsync", 30},
      {"shard_flush", 10},
  };
  const int iterations = ChaosIterations();
  constexpr int kSeriesCount = 2;
  constexpr int kOpsPerRun = 28;

  ShardOptions options = StreamingOptions();
  options.flush_wal_bytes = 1u << 10;  // Make checkpoints actually happen.
  options.chunk_span = 32;

  int fired_runs = 0;
  for (int iter = 0; iter < iterations; ++iter) {
    std::mt19937 rng(0x57E4A000u + static_cast<uint32_t>(iter));
    const std::string dir = FreshDir("stream_chaos_" + std::to_string(iter));
    // Alternate the streaming codec so both PMC and Swing recovery paths
    // are exercised.
    options.stream_codec = (iter % 2 == 0) ? "PMC" : "SWING";

    const CrashSite& crash =
        kCrashSites[rng() % (sizeof(kCrashSites) / sizeof(kCrashSites[0]))];
    const uint32_t fire_on = 1 + rng() % crash.max_fire_on;

    size_t acked[kSeriesCount] = {0, 0};
    size_t issued[kSeriesCount] = {0, 0};
    bool crashed = false;
    {
      auto shard = Shard::Open(dir, options);
      ASSERT_TRUE(shard.ok()) << shard.status().ToString();
      FailPoints::Arm(crash.site, fire_on);
      for (int op_index = 0; op_index < kOpsPerRun && !crashed; ++op_index) {
        const int s = static_cast<int>(rng() % kSeriesCount);
        const size_t count = 1 + rng() % 9;
        AppendOp op;
        op.series = "stream-" + std::to_string(s);
        op.interval_seconds = 60;
        op.first_timestamp = static_cast<int64_t>(issued[s]) * 60;
        for (size_t i = 0; i < count; ++i) {
          op.values.push_back(ExpectedValue(s, issued[s] + i));
        }
        issued[s] += count;
        const std::vector<Status> statuses = (*shard)->AppendBatch({op});
        ASSERT_EQ(statuses.size(), 1u);
        if (statuses[0].ok()) {
          acked[s] = issued[s];
        } else {
          crashed = true;
          break;
        }
        if ((*shard)->Stats().flush_failures > 0) {
          crashed = true;
          break;
        }
      }
      FailPoints::DisarmAll();
      if (crashed) ++fired_runs;
      // kill -9: no flush, no clean close.
    }

    auto reopened = Shard::Open(dir, options);
    ASSERT_TRUE(reopened.ok())
        << "iter " << iter << " site " << crash.site << "@" << fire_on << ": "
        << reopened.status().ToString();
    for (int s = 0; s < kSeriesCount; ++s) {
      const std::string name = "stream-" + std::to_string(s);
      auto read = (*reopened)->ReadRange(name, 0, 1LL << 40);
      size_t recovered = 0;
      if (read.ok()) {
        recovered = read->values().size();
      } else {
        ASSERT_EQ(read.status().code(), StatusCode::kNotFound);
      }
      ASSERT_GE(recovered, acked[s])
          << "iter " << iter << " series " << name << ": lost acked points";
      if (recovered == 0) continue;

      // The rebuilt stream must equal a fresh stream fed the recovered
      // values — not the issued ones, not an approximation.
      auto info = (*reopened)->StreamInfo(name);
      ASSERT_TRUE(info.ok())
          << "iter " << iter << " series " << name << ": "
          << info.status().ToString();
      ExpectInfoEq(*info,
                   ReferenceInfo(options, 0, 60, read->values()),
                   "iter " + std::to_string(iter) + " site " + crash.site +
                       " series " + name);
    }
    const std::string cmd = "rm -rf '" + dir + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }
  EXPECT_GE(fired_runs, iterations / 4)
      << "failpoints barely fired — stream crash coverage has rotted";
  RecordProperty("stream_chaos_iterations", iterations);
  RecordProperty("stream_chaos_fired_runs", fired_runs);
}

// --- Wire round trip ------------------------------------------------------

TEST_F(StreamServeTest, StreamInfoRoundTripsThroughTheDaemon) {
  const std::string dir = FreshDir("stream_serve_daemon");
  DaemonOptions options;
  options.dir = dir;
  options.shards = 2;
  options.jobs = 1;
  options.shard.codecs = {"GORILLA"};
  options.shard.sync = false;
  options.shard.stream_codec = "SWING";
  options.shard.stream_error_bound = 0.02;

  auto daemon = Daemon::Start(options);
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
  auto client = Client::Connect((*daemon)->socket_path());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  std::vector<double> fed;
  for (int i = 0; i < 90; ++i) fed.push_back(ExpectedValue(0, i));
  ASSERT_TRUE((*client)->Append("wire", 0, 60, fed).ok());

  auto info = (*client)->StreamInfo("wire");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  ExpectInfoEq(*info, ReferenceInfo(options.shard, 0, 60, fed), "wire");

  // Unknown series maps to NotFound across the wire, and an invalid name is
  // refused before it ever reaches a shard.
  EXPECT_EQ((*client)->StreamInfo("nope").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ((*client)->StreamInfo(".bad/name").status().code(),
            StatusCode::kNotFound);

  // The new daemon-wide counters travel through kStats.
  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->streamed_points, fed.size());
  EXPECT_GT(stats->stream_segments, 0u);
  EXPECT_EQ(stats->stream_rejected, 0u);

  ASSERT_TRUE((*client)->Shutdown().ok());
}

TEST_F(StreamServeTest, StreamInfoOnAStreamlessDaemonFailsCleanly) {
  const std::string dir = FreshDir("stream_serve_daemon_off");
  DaemonOptions options;
  options.dir = dir;
  options.shards = 1;
  options.jobs = 1;
  options.shard.codecs = {"GORILLA"};
  options.shard.sync = false;

  auto daemon = Daemon::Start(options);
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
  auto client = Client::Connect((*daemon)->socket_path());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Append("s", 0, 60, {1.0, 2.0}).ok());
  EXPECT_EQ((*client)->StreamInfo("s").status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE((*client)->Shutdown().ok());
}

}  // namespace
}  // namespace lossyts::serve
