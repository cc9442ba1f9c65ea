// The chaos battery: hundreds of randomized kill-at-failpoint runs against a
// shard under mixed traffic. Each iteration arms one crash site (WAL write,
// WAL fsync, checkpoint, store write) at a random hit count, ingests until
// the "kill" fires, then reopens and checks the durability contract:
//
//   * zero lost acked writes — every op acked before the kill is recovered
//     bit-exactly (lossless codec), and
//   * zero half-visible un-acked writes — recovery may keep whole un-acked
//     ops (they were fully framed before the crash) but never a fraction of
//     one, and never out of order.
//
// A second generation then appends on top of the recovered shard,
// checkpoints (copying forward the chunk prefix Open rebuilt from the
// recovered stores) and reopens once more: every series must read back
// bit-exactly.
//
// Iterations default to 200; scale with LOSSYTS_SERVE_CHAOS_ITERS.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/failpoint.h"
#include "serve/shard.h"
#include "test_util.h"

namespace lossyts::serve {
namespace {

int ChaosIterations() {
  const char* env = std::getenv("LOSSYTS_SERVE_CHAOS_ITERS");
  if (env != nullptr && *env != '\0') {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return 200;
}

// Deterministic value stream per series so any recovered point is checkable
// in isolation.
double ExpectedValue(int series, size_t index) {
  return static_cast<double>(series + 1) * 100.0 +
         static_cast<double>(index) * 1.0e-3 - 0.5;
}

struct CrashSite {
  const char* site;
  uint32_t max_fire_on;  // Hit counts are drawn from [1, max_fire_on].
};

// wal_write hits once per op, wal_fsync once per batch, shard_flush twice
// per checkpoint plus once per dirty series, store_write on every store
// write call during a checkpoint rewrite.
constexpr CrashSite kCrashSites[] = {
    {"wal_write", 40},
    {"wal_fsync", 40},
    {"shard_flush", 12},
    {"store_write", 30},
};

TEST(ServeChaosTest, RandomKillsNeverLoseAckedOrSplitUnackedWrites) {
  const int iterations = ChaosIterations();
  constexpr int kSeriesCount = 3;
  constexpr int kOpsPerRun = 36;

  int fired_runs = 0;
  std::map<std::string, int> fired_by_site;
  for (int iter = 0; iter < iterations; ++iter) {
    std::mt19937 rng(0xC4A05000u + static_cast<uint32_t>(iter));
    const std::string dir =
        test::UniqueTestDir() + "/serve_chaos_" + std::to_string(iter);
    {
      const std::string cmd = "rm -rf '" + dir + "'";
      ASSERT_EQ(std::system(cmd.c_str()), 0);
    }

    ShardOptions options;
    options.codecs = {"GORILLA"};  // Recovery must be bit-exact.
    options.sync = false;
    // Tiny checkpoint threshold so flush/store crash sites actually get hit.
    options.flush_wal_bytes = 1u << 10;
    options.chunk_span = 32;

    const CrashSite& crash =
        kCrashSites[rng() % (sizeof(kCrashSites) / sizeof(kCrashSites[0]))];
    const uint32_t fire_on = 1 + rng() % crash.max_fire_on;

    // acked[s] / issued[s]: points acked vs issued (acked + at most the one
    // pending op) per series. All single-op batches, so the un-acked window
    // is exactly one op.
    size_t acked[kSeriesCount] = {0, 0, 0};
    size_t issued[kSeriesCount] = {0, 0, 0};
    bool crashed = false;

    {
      auto shard = Shard::Open(dir, options);
      ASSERT_TRUE(shard.ok()) << shard.status().ToString();
      FailPoints::Arm(crash.site, fire_on);

      for (int op_index = 0; op_index < kOpsPerRun && !crashed; ++op_index) {
        const int s = static_cast<int>(rng() % kSeriesCount);
        const size_t count = 1 + rng() % 8;
        AppendOp op;
        op.series = "chaos-" + std::to_string(s);
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
          // The kill: a WAL-path failpoint fired. Stop driving traffic, as
          // a crashed process would.
          ASSERT_TRUE(statuses[0].code() == StatusCode::kInternal ||
                      statuses[0].code() == StatusCode::kFailedPrecondition)
              << statuses[0].ToString();
          crashed = true;
          break;
        }
        // A checkpoint crash is non-fatal to the shard, but it is still our
        // simulated kill point: stop as soon as one fires.
        if ((*shard)->Stats().flush_failures > 0) {
          crashed = true;
          break;
        }

        // Mixed traffic: interleave reads and verify the live prefix.
        if (rng() % 3 == 0) {
          const int r = static_cast<int>(rng() % kSeriesCount);
          auto read =
              (*shard)->ReadRange("chaos-" + std::to_string(r), 0, 1LL << 40);
          if (acked[r] == 0) {
            ASSERT_FALSE(read.ok());
          } else {
            ASSERT_TRUE(read.ok()) << read.status().ToString();
            ASSERT_EQ(read->values().size(), acked[r]);
          }
        }
      }
      FailPoints::DisarmAll();
      if (crashed) {
        ++fired_runs;
        ++fired_by_site[crash.site];
      }
      // kill -9: the shard object dies with no flush and no clean close.
    }

    // Post-kill reopen must be clean or salvage-consistent — never an error,
    // never a crash.
    auto reopened = Shard::Open(dir, options);
    ASSERT_TRUE(reopened.ok())
        << "iter " << iter << " site " << crash.site << "@" << fire_on << ": "
        << reopened.status().ToString();

    size_t recovered_points[kSeriesCount] = {0, 0, 0};
    for (int s = 0; s < kSeriesCount; ++s) {
      const std::string name = "chaos-" + std::to_string(s);
      auto read = (*reopened)->ReadRange(name, 0, 1LL << 40);
      size_t recovered = 0;
      if (read.ok()) {
        recovered = read->values().size();
      } else {
        ASSERT_EQ(read.status().code(), StatusCode::kNotFound);
      }
      // No lost acked writes...
      ASSERT_GE(recovered, acked[s])
          << "iter " << iter << " site " << crash.site << "@" << fire_on
          << " series " << name << ": lost acked points";
      // ...and nothing beyond whole issued ops (the single pending op may
      // survive in full, never in part).
      ASSERT_LE(recovered, issued[s])
          << "iter " << iter << " series " << name << ": phantom points";
      ASSERT_TRUE(recovered == acked[s] || recovered == issued[s])
          << "iter " << iter << " site " << crash.site << "@" << fire_on
          << " series " << name << ": half-visible op (acked " << acked[s]
          << ", issued " << issued[s] << ", recovered " << recovered << ")";
      for (size_t i = 0; i < recovered; ++i) {
        ASSERT_EQ(read->values()[i], ExpectedValue(s, i))
            << "iter " << iter << " series " << name << " point " << i;
      }
      recovered_points[s] = recovered;
    }

    // Second generation: append on top of the recovery, checkpoint, reopen.
    size_t total[kSeriesCount] = {0, 0, 0};
    for (int s = 0; s < kSeriesCount; ++s) {
      const size_t count = 1 + rng() % 40;
      AppendOp op;
      op.series = "chaos-" + std::to_string(s);
      op.interval_seconds = 60;
      op.first_timestamp = static_cast<int64_t>(recovered_points[s]) * 60;
      for (size_t i = 0; i < count; ++i) {
        op.values.push_back(ExpectedValue(s, recovered_points[s] + i));
      }
      const std::vector<Status> statuses =
          (*reopened)->AppendBatch({std::move(op)});
      ASSERT_TRUE(statuses[0].ok())
          << "iter " << iter << ": " << statuses[0].ToString();
      total[s] = recovered_points[s] + count;
    }
    ASSERT_TRUE((*reopened)->Flush().ok()) << "iter " << iter;
    reopened->reset();
    auto second = Shard::Open(dir, options);
    ASSERT_TRUE(second.ok()) << "iter " << iter << ": "
                             << second.status().ToString();
    for (int s = 0; s < kSeriesCount; ++s) {
      const std::string name = "chaos-" + std::to_string(s);
      auto read = (*second)->ReadRange(name, 0, 1LL << 40);
      ASSERT_TRUE(read.ok()) << read.status().ToString();
      ASSERT_EQ(read->values().size(), total[s])
          << "iter " << iter << " series " << name;
      for (size_t i = 0; i < total[s]; ++i) {
        ASSERT_EQ(read->values()[i], ExpectedValue(s, i))
            << "iter " << iter << " series " << name << " point " << i
            << " after the second reopen";
      }
    }
    second->reset();

    const std::string cmd = "rm -rf '" + dir + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }

  // The battery is only meaningful if the crash sites actually fire; with
  // the default 200 iterations well over half should.
  EXPECT_GE(fired_runs, iterations / 4)
      << "failpoints barely fired — crash coverage has rotted";
  RecordProperty("chaos_iterations", iterations);
  RecordProperty("chaos_fired_runs", fired_runs);
  for (const auto& [site, count] : fired_by_site) {
    RecordProperty(("chaos_fired_" + site).c_str(), count);
  }
}

}  // namespace
}  // namespace lossyts::serve
