// Engineering microbench for src/stream/: streaming compression plus online
// drift detection over a drifting synthetic corpus. Self-checking — it exits
// nonzero when
//
//   * any streamed Flush() blob differs from batch Compress() (byte
//     identity),
//   * the online alarm list differs from offline analysis::DetectChanges on
//     the batch-decompressed series,
//   * fewer than LOSSYTS_MICRO_STREAM_RECALL (default 0.85) of the
//     ground-truth shifts are detected per codec, or the mean detection
//     delay breaches its floor (LOSSYTS_MICRO_STREAM_DELAY points, default
//     120 — a CUSUM re-anchor can legitimately mask an individual shift),
//   * the best paired streaming/batch ingest ratio (streaming and batch
//     trials interleaved, one pair per trial) falls below
//     LOSSYTS_MICRO_STREAM_RATIO (default 0.5), or
//   * results are not byte-identical across the --jobs values (worker count
//     must never change what the stream computes).
//
// Usage: micro_stream [--jobs 1,2] [--series N] [--points N]
// LOSSYTS_STREAM_ITERS scales the timing work (default 3 best-of trials).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"

namespace {

using Clock = std::chrono::steady_clock;
using namespace lossyts;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int StreamIters() {
  if (const char* env = std::getenv("LOSSYTS_STREAM_ITERS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return 3;
}

struct SeriesCase {
  std::string name;
  TimeSeries series;
  std::vector<size_t> truth;
};

// Drifting corpus: every series has level shifts big enough to survive the
// 0.05 bound (shift/level well above eb), so each one is detectable.
std::vector<SeriesCase> MakeCorpus(int count, size_t points) {
  std::vector<SeriesCase> corpus;
  for (int s = 0; s < count; ++s) {
    std::vector<size_t> truth;
    for (size_t t = points / 6; t + points / 12 < points; t += points / 6) {
      truth.push_back(t);
    }
    const double level = 30.0 + 5.0 * s;
    corpus.push_back({"drift-" + std::to_string(s),
                      bench::MakeDriftSeries(points, truth, level,
                                             0.4 * level, 0.6,
                                             101 + static_cast<uint64_t>(s)),
                      truth});
  }
  return corpus;
}

struct CellResult {
  std::vector<uint8_t> blob;
  std::vector<size_t> alarms;
  uint64_t segments = 0;
  bool ok = true;
};

// One (series, codec) cell of the check workload, keyed for the cross-jobs
// comparison.
std::map<std::string, CellResult> RunCells(
    const std::vector<SeriesCase>& corpus,
    const std::vector<std::string>& codecs,
    const analysis::CusumOptions& cusum, int jobs) {
  std::vector<std::pair<std::string, const SeriesCase*>> work;
  for (const SeriesCase& c : corpus) {
    for (const std::string& codec : codecs) {
      work.push_back({codec, &c});
    }
  }
  std::vector<CellResult> results(work.size());
  std::atomic<size_t> cursor{0};
  auto worker = [&]() {
    for (;;) {
      const size_t i = cursor.fetch_add(1);
      if (i >= work.size()) return;
      Result<bench::StreamDetection> got = bench::StreamDetect(
          work[i].second->series, work[i].first, 0.05, cusum);
      if (!got.ok()) {
        results[i].ok = false;
        continue;
      }
      results[i].blob = std::move(got->blob);
      results[i].alarms = std::move(got->alarms);
      results[i].segments = got->segments;
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, jobs); ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();

  std::map<std::string, CellResult> keyed;
  for (size_t i = 0; i < work.size(); ++i) {
    keyed[work[i].first + "/" + work[i].second->name] =
        std::move(results[i]);
  }
  return keyed;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> jobs_list = {1, 2};
  int series_count = 4;
  size_t points = 6000;
  bench::ParseFlagsOrExit(
      argc, argv,
      {flags::Value("--jobs", "1,2", "worker threads, one run each",
                    &jobs_list),
       flags::Value("--series", "N", "drifting series", &series_count),
       flags::Value("--points", "N", "points per series", &points)});
  double delay_floor = 120.0;
  if (const char* env = std::getenv("LOSSYTS_MICRO_STREAM_DELAY")) {
    delay_floor = std::strtod(env, nullptr);
  }
  double ratio_floor = 0.5;
  if (const char* env = std::getenv("LOSSYTS_MICRO_STREAM_RATIO")) {
    ratio_floor = std::strtod(env, nullptr);
  }
  double recall_floor = 0.85;
  if (const char* env = std::getenv("LOSSYTS_MICRO_STREAM_RECALL")) {
    recall_floor = std::strtod(env, nullptr);
  }
  const int iters = StreamIters();

  const std::vector<SeriesCase> corpus = MakeCorpus(series_count, points);
  const std::vector<std::string> codecs = stream::StreamingCompressorNames();
  analysis::CusumOptions cusum;
  cusum.min_sigma = 0.5;  // Scale-aware floor (the change-detection bench).

  std::printf("micro_stream: %d series x %zu points, codecs", series_count,
              points);
  for (const std::string& c : codecs) std::printf(" %s", c.c_str());
  std::printf(", %d timing trials\n\n", std::max(3, iters));

  // --- Correctness: byte identity, online==offline, detection delay ------
  std::map<std::string, CellResult> cells =
      RunCells(corpus, codecs, cusum, jobs_list.front());
  int failures = 0;
  for (const std::string& codec : codecs) {
    size_t shifts_total = 0;
    size_t shifts_found = 0;
    double delay_sum = 0.0;
    for (const SeriesCase& c : corpus) {
      const CellResult& cell = cells[codec + "/" + c.name];
      if (!cell.ok) {
        std::fprintf(stderr, "FAIL %s/%s: stream errored\n", codec.c_str(),
                     c.name.c_str());
        ++failures;
        continue;
      }
      std::vector<uint8_t> batch_blob;
      Result<std::vector<size_t>> offline =
          bench::OfflineAlarms(c.series, codec, 0.05, cusum, &batch_blob);
      if (!offline.ok()) {
        std::fprintf(stderr, "FAIL %s/%s: offline errored: %s\n",
                     codec.c_str(), c.name.c_str(),
                     offline.status().ToString().c_str());
        ++failures;
        continue;
      }
      if (cell.blob != batch_blob) {
        std::fprintf(stderr, "FAIL %s/%s: blob != batch Compress\n",
                     codec.c_str(), c.name.c_str());
        ++failures;
      }
      if (cell.alarms != *offline) {
        std::fprintf(stderr, "FAIL %s/%s: online alarms != offline\n",
                     codec.c_str(), c.name.c_str());
        ++failures;
      }
      size_t detected = 0;
      const double delay = bench::MeanDetectionDelay(
          cell.alarms, c.truth, static_cast<size_t>(delay_floor), &detected);
      shifts_total += c.truth.size();
      shifts_found += detected;
      if (detected > 0) delay_sum += delay * static_cast<double>(detected);
    }
    const double recall = shifts_total == 0
                              ? 0.0
                              : static_cast<double>(shifts_found) /
                                    static_cast<double>(shifts_total);
    const double mean_delay =
        shifts_found == 0 ? -1.0
                          : delay_sum / static_cast<double>(shifts_found);
    std::printf("detection: %-5s %zu/%zu shifts within %.0f points "
                "(recall %.2f, floor %.2f), mean delay %.1f\n",
                codec.c_str(), shifts_found, shifts_total, delay_floor,
                recall, recall_floor, mean_delay);
    if (recall < recall_floor) {
      std::fprintf(stderr, "FAIL %s: detection recall %.2f below %.2f\n",
                   codec.c_str(), recall, recall_floor);
      ++failures;
    }
  }

  // --- Cross-jobs identity ------------------------------------------------
  for (size_t j = 1; j < jobs_list.size(); ++j) {
    std::map<std::string, CellResult> other =
        RunCells(corpus, codecs, cusum, jobs_list[j]);
    for (const auto& [key, cell] : cells) {
      const CellResult& twin = other[key];
      if (cell.blob != twin.blob || cell.alarms != twin.alarms) {
        std::fprintf(stderr, "FAIL %s: result differs at --jobs %d vs %d\n",
                     key.c_str(), jobs_list.front(), jobs_list[j]);
        ++failures;
      }
    }
  }
  std::printf("identity:  results byte-identical across jobs {");
  for (size_t j = 0; j < jobs_list.size(); ++j) {
    std::printf("%s%d", j == 0 ? "" : ",", jobs_list[j]);
  }
  std::printf("}\n");

  // --- Throughput: streaming ingest vs batch compression ------------------
  // Timing: one batch trial and one streaming trial back to back per pair
  // (each at least 0.08 s of corpus passes), and the floor is checked
  // against the best PAIRED ratio, as micro_query does: a noise burst then
  // hits both sides of one pair instead of skewing one side's best-of.
  constexpr double kMinTrialSeconds = 0.08;
  const int trials = std::max(3, iters);
  for (const std::string& codec : codecs) {
    auto batch = compress::MakeCompressor(codec);
    if (!batch.ok()) return 1;
    auto streaming = stream::MakeStreamingCompressor(codec);
    if (!streaming.ok()) return 1;

    auto batch_pass = [&]() -> Result<size_t> {
      size_t n = 0;
      for (const SeriesCase& c : corpus) {
        auto blob = (*batch)->Compress(c.series, 0.05);
        if (!blob.ok()) return blob.status();
        n += c.series.size();
      }
      return n;
    };
    auto stream_pass = [&]() -> Result<size_t> {
      size_t n = 0;
      for (const SeriesCase& c : corpus) {
        if (Status s = (*streaming)
                           ->Open(c.series.start_timestamp(),
                                  c.series.interval_seconds(), 0.05);
            !s.ok()) {
          return s;
        }
        for (double v : c.series.values()) {
          if (Status s = (*streaming)->Append(v); !s.ok()) return s;
        }
        auto blob = (*streaming)->Flush();
        if (!blob.ok()) return blob.status();
        n += c.series.size();
      }
      return n;
    };
    // One timed trial: corpus passes until the minimum duration is reached.
    auto trial_mps = [&](auto& pass) -> Result<double> {
      size_t total = 0;
      const Clock::time_point t0 = Clock::now();
      do {
        Result<size_t> n = pass();
        if (!n.ok()) return n.status();
        total += *n;
      } while (SecondsSince(t0) < kMinTrialSeconds);
      return static_cast<double>(total) / SecondsSince(t0) / 1e6;
    };

    double batch_mps = 0.0;
    double stream_mps = 0.0;
    double ratio = 0.0;
    for (int t = 0; t < trials; ++t) {
      Result<double> b = trial_mps(batch_pass);
      Result<double> s = trial_mps(stream_pass);
      if (!b.ok() || !s.ok()) return 1;
      batch_mps = std::max(batch_mps, *b);
      stream_mps = std::max(stream_mps, *s);
      ratio = std::max(ratio, *s / *b);
    }
    std::printf("ingest:    %-5s batch %7.1f Mpts/s, streaming %7.1f "
                "Mpts/s (best pair %.2fx, floor %.2fx)\n",
                codec.c_str(), batch_mps, stream_mps, ratio, ratio_floor);
    if (ratio < ratio_floor) {
      std::fprintf(stderr,
                   "FAIL %s: streaming ingest %.2fx of batch, floor %.2fx\n",
                   codec.c_str(), ratio, ratio_floor);
      ++failures;
    }
  }

  if (failures > 0) {
    std::fprintf(stderr, "\nmicro_stream: %d failures\n", failures);
    return 1;
  }
  std::printf("\nmicro_stream: OK\n");
  return 0;
}
