#ifndef LOSSYTS_BENCH_BENCH_COMMON_H_
#define LOSSYTS_BENCH_BENCH_COMMON_H_

// Shared configuration for the per-table/per-figure bench binaries. Every
// forecasting bench uses the same GridOptions (and thus the same CSV cache),
// so the expensive model-training sweep runs once no matter which bench is
// executed first; likewise for the compression-only sweep.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "analysis/change_detection.h"
#include "compress/pipeline.h"
#include "core/flags.h"
#include "core/rng.h"
#include "eval/compression_sweep.h"
#include "eval/grid.h"
#include "stream/drift.h"
#include "stream/streaming_compressor.h"

namespace lossyts::bench {

/// The canonical forecasting grid: all datasets/models/compressors, the 13
/// paper error bounds, two seeds, laptop-scale series (DESIGN.md scaling
/// note). ~5 minutes of one-time compute, cached to CSV afterwards.
inline eval::GridOptions DefaultGridOptions() {
  eval::GridOptions options;
  options.seeds = {1, 2};
  options.data.length_fraction = 0.05;
  options.verbose = true;
  return options;
}

/// The canonical compression sweep at the larger statistics-grade scale.
inline eval::SweepOptions DefaultSweepOptions() {
  eval::SweepOptions options;
  options.data.length_fraction = 0.125;
  options.verbose = true;
  return options;
}

/// Parses a bench binary's flags. An unknown flag, a missing value, a
/// malformed number or a stray argument prints the table and exits 2.
inline void ParseFlagsOrExit(int argc, char** argv,
                             const std::vector<flags::Flag>& table) {
  const Status s = flags::Parse(
      table, std::vector<std::string>(argv + 1, argv + argc), nullptr);
  if (s.ok()) return;
  std::fprintf(stderr, "%s: %s\nusage: %s [flags]\n%s", argv[0],
               s.message().c_str(), argv[0], flags::Usage(table, 2).c_str());
  std::exit(2);
}

/// The cache flags every grid- or sweep-consuming bench takes.
struct BenchFlags {
  bool fresh = false;
  std::string cache_path = eval::DefaultGridCachePath();
  int jobs = 1;
};

inline BenchFlags ParseCacheFlags(int argc, char** argv) {
  BenchFlags parsed;
  ParseFlagsOrExit(
      argc, argv,
      {flags::Switch("--resume", "resume the checkpoint (default)",
                     &parsed.fresh, false),
       flags::Switch("--fresh", "recompute from scratch", &parsed.fresh,
                     true),
       flags::Value("--cache", "<path>", "checkpoint file",
                    &parsed.cache_path),
       flags::Value("--jobs", "N",
                    "worker threads (0 = all); output is identical for any N",
                    &parsed.jobs)});
  return parsed;
}

/// Prints a one-line-per-cell failure report to stderr; quiet when clean.
inline void ReportGridFailures(const std::vector<eval::GridRecord>& records) {
  const std::vector<const eval::GridRecord*> failed =
      eval::FailedRecords(records);
  if (failed.empty()) return;
  std::fprintf(stderr, "[grid] %zu of %zu cells failed:\n", failed.size(),
               records.size());
  for (const eval::GridRecord* r : failed) {
    std::fprintf(stderr, "[grid]   %s/%s/%s eb=%g seed=%llu (attempts %d): %s\n",
                 r->dataset.c_str(), r->model.c_str(), r->compressor.c_str(),
                 r->error_bound, static_cast<unsigned long long>(r->seed),
                 r->attempts, r->error.c_str());
  }
}

/// Loads the canonical grid for a bench binary, honoring --resume / --fresh /
/// --cache / --jobs. Failed cells are reported to stderr and filtered out, so
/// the per-table aggregations below only ever see completed measurements.
inline Result<std::vector<eval::GridRecord>> LoadBenchGrid(int argc,
                                                           char** argv) {
  const BenchFlags parsed = ParseCacheFlags(argc, argv);
  if (parsed.fresh) std::remove(parsed.cache_path.c_str());
  eval::GridOptions options = DefaultGridOptions();
  options.jobs = parsed.jobs;
  Result<std::vector<eval::GridRecord>> grid =
      eval::LoadOrRunGrid(options, parsed.cache_path);
  if (!grid.ok()) return grid.status();
  ReportGridFailures(*grid);
  std::vector<eval::GridRecord> ok_records;
  ok_records.reserve(grid->size());
  for (eval::GridRecord& r : *grid) {
    if (!r.failed()) ok_records.push_back(std::move(r));
  }
  return ok_records;
}

/// Loads the canonical compression sweep for a bench binary, honoring
/// --fresh / --jobs (the sweep cache lives at DefaultSweepCachePath()).
inline Result<std::vector<eval::SweepRecord>> LoadBenchSweep(int argc,
                                                             char** argv) {
  const BenchFlags parsed = ParseCacheFlags(argc, argv);
  const std::string cache_path = eval::DefaultSweepCachePath();
  if (parsed.fresh) std::remove(cache_path.c_str());
  eval::SweepOptions options = DefaultSweepOptions();
  options.jobs = parsed.jobs;
  return eval::LoadOrRunSweep(options, cache_path);
}

/// Mean TFE per (dataset, compressor, error bound) across models and seeds.
inline std::map<std::string, std::vector<double>> GroupTfe(
    const std::vector<eval::GridRecord>& records,
    const std::string& dataset, const std::string& compressor) {
  std::map<std::string, std::vector<double>> by_eb;
  for (const eval::GridRecord& r : records) {
    if (r.dataset != dataset || r.compressor != compressor) continue;
    char key[32];
    std::snprintf(key, sizeof(key), "%.4f", r.error_bound);
    by_eb[key].push_back(r.tfe);
  }
  return by_eb;
}

// --- Shared streaming driver (src/stream/ benches) -------------------------
//
// The streaming benches (micro_stream, the streaming sections of
// futurework_change_detection and figure7_retrain) all drive the same
// machinery: a drifting series with known change points is fed one point at
// a time through a StreamingCompressor, the emitted segments feed a
// SegmentDriftDetector, and the result is checked against the offline twin
// (batch compress → decompress → analysis::DetectChanges), which must match
// alarm-for-alarm in point-CUSUM mode.

/// Synthetic drifting series: `shifts` are the indices where the level jumps
/// by ±`step` (alternating sign) over Gaussian noise — the ground truth for
/// detection-delay scoring.
inline TimeSeries MakeDriftSeries(size_t n, const std::vector<size_t>& shifts,
                                  double level0, double step,
                                  double noise_sigma, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  double level = level0;
  size_t next = 0;
  for (size_t i = 0; i < n; ++i) {
    if (next < shifts.size() && i == shifts[next]) {
      level += (next % 2 == 0 ? step : -step);
      ++next;
    }
    v[i] = level + noise_sigma * rng.Normal();
  }
  return TimeSeries(0, 60, std::move(v));
}

/// Output of one streaming detection pass.
struct StreamDetection {
  std::vector<size_t> alarms;    ///< Online alarms, as point indices.
  std::vector<uint8_t> blob;     ///< Flush() output (byte-identical to batch).
  uint64_t segments = 0;
};

/// Streams `series` through `codec` at `eb`, feeding every closed segment to
/// a point-CUSUM SegmentDriftDetector configured with `cusum`.
inline Result<StreamDetection> StreamDetect(
    const TimeSeries& series, const std::string& codec, double eb,
    const analysis::CusumOptions& cusum) {
  Result<std::unique_ptr<stream::StreamingCompressor>> made =
      stream::MakeStreamingCompressor(codec);
  if (!made.ok()) return made.status();
  if (Status s = (*made)->Open(series.start_timestamp(),
                               series.interval_seconds(), eb);
      !s.ok()) {
    return s;
  }
  stream::SegmentDriftOptions drift;
  drift.mode = stream::SegmentDriftOptions::Mode::kPointCusum;
  drift.cusum = cusum;
  stream::SegmentDriftDetector detector(drift);
  StreamDetection out;
  std::vector<stream::StreamSegment> closed;
  for (double v : series.values()) {
    closed.clear();
    if (Status s = (*made)->Append(v, &closed); !s.ok()) return s;
    for (const stream::StreamSegment& seg : closed) {
      detector.OnSegment(seg, &out.alarms);
    }
  }
  closed.clear();
  Result<std::vector<uint8_t>> blob = (*made)->Flush(&closed);
  if (!blob.ok()) return blob.status();
  for (const stream::StreamSegment& seg : closed) {
    detector.OnSegment(seg, &out.alarms);
  }
  if (Status s = detector.Finish(&out.alarms); !s.ok()) return s;
  out.blob = std::move(*blob);
  out.segments = (*made)->segments();
  return out;
}

/// The offline twin: batch compress → decompress → DetectChanges. When
/// `batch_blob` is non-null it receives the batch compression output (the
/// byte-identity oracle for StreamDetect's blob).
inline Result<std::vector<size_t>> OfflineAlarms(
    const TimeSeries& series, const std::string& codec, double eb,
    const analysis::CusumOptions& cusum,
    std::vector<uint8_t>* batch_blob = nullptr) {
  Result<std::unique_ptr<compress::Compressor>> made =
      compress::MakeCompressor(codec);
  if (!made.ok()) return made.status();
  Result<std::vector<uint8_t>> blob = (*made)->Compress(series, eb);
  if (!blob.ok()) return blob.status();
  Result<TimeSeries> decoded = (*made)->Decompress(*blob);
  if (!decoded.ok()) return decoded.status();
  if (batch_blob != nullptr) *batch_blob = std::move(*blob);
  return analysis::DetectChanges(decoded->values(), cusum);
}

/// Mean detection delay (in points) of `alarms` against `truth`, counting
/// only shifts with an alarm inside [shift, shift + window). Returns the
/// number of detected shifts via `*detected`; -1 when none were.
inline double MeanDetectionDelay(const std::vector<size_t>& alarms,
                                 const std::vector<size_t>& truth,
                                 size_t window, size_t* detected = nullptr) {
  size_t hits = 0;
  double total = 0.0;
  for (size_t t : truth) {
    for (size_t a : alarms) {
      if (a >= t && a < t + window) {
        ++hits;
        total += static_cast<double>(a - t);
        break;
      }
    }
  }
  if (detected != nullptr) *detected = hits;
  return hits == 0 ? -1.0 : total / static_cast<double>(hits);
}

}  // namespace lossyts::bench

#endif  // LOSSYTS_BENCH_BENCH_COMMON_H_
