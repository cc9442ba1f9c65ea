// lossyts — command-line front end for the compression library. Run it with
// no arguments for the usage, which is generated from the command table at
// the end of this file.
//
// Compressed files are the library's self-describing blobs wrapped in gzip
// (the paper's measurement format), so `decompress` needs no codec argument.
// `store` files are the chunk store format from src/store/ — CRC-framed
// chunk records plus a sparse time index, queryable without full decode.

#include <csignal>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "compress/pipeline.h"
#include "conform/harness.h"
#include "core/flags.h"
#include "core/simd.h"
#include "data/csv.h"
#include "data/datasets.h"
#include "eval/grid.h"
#include "eval/report.h"
#include "eval/store_source.h"
#include "features/registry.h"
#include "numcheck/harness.h"
#include "query/query.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "store/format.h"
#include "stream/online_eval.h"
#include "store/query.h"
#include "store/reader.h"
#include "store/writer.h"
#include "zip/gzip.h"

using namespace lossyts;

namespace {

// Everything a command's flags can set. One command runs per process, so
// commands that take the same options type share one member.
struct Options {
  eval::GridOptions grid;  // grid, store ingest-grid
  bool resume = false;
  bool build_stores = false;
  std::string cache_path = eval::DefaultGridCachePath();
  conform::ConformOptions conform;  // conform, simdcheck
  numcheck::NumCheckOptions numcheck;
  store::StoreOptions store;
  store::AggregateOptions aggregate;
  query::QueryOptions query;
  stream::OnlineEvalOptions stream;
  serve::DaemonOptions serve;
  serve::QuerySpec client_query;
};

// A command's positional arguments, in order.
using Args = std::vector<std::string>;

// Prints `s` and returns exit code 1, a runtime error; usage errors exit 2.
int Fail(const Status& s) {
  std::fprintf(stderr, "%s\n", s.ToString().c_str());
  return 1;
}

// Parses the positional argument `what` as flags::ParseValue does for a
// flag; on a malformed value prints why and returns false (exit 2).
template <typename T>
bool ParseArg(const char* what, const std::string& text, T* out) {
  const Status s = flags::ParseValue(text, out);
  if (!s.ok()) std::fprintf(stderr, "%s: %s\n", what, s.message().c_str());
  return s.ok();
}

Result<TimeSeries> LoadSeries(const std::string& arg) {
  for (const std::string& name : data::DatasetNames()) {
    if (name == arg) {
      data::DatasetOptions options;
      options.length_fraction = 0.125;
      Result<data::Dataset> dataset = data::MakeDataset(name, options);
      if (!dataset.ok()) return dataset.status();
      return dataset->series;
    }
  }
  return data::LoadCsv(arg);
}

Result<std::vector<uint8_t>> ReadBinary(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file.is_open()) return Status::IoError("cannot open " + path);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(file)),
                              std::istreambuf_iterator<char>());
}

Status WriteBinary(const std::string& path, const std::vector<uint8_t>& data) {
  std::ofstream file(path, std::ios::binary);
  if (!file.is_open()) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  file.write(reinterpret_cast<const char*>(data.data()),
             static_cast<std::streamsize>(data.size()));
  if (!file.good()) return Status::IoError("write to " + path + " failed");
  return Status::OK();
}

int Compress(Options&, const Args& args) {
  const std::string& codec_name = args[0];
  double eb = 0.0;
  if (!ParseArg("<eb>", args[1], &eb)) return 2;
  Result<TimeSeries> series = LoadSeries(args[2]);
  if (!series.ok()) return Fail(series.status());
  Result<std::unique_ptr<compress::Compressor>> codec =
      compress::MakeCompressor(codec_name);
  if (!codec.ok()) return Fail(codec.status());
  Result<std::vector<uint8_t>> blob = (*codec)->Compress(*series, eb);
  if (!blob.ok()) return Fail(blob.status());
  const std::vector<uint8_t> gz = zip::GzipCompress(*blob);
  if (Status s = WriteBinary(args[3], gz); !s.ok()) return Fail(s);
  const size_t raw_gz = compress::RawGzipSize(*series);
  std::printf("%s: %zu points -> %zu bytes (CR %.1fx vs gzip'd CSV)\n",
              codec_name.c_str(), series->size(), gz.size(),
              static_cast<double>(raw_gz) / static_cast<double>(gz.size()));
  return 0;
}

int Decompress(Options&, const Args& args) {
  const std::string& out_path = args[1];
  Result<std::vector<uint8_t>> gz = ReadBinary(args[0]);
  if (!gz.ok()) return Fail(gz.status());
  Result<std::vector<uint8_t>> blob = zip::GzipDecompress(*gz);
  if (!blob.ok()) return Fail(blob.status());
  Result<TimeSeries> series = compress::DecompressAny(*blob);
  if (!series.ok()) return Fail(series.status());
  if (Status s = data::SaveCsv(*series, out_path); !s.ok()) return Fail(s);
  std::printf("wrote %zu points to %s\n", series->size(), out_path.c_str());
  return 0;
}

int Stats(Options&, const Args& args) {
  Result<TimeSeries> series = LoadSeries(args[0]);
  if (!series.ok()) return Fail(series.status());
  Result<TimeSeries::Stats> stats = series->ComputeStats();
  if (!stats.ok()) return Fail(stats.status());
  std::printf("points:   %zu\n", stats->length);
  std::printf("interval: %d s\n", series->interval_seconds());
  std::printf("mean:     %.4f\n", stats->mean);
  std::printf("min/max:  %.4f / %.4f\n", stats->min, stats->max);
  std::printf("Q1/Q3:    %.4f / %.4f\n", stats->q1, stats->q3);
  std::printf("rIQD:     %.1f%%\n", stats->riqd_percent);
  Result<features::FeatureMap> features =
      features::ComputeAllFeatures(*series, 0);
  if (features.ok()) {
    std::printf("entropy:  %.3f   hurst: %.3f   max_kl_shift: %.3f\n",
                features->at("entropy"), features->at("hurst"),
                features->at("max_kl_shift"));
  }
  return 0;
}

int Sweep(Options&, const Args& args) {
  Result<TimeSeries> series = LoadSeries(args[0]);
  if (!series.ok()) return Fail(series.status());
  eval::TableWriter table({"codec", "eb", "CR", "TE(NRMSE)"});
  for (const std::string name :
       {"PMC", "SWING", "SZ", "PPA", "LFZIP", "CAMEO"}) {
    Result<std::unique_ptr<compress::Compressor>> codec =
        compress::MakeCompressor(name);
    if (!codec.ok()) return Fail(codec.status());
    for (double eb : {0.01, 0.05, 0.2}) {
      Result<compress::PipelineResult> run =
          compress::RunPipeline(**codec, *series, eb);
      if (!run.ok()) return Fail(run.status());
      table.AddRow({name, eval::FormatDouble(eb, 2),
                    eval::FormatDouble(run->compression_ratio, 1),
                    eval::FormatDouble(run->te_nrmse, 4)});
    }
  }
  table.Print();
  return 0;
}

// Runs the evaluation grid with checkpoint/resume. The checkpoint is written
// incrementally (one CRC-framed row per completed cell), so an interrupted
// sweep rerun with --resume salvages every finished cell and computes only
// the missing ones. Without --resume any existing cache is discarded.
int Grid(Options& o, const Args&) {
  eval::GridOptions& options = o.grid;
  options.verbose = true;
  if (o.build_stores) {
    if (options.store_dir.empty()) {
      std::fprintf(stderr, "--build-stores requires --store-dir\n");
      return 2;
    }
    if (Status s = eval::BuildTransformStores(options, options.store_dir);
        !s.ok()) {
      return Fail(s);
    }
  }
  if (!o.resume) std::remove(o.cache_path.c_str());
  Result<std::vector<eval::GridRecord>> records =
      eval::LoadOrRunGrid(options, o.cache_path);
  if (!records.ok()) return Fail(records.status());
  const std::vector<const eval::GridRecord*> failed =
      eval::FailedRecords(*records);
  std::printf("grid: %zu cells (%zu failed), checkpoint at %s\n",
              records->size(), failed.size(), o.cache_path.c_str());
  if (!failed.empty()) {
    eval::TableWriter table({"dataset", "model", "codec", "eb", "seed",
                             "attempts", "error"});
    for (const eval::GridRecord* r : failed) {
      table.AddRow({r->dataset, r->model, r->compressor,
                    eval::FormatDouble(r->error_bound, 2),
                    std::to_string(r->seed), std::to_string(r->attempts),
                    r->error});
    }
    table.Print();
  }
  return 0;
}

// Runs the codec conformance harness: adversarial corpus × codecs × error
// bounds through the pointwise-bound oracles plus the decoder-fuzzing pass.
// Exits nonzero iff any oracle fired; each failure line carries the codec,
// ε, corpus family/index, and seed needed to reproduce it deterministically.
int Conform(Options& o, const Args&) {
  const conform::ConformOptions& options = o.conform;
  Result<conform::ConformSummary> summary = conform::RunConform(options);
  if (!summary.ok()) return Fail(summary.status());
  for (const conform::ConformFailure& f : summary->failures) {
    std::fprintf(stderr, "%s\n", conform::FormatFailure(f).c_str());
  }
  std::printf("conform: %zu cells, %zu mutants, %zu failures (seed %llu)\n",
              summary->cases, summary->mutants, summary->failures.size(),
              static_cast<unsigned long long>(options.base_seed));
  return summary->failures.empty() ? 0 : 1;
}

// Byte-compares compressed output and decoded values between the scalar and
// hardware SIMD kernel tiers over the adversarial corpus. Exits nonzero iff
// any cell diverged; on a host with no SIMD tier the run is vacuous and
// passes (it prints 0 cells).
int SimdCheck(Options& o, const Args&) {
  const conform::ConformOptions& options = o.conform;
  Result<conform::ConformSummary> summary =
      conform::RunScalarSimdCompare(options);
  if (!summary.ok()) return Fail(summary.status());
  for (const conform::ConformFailure& f : summary->failures) {
    std::fprintf(stderr, "%s\n", conform::FormatFailure(f).c_str());
  }
  std::printf(
      "simdcheck: detected=%s active=%s, %zu cells, %zu failures (seed "
      "%llu)\n",
      simd::LevelName(simd::DetectedLevel()),
      simd::LevelName(simd::ActiveLevel()), summary->cases,
      summary->failures.size(),
      static_cast<unsigned long long>(options.base_seed));
  return summary->failures.empty() ? 0 : 1;
}

// Runs the numerics conformance harness: finite-difference gradient oracles
// over the autodiff ops and forecaster networks, plus closed-form analysis
// and training-determinism oracles. Exits nonzero iff any check fired; each
// failure line carries the component, case index, and seed needed to
// reproduce it deterministically.
int Numcheck(Options& o, const Args&) {
  const numcheck::NumCheckOptions& options = o.numcheck;
  Result<numcheck::NumCheckSummary> summary = numcheck::RunNumCheck(options);
  if (!summary.ok()) return Fail(summary.status());
  for (const numcheck::NumCheckFailure& f : summary->failures) {
    std::fprintf(stderr, "%s\n", numcheck::FormatFailure(f).c_str());
  }
  std::printf("numcheck: %zu cases, %zu checks, %zu failures (seed %llu)\n",
              summary->cases, summary->checks, summary->failures.size(),
              static_cast<unsigned long long>(options.base_seed));
  return summary->failures.empty() ? 0 : 1;
}

const char* AlgorithmName(compress::AlgorithmId id) {
  switch (id) {
    case compress::AlgorithmId::kPmc: return "PMC";
    case compress::AlgorithmId::kSwing: return "SWING";
    case compress::AlgorithmId::kSz: return "SZ";
    case compress::AlgorithmId::kGorilla: return "GORILLA";
    case compress::AlgorithmId::kChimp: return "CHIMP";
    case compress::AlgorithmId::kPpa: return "PPA";
    case compress::AlgorithmId::kLfzip: return "LFZIP";
    case compress::AlgorithmId::kCameo: return "CAMEO";
  }
  return "?";
}

int StoreIngest(Options& o, const Args& args) {
  store::StoreOptions& options = o.store;
  options.codecs = flags::SplitList(args[0]);
  if (!ParseArg("<eb>", args[1], &options.error_bound)) return 2;
  const std::string& in_path = args[2];
  const std::string& out_path = args[3];
  Result<TimeSeries> series = LoadSeries(in_path);
  if (!series.ok()) return Fail(series.status());
  Result<std::unique_ptr<store::StoreWriter>> writer =
      store::StoreWriter::Create(out_path, options);
  if (!writer.ok()) return Fail(writer.status());
  if (Status s = (*writer)->Append(*series); !s.ok()) return Fail(s);
  if (Status s = (*writer)->Finish(); !s.ok()) return Fail(s);
  const size_t raw_gz = compress::RawGzipSize(*series);
  std::printf(
      "%s: %llu points in %llu chunks -> %llu bytes (CR %.1fx vs gzip'd "
      "CSV)\n",
      out_path.c_str(),
      static_cast<unsigned long long>((*writer)->points_written()),
      static_cast<unsigned long long>((*writer)->chunks_written()),
      static_cast<unsigned long long>((*writer)->bytes_written()),
      static_cast<double>(raw_gz) /
          static_cast<double>((*writer)->bytes_written()));
  return 0;
}

int StoreQuery(Options& o, const Args& args) {
  if (args.size() == 3) {
    std::fprintf(stderr, "a range needs both <t0> and <t1>\n");
    return 2;
  }
  Result<store::AggregateKind> kind = store::ParseAggregateKind(args[1]);
  if (!kind.ok()) {
    std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
    return 2;
  }
  // A range is given by count, not by spelling: blob headers store a signed
  // first timestamp, so "-60" is a valid <t0>.
  const bool ranged = args.size() == 4;
  int64_t t0 = 0;
  int64_t t1 = 0;
  if (ranged && !(ParseArg("<t0>", args[2], &t0) &&
                  ParseArg("<t1>", args[3], &t1))) {
    return 2;
  }
  Result<std::unique_ptr<store::StoreReader>> reader =
      store::StoreReader::Open(args[0]);
  if (!reader.ok()) return Fail(reader.status());
  if (!ranged) {
    t0 = (*reader)->start_timestamp();
    t1 = (*reader)->last_timestamp();
  }
  Result<store::AggregateResult> result =
      store::AggregateRange(**reader, *kind, t0, t1, o.aggregate);
  if (!result.ok()) return Fail(result.status());
  std::printf("%s[%lld, %lld] = %.17g  (±%.3g vs raw, %llu points, "
              "%zu pushdown / %zu decoded chunks)\n",
              store::AggregateKindName(*kind), static_cast<long long>(t0),
              static_cast<long long>(t1), result->value, result->error_bound,
              static_cast<unsigned long long>(result->count),
              result->pushdown_chunks, result->decoded_chunks);
  return 0;
}

int StoreStats(Options&, const Args& args) {
  Result<std::unique_ptr<store::StoreReader>> opened =
      store::StoreReader::Open(args[0]);
  if (!opened.ok()) return Fail(opened.status());
  const store::StoreReader& reader = **opened;
  std::string codecs;
  for (const std::string& name : reader.header().codecs) {
    if (!codecs.empty()) codecs += ',';
    codecs += name;
  }
  std::printf("state:     %s\n", reader.clean() ? "complete" : "salvaged");
  std::printf("bound:     %g\n", reader.header().error_bound);
  std::printf("span:      %u points/chunk\n", reader.header().chunk_span);
  std::printf("codecs:    %s\n", codecs.c_str());
  std::printf("points:    %llu\n",
              static_cast<unsigned long long>(reader.total_points()));
  std::printf("chunks:    %zu\n", reader.chunks().size());
  std::printf("bytes:     %zu\n", reader.file_size());
  if (!reader.chunks().empty()) {
    std::printf("range:     [%lld, %lld] at %d s\n",
                static_cast<long long>(reader.start_timestamp()),
                static_cast<long long>(reader.last_timestamp()),
                reader.interval_seconds());
    size_t by_alg[9] = {};
    for (const store::ChunkInfo& chunk : reader.chunks()) {
      const size_t id = static_cast<size_t>(chunk.algorithm);
      if (id < 9) ++by_alg[id];
    }
    std::string mix;
    for (size_t id = 1; id < 9; ++id) {
      if (by_alg[id] == 0) continue;
      if (!mix.empty()) mix += ", ";
      mix += std::to_string(by_alg[id]);
      mix += "x";
      mix += AlgorithmName(static_cast<compress::AlgorithmId>(id));
    }
    std::printf("chunk mix: %s\n", mix.c_str());
  }
  return 0;
}

// Verifies a store against the raw series it was ingested from: the time
// grid must match, every reconstructed point must sit inside the
// RelativeAllowance interval of its raw value (bit-exact for lossless
// chunks — the same §2 pointwise oracle the conform harness enforces), and
// every pushdown aggregate must sit within its self-reported error bound of
// the same aggregate over the raw data.
int StoreVerify(Options&, const Args& args) {
  Result<std::unique_ptr<store::StoreReader>> opened =
      store::StoreReader::Open(args[0]);
  if (!opened.ok()) return Fail(opened.status());
  const store::StoreReader& reader = **opened;
  Result<TimeSeries> raw = LoadSeries(args[1]);
  if (!raw.ok()) return Fail(raw.status());
  if (reader.total_points() > raw->size() ||
      reader.start_timestamp() != raw->start_timestamp() ||
      reader.interval_seconds() != raw->interval_seconds()) {
    std::fprintf(stderr,
                 "verify: store grid does not match the raw series "
                 "(%llu stored vs %zu raw points)\n",
                 static_cast<unsigned long long>(reader.total_points()),
                 raw->size());
    return 1;
  }
  if (!reader.clean()) {
    std::printf("verify: store is a salvaged prefix (%llu of %zu points); "
                "verifying the prefix\n",
                static_cast<unsigned long long>(reader.total_points()),
                raw->size());
  }
  Result<TimeSeries> recon = reader.ReadAll();
  if (!recon.ok()) return Fail(recon.status());
  const double eb = reader.header().error_bound;
  size_t checked = 0;
  for (const store::ChunkInfo& chunk : reader.chunks()) {
    const bool lossless = store::IsLosslessAlgorithm(chunk.algorithm);
    for (uint32_t k = 0; k < chunk.num_points; ++k, ++checked) {
      const double v = raw->values()[checked];
      const double v_hat = recon->values()[checked];
      bool ok;
      if (lossless) {
        // Bit-exact, NaN included: compare representations.
        ok = std::memcmp(&v, &v_hat, sizeof(double)) == 0;
      } else {
        const compress::Allowance a = compress::RelativeAllowance(v, eb);
        ok = v_hat >= a.lo && v_hat <= a.hi;
      }
      if (!ok) {
        std::fprintf(stderr,
                     "verify: point %zu out of bound: raw %.17g vs stored "
                     "%.17g (eb %g, %s chunk)\n",
                     checked, v, v_hat, eb, AlgorithmName(chunk.algorithm));
        return 1;
      }
    }
  }
  // Aggregate verification: the pushdown answer must be within its own
  // reported bound of the raw aggregate (small fp slack for the summation
  // order difference).
  const char* kinds[] = {"MIN", "MAX", "SUM", "COUNT", "MEAN"};
  for (const char* name : kinds) {
    Result<store::AggregateKind> kind = store::ParseAggregateKind(name);
    Result<store::AggregateResult> got = store::AggregateRange(
        reader, *kind, reader.start_timestamp(), reader.last_timestamp());
    if (!got.ok()) {
      std::fprintf(stderr, "verify: %s failed: %s\n", name,
                   got.status().ToString().c_str());
      return 1;
    }
    double expect = 0.0;
    double sum = 0.0, mn = raw->values()[0], mx = raw->values()[0];
    for (size_t i = 0; i < checked; ++i) {
      const double v = raw->values()[i];
      sum += v;
      if (v < mn) mn = v;
      if (v > mx) mx = v;
    }
    switch (*kind) {
      case store::AggregateKind::kMin: expect = mn; break;
      case store::AggregateKind::kMax: expect = mx; break;
      case store::AggregateKind::kSum: expect = sum; break;
      case store::AggregateKind::kCount:
        expect = static_cast<double>(checked);
        break;
      case store::AggregateKind::kMean:
        expect = sum / static_cast<double>(checked);
        break;
    }
    const double slack =
        got->error_bound + 1e-9 * std::max(1.0, std::abs(expect));
    if (std::abs(got->value - expect) > slack) {
      std::fprintf(stderr,
                   "verify: %s = %.17g deviates from raw %.17g beyond its "
                   "reported bound %.3g\n",
                   name, got->value, expect, got->error_bound);
      return 1;
    }
  }
  std::printf("verify: OK — %zu points within bound %g, all aggregates "
              "within their reported error\n",
              checked, eb);
  return 0;
}

int StoreIngestGrid(Options& o, const Args& args) {
  const std::string& dir = args[0];
  const eval::GridOptions& options = o.grid;
  if (Status s = eval::BuildTransformStores(options, dir); !s.ok()) {
    return Fail(s);
  }
  std::printf("built transform stores under %s\n", dir.c_str());
  return 0;
}

// Runs the online forecasting loop on one series: points stream through the
// codec, a drift detector watches the emitted segments, and each alarm
// triggers a retrain on the reconstruction tail. Prints the prequential
// metrics, the alarm/retrain timeline, and the compressed size (whose blob
// is byte-identical to batch compression of the same series).
int StreamCmd(Options& o, const Args& args) {
  stream::OnlineEvalOptions& options = o.stream;
  Result<TimeSeries> series = LoadSeries(args[0]);
  if (!series.ok()) return Fail(series.status());
  options.series_label = args[0];
  Result<stream::OnlineEvalResult> result =
      stream::RunOnlineEval(*series, options);
  if (!result.ok()) return Fail(result.status());
  std::printf("stream: %s over %s, eb %g, model %s\n", options.codec.c_str(),
              args[0].c_str(), options.error_bound, options.model.c_str());
  std::printf("points:   %llu (%llu segments, %llu scored, %llu fits)\n",
              static_cast<unsigned long long>(result->points),
              static_cast<unsigned long long>(result->segments),
              static_cast<unsigned long long>(result->scored),
              static_cast<unsigned long long>(result->fits));
  const size_t raw_gz = compress::RawGzipSize(*series);
  std::printf("blob:     %zu bytes (CR %.1fx vs gzip'd CSV; byte-identical "
              "to batch)\n",
              result->blob.size(),
              static_cast<double>(raw_gz) /
                  static_cast<double>(result->blob.size()));
  for (size_t i = 0; i < result->metric_names.size(); ++i) {
    std::printf("%-9s %.6f\n", (result->metric_names[i] + ":").c_str(),
                result->metric_values[i]);
  }
  std::printf("alarms:   %zu", result->alarms.size());
  constexpr size_t kShown = 12;
  for (size_t i = 0; i < result->alarms.size() && i < kShown; ++i) {
    std::printf(" @%zu", result->alarms[i]);
  }
  if (result->alarms.size() > kShown) {
    std::printf(" ... (+%zu more)", result->alarms.size() - kShown);
  }
  std::printf("\n");
  size_t adapted = 0, adapt_total = 0;
  for (const stream::RetrainEvent& e : result->retrains) {
    if (e.adapted) {
      ++adapted;
      adapt_total += e.adapt_points;
    }
  }
  std::printf("retrains: %zu (%zu adapted", result->retrains.size(), adapted);
  if (adapted > 0) {
    std::printf(", mean time-to-adapt %.1f points",
                static_cast<double>(adapt_total) /
                    static_cast<double>(adapted));
  }
  std::printf(")\n");
  return 0;
}

volatile std::sig_atomic_t g_interrupted = 0;

void HandleSignal(int) { g_interrupted = 1; }

// Runs the serve daemon in the foreground until a client shutdown request
// or SIGINT/SIGTERM arrives, then drains gracefully (queued appends still
// commit, every shard checkpoints). A SIGKILL instead is the crash the WAL
// recovers from on the next start.
int Serve(Options& o, const Args& args) {
  serve::DaemonOptions& options = o.serve;
  options.dir = args[0];
  Result<std::unique_ptr<serve::Daemon>> daemon =
      serve::Daemon::Start(options);
  if (!daemon.ok()) return Fail(daemon.status());
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  const serve::ServeStats boot = (*daemon)->Stats();
  std::printf("serving %s on %s (%llu shards, %llu series, %llu points",
              options.dir.c_str(), (*daemon)->socket_path().c_str(),
              static_cast<unsigned long long>(boot.shards),
              static_cast<unsigned long long>(boot.series),
              static_cast<unsigned long long>(boot.points));
  if (boot.replayed_records > 0 || boot.salvaged_stores > 0) {
    std::printf("; recovered %llu wal records, %llu salvaged stores",
                static_cast<unsigned long long>(boot.replayed_records),
                static_cast<unsigned long long>(boot.salvaged_stores));
  }
  std::printf(")\n");
  std::fflush(stdout);
  (*daemon)->Wait([] { return g_interrupted != 0; });
  if (Status s = (*daemon)->Stop(); !s.ok()) {
    std::fprintf(stderr, "drain: %s\n", s.ToString().c_str());
    return 1;
  }
  const serve::ServeStats stats = (*daemon)->Stats();
  std::printf("drained: %llu appends acked, %llu rejected, %llu flushes, "
              "%llu evicted clients\n",
              static_cast<unsigned long long>(stats.appended_ops),
              static_cast<unsigned long long>(stats.rejected),
              static_cast<unsigned long long>(stats.flushes),
              static_cast<unsigned long long>(stats.evicted_clients));
  return stats.failed_shards == 0 ? 0 : 1;
}

// Connects to the daemon at `socket`; prints why and returns null on
// failure. Every client command parses its arguments first, so malformed
// input exits 2 whether or not a daemon is running.
std::unique_ptr<serve::Client> Connect(const std::string& socket) {
  Result<std::unique_ptr<serve::Client>> client =
      serve::Client::Connect(socket);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return nullptr;
  }
  return std::move(*client);
}

int ClientPing(Options&, const Args& args) {
  std::unique_ptr<serve::Client> client = Connect(args[0]);
  if (client == nullptr) return 1;
  if (Status s = client->Ping(); !s.ok()) return Fail(s);
  std::printf("pong\n");
  return 0;
}

int ClientAppend(Options&, const Args& args) {
  int64_t t0 = 0;
  int32_t interval = 0;
  std::vector<double> values;
  if (!ParseArg("<t0>", args[2], &t0) ||
      !ParseArg("<interval>", args[3], &interval) ||
      !ParseArg("<v1,v2,..>", args[4], &values)) {
    return 2;
  }
  std::unique_ptr<serve::Client> client = Connect(args[0]);
  if (client == nullptr) return 1;
  if (Status s = client->Append(args[1], t0, interval, values); !s.ok()) {
    return Fail(s);
  }
  std::printf("acked %zu points\n", values.size());
  return 0;
}

int ClientRead(Options&, const Args& args) {
  int64_t t0 = 0;
  int64_t t1 = 0;
  if (!ParseArg("<t0>", args[2], &t0) || !ParseArg("<t1>", args[3], &t1)) {
    return 2;
  }
  std::unique_ptr<serve::Client> client = Connect(args[0]);
  if (client == nullptr) return 1;
  Result<TimeSeries> series = client->ReadRange(args[1], t0, t1);
  if (!series.ok()) return Fail(series.status());
  for (size_t i = 0; i < series->size(); ++i) {
    std::printf("%lld,%.17g\n",
                static_cast<long long>(
                    series->start_timestamp() +
                    static_cast<int64_t>(i) * series->interval_seconds()),
                series->values()[i]);
  }
  return 0;
}

int ClientList(Options&, const Args& args) {
  std::unique_ptr<serve::Client> client = Connect(args[0]);
  if (client == nullptr) return 1;
  Result<std::vector<std::string>> names = client->ListSeries();
  if (!names.ok()) return Fail(names.status());
  for (const std::string& name : *names) std::printf("%s\n", name.c_str());
  return 0;
}

int ClientStats(Options&, const Args& args) {
  std::unique_ptr<serve::Client> client = Connect(args[0]);
  if (client == nullptr) return 1;
  Result<serve::ServeStats> stats = client->Stats();
  if (!stats.ok()) return Fail(stats.status());
  std::printf("shards:          %llu (%llu failed)\n",
              static_cast<unsigned long long>(stats->shards),
              static_cast<unsigned long long>(stats->failed_shards));
  std::printf("series:          %llu\n",
              static_cast<unsigned long long>(stats->series));
  std::printf("points:          %llu\n",
              static_cast<unsigned long long>(stats->points));
  std::printf("wal bytes:       %llu\n",
              static_cast<unsigned long long>(stats->wal_bytes));
  std::printf("appends acked:   %llu\n",
              static_cast<unsigned long long>(stats->appended_ops));
  std::printf("flushes:         %llu (%llu failed)\n",
              static_cast<unsigned long long>(stats->flushes),
              static_cast<unsigned long long>(stats->flush_failures));
  std::printf("recovery:        %llu wal records, %llu salvaged stores\n",
              static_cast<unsigned long long>(stats->replayed_records),
              static_cast<unsigned long long>(stats->salvaged_stores));
  std::printf("streaming:       %llu points, %llu segments, %llu "
              "rejected\n",
              static_cast<unsigned long long>(stats->streamed_points),
              static_cast<unsigned long long>(stats->stream_segments),
              static_cast<unsigned long long>(stats->stream_rejected));
  std::printf("admission:       %llu accepted, %llu rejected, %llu "
              "deadline misses\n",
              static_cast<unsigned long long>(stats->accepted),
              static_cast<unsigned long long>(stats->rejected),
              static_cast<unsigned long long>(stats->deadline_misses));
  std::printf("evicted clients: %llu\n",
              static_cast<unsigned long long>(stats->evicted_clients));
  return 0;
}

int ClientQuery(Options& o, const Args& args) {
  std::unique_ptr<serve::Client> client = Connect(args[0]);
  if (client == nullptr) return 1;
  Result<query::QueryResult> result = client->Query(o.client_query);
  if (!result.ok()) return Fail(result.status());
  std::printf("%s", query::FormatQueryResult(*result).c_str());
  return 0;
}

int ClientStreamInfo(Options&, const Args& args) {
  std::unique_ptr<serve::Client> client = Connect(args[0]);
  if (client == nullptr) return 1;
  Result<serve::SeriesStreamInfo> info = client->StreamInfo(args[1]);
  if (!info.ok()) return Fail(info.status());
  std::printf("codec:       %s (eb %g)\n", info->codec.c_str(),
              info->error_bound);
  std::printf("points:      %llu (%llu rejected)\n",
              static_cast<unsigned long long>(info->points),
              static_cast<unsigned long long>(info->rejected));
  std::printf("segments:    %llu closed\n",
              static_cast<unsigned long long>(info->segments));
  std::printf("open window: %llu points, anchor %.17g, slope %.17g\n",
              static_cast<unsigned long long>(info->open_length),
              info->open_anchor, info->open_slope);
  return 0;
}

int ClientShutdown(Options&, const Args& args) {
  std::unique_ptr<serve::Client> client = Connect(args[0]);
  if (client == nullptr) return 1;
  if (Status s = client->Shutdown(); !s.ok()) return Fail(s);
  std::printf("shutdown requested\n");
  return 0;
}

// Grouped-metric / aggregate query over a directory of store files — the
// offline twin of the daemon's kQuery (`lossyts client <sock> query`).
int QueryCmd(Options& o, const Args& args) {
  Result<query::QueryResult> result = query::QueryStoreDir(args[0], o.query);
  if (!result.ok()) return Fail(result.status());
  std::printf("%s", query::FormatQueryResult(*result).c_str());
  std::fprintf(stderr, "pushdown chunks: %llu, decoded chunks: %llu\n",
               static_cast<unsigned long long>(result->pushdown_chunks),
               static_cast<unsigned long long>(result->decoded_chunks));
  return 0;
}

// One command: the words that select it, where "<x>" takes any argument
// and passes it to `run` ahead of the rest; the synopsis and count of its
// remaining positional arguments; and its flags.
struct Command {
  const char* words;
  const char* args;
  size_t min_args;
  size_t max_args;
  std::vector<flags::Flag> flags;
  int (*run)(Options&, const Args&);
};

// `--range <t0> <t1>` of `query` and `client query`.
flags::Flag Range(int64_t* t0, int64_t* t1) {
  return {"--range", "<t0> <t1>", "inclusive time range", 2,
          [t0, t1](std::span<const std::string> v) {
            const Status s = flags::ParseValue(v[0], t0);
            return s.ok() ? flags::ParseValue(v[1], t1) : s;
          }};
}

// The command table: dispatch, argument checks and the usage text all come
// from it. Flags bind into `o`, which must outlive the returned table.
std::vector<Command> Commands(Options& o) {
  using flags::Switch;
  using flags::Value;
  const char* kSeries = "<in.csv | dataset-name>";
  eval::GridOptions& g = o.grid;
  conform::ConformOptions& c = o.conform;
  numcheck::NumCheckOptions& n = o.numcheck;
  query::QueryOptions& q = o.query;
  stream::OnlineEvalOptions& st = o.stream;
  serve::ShardOptions& shard = o.serve.shard;
  serve::QuerySpec& cq = o.client_query;
  return {
      {"compress",
       "<PMC|SWING|SZ|PPA|LFZIP|CAMEO|GORILLA|CHIMP> <eb> <in.csv> <out.lts>",
       4, 4, {}, Compress},
      {"decompress", "<in.lts> <out.csv>", 2, 2, {}, Decompress},
      {"stats", kSeries, 1, 1, {}, Stats},
      {"sweep", kSeries, 1, 1, {}, Sweep},
      {"grid", "", 0, 0,
       {Switch("--resume", "resume the checkpoint", &o.resume, true),
        Switch("--fresh", "discard the checkpoint (default)", &o.resume, false),
        Value("--cache", "<path>", "checkpoint file", &o.cache_path),
        Value("--store-dir", "<dir>", "source transforms from store files",
              &g.store_dir),
        Switch("--build-stores", "build the --store-dir stores first",
               &o.build_stores, true),
        Value("--retries", "N", "retries per failed cell", &g.max_cell_retries),
        Value("--jobs", "N", "worker threads (0 = all)", &g.jobs),
        Value("--datasets", "a,b", "datasets (default all)", &g.datasets),
        Value("--models", "a,b", "models (default all)", &g.models),
        Value("--compressors", "a,b", "codecs (default PMC,SWING,SZ)",
              &g.compressors),
        Value("--error-bounds", "0.05,0.4", "bounds (default the paper's 13)",
              &g.error_bounds),
        Value("--seeds", "1,2", "seeds", &g.seeds),
        Value("--metrics", "mae,pinball@0.9", "extra registered metrics",
              &g.metrics)},
       Grid},
      {"conform", "", 0, 0,
       {Value("--cases", "N", "cases per corpus family", &c.cases_per_family),
        Value("--seed", "S", "base seed", &c.base_seed),
        Value("--codecs", "a,b", "codecs (default all)", &c.codecs),
        Value("--error-bounds", "0.01,0.2", "bounds", &c.error_bounds),
        Value("--bit-flips", "N", "random bit flips per blob",
              &c.random_bit_flips),
        Switch("--no-mutate", "skip decoder fuzzing", &c.mutate, false),
        Value("--jobs", "N", "worker threads (0 = all)", &c.jobs)},
       Conform},
      {"simdcheck", "", 0, 0,
       {Value("--cases", "N", "cases per corpus family", &c.cases_per_family),
        Value("--seed", "S", "base seed", &c.base_seed),
        Value("--codecs", "a,b", "codecs (default all)", &c.codecs),
        Value("--error-bounds", "0.01,0.2", "bounds", &c.error_bounds)},
       SimdCheck},
      {"numcheck", "", 0, 0,
       {Value("--iters", "N", "cases per component", &n.iters),
        Value("--seed", "S", "base seed", &n.base_seed),
        Value("--ops", "a,b", "autodiff ops (none = skip, empty = all)",
              &n.ops),
        Value("--models", "a,b", "networks (none = skip, empty = all)",
              &n.models),
        Value("--oracles", "a,b", "oracles (none = skip, empty = all)",
              &n.oracles),
        Value("--jobs", "N", "worker threads (0 = all)", &n.jobs)},
       Numcheck},
      {"store ingest", "<codec[,codec...]> <eb> <in.csv | dataset> <out.lts>",
       4, 4, {Value("--span", "N", "points per chunk", &o.store.chunk_span)},
       StoreIngest},
      {"store query", "<in.lts> <MIN|MAX|SUM|COUNT|MEAN> [<t0> <t1>]", 2, 4,
       {Value("--jobs", "N", "worker threads", &o.aggregate.jobs),
        Switch("--no-pushdown", "decode every chunk",
               &o.aggregate.allow_pushdown, false)},
       StoreQuery},
      {"store stats", "<in.lts>", 1, 1, {}, StoreStats},
      {"store verify", "<in.lts> <in.csv | dataset>", 2, 2, {}, StoreVerify},
      {"store ingest-grid", "<dir>", 1, 1,
       {Value("--datasets", "a,b", "datasets", &g.datasets),
        Value("--compressors", "a,b", "codecs", &g.compressors),
        Value("--error-bounds", "0.05,0.4", "bounds", &g.error_bounds)},
       StoreIngestGrid},
      {"query", "<dir>", 1, 1,
       {Value("--metrics", "a,b", "metrics", &q.metrics),
        Value("--agg", "MIN,MEAN,..", "aggregates", &q.aggregates),
        {"--group-by", "series|prefix|all", "grouping", 1,
         [&o](std::span<const std::string> v) -> Status {
           Result<query::GroupMode> mode = query::ParseGroupMode(v[0]);
           if (!mode.ok()) return mode.status();
           o.query.group_by = *mode;
           return Status::OK();
         }},
        Value("--delim", "<d>", "prefix delimiter", &q.delimiter),
        Range(&q.t0, &q.t1),
        Value("--jobs", "N", "worker threads", &q.jobs),
        Value("--match", "<substr>", "series name filter", &q.match),
        Value("--pred-suffix", "<s>", "forecast store suffix", &q.pred_suffix),
        Value("--season", "N", "seasonal lag for MASE", &q.season_length)},
       QueryCmd},
      {"stream", "<in.csv | dataset>", 1, 1,
       {Value("--codec", "PMC|SWING", "streaming codec", &st.codec),
        Value("--eb", "E", "error bound", &st.error_bound),
        Value("--model", "Arima|..", "forecaster", &st.model),
        Value("--metrics", "a,b", "metrics", &st.metrics),
        Value("--seed", "S", "seed", &st.seed),
        Value("--initial-train", "N", "points before the first fit",
              &st.initial_train),
        Value("--retrain-window", "N", "points per retrain",
              &st.retrain_window),
        Value("--rolling-window", "N", "rolling feature window",
              &st.rolling_window),
        Switch("--no-retrain", "never retrain", &st.retrain_on_drift, false),
        {"--detector", "point-cusum|level-ph|slope-ph", "drift detector", 1,
         [&o](std::span<const std::string> v) -> Status {
           using Mode = stream::SegmentDriftOptions::Mode;
           if (v[0] == "point-cusum") {
             o.stream.drift.mode = Mode::kPointCusum;
           } else if (v[0] == "level-ph") {
             o.stream.drift.mode = Mode::kSegmentLevelPh;
           } else if (v[0] == "slope-ph") {
             o.stream.drift.mode = Mode::kSegmentSlopePh;
           } else {
             return Status::InvalidArgument("unknown detector '" + v[0] + "'");
           }
           return Status::OK();
         }}},
       StreamCmd},
      {"serve", "<dir>", 1, 1,
       {Value("--socket", "<path>", "socket path", &o.serve.socket_path),
        Value("--shards", "N", "shards", &o.serve.shards),
        Value("--jobs", "N", "worker threads (0 = all)", &o.serve.jobs),
        Value("--eb", "E", "error bound", &shard.error_bound),
        Value("--span", "N", "points per chunk", &shard.chunk_span),
        Value("--codecs", "a,b", "checkpoint codecs", &shard.codecs),
        Switch("--no-sync", "skip fsync before ack", &shard.sync, false),
        Value("--flush-wal-bytes", "N", "checkpoint after this much WAL",
              &shard.flush_wal_bytes),
        Value("--max-queue", "N", "queued appends before kRetry",
              &o.serve.max_queue_ops),
        Value("--deadline-ms", "N", "append deadline",
              &o.serve.append_deadline_ms),
        Value("--client-timeout-ms", "N", "idle client eviction",
              &o.serve.client_timeout_ms),
        Value("--stream", "PMC|SWING", "per-series streaming codec",
              &shard.stream_codec),
        Value("--stream-eb", "E", "streaming error bound",
              &shard.stream_error_bound)},
       Serve},
      {"client <socket> ping", "", 0, 0, {}, ClientPing},
      {"client <socket> list", "", 0, 0, {}, ClientList},
      {"client <socket> stats", "", 0, 0, {}, ClientStats},
      {"client <socket> shutdown", "", 0, 0, {}, ClientShutdown},
      {"client <socket> stream-info", "<series>", 1, 1, {}, ClientStreamInfo},
      {"client <socket> append", "<series> <t0> <interval> <v1,v2,..>", 4, 4,
       {}, ClientAppend},
      {"client <socket> read", "<series> <t0> <t1>", 3, 3, {}, ClientRead},
      {"client <socket> query", "", 0, 0,
       {Value("--metrics", "a,b", "metrics", &cq.metrics),
        Value("--group-by", "m", "grouping", &cq.group_by),
        Value("--delim", "<d>", "prefix delimiter", &cq.delimiter),
        Range(&cq.t0, &cq.t1),
        Value("--match", "<substr>", "series name filter", &cq.match),
        Value("--pred-suffix", "<s>", "forecast series suffix",
              &cq.pred_suffix),
        Value("--season", "N", "seasonal lag for MASE", &cq.season_length)},
       ClientQuery},
  };
}

std::string CommandUsage(const Command& c) {
  std::string line = std::string("  lossyts ") + c.words;
  if (*c.args != '\0') line += std::string(" ") + c.args;
  return line + "\n" + flags::Usage(c.flags, 6);
}

int Usage(const std::vector<Command>& commands) {
  std::string text = "usage:\n";
  for (const Command& c : commands) text += CommandUsage(c);
  text += "dataset names:";
  for (const std::string& name : data::DatasetNames()) text += " " + name;
  std::fprintf(stderr, "%s\n", text.c_str());
  return 2;
}

// Matches the command's words against the leading arguments, collecting
// the "<x>" ones into `*args`; a flag never matches a "<x>" word. Returns
// the number of words matched, 0 when the command does not match.
size_t MatchWords(const Command& c, const Args& argv, Args* args) {
  std::istringstream in(c.words);
  size_t i = 0;
  for (std::string word; in >> word; ++i) {
    if (i >= argv.size()) return 0;
    if (word[0] != '<') {
      if (argv[i] != word) return 0;
    } else if (argv[i].rfind("--", 0) == 0) {
      return 0;
    } else {
      args->push_back(argv[i]);
    }
  }
  return i;
}

// Parses the arguments after the command's words and runs it; exits 2 with
// the command's usage on a flag error or a wrong argument count.
int Dispatch(Options& o, const Command& c, const Args& rest, Args args) {
  const size_t fixed = args.size();
  Status s = flags::Parse(c.flags, rest, &args);
  const size_t n = args.size() - fixed;
  if (s.ok() && (n < c.min_args || n > c.max_args)) {
    s = Status::InvalidArgument("wrong number of arguments");
  }
  if (!s.ok()) {
    std::fprintf(stderr, "lossyts %s: %s\nusage:\n%s", c.words,
                 s.message().c_str(), CommandUsage(c).c_str());
    return 2;
  }
  return c.run(o, args);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  const std::vector<Command> commands = Commands(options);
  const Args argv_args(argv + 1, argv + argc);
  for (const Command& c : commands) {
    Args args;
    if (const size_t words = MatchWords(c, argv_args, &args)) {
      return Dispatch(options, c, Args(argv_args.begin() + words,
                                       argv_args.end()), std::move(args));
    }
  }
  return Usage(commands);
}
