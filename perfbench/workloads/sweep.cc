// `sweep`: the compression half of Algorithm 1. Every dataset at the
// canonical sweep scale through RunPipeline for every codec and paper bound.

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "compress/pipeline.h"
#include "compress/serde.h"
#include "core/metrics.h"
#include "core/rng.h"
#include "core/seed.h"
#include "data/datasets.h"
#include "harness/digest.h"
#include "harness/stats.h"
#include "workloads/common.h"
#include "zip/gzip.h"
#include "zip/lz77.h"

namespace perfbench {

namespace {

// Set-up repetitions on each side of the measurement.
constexpr int kSetupReps = 20;

using lossyts::Result;
using lossyts::TimeSeries;
using lossyts::compress::PipelineResult;

const std::vector<std::string>& SweepCodecs() {
  static const std::vector<std::string> codecs = {
      "PMC", "SWING", "SZ", "PPA", "LFZIP", "CAMEO", "GORILLA", "CHIMP"};
  return codecs;
}

bool IsLossless(const std::string& codec) {
  return codec == "GORILLA" || codec == "CHIMP";
}

struct Cell {
  size_t dataset = 0;
  size_t codec = 0;
  double error_bound = 0.0;
};

// Every (dataset, codec, bound) cell in one fixed shuffled order, the same
// for every seed, so a partial pass is a balanced sample of the sweep.
// Lossless codecs ignore the bound and run once per dataset.
std::vector<Cell> SweepCells(size_t datasets) {
  const std::vector<double>& bounds = lossyts::compress::PaperErrorBounds();
  std::vector<Cell> cells;
  for (size_t c = 0; c < SweepCodecs().size(); ++c) {
    const size_t bound_count = IsLossless(SweepCodecs()[c]) ? 1 : bounds.size();
    for (size_t b = 0; b < bound_count; ++b) {
      for (size_t d = 0; d < datasets; ++d) cells.push_back({d, c, bounds[b]});
    }
  }
  lossyts::Rng rng(0x5EEDu);
  for (size_t i = cells.size(); i > 1; --i) {
    std::swap(cells[i - 1], cells[rng.UniformInt(i)]);
  }
  return cells;
}

uint64_t ValuesHash(const TimeSeries& series) {
  const std::vector<double>& v = series.values();
  std::string bytes(v.size() * sizeof(double), '\0');
  if (!v.empty()) std::memcpy(bytes.data(), v.data(), bytes.size());
  return lossyts::HashTag(bytes);
}

// Every field of a pipeline result, the decompressed values as a hash.
std::string FormatRow(const std::string& dataset, const PipelineResult& r) {
  std::string row = dataset + ',' + r.compressor_name + ',' +
                    FormatG17(r.error_bound) + ',' +
                    std::to_string(r.raw_bytes) + ',' +
                    std::to_string(r.raw_gz_bytes) + ',' +
                    std::to_string(r.compressed_bytes) + ',' +
                    std::to_string(r.gz_bytes) + ',' +
                    FormatG17(r.compression_ratio) + ',' +
                    std::to_string(r.segment_count);
  for (double te : {r.te_rmse, r.te_nrmse, r.te_rse, r.te_max_rel}) {
    row += ',' + FormatG17(te);
  }
  return row + ',' + std::to_string(ValuesHash(r.decompressed));
}

std::string CellKey(const std::string& dataset, const std::string& codec,
                    double error_bound) {
  return dataset + '|' + codec + '|' + FormatG17(error_bound);
}

// Output invariants that hold for any seed: the pointwise bound (exact
// reconstruction for the lossless codecs), full length, and Eq. 3.
std::string CheckInvariants(const std::string& codec, double error_bound,
                            const TimeSeries& series,
                            const PipelineResult& r) {
  if (r.decompressed.size() != series.size()) return "length changed";
  if (IsLossless(codec) ? r.te_max_rel != 0.0
                        : !(r.te_max_rel <= error_bound * (1.0 + 1e-9))) {
    return "realized error " + FormatG17(r.te_max_rel) + " breaks bound " +
           FormatG17(error_bound);
  }
  if (r.gz_bytes == 0 ||
      r.compression_ratio != static_cast<double>(r.raw_gz_bytes) /
                                 static_cast<double>(r.gz_bytes)) {
    return "compression ratio is not raw_gz_bytes / gz_bytes";
  }
  return "";
}

// RunPipeline's steps called one by one, each in its own span. Returns the
// same PipelineResult RunPipeline would.
Result<PipelineResult> TracedPipeline(Tracer& tracer,
                                      const lossyts::compress::Compressor& codec,
                                      const TimeSeries& series,
                                      double error_bound, double* raw_mb,
                                      double* blob_mb) {
  namespace compress = lossyts::compress;
  const std::string name(codec.name());
  PipelineResult r;
  r.compressor_name = name;
  r.error_bound = error_bound;
  std::vector<uint8_t> csv;
  {
    Tracer::Scope span(tracer, "compress.raw_csv");
    csv = compress::SerializeRawCsv(series);
  }
  r.raw_bytes = csv.size();
  {
    Tracer::Scope span(tracer, "zip.raw_gzip");
    r.raw_gz_bytes = lossyts::zip::GzipCompress(csv).size();
  }
  *raw_mb += static_cast<double>(csv.size()) / 1e6;
  Result<std::vector<uint8_t>> blob = lossyts::Status::Internal("unset");
  {
    Tracer::Scope span(tracer, "compress.encode." + name);
    blob = codec.Compress(series, error_bound);
  }
  if (!blob.ok()) return blob.status();
  r.compressed_bytes = blob->size();
  {
    Tracer::Scope span(tracer, "zip.blob_gzip");
    r.gz_bytes = lossyts::zip::GzipCompress(*blob).size();
  }
  *blob_mb += static_cast<double>(blob->size()) / 1e6;
  r.compression_ratio =
      static_cast<double>(r.raw_gz_bytes) / static_cast<double>(r.gz_bytes);
  Result<TimeSeries> decoded = lossyts::Status::Internal("unset");
  {
    Tracer::Scope span(tracer, "compress.decode." + name);
    decoded = codec.Decompress(*blob);
  }
  if (!decoded.ok()) return decoded.status();
  {
    Tracer::Scope span(tracer, "compress.segment_count");
    if (name == "PMC" || name == "SWING" || name == "PPA" || name == "CAMEO") {
      compress::ByteReader reader(*blob);
      if (lossyts::Status s = reader.Skip(1 + 4 + 2 + 4); !s.ok()) return s;
      Result<uint32_t> segments = reader.GetU32();
      if (!segments.ok()) return segments.status();
      r.segment_count = *segments;
    } else {
      r.segment_count = compress::CountConstantRuns(*decoded);
    }
  }
  {
    Tracer::Scope span(tracer, "core.te_score");
    const std::vector<double>& x = series.values();
    const std::vector<double>& y = decoded->values();
    Result<double> rmse = lossyts::Rmse(x, y);
    Result<double> nrmse = lossyts::Nrmse(x, y);
    Result<double> rse = lossyts::Rse(x, y);
    Result<double> max_rel = lossyts::MaxRelError(x, y);
    if (!rmse.ok() || !nrmse.ok() || !rse.ok() || !max_rel.ok()) {
      return lossyts::Status::Internal("TE scoring failed");
    }
    r.te_rmse = *rmse;
    r.te_nrmse = *nrmse;
    r.te_rse = *rse;
    r.te_max_rel = *max_rel;
  }
  r.decompressed = std::move(*decoded);
  return r;
}

}  // namespace

void RunSweep(const RunArgs& args, RunResult& result) {
  lossyts::data::DatasetOptions data_options;  // length_fraction 0.125
  data_options.seed = args.seed;

  // Set-up: dataset generation, repeated; the median is setup_s.
  std::vector<double> setup_s;
  std::vector<lossyts::data::Dataset> datasets;
  const auto generate = [&] {
    Result<std::vector<lossyts::data::Dataset>> made =
        lossyts::data::MakeAllDatasets(data_options);
    if (!made.ok()) {
      result.Fail("dataset generation failed: " + made.status().ToString());
      return false;
    }
    datasets = std::move(*made);
    return true;
  };
  if (!TimeSetup(kSetupReps, setup_s, generate)) return;

  std::vector<std::unique_ptr<lossyts::compress::Compressor>> codecs;
  for (const std::string& name : SweepCodecs()) {
    Result<std::unique_ptr<lossyts::compress::Compressor>> codec =
        lossyts::compress::MakeCompressor(name);
    if (!codec.ok()) {
      result.Fail(codec.status().ToString());
      return;
    }
    codecs.push_back(std::move(*codec));
  }
  const std::vector<Cell> cells = SweepCells(datasets.size());

  std::unique_ptr<DigestChecker> digest;
  if (args.seed == kDigestSeed && args.write_digest.empty()) {
    Result<Digest> loaded = LoadDigest(args.digest_dir + "/sweep.txt");
    if (!loaded.ok()) {
      result.Fail(loaded.status().ToString());
      return;
    }
    digest = std::make_unique<DigestChecker>(std::move(*loaded));
  }

  // Untraced measurement: a fixed amount of work sized from the run length,
  // 24 cells per second of --seconds (one whole pass at 20 s), cycling
  // through the cell order. A traced run (and a digest write) measures
  // exactly one pass and then repeats it step by step, so its per-layer
  // figures always cover the whole sweep.
  const bool one_pass = args.trace || !args.write_digest.empty();
  const size_t total = one_pass ? cells.size()
                                : static_cast<size_t>(24.0 * args.seconds + 0.5);
  std::vector<std::string> rows(cells.size());
  size_t done = 0;
  double busy_s = 0.0;
  const int64_t loop_start = NowNs();
  while (done < std::max<size_t>(total, 1)) {
    const Cell& cell = cells[done % cells.size()];
    const lossyts::data::Dataset& ds = datasets[cell.dataset];
    const int64_t start = NowNs();
    Result<PipelineResult> r = lossyts::compress::RunPipeline(
        *codecs[cell.codec], ds.series, cell.error_bound);
    const double latency_s = SecondsSince(start);
    busy_s += latency_s;
    result.ops.Record("cell", 1e3 * latency_s, OutcomeOf(r.status()));
    const std::string key =
        CellKey(ds.name, SweepCodecs()[cell.codec], cell.error_bound);
    ++done;
    if (!r.ok()) continue;
    if (std::string bad = CheckInvariants(SweepCodecs()[cell.codec],
                                          cell.error_bound, ds.series, *r);
        !bad.empty()) {
      result.Fail("sweep " + key + ": " + bad);
    }
    const std::string row = FormatRow(ds.name, *r);
    std::string& first = rows[(done - 1) % cells.size()];
    if (first.empty()) {
      first = row;
      if (digest && !digest->Check(key, row)) {
        result.Fail("sweep digest mismatch: " + digest->mismatches().back());
      }
    } else if (first != row) {
      result.Fail("sweep " + key + ": a repeated cell changed its result");
    }
  }
  const double wall_s = SecondsSince(loop_start);

  if (!args.write_digest.empty()) {
    std::vector<std::pair<std::string, std::string>> keyed;
    for (size_t i = 0; i < cells.size() && i < done; ++i) {
      const Cell& cell = cells[i];
      keyed.emplace_back(CellKey(datasets[cell.dataset].name,
                                 SweepCodecs()[cell.codec], cell.error_bound),
                         rows[i]);
    }
    if (lossyts::Status s = WriteDigest(
            args.write_digest,
            "sweep digest, seed " + std::to_string(args.seed) +
                ": FNV-1a of dataset,codec,eb,raw_bytes,raw_gz_bytes,"
                "compressed_bytes,gz_bytes,CR,segments,TE rmse/nrmse/rse/"
                "max_rel,decompressed-values hash",
            keyed);
        !s.ok()) {
      result.Fail(s.ToString());
    }
  }

  result.Note("sweep: " + std::to_string(done) + " RunPipeline cells (" +
              std::to_string(cells.size()) + " per pass) in " +
              FormatG17(wall_s) + " s wall, " + FormatG17(busy_s) +
              " s inside RunPipeline");
  if (digest) {
    // A failed cell produces no row, so a whole pass must name every pinned
    // key: a cell that starts failing cannot drop its paper row unnoticed.
    if (done >= cells.size()) {
      for (const std::string& key : digest->Missing()) {
        result.Fail("sweep digest: no row for pinned cell " + key);
      }
    }
    result.Note("sweep digest: " + std::to_string(digest->checked()) +
                " rows checked against digests/sweep.txt");
  }

  if (!args.trace) {
    if (!TimeSetup(kSetupReps, setup_s, generate)) return;
    result.Add("setup_s", "s", Median(setup_s), setup_s.size());
    result.Add("throughput_per_s", "1/s", static_cast<double>(done) / busy_s,
               done);
    result.Add("sweep_cells_per_s", "cells/s",
               static_cast<double>(done) / busy_s, done);
    AddLatencyMetrics(result, "cell", "cell", 1e3 * wall_s);
    result.Add("p50_ms", "ms", result.Value("cell_p50_ms"), done);
    return;
  }

  // Traced run: the same cells again, each RunPipeline step in its own span;
  // every result must equal RunPipeline's.
  Tracer tracer;
  double raw_mb = 0.0;
  double blob_mb = 0.0;
  const int64_t traced_start = NowNs();
  {
    Tracer::Scope root(tracer, "run.sweep");
    for (size_t i = 0; i < done; ++i) {
      const Cell& cell = cells[i % cells.size()];
      const lossyts::data::Dataset& ds = datasets[cell.dataset];
      Result<PipelineResult> r = lossyts::Status::Internal("unset");
      {
        Tracer::Scope span(tracer, "run.cell");
        r = TracedPipeline(tracer, *codecs[cell.codec], ds.series,
                           cell.error_bound, &raw_mb, &blob_mb);
      }
      const std::string& expected = rows[i % cells.size()];
      if (r.ok() ? FormatRow(ds.name, *r) != expected : !expected.empty()) {
        result.Fail("sweep " +
                    CellKey(ds.name, SweepCodecs()[cell.codec],
                            cell.error_bound) +
                    ": step-by-step pipeline differs from RunPipeline");
      }
    }
  }
  const double traced_s = SecondsSince(traced_start);

  // Tokenizer share of gzip, probed once per dataset on the raw CSV bytes
  // outside the accounted spans (the tokenizer also runs inside gzip).
  double probe_gzip_s = 0.0;
  double probe_lz77_s = 0.0;
  for (const lossyts::data::Dataset& ds : datasets) {
    const std::vector<uint8_t> csv =
        lossyts::compress::SerializeRawCsv(ds.series);
    int64_t start = NowNs();
    const size_t gz = lossyts::zip::GzipCompress(csv).size();
    probe_gzip_s += SecondsSince(start);
    start = NowNs();
    const size_t tokens =
        lossyts::zip::Lz77Tokenize(csv.data(), csv.size()).size();
    probe_lz77_s += SecondsSince(start);
    if (gz == 0 || tokens == 0) result.Fail("empty gzip or token stream");
  }

  const std::map<std::string, SpanTotals> totals = TotalsByName(tracer.spans());
  const auto self = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_s;
  };
  const auto calls = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? size_t{0} : it->second.count;
  };
  if (!TimeSetup(kSetupReps, setup_s, generate)) return;
  result.Add("data.generate_s", "s", Median(setup_s), setup_s.size());
  result.Add("compress.raw_csv_s", "s", self("compress.raw_csv"),
             calls("compress.raw_csv"));
  result.Add("zip.raw_gzip_s", "s", self("zip.raw_gzip"), calls("zip.raw_gzip"));
  result.Add("zip.raw_gzip_calls", "count",
             static_cast<double>(calls("zip.raw_gzip")), 1);
  result.Add("zip.raw_gzip_mb", "MB", raw_mb, calls("zip.raw_gzip"));
  result.Add("zip.blob_gzip_s", "s", self("zip.blob_gzip"),
             calls("zip.blob_gzip"));
  result.Add("zip.blob_gzip_mb", "MB", blob_mb, calls("zip.blob_gzip"));
  result.Add("zip.lz77_s", "s", probe_lz77_s, datasets.size());
  result.Add("zip.lz77_share", "ratio", probe_lz77_s / probe_gzip_s,
             datasets.size());
  for (const std::string& codec : SweepCodecs()) {
    result.Add("compress.encode_s." + codec, "s",
               self("compress.encode." + codec),
               calls("compress.encode." + codec));
    result.Add("compress.decode_s." + codec, "s",
               self("compress.decode." + codec),
               calls("compress.decode." + codec));
  }
  result.Add("core.te_score_s", "s", self("core.te_score"),
             calls("core.te_score"));
  AddTraceAccounting(result, tracer, traced_s - busy_s);
  WriteTrace(result, tracer, args);
}

}  // namespace perfbench
