#include "compress/pipeline.h"

#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>

#include "compress/cameo.h"
#include "compress/chimp.h"
#include "compress/gorilla.h"
#include "compress/header.h"
#include "compress/lfzip.h"
#include "compress/pmc.h"
#include "compress/ppa.h"
#include "compress/serde.h"
#include "compress/swing.h"
#include "compress/sz.h"
#include "core/failpoint.h"
#include "core/metrics.h"
#include "zip/gzip.h"

namespace lossyts::compress {

std::vector<uint8_t> SerializeRawCsv(const TimeSeries& series) {
  std::string text = "timestamp,value\n";
  char buffer[64];
  for (size_t i = 0; i < series.size(); ++i) {
    std::snprintf(buffer, sizeof(buffer), "%lld,%.10g\n",
                  static_cast<long long>(series.TimestampAt(i)), series[i]);
    text += buffer;
  }
  return std::vector<uint8_t>(text.begin(), text.end());
}

namespace {

// The CR numerator's two sizes. They depend only on the series, yet a sweep
// asks for them once per (codec, bound) cell, and the CSV text + gzip pass
// behind them costs more than most codecs' whole compress/decompress.
struct RawSizes {
  size_t raw_bytes = 0;     // |SerializeRawCsv(series)|
  size_t raw_gz_bytes = 0;  // |gzip(SerializeRawCsv(series))|
};

// Enough for the six paper datasets plus the odd test or CLI series.
constexpr size_t kRawSizeMemoEntries = 8;

struct RawSizeEntry {
  TimeSeries series;  // Exact copy: the key, compared bit for bit.
  RawSizes sizes;
};

// The CSV is a pure function of the start, the interval and the value bits,
// so equal bits give equal sizes. Comparing every bit (not a hash) means a
// hit can never return another series' sizes; -0.0 vs 0.0 and distinct NaN
// payloads miss, which is only conservative.
bool SameBits(const TimeSeries& a, const TimeSeries& b) {
  return a.start_timestamp() == b.start_timestamp() &&
         a.interval_seconds() == b.interval_seconds() &&
         a.size() == b.size() &&
         (a.empty() || std::memcmp(a.values().data(), b.values().data(),
                                   a.size() * sizeof(double)) == 0);
}

// Process-wide FIFO memo of RawSizes, keyed on the series' exact bits. The
// gzip pass runs outside the lock, so workers on distinct series do not
// serialize; two workers that miss on one series both compute the same
// sizes and only the first insert is kept.
RawSizes RawSizesOf(const TimeSeries& series) {
  static std::mutex mu;
  static std::deque<RawSizeEntry>& memo = *new std::deque<RawSizeEntry>();
  const auto find = [&]() -> const RawSizeEntry* {
    for (const RawSizeEntry& entry : memo) {
      if (SameBits(entry.series, series)) return &entry;
    }
    return nullptr;
  };
  {
    std::lock_guard<std::mutex> lock(mu);
    if (const RawSizeEntry* hit = find()) return hit->sizes;
  }
  const std::vector<uint8_t> raw_csv = SerializeRawCsv(series);
  RawSizes sizes;
  sizes.raw_bytes = raw_csv.size();
  sizes.raw_gz_bytes = zip::GzipCompress(raw_csv).size();
  std::lock_guard<std::mutex> lock(mu);
  if (find() == nullptr) {
    if (memo.size() == kRawSizeMemoEntries) memo.pop_front();
    memo.push_back(RawSizeEntry{series, sizes});
  }
  return sizes;
}

}  // namespace

size_t RawGzipSize(const TimeSeries& series) {
  return RawSizesOf(series).raw_gz_bytes;
}

size_t CountConstantRuns(const TimeSeries& series) {
  if (series.empty()) return 0;
  size_t runs = 1;
  for (size_t i = 1; i < series.size(); ++i) {
    if (series[i] != series[i - 1]) ++runs;
  }
  return runs;
}

Result<PipelineResult> RunPipeline(const Compressor& compressor,
                                   const TimeSeries& series,
                                   double error_bound) {
  PipelineResult result;
  result.compressor_name = std::string(compressor.name());
  result.error_bound = error_bound;

  const RawSizes raw = RawSizesOf(series);
  result.raw_bytes = raw.raw_bytes;
  result.raw_gz_bytes = raw.raw_gz_bytes;

  LOSSYTS_FAILPOINT("compress");
  Result<std::vector<uint8_t>> blob = compressor.Compress(series, error_bound);
  if (!blob.ok()) return blob.status();
  result.compressed_bytes = blob->size();
  result.gz_bytes = zip::GzipCompress(*blob).size();
  result.compression_ratio = static_cast<double>(result.raw_gz_bytes) /
                             static_cast<double>(result.gz_bytes);

  LOSSYTS_FAILPOINT("decompress");
  Result<TimeSeries> decompressed = compressor.Decompress(*blob);
  if (!decompressed.ok()) return decompressed.status();
  if (decompressed->size() != series.size()) {
    return Status::Internal("decompressed size mismatch");
  }

  // Segment count: the segment codecs encode an explicit u32 segment count
  // right after the shared header; for other codecs fall back to constant
  // runs. The blob decoded above, so it is not empty.
  const AlgorithmId algorithm = static_cast<AlgorithmId>((*blob)[0]);
  switch (algorithm) {
    case AlgorithmId::kPmc:
    case AlgorithmId::kSwing:
    case AlgorithmId::kPpa:
    case AlgorithmId::kCameo: {
      ByteReader reader(*blob);
      Result<BlobHeader> header = ReadHeader(reader, algorithm);
      if (!header.ok()) return header.status();
      Result<uint32_t> segments = reader.GetU32();
      if (!segments.ok()) return segments.status();
      result.segment_count = *segments;
      break;
    }
    default:
      result.segment_count = CountConstantRuns(*decompressed);
  }

  Result<double> rmse = Rmse(series.values(), decompressed->values());
  if (!rmse.ok()) return rmse.status();
  result.te_rmse = *rmse;
  Result<double> nrmse = Nrmse(series.values(), decompressed->values());
  if (!nrmse.ok()) return nrmse.status();
  result.te_nrmse = *nrmse;
  Result<double> rse = Rse(series.values(), decompressed->values());
  if (!rse.ok()) return rse.status();
  result.te_rse = *rse;
  Result<double> max_rel = MaxRelError(series.values(), decompressed->values());
  if (!max_rel.ok()) return max_rel.status();
  result.te_max_rel = *max_rel;

  result.decompressed = std::move(*decompressed);
  return result;
}

Result<TimeSeries> DecompressAny(const std::vector<uint8_t>& blob) {
  if (blob.empty()) return Status::Corruption("empty blob");
  switch (static_cast<AlgorithmId>(blob[0])) {
    case AlgorithmId::kPmc:
      return PmcCompressor().Decompress(blob);
    case AlgorithmId::kSwing:
      return SwingCompressor().Decompress(blob);
    case AlgorithmId::kSz:
      return SzCompressor().Decompress(blob);
    case AlgorithmId::kGorilla:
      return GorillaCompressor().Decompress(blob);
    case AlgorithmId::kChimp:
      return ChimpCompressor().Decompress(blob);
    case AlgorithmId::kPpa:
      return PpaCompressor().Decompress(blob);
    case AlgorithmId::kLfzip:
      return LfzipCompressor().Decompress(blob);
    case AlgorithmId::kCameo:
      return CameoCompressor().Decompress(blob);
  }
  return Status::Corruption("unknown algorithm id in blob header");
}

Result<std::unique_ptr<Compressor>> MakeCompressor(const std::string& name) {
  if (name == "PMC") return std::unique_ptr<Compressor>(new PmcCompressor());
  if (name == "SWING") {
    return std::unique_ptr<Compressor>(new SwingCompressor());
  }
  if (name == "SZ") return std::unique_ptr<Compressor>(new SzCompressor());
  if (name == "GORILLA") {
    return std::unique_ptr<Compressor>(new GorillaCompressor());
  }
  if (name == "CHIMP") {
    return std::unique_ptr<Compressor>(new ChimpCompressor());
  }
  if (name == "PPA") return std::unique_ptr<Compressor>(new PpaCompressor());
  if (name == "LFZIP") {
    return std::unique_ptr<Compressor>(new LfzipCompressor());
  }
  if (name == "CAMEO") {
    return std::unique_ptr<Compressor>(new CameoCompressor());
  }
  // InvalidArgument, not NotFound: the name is a caller-supplied argument
  // (a --codecs flag or config string), not a missing resource, and the
  // message must echo it so a typo is diagnosable from the error alone.
  return Status::InvalidArgument("unknown compressor name: \"" + name +
                                 "\"; see MakeCompressor in pipeline.h for "
                                 "the recognized spellings");
}

const std::vector<std::string>& LossyCompressorNames() {
  static const std::vector<std::string>& names =
      *new std::vector<std::string>{"PMC", "SWING", "SZ"};
  return names;
}

const std::vector<double>& PaperErrorBounds() {
  static const std::vector<double>& bounds = *new std::vector<double>{
      0.01, 0.03, 0.05, 0.07, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.65, 0.8};
  return bounds;
}

}  // namespace lossyts::compress
