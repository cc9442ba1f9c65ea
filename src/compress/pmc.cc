#include "compress/pmc.h"

#include "compress/header.h"
#include "compress/segments.h"

namespace lossyts::compress {

Result<std::vector<uint8_t>> PmcCompressor::Compress(
    const TimeSeries& series, double error_bound) const {
  if (Status s = CheckErrorBound(error_bound); !s.ok()) return s;
  if (series.empty()) {
    return Status::InvalidArgument("cannot compress an empty series");
  }
  if (Status s = CheckFiniteValues(series); !s.ok()) return s;
  if (Status s = CheckHeaderRepresentable(series); !s.ok()) return s;

  PmcEncoder encoder(error_bound, options_.f32_coefficients);
  for (double v : series.values()) encoder.Add(v);
  encoder.Close();
  return encoder.Seal(series.start_timestamp(), series.interval_seconds(),
                      series.size());
}

Result<TimeSeries> PmcCompressor::Decompress(
    const std::vector<uint8_t>& blob) const {
  return DecodeSegments(blob, AlgorithmId::kPmc);
}

}  // namespace lossyts::compress
