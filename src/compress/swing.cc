#include "compress/swing.h"

#include "compress/header.h"
#include "compress/segments.h"

namespace lossyts::compress {

Result<std::vector<uint8_t>> SwingCompressor::Compress(
    const TimeSeries& series, double error_bound) const {
  if (Status s = CheckErrorBound(error_bound); !s.ok()) return s;
  if (series.empty()) {
    return Status::InvalidArgument("cannot compress an empty series");
  }
  if (Status s = CheckFiniteValues(series); !s.ok()) return s;
  if (Status s = CheckHeaderRepresentable(series); !s.ok()) return s;

  // Each candidate starts where the previous segment ended: verify-shrink
  // hands the points past a shortened segment back to the next candidate.
  SwingEncoder encoder(error_bound);
  const std::vector<double>& v = series.values();
  for (size_t start = 0; start < v.size();) {
    encoder.Start(v[start]);
    encoder.Extend(v.data() + start + 1, v.size() - start - 1);
    start += encoder.Close(v.data() + start).length;
  }
  return encoder.Seal(series.start_timestamp(), series.interval_seconds(),
                      series.size());
}

Result<TimeSeries> SwingCompressor::Decompress(
    const std::vector<uint8_t>& blob) const {
  return DecodeSegments(blob, AlgorithmId::kSwing);
}

}  // namespace lossyts::compress
