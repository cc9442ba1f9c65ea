#include "compress/segments.h"

#include <cstring>

namespace lossyts::compress {

namespace {

// PMC per-segment coefficient width flags. ModelarDB stores model
// coefficients as 32-bit floats; PMC does the same whenever the rounded mean
// still lies in the window's feasible interval, and falls back to f64
// otherwise so the error-bound guarantee is never compromised.
constexpr uint8_t kF32 = 0;
constexpr uint8_t kF64 = 1;

const char* SegmentLabel(AlgorithmId algorithm) {
  return algorithm == AlgorithmId::kPmc ? "PMC segment" : "Swing segment";
}

}  // namespace

std::vector<uint8_t> SegmentEncoder::LastEncoding() const {
  const std::vector<uint8_t>& bytes = payload_.bytes();
  return std::vector<uint8_t>(bytes.begin() + last_offset_, bytes.end());
}

Result<std::vector<uint8_t>> SegmentEncoder::Seal(int64_t first_timestamp,
                                                  int64_t interval_seconds,
                                                  uint64_t num_points) const {
  ByteWriter writer;
  WriteHeader(
      MakeHeader(algorithm_, first_timestamp, interval_seconds, num_points),
      writer);
  if (Status s = PutCountU32(writer, segments_, SegmentLabel(algorithm_));
      !s.ok()) {
    return s;
  }
  writer.PutBytes(payload_.bytes());
  return writer.Finish();
}

SegmentModel SegmentEncoder::Closed(size_t offset, uint32_t length,
                                    double anchor, double slope) {
  const SegmentModel model{covered_, length, anchor, slope};
  last_offset_ = offset;
  covered_ += length;
  ++segments_;
  return model;
}

SegmentModel PmcEncoder::Close() {
  const size_t offset = payload_.size();
  const float narrow = static_cast<float>(mean_);
  const double rounded = static_cast<double>(narrow);
  // The isfinite check matters when a huge value's allowance endpoint
  // overflowed to ±inf: the f32 cast then overflows too, and an infinite
  // `rounded` would compare "inside" the infinite interval.
  const bool f32 = f32_coefficients_ && std::isfinite(rounded) &&
                   rounded >= lo_ && rounded <= hi_;
  payload_.PutU16(static_cast<uint16_t>(length_));
  payload_.PutU8(f32 ? kF32 : kF64);
  if (f32) {
    uint32_t bits;
    std::memcpy(&bits, &narrow, sizeof(bits));
    payload_.PutU32(bits);
  } else {
    payload_.PutDouble(mean_);
  }
  const uint32_t length = length_;
  length_ = 0;
  return Closed(offset, length, f32 ? rounded : mean_, kConstantSlope);
}

SegmentModel SwingEncoder::Close(const double* values) {
  // The interval intersection certifies the bound only in exact arithmetic:
  // the rounding of slope*k can push a point just outside its allowance, and
  // for exact zeros (zero-width allowance) even a 1-ulp drift is a
  // violation. So verify with precisely the decoder's ValueAt and shrink to
  // the longest conforming prefix. Offset 0 reconstructs the anchor exactly,
  // so the loop ends with len >= 1 and every emitted point inside its
  // allowance.
  size_t len = intervals_.size() + 1;
  SegmentModel model{covered(), 0, anchor_, 0.0};
  while (true) {
    // Mean of the upper and lower bounding slopes (ModelarDB variant).
    model.slope = len > 1 ? 0.5 * (intervals_[len - 2].first +
                                   intervals_[len - 2].second)
                          : 0.0;
    // A reconstruction of ±inf can pass the allowance comparison when the
    // allowance itself overflowed, but would make the output
    // non-recompressible, so it counts as a violation. That also catches a
    // non-finite slope (the interval endpoints can overflow to ±inf for
    // values near DBL_MAX) at offset 1 and shrinks to length 1, whose slope
    // is 0: decoding inf * 0 would give NaN even at offset 0.
    size_t bad = len;
    for (size_t k = 1; k < bad; ++k) {
      const double rec = model.ValueAt(k);
      const Allowance a = RelativeAllowance(values[k], error_bound_);
      if (!std::isfinite(rec) || !(rec >= a.lo && rec <= a.hi)) {
        bad = k;
        break;
      }
    }
    if (bad == len) break;
    len = bad;
  }
  const size_t offset = payload_.size();
  payload_.PutU16(static_cast<uint16_t>(len));
  payload_.PutDouble(anchor_);
  payload_.PutDouble(model.slope);
  intervals_.clear();
  return Closed(offset, static_cast<uint32_t>(len), anchor_, model.slope);
}

SegmentModel SwingEncoder::Provisional() const {
  const size_t length = intervals_.size() + 1;
  double slope = length > 1 ? 0.5 * (intervals_.back().first +
                                     intervals_.back().second)
                            : 0.0;
  if (!std::isfinite(slope)) slope = 0.0;  // Pre-verification fallback.
  return SegmentModel{covered(), static_cast<uint32_t>(length), anchor_,
                      slope};
}

namespace {

// The one blob parser: reads the header, then hands `visit` the header and
// each segment's decoded model in order, under the count and overrun guards.
template <typename Visit>
Result<BlobHeader> ForEachSegment(const std::vector<uint8_t>& blob,
                                  AlgorithmId algorithm, Visit visit) {
  ByteReader reader(blob);
  Result<BlobHeader> parsed = ReadHeader(reader, algorithm);
  if (!parsed.ok()) return parsed.status();
  const BlobHeader header = *parsed;
  Result<uint32_t> num_segments = reader.GetU32();
  if (!num_segments.ok()) return num_segments.status();

  const char* label = SegmentLabel(algorithm);
  uint64_t covered = 0;
  for (uint32_t s = 0; s < *num_segments; ++s) {
    Result<uint16_t> length = reader.GetU16();
    if (!length.ok()) return length.status();
    if (covered + *length > header.num_points) {
      return Status::Corruption(std::string(label) +
                                " lengths overrun the point count");
    }
    SegmentModel model{covered, *length, 0.0, kConstantSlope};
    if (algorithm == AlgorithmId::kPmc) {
      Result<uint8_t> width = reader.GetU8();
      if (!width.ok()) return width.status();
      if (*width == kF32) {
        Result<uint32_t> bits = reader.GetU32();
        if (!bits.ok()) return bits.status();
        float f;
        const uint32_t b = *bits;
        std::memcpy(&f, &b, sizeof(f));
        model.anchor = static_cast<double>(f);
      } else if (*width == kF64) {
        Result<double> mean = reader.GetDouble();
        if (!mean.ok()) return mean.status();
        model.anchor = *mean;
      } else {
        return Status::Corruption("invalid PMC coefficient width flag");
      }
    } else {
      Result<double> anchor = reader.GetDouble();
      if (!anchor.ok()) return anchor.status();
      Result<double> slope = reader.GetDouble();
      if (!slope.ok()) return slope.status();
      model.anchor = *anchor;
      model.slope = *slope;
    }
    visit(header, model);
    covered += *length;
  }
  if (covered != header.num_points) {
    return Status::Corruption(std::string(label) +
                              " lengths do not sum to point count");
  }
  return header;
}

}  // namespace

Result<SegmentSet> ParseSegments(const std::vector<uint8_t>& blob,
                                 AlgorithmId algorithm) {
  SegmentSet set;
  Result<BlobHeader> header = ForEachSegment(
      blob, algorithm, [&](const BlobHeader&, const SegmentModel& model) {
        set.segments.push_back(model);
      });
  if (!header.ok()) return header.status();
  set.header = *header;
  return set;
}

Result<TimeSeries> DecodeSegments(const std::vector<uint8_t>& blob,
                                  AlgorithmId algorithm) {
  // The buffer grows ahead of the writes, so expanding a segment is a plain
  // store loop; it is trimmed to the decoded length at the end.
  std::vector<double> values;
  size_t size = 0;
  Result<BlobHeader> header = ForEachSegment(
      blob, algorithm, [&](const BlobHeader& h, SegmentModel model) {
        if (size + model.length > values.size()) {
          values.resize(std::max({size + model.length, 2 * values.size(),
                                  SafeReserve(h.num_points)}));
        }
        double* out = values.data() + size;
        for (uint32_t k = 0; k < model.length; ++k) out[k] = model.ValueAt(k);
        size += model.length;
      });
  if (!header.ok()) return header.status();
  values.resize(size);
  return TimeSeries(header->first_timestamp, header->interval_seconds,
                    std::move(values));
}

}  // namespace lossyts::compress
