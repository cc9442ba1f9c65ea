#ifndef LOSSYTS_COMPRESS_SEGMENTS_H_
#define LOSSYTS_COMPRESS_SEGMENTS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "compress/compressor.h"
#include "compress/header.h"
#include "compress/serde.h"
#include "core/status.h"

namespace lossyts::compress {

// The one home of the two model-based codecs' segment logic (paper §3.2):
// the acceptance predicates, PMC's f32 narrowing, Swing's verify-shrink, the
// per-segment wire encoding, the blob parser and the reconstruction rule.
// Batch Compress (pmc.cc, swing.cc) drives the encoders over its input span;
// stream::StreamingCompressor drives the same encoders one point at a time.
//
// Blob layout after the shared header: u32 segment count, then per segment a
// u16 length and the coefficients — PMC: a u8 width flag and the mean as f32
// or f64; Swing: the f64 anchor and the f64 slope.

/// Segment lengths are stored as u16.
inline constexpr size_t kMaxSegmentLength = 65535;

/// PMC's slope. −0.0 is the additive identity (x + −0.0 is x bit for bit,
/// −0.0 included, where x + 0.0 turns −0.0 into +0.0) and −0.0·k stays −0.0,
/// so ValueAt returns a PMC segment's stored mean exactly.
inline constexpr double kConstantSlope = -0.0;

/// One model segment: v̂(k) = anchor + slope·k over local offsets
/// [0, length). PMC is the constant case (slope kConstantSlope).
struct SegmentModel {
  uint64_t start_index = 0;  ///< Offset of the first covered point.
  uint32_t length = 0;       ///< Points covered (1..65535).
  double anchor = 0.0;       ///< PMC's stored mean, or Swing's first value.
  double slope = 0.0;        ///< Value change per index step.

  /// The one reconstruction rule, the decoder's arithmetic: every partial
  /// read (store point reads, pushdown, stream consumers) built on it is
  /// bit-identical to Decompress.
  double ValueAt(size_t k) const {
    return anchor + slope * static_cast<double>(k);
  }
};

/// The wire bytes of the segments closed so far, and what sealing them into
/// a blob needs. Base of the two encoders.
class SegmentEncoder {
 public:
  explicit SegmentEncoder(AlgorithmId algorithm) : algorithm_(algorithm) {}

  size_t segments() const { return segments_; }
  /// Points covered by the closed segments.
  uint64_t covered() const { return covered_; }
  /// Wire bytes of the most recently closed segment.
  std::vector<uint8_t> LastEncoding() const;

  /// The blob: shared header, u32 segment count, the closed segments.
  Result<std::vector<uint8_t>> Seal(int64_t first_timestamp,
                                    int64_t interval_seconds,
                                    uint64_t num_points) const;

 protected:
  /// Counts the segment whose bytes were appended to payload_ from
  /// `offset` on and returns its model.
  SegmentModel Closed(size_t offset, uint32_t length, double anchor,
                      double slope);

  ByteWriter payload_;

 private:
  AlgorithmId algorithm_;
  size_t segments_ = 0;
  uint64_t covered_ = 0;
  size_t last_offset_ = 0;
};

/// PMC-Mean (pmc.h): a window stays open while its running mean lies inside
/// every member's allowance interval.
class PmcEncoder : public SegmentEncoder {
 public:
  PmcEncoder(double error_bound, bool f32_coefficients)
      : SegmentEncoder(AlgorithmId::kPmc),
        error_bound_(error_bound),
        f32_coefficients_(f32_coefficients) {}

  /// Feeds the next point. When it breaks the window, the window without it
  /// closes (returned) and the point starts the next one.
  std::optional<SegmentModel> Add(double value) {
    if (Accept(value)) return std::nullopt;
    SegmentModel closed = Close();
    Restart(value);
    return closed;
  }

  /// Closes the open window: encodes its mean, as f32 when the rounded
  /// value still lies in the window's feasible interval (ModelarDB), as f64
  /// otherwise, and returns the decoded model. The window is empty after.
  SegmentModel Close();

  /// Points in the open window.
  uint32_t length() const { return length_; }
  /// The open window as if it closed now, before the f32 narrowing.
  SegmentModel Provisional() const {
    return SegmentModel{covered(), length_, mean_, kConstantSlope};
  }

 private:
  bool Accept(double value) {
    const Allowance a = RelativeAllowance(value, error_bound_);
    const double lo = std::max(lo_, a.lo);
    const double hi = std::min(hi_, a.hi);
    const double sum = sum_ + value;
    const double mean = sum / static_cast<double>(length_ + 1);
    // isfinite guards the same-sign overflow of the sum near DBL_MAX: an
    // infinite mean passes the interval test once an allowance endpoint has
    // itself overflowed to ±inf, yet decodes to a non-recompressible inf.
    if (!(lo <= hi && std::isfinite(mean) && mean >= lo && mean <= hi &&
          length_ < kMaxSegmentLength)) {
      return false;
    }
    lo_ = lo;
    hi_ = hi;
    sum_ = sum;
    mean_ = mean;
    ++length_;
    return true;
  }

  void Restart(double value) {
    const Allowance a = RelativeAllowance(value, error_bound_);
    lo_ = a.lo;
    hi_ = a.hi;
    sum_ = value;
    mean_ = value;
    length_ = 1;
  }

  double error_bound_;
  bool f32_coefficients_;
  uint32_t length_ = 0;
  double sum_ = 0.0;
  // The mean must stay within [lo_, hi_], the intersection of the allowance
  // intervals of every point in the window.
  double lo_ = -std::numeric_limits<double>::infinity();
  double hi_ = std::numeric_limits<double>::infinity();
  double mean_ = 0.0;  ///< Last mean known to satisfy the window.
};

/// Swing filter (swing.h): a candidate line anchored exactly at its first
/// point, kept while the feasible slope interval stays non-empty.
class SwingEncoder : public SegmentEncoder {
 public:
  explicit SwingEncoder(double error_bound)
      : SegmentEncoder(AlgorithmId::kSwing), error_bound_(error_bound) {}

  /// Opens a candidate anchored at `anchor`.
  void Start(double anchor) {
    anchor_ = anchor;
    intervals_.clear();
  }

  /// Extends the candidate by the longest prefix of values[0, n) that keeps
  /// the feasible slope interval non-empty and the length under the u16 cap;
  /// returns that prefix's length. The loop state lives in locals, so the
  /// batch scan runs at register speed; a stream passes one value at a time.
  size_t Extend(const double* values, size_t n) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const double anchor = anchor_;
    const double error_bound = error_bound_;
    double slope_lo = intervals_.empty() ? -kInf : intervals_.back().first;
    double slope_hi = intervals_.empty() ? kInf : intervals_.back().second;
    const size_t length = intervals_.size() + 1;
    size_t j = 0;
    for (; j < n; ++j) {
      const double step = static_cast<double>(length + j);
      const Allowance a = RelativeAllowance(values[j], error_bound);
      const double lo = std::max(slope_lo, (a.lo - anchor) / step);
      const double hi = std::min(slope_hi, (a.hi - anchor) / step);
      if (!(lo <= hi) || length + j >= kMaxSegmentLength) break;
      slope_lo = lo;
      slope_hi = hi;
      intervals_.emplace_back(lo, hi);
    }
    return j;
  }

  /// Closes the candidate whose points are values[0 .. candidate length):
  /// verifies the decoder's reconstruction, shrinks to the longest
  /// conforming prefix, encodes it and returns its model. The points past
  /// the returned length start the next candidate.
  SegmentModel Close(const double* values);

  /// The open candidate as if it closed now, before verification.
  SegmentModel Provisional() const;

 private:
  double error_bound_;
  double anchor_ = 0.0;
  // intervals_[k-1] is the intersected slope interval after accepting
  // in-candidate offset k (the back is the current one), kept so that a
  // shrunk segment takes the midpoint of *its* interval, not the full
  // candidate's.
  std::vector<std::pair<double, double>> intervals_;
};

/// A PMC or Swing blob's header plus its segments.
struct SegmentSet {
  BlobHeader header;
  std::vector<SegmentModel> segments;
};

/// Parses a blob of `algorithm` (kPmc or kSwing) into its segments without
/// materializing any point — the basis of full decode, pushdown aggregation
/// and point reads. Corruption for malformed blobs or another algorithm.
Result<SegmentSet> ParseSegments(const std::vector<uint8_t>& blob,
                                 AlgorithmId algorithm);

/// Full decode: every segment expanded through ValueAt.
Result<TimeSeries> DecodeSegments(const std::vector<uint8_t>& blob,
                                  AlgorithmId algorithm);

}  // namespace lossyts::compress

#endif  // LOSSYTS_COMPRESS_SEGMENTS_H_
