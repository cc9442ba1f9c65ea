#ifndef LOSSYTS_STREAM_STREAMING_COMPRESSOR_H_
#define LOSSYTS_STREAM_STREAMING_COMPRESSOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "compress/segments.h"
#include "core/status.h"

namespace lossyts::stream {

/// One closed segment emitted by a StreamingCompressor: the decoded model
/// (so consumers can reconstruct covered points without ever touching blob
/// bytes) plus the exact wire encoding of the segment. The model is the one
/// the shared encoder core returns (compress/segments.h), so `ValueAt(k)`
/// reproduces batch Decompress bit for bit, which the conform stream oracle
/// checks.
struct StreamSegment : compress::SegmentModel {
  std::vector<uint8_t> encoded;  ///< Exact wire bytes of this segment.
};

/// Incremental counterpart of compress::Compressor for the segment codecs
/// (PMC, Swing): accepts one point at a time, emits segments as they close,
/// and finalizes with a blob that is byte-identical to what the batch
/// `Compress()` of the same accepted points would have produced — the
/// contract the conform harness enforces over its full corpus × bound grid.
///
/// Lifecycle: Open() → Append()* → Flush(). Open validates like batch
/// Compress (error bound in (0,1), header-representable metadata) and may be
/// called again after Flush to start a new stream. Append rejects non-finite
/// values *per point* without disturbing the open state, so one poisoned
/// reading does not kill a long-lived stream; the byte-identity contract is
/// over the accepted points only. Flush on an empty stream fails exactly like
/// batch Compress of an empty series.
///
/// Memory: O(open segment) working state plus the compressed payload
/// accumulated so far (the bytes Flush will return) — closed segments are
/// not retained beyond what the caller drains from Append.
///
/// Not thread-safe; one instance per series per thread.
class StreamingCompressor {
 public:
  virtual ~StreamingCompressor() = default;

  /// Codec identifier, matching the batch compressor ("PMC", "SWING").
  virtual std::string_view name() const = 0;

  /// Starts (or restarts) a stream. Validation mirrors batch Compress:
  /// `error_bound` must be in (0, 1), `start_timestamp` must fit the i32
  /// header field and `interval_seconds` the u16 one.
  Status Open(int64_t start_timestamp, int32_t interval_seconds,
              double error_bound);

  /// Feeds one point. Newly closed segments are appended to `*closed` when
  /// it is non-null (Swing's verify-shrink can cascade, so a single point
  /// may close several). Non-finite values are rejected with InvalidArgument
  /// and leave the stream state untouched.
  Status Append(double value, std::vector<StreamSegment>* closed = nullptr);

  /// Closes the open segment(s), appending them to `*closed` when non-null,
  /// and returns the complete blob: byte-identical to batch Compress() of
  /// every accepted point. The stream is finalized afterwards; call Open()
  /// to start a new one. Fails on an empty stream.
  Result<std::vector<uint8_t>> Flush(
      std::vector<StreamSegment>* closed = nullptr);

  /// Model of the still-open window as if it closed now, over in-window
  /// offsets [0, length). Provisional only — the coefficients may still
  /// change (PMC's f32 rounding happens at close; Swing's slope is the
  /// current interval midpoint before verification) — but deterministic and
  /// causal, which is what the prequential loop needs for model inputs. O(1).
  virtual compress::SegmentModel Provisional() const = 0;

  /// Convenience: appends the provisional reconstruction of the open window
  /// to `*out` (O(open window)).
  void ProvisionalTail(std::vector<double>* out) const;

  /// Points accepted since Open.
  uint64_t points() const { return points_; }
  /// Points covered by closed segments so far.
  uint64_t closed_points() const { return encoder().covered(); }
  /// Points still in the open window: points() - closed_points().
  uint64_t open_length() const { return points_ - closed_points(); }
  /// Closed segments emitted so far.
  uint64_t segments() const { return encoder().segments(); }
  double error_bound() const { return error_bound_; }
  bool is_open() const { return open_; }

 protected:
  /// Codec-specific state reset on Open: a fresh encoder at error_bound_.
  virtual void Reset() = 0;
  /// Codec-specific Append; the value is already known finite.
  virtual void DoAppend(double value, std::vector<StreamSegment>* closed) = 0;
  /// Codec-specific close of the remaining open window at Flush.
  virtual void DoClose(std::vector<StreamSegment>* closed) = 0;
  /// The codec's encoder, shared with batch Compress (compress/segments.h):
  /// it holds the wire bytes of the closed segments and seals the blob.
  virtual const compress::SegmentEncoder& encoder() const = 0;

  /// Hands `model`, the segment the encoder just closed, to `closed` with its
  /// wire bytes when `closed` is non-null (the bytes are copied only then).
  void Report(const compress::SegmentModel& model,
              std::vector<StreamSegment>* closed) const;

  double error_bound_ = 0.0;

 private:
  bool open_ = false;
  int64_t start_timestamp_ = 0;
  int32_t interval_seconds_ = 0;
  uint64_t points_ = 0;
};

/// Codecs with a streaming implementation, a subset of
/// compress::LossyCompressorNames(): {"PMC", "SWING"}.
std::vector<std::string> StreamingCompressorNames();

/// True when `name` (exact match, upper case) has a streaming counterpart.
bool HasStreamingCompressor(const std::string& name);

/// Factory mirroring compress::MakeCompressor; InvalidArgument names the
/// input on an unknown or non-streamable codec.
Result<std::unique_ptr<StreamingCompressor>> MakeStreamingCompressor(
    const std::string& name);

}  // namespace lossyts::stream

#endif  // LOSSYTS_STREAM_STREAMING_COMPRESSOR_H_
