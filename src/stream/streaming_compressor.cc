#include "stream/streaming_compressor.h"

#include <cmath>
#include <deque>

#include "compress/compressor.h"
#include "compress/header.h"

namespace lossyts::stream {

Status StreamingCompressor::Open(int64_t start_timestamp,
                                 int32_t interval_seconds,
                                 double error_bound) {
  if (Status s = compress::CheckErrorBound(error_bound); !s.ok()) return s;
  // The same header-representability gate as batch Compress, checked up
  // front so a stream never accepts points it cannot finalize.
  if (Status s = compress::CheckHeaderRepresentable(start_timestamp,
                                                    interval_seconds, 0);
      !s.ok()) {
    return s;
  }
  open_ = true;
  start_timestamp_ = start_timestamp;
  interval_seconds_ = interval_seconds;
  error_bound_ = error_bound;
  points_ = 0;
  Reset();
  return Status::OK();
}

Status StreamingCompressor::Append(double value,
                                   std::vector<StreamSegment>* closed) {
  if (!open_) {
    return Status::FailedPrecondition("stream is not open; call Open first");
  }
  // Batch Compress rejects the whole series on a non-finite value; a stream
  // rejects just the point, leaving the open window intact, so Flush stays
  // byte-identical to batch over the accepted points.
  if (!std::isfinite(value)) {
    return Status::InvalidArgument(
        "lossy compression requires finite values; index " +
        std::to_string(points_) + " is " + std::to_string(value));
  }
  if (points_ == 0xFFFFFFFFull) {
    return Status::InvalidArgument(
        "point count does not fit the u32 header field");
  }
  DoAppend(value, closed);
  ++points_;
  return Status::OK();
}

Result<std::vector<uint8_t>> StreamingCompressor::Flush(
    std::vector<StreamSegment>* closed) {
  if (!open_) {
    return Status::FailedPrecondition("stream is not open; call Open first");
  }
  if (points_ == 0) {
    return Status::InvalidArgument("cannot compress an empty series");
  }
  DoClose(closed);
  open_ = false;
  return encoder().Seal(start_timestamp_, interval_seconds_, points_);
}

void StreamingCompressor::ProvisionalTail(std::vector<double>* out) const {
  const compress::SegmentModel model = Provisional();
  for (uint32_t k = 0; k < model.length; ++k) out->push_back(model.ValueAt(k));
}

void StreamingCompressor::Report(const compress::SegmentModel& model,
                                 std::vector<StreamSegment>* closed) const {
  if (closed != nullptr) {
    closed->push_back(StreamSegment{model, encoder().LastEncoding()});
  }
}

namespace {

/// Streaming PMC-Mean: the batch encoder fed one point at a time. One Append
/// closes at most one segment (the window up to but excluding the point that
/// broke the running-mean invariant).
class PmcStreamingCompressor : public StreamingCompressor {
 public:
  std::string_view name() const override { return "PMC"; }

  compress::SegmentModel Provisional() const override {
    return pmc_.Provisional();
  }

 protected:
  void Reset() override { pmc_ = compress::PmcEncoder(error_bound_, true); }

  void DoAppend(double value, std::vector<StreamSegment>* closed) override {
    if (std::optional<compress::SegmentModel> model = pmc_.Add(value)) {
      Report(*model, closed);
    }
  }

  void DoClose(std::vector<StreamSegment>* closed) override {
    if (pmc_.length() > 0) Report(pmc_.Close(), closed);
  }

  const compress::SegmentEncoder& encoder() const override { return pmc_; }

 private:
  compress::PmcEncoder pmc_{0.0, true};
};

/// Streaming Swing. Batch Compress restarts its scan where a verify-shrunk
/// segment ended, so the open candidate is buffered and the points past a
/// shortened segment are re-fed through the same acceptance loop — one
/// Append can cascade several segment closes, and the emitted sequence is
/// exactly the batch one.
class SwingStreamingCompressor : public StreamingCompressor {
 public:
  std::string_view name() const override { return "SWING"; }

  compress::SegmentModel Provisional() const override {
    if (buffer_.empty()) return compress::SegmentModel{closed_points()};
    return swing_.Provisional();
  }

 protected:
  void Reset() override {
    swing_ = compress::SwingEncoder(error_bound_);
    buffer_.clear();
    pending_.clear();
  }

  void DoAppend(double value, std::vector<StreamSegment>* closed) override {
    // Fast path: nothing pending (the overwhelmingly common case) — accept
    // or close directly, skipping the deque round trip.
    if (pending_.empty()) {
      if (buffer_.empty()) {
        StartCandidate(value);
        return;
      }
      if (TryAccept(value)) return;
      CloseCandidate(closed);
      // CloseCandidate may push verify-shrink leftovers onto pending_; the
      // breaking point queues behind them, exactly like the slow path.
    }
    pending_.push_back(value);
    Drain(closed);
  }

  void DoClose(std::vector<StreamSegment>* closed) override {
    // End-of-stream finalization: close the buffered candidate, then re-feed
    // any verify-shrink leftovers until nothing remains — the exact order the
    // batch loop visits them in.
    while (!buffer_.empty()) {
      CloseCandidate(closed);
      Drain(closed);
    }
  }

  const compress::SegmentEncoder& encoder() const override { return swing_; }

 private:
  /// Anchors a fresh candidate on `value`. Requires buffer_ empty.
  void StartCandidate(double value) {
    swing_.Start(value);
    buffer_.push_back(value);
  }

  bool TryAccept(double value) {
    if (swing_.Extend(&value, 1) == 0) return false;
    buffer_.push_back(value);
    return true;
  }

  void Drain(std::vector<StreamSegment>* closed) {
    while (!pending_.empty()) {
      if (buffer_.empty()) {
        StartCandidate(pending_.front());
        pending_.pop_front();
      } else if (TryAccept(pending_.front())) {
        pending_.pop_front();
      } else {
        // The point breaks the candidate: close it and leave the breaking
        // point (after any leftovers) for the next segment.
        CloseCandidate(closed);
      }
    }
  }

  /// Closes the buffered candidate and pushes the points past the emitted
  /// segment back to the *front* of pending_, the order in which the batch
  /// loop's restarted scan revisits them.
  void CloseCandidate(std::vector<StreamSegment>* closed) {
    const compress::SegmentModel model = swing_.Close(buffer_.data());
    pending_.insert(pending_.begin(), buffer_.begin() + model.length,
                    buffer_.end());
    buffer_.clear();
    Report(model, closed);
  }

  compress::SwingEncoder swing_{0.0};
  std::vector<double> buffer_;  ///< Open-candidate values; [0] is the anchor.
  std::deque<double> pending_;  ///< Points awaiting (re-)acceptance.
};

}  // namespace

std::vector<std::string> StreamingCompressorNames() {
  return {"PMC", "SWING"};
}

bool HasStreamingCompressor(const std::string& name) {
  return name == "PMC" || name == "SWING";
}

Result<std::unique_ptr<StreamingCompressor>> MakeStreamingCompressor(
    const std::string& name) {
  if (name == "PMC") {
    return std::unique_ptr<StreamingCompressor>(new PmcStreamingCompressor());
  }
  if (name == "SWING") {
    return std::unique_ptr<StreamingCompressor>(
        new SwingStreamingCompressor());
  }
  return Status::InvalidArgument("no streaming compressor named '" + name +
                                 "' (streamable: PMC, SWING)");
}

}  // namespace lossyts::stream
