#ifndef PERFBENCH_HARNESS_OPS_H_
#define PERFBENCH_HARNESS_OPS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/status.h"
#include "harness/stats.h"

namespace perfbench {

/// How one request ended. kRefused is backpressure that outlived the
/// client's retries (Unavailable); kFailed is any other error.
enum class OpOutcome { kOk, kFailed, kRefused };

OpOutcome OutcomeOf(const lossyts::Status& status);

/// Attempted / failed / refused counts and successful-request latencies per
/// op type. One book per thread; Merge folds them together afterwards.
class OpBook {
 public:
  struct Entry {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t refused = 0;
    std::vector<double> ok_latency_ms;
  };

  void Record(const std::string& type, double latency_ms, OpOutcome outcome);
  void Merge(const OpBook& other);

  const std::map<std::string, Entry>& entries() const { return entries_; }
  uint64_t attempted() const;
  /// Failed plus refused, over every op type.
  uint64_t failed() const;
  double FailedRatio() const;

  /// Latency summary of one op type; failed and refused requests rank at
  /// `failed_latency_ms` (see SummarizeLatencies).
  LatencySummary Summary(const std::string& type,
                         double failed_latency_ms) const;

 private:
  std::map<std::string, Entry> entries_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_OPS_H_
