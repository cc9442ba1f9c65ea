#include "harness/ops.h"

namespace perfbench {

OpOutcome OutcomeOf(const lossyts::Status& status) {
  if (status.ok()) return OpOutcome::kOk;
  return status.code() == lossyts::StatusCode::kUnavailable
             ? OpOutcome::kRefused
             : OpOutcome::kFailed;
}

void OpBook::Record(const std::string& type, double latency_ms,
                    OpOutcome outcome) {
  Entry& entry = entries_[type];
  ++entry.attempted;
  switch (outcome) {
    case OpOutcome::kOk:
      entry.ok_latency_ms.push_back(latency_ms);
      break;
    case OpOutcome::kFailed:
      ++entry.failed;
      break;
    case OpOutcome::kRefused:
      ++entry.refused;
      break;
  }
}

void OpBook::Merge(const OpBook& other) {
  for (const auto& [type, theirs] : other.entries_) {
    Entry& mine = entries_[type];
    mine.attempted += theirs.attempted;
    mine.failed += theirs.failed;
    mine.refused += theirs.refused;
    mine.ok_latency_ms.insert(mine.ok_latency_ms.end(),
                              theirs.ok_latency_ms.begin(),
                              theirs.ok_latency_ms.end());
  }
}

uint64_t OpBook::attempted() const {
  uint64_t total = 0;
  for (const auto& [type, entry] : entries_) total += entry.attempted;
  return total;
}

uint64_t OpBook::failed() const {
  uint64_t total = 0;
  for (const auto& [type, entry] : entries_) {
    total += entry.failed + entry.refused;
  }
  return total;
}

double OpBook::FailedRatio() const {
  const uint64_t n = attempted();
  return n == 0 ? 0.0 : static_cast<double>(failed()) / static_cast<double>(n);
}

LatencySummary OpBook::Summary(const std::string& type,
                               double failed_latency_ms) const {
  const auto it = entries_.find(type);
  if (it == entries_.end()) return LatencySummary{};
  return SummarizeLatencies(it->second.ok_latency_ms,
                            it->second.failed + it->second.refused,
                            failed_latency_ms);
}

}  // namespace perfbench
