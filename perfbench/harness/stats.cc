#include "harness/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

// 1-based nearest rank of percentile `percent` in a sample of `n`.
size_t NearestRank(size_t n, double percent) {
  // The epsilon keeps exact products such as 99.99% of 100000 from rounding
  // up to the next rank.
  const double rank =
      std::ceil(percent * static_cast<double>(n) / 100.0 - 1e-9);
  return std::clamp(static_cast<size_t>(rank), size_t{1}, n);
}

}  // namespace

double PercentileSorted(const std::vector<double>& sorted, double percent) {
  return sorted[NearestRank(sorted.size(), percent) - 1];
}

double HighestSupportedPercentile(size_t n, size_t min_beyond) {
  if (n == 0) return 0.0;
  for (double percent : {99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (n - NearestRank(n, percent) >= min_beyond) return percent;
  }
  return 0.0;
}

LatencySummary SummarizeLatencies(std::vector<double> ok_latencies,
                                  size_t failed, double failed_latency) {
  LatencySummary summary;
  summary.failed = failed;
  ok_latencies.insert(ok_latencies.end(), failed, failed_latency);
  summary.samples = ok_latencies.size();
  if (ok_latencies.empty()) return summary;
  std::sort(ok_latencies.begin(), ok_latencies.end());
  summary.p50 = Median(ok_latencies);
  summary.high_percent = HighestSupportedPercentile(summary.samples);
  if (summary.high_percent > 0.0) {
    summary.high = PercentileSorted(ok_latencies, summary.high_percent);
    summary.beyond_high =
        summary.samples - NearestRank(summary.samples, summary.high_percent);
  }
  return summary;
}

}  // namespace perfbench
