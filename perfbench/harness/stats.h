#ifndef PERFBENCH_HARNESS_STATS_H_
#define PERFBENCH_HARNESS_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
double Median(std::vector<double> values);

/// Nearest-rank percentile of an ascending `sorted` sample: the value at rank
/// ceil(p/100 * n). `sorted` must be non-empty.
double PercentileSorted(const std::vector<double>& sorted, double percent);

/// The highest percentile of the ladder {99.99, 99.9, 99, 95, 90, 75, 50}
/// whose nearest rank leaves at least `min_beyond` samples above it out of
/// `n`. 0 when even the median does not qualify.
double HighestSupportedPercentile(size_t n, size_t min_beyond = 10);

/// A latency distribution reported as its median and the highest percentile
/// that still has ten samples beyond it, with the sample counts behind both.
struct LatencySummary {
  size_t samples = 0;   ///< Requests attempted (failed ones included).
  size_t failed = 0;    ///< Failed or refused requests among them.
  double p50 = 0.0;
  double high_percent = 0.0;  ///< Which percentile `high` is; 0 = none.
  double high = 0.0;
  size_t beyond_high = 0;     ///< Samples ranked above `high`.
};

/// Summarizes the latencies of successful requests plus `failed` requests
/// that failed or were refused. A failed request counts as missing any
/// latency limit: it enters the ranking at `failed_latency`, which the
/// caller sets to the length of the whole measurement.
LatencySummary SummarizeLatencies(std::vector<double> ok_latencies,
                                  size_t failed, double failed_latency);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_STATS_H_
