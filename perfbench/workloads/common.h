#ifndef PERFBENCH_WORKLOADS_COMMON_H_
#define PERFBENCH_WORKLOADS_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/ops.h"
#include "harness/trace.h"

namespace perfbench {

/// The seed whose outputs the checked-in digests pin. Dataset seed 42 is the
/// library's default, so this seed reproduces the paper-pinned rows.
inline constexpr uint64_t kDigestSeed = 42;

struct RunArgs {
  std::string workload;
  uint64_t seed = kDigestSeed;
  double seconds = 20.0;
  bool trace = false;
  std::string run_dir;     ///< Scratch directory: catalogs, trace file.
  std::string digest_dir;  ///< Directory of the checked-in digests.
  /// When non-empty, write this workload's digest for `seed` to the path
  /// instead of checking it (used to re-base a digest deliberately).
  std::string write_digest;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  uint64_t samples = 0;  ///< Measurements behind the value.
};

/// Everything one run reports: the output-gate verdict, op accounting, the
/// metrics, and human-readable report lines.
class RunResult {
 public:
  /// Records a failed output gate; the run is then not correct.
  void Fail(const std::string& why);
  void Add(const std::string& name, const std::string& unit, double value,
           uint64_t samples);
  void Note(const std::string& line) { notes_.push_back(line); }

  bool correct() const { return errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& notes() const { return notes_; }
  /// Latest value of a metric already added; 0 when absent.
  double Value(const std::string& name) const;

  OpBook ops;  ///< Attempted / failed counts per op type.

 private:
  std::vector<std::string> errors_;
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

double SecondsSince(int64_t start_ns);

/// Seconds over which one batch of set-up repetitions is spread.
constexpr double kSetupWindowS = 1.0;

/// Runs `setup` (a callable returning false on failure) `reps` times, spread
/// evenly over kSetupWindowS, and appends each duration in seconds to `out`.
/// `reset` runs untimed before each repetition. A shared machine's CPU speed
/// swings within seconds, so spacing the repetitions out, and timing half of
/// them before the measurement and half after it, keeps the reported median
/// from reflecting one moment of it.
template <typename Setup, typename Reset>
bool TimeSetup(int reps, std::vector<double>& out, Setup&& setup,
               Reset&& reset) {
  const int64_t window_start = NowNs();
  for (int i = 0; i < reps; ++i) {
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
            window_start +
            static_cast<int64_t>(1e9 * kSetupWindowS * i / reps))));
    reset();
    const int64_t start = NowNs();
    if (!setup()) return false;
    out.push_back(SecondsSince(start));
  }
  return true;
}

template <typename Setup>
bool TimeSetup(int reps, std::vector<double>& out, Setup&& setup) {
  return TimeSetup(reps, out, std::forward<Setup>(setup), [] {});
}

/// Median cost in ms of 20 4-KiB write+fsync rounds on a scratch file in
/// `dir`: the run directory holds the serve catalog, so serve latencies can
/// be read against this machine's fsync rather than a device's.
double MeasureFsyncMs(const std::string& dir);

/// Peak resident set of this process so far (VmHWM), in MB (10^6 bytes).
double PeakRssMb();

/// Adds "<prefix>_p50_ms" and "<prefix>_p<N>_ms" for one op type of
/// `result.ops`, where N is the highest percentile with ten samples beyond it.
void AddLatencyMetrics(RunResult& result, const std::string& op_type,
                       const std::string& prefix, double failed_latency_ms);

/// Adds the per-layer metrics of a traced run that every workload reports:
/// the self time of the benchmark's own "run.*" spans, which no layer
/// accounts for, and the tracing overhead `overhead_s`. Also notes the
/// per-layer self-time table and the span-cost overhead estimate.
void AddTraceAccounting(RunResult& result, const Tracer& tracer,
                        double overhead_s);

/// Tracing overhead estimated as the measured cost of recording one span
/// times the spans `tracer` recorded.
double SpanCostEstimateS(const Tracer& tracer);

/// Writes the tracer's spans to `<run_dir>/trace.json` and notes the path.
void WriteTrace(RunResult& result, const Tracer& tracer,
                const RunArgs& args);

std::string FormatG17(double value);

void RunSweep(const RunArgs& args, RunResult& result);
void RunGridWorkload(const RunArgs& args, RunResult& result);
void RunServe(const RunArgs& args, RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_COMMON_H_
