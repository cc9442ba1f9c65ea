#include "workloads/common.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

#include "harness/stats.h"

namespace perfbench {

void RunResult::Fail(const std::string& why) { errors_.push_back(why); }

void RunResult::Add(const std::string& name, const std::string& unit,
                    double value, uint64_t samples) {
  metrics_.push_back(Metric{name, unit, value, samples});
}

double RunResult::Value(const std::string& name) const {
  for (auto it = metrics_.rbegin(); it != metrics_.rend(); ++it) {
    if (it->name == name) return it->value;
  }
  return 0.0;
}

double SecondsSince(int64_t start_ns) {
  return 1e-9 * static_cast<double>(NowNs() - start_ns);
}

double MeasureFsyncMs(const std::string& dir) {
  const std::string path = dir + "/fsync.probe";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return 0.0;
  const std::string page(4096, 'x');
  std::vector<double> ms;
  for (int i = 0; i < 20; ++i) {
    std::fwrite(page.data(), 1, page.size(), file);
    std::fflush(file);
    const int64_t start = NowNs();
    ::fsync(fileno(file));
    ms.push_back(1e-6 * static_cast<double>(NowNs() - start));
  }
  std::fclose(file);
  std::remove(path.c_str());
  return Median(ms);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // KiB -> MB
    }
  }
  return 0.0;
}

std::string FormatG17(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void AddLatencyMetrics(RunResult& result, const std::string& op_type,
                       const std::string& prefix, double failed_latency_ms) {
  const LatencySummary s = result.ops.Summary(op_type, failed_latency_ms);
  result.Add(prefix + "_p50_ms", "ms", s.p50, s.samples);
  if (s.high_percent > 0.0) {
    char name[96];
    std::snprintf(name, sizeof(name), "%s_p%g_ms", prefix.c_str(),
                  s.high_percent);
    result.Add(name, "ms", s.high, s.samples);
  }
  char line[256];
  std::snprintf(line, sizeof(line),
                "%-12s samples %zu (failed or refused %zu): p50 %.4f ms, "
                "p%g %.4f ms with %zu samples beyond",
                op_type.c_str(), s.samples, s.failed, s.p50, s.high_percent,
                s.high, s.beyond_high);
  result.Note(line);
}

double SpanCostEstimateS(const Tracer& tracer) {
  Tracer probe;
  constexpr int kSpans = 20000;
  const int64_t start = NowNs();
  for (int i = 0; i < kSpans; ++i) probe.End(probe.Begin("layer.call"));
  return SecondsSince(start) / kSpans *
         static_cast<double>(tracer.spans().size());
}

void AddTraceAccounting(RunResult& result, const Tracer& tracer,
                        double overhead_s) {
  const std::vector<Span>& spans = tracer.spans();
  double traced_s = 0.0;
  for (const Span& span : spans) {
    if (span.parent < 0) {
      traced_s += 1e-9 * static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  const std::map<std::string, SpanTotals> totals = TotalsByName(spans);
  double unaccounted_s = 0.0;
  result.Note("layer self time (span name: self s, total s, calls, share):");
  for (const auto& [name, t] : totals) {
    if (name.rfind("run.", 0) == 0) unaccounted_s += t.self_s;
    char line[256];
    std::snprintf(line, sizeof(line), "  %-34s %10.4f %10.4f %8zu %6.2f%%",
                  name.c_str(), t.self_s, t.total_s, t.count,
                  traced_s > 0 ? 100.0 * t.self_s / traced_s : 0.0);
    result.Note(line);
  }
  char line[256];
  std::snprintf(line, sizeof(line),
                "traced %.4f s = layers %.4f s + unaccounted (run.* self) "
                "%.4f s; tracing overhead %.4f s (span-cost estimate %.4f s)",
                traced_s, traced_s - unaccounted_s, unaccounted_s, overhead_s,
                SpanCostEstimateS(tracer));
  result.Note(line);
  result.Add("trace.unaccounted_s", "s", unaccounted_s, spans.size());
  result.Add("trace.overhead_s", "s", overhead_s, 1);
}

void WriteTrace(RunResult& result, const Tracer& tracer,
                const RunArgs& args) {
  // The first spans only, so a trace stays loadable in a viewer.
  constexpr size_t kMaxSpans = 200000;
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<Span> head(
      spans.begin(), spans.begin() + std::min(spans.size(), kMaxSpans));
  const std::string path = args.run_dir + "/trace.json";
  if (lossyts::Status s = WriteChromeTrace(head, path); !s.ok()) {
    result.Note("trace file not written: " + s.ToString());
    return;
  }
  result.Note("trace: " + path + " (first " + std::to_string(head.size()) +
              " of " + std::to_string(spans.size()) + " spans)");
}

}  // namespace perfbench
