#ifndef PERFBENCH_HARNESS_TRACE_H_
#define PERFBENCH_HARNESS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/status.h"

namespace perfbench {

/// One timed call into a layer's public function, recorded by the benchmark
/// around the call (the program itself is not instrumented).
struct Span {
  std::string name;     ///< "<layer>.<what>", e.g. "zip.raw_gzip".
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;      ///< Index of the enclosing span; -1 for a root.
};

/// In-memory span recorder for one thread. Spans nest by call order: a span
/// begun while another is open becomes its child.
class Tracer {
 public:
  /// Opens a span and returns its id.
  int Begin(std::string name);
  /// Closes span `id`, which must be the innermost open span.
  void End(int id);
  /// Renames span `id` once the call's outcome shows which kind it was.
  void Rename(int id, std::string name);

  const std::vector<Span>& spans() const { return spans_; }

  /// RAII span around one call.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name)
        : tracer_(tracer), id_(tracer.Begin(std::move(name))) {}
    ~Scope() { tracer_.End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_;
  };

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Monotonic nanoseconds since an arbitrary epoch (steady_clock).
int64_t NowNs();

/// Self time of every span: its duration minus the length of the union of
/// its children's intervals, clipped to the span. Overlapping children are
/// counted once.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Per span name: summed duration, summed self time, and span count.
struct SpanTotals {
  double total_s = 0.0;
  double self_s = 0.0;
  size_t count = 0;
};
std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans);

/// Writes the spans as Chrome trace-event JSON ("X" complete events, one
/// thread), loadable in chrome://tracing or Perfetto.
lossyts::Status WriteChromeTrace(const std::vector<Span>& spans,
                                 const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACE_H_
