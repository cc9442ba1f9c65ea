#include "harness/trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::Begin(std::string name) {
  const int id = static_cast<int>(spans_.size());
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::Rename(int id, std::string name) {
  spans_[static_cast<size_t>(id)].name = std::move(name);
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans[static_cast<size_t>(span.parent)];
    const int64_t lo = std::max(span.start_ns, parent.start_ns);
    const int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (lo < hi) children[static_cast<size_t>(span.parent)].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>>& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    t.total_s += 1e-9 * static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    t.self_s += 1e-9 * static_cast<double>(self[i]);
    ++t.count;
  }
  return totals;
}

lossyts::Status WriteChromeTrace(const std::vector<Span>& spans,
                                 const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return lossyts::Status::IoError("cannot write trace file " + path);
  }
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fputs("{\"traceEvents\":[\n", out);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name.c_str(),
                 s.name.substr(0, s.name.find('.')).c_str(),
                 1e-3 * static_cast<double>(s.start_ns - origin),
                 1e-3 * static_cast<double>(s.end_ns - s.start_ns), i,
                 s.parent);
  }
  std::fputs("],\"displayTimeUnit\":\"ms\"}\n", out);
  if (std::fclose(out) != 0) {
    return lossyts::Status::IoError("cannot close trace file " + path);
  }
  return lossyts::Status::OK();
}

}  // namespace perfbench
