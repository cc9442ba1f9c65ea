#include "store/query.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/thread_pool.h"
#include "store/segments.h"

namespace lossyts::store {

namespace {

// Deterministic per-chunk partial: computed identically whichever thread
// runs it, merged sequentially in chunk order.
struct ChunkPartial {
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  double abs_sum = 0.0;  ///< Upper bound on Σ|v̂| over the selected span.
  double max_abs = 0.0;
  uint64_t count = 0;
  bool lossless = false;
  bool pushdown = false;
};

// The selected local span [first, last] of chunk `index`.
Result<ChunkPartial> ComputeChunkPartial(const StoreReader& reader,
                                         size_t index, uint32_t first,
                                         uint32_t last, bool allow_pushdown) {
  const ChunkInfo& chunk = reader.chunks()[index];
  ChunkPartial partial;
  partial.lossless = IsLosslessAlgorithm(chunk.algorithm);

  if (allow_pushdown && SupportsPushdown(chunk.algorithm)) {
    Result<compress::SegmentSet> set =
        compress::ParseSegments(reader.ChunkPayload(index), chunk.algorithm);
    if (!set.ok()) return set.status();
    partial.pushdown = true;
    for (const compress::SegmentModel& segment : set->segments) {
      const uint32_t seg_first = static_cast<uint32_t>(segment.start_index);
      const uint32_t seg_last = seg_first + segment.length - 1;
      if (seg_last < first || seg_first > last) continue;
      const uint32_t lo = std::max(first, seg_first) - seg_first;
      const uint32_t hi = std::min(last, seg_last) - seg_first;
      const SegmentAggregate agg = AggregateSegment(segment, lo, hi);
      partial.sum += agg.sum;
      partial.min = std::min(partial.min, agg.min);
      partial.max = std::max(partial.max, agg.max);
      partial.abs_sum += agg.abs_sum;
      partial.max_abs = std::max(partial.max_abs, agg.max_abs);
      partial.count += agg.count;
    }
    if (partial.count != static_cast<uint64_t>(last) - first + 1) {
      return Status::Corruption("chunk segments do not cover the selection");
    }
    return partial;
  }

  Result<std::shared_ptr<const std::vector<double>>> values =
      reader.DecodeChunkValues(index);
  if (!values.ok()) return values.status();
  const std::vector<double>& v = **values;
  if (last >= v.size()) {
    return Status::Corruption("chunk selection exceeds the decoded length");
  }
  for (uint32_t k = first; k <= last; ++k) {
    partial.sum += v[k];
    partial.min = std::min(partial.min, v[k]);
    partial.max = std::max(partial.max, v[k]);
    const double a = std::fabs(v[k]);
    partial.abs_sum += a;
    partial.max_abs = std::max(partial.max_abs, a);
    ++partial.count;
  }
  return partial;
}

// Local span of chunk `index` selected by `sel`.
void LocalSpan(const StoreReader& reader, const StoreReader::Selection& sel,
               size_t index, uint32_t& first, uint32_t& last) {
  first = index == sel.first_chunk ? sel.first_local : 0;
  last = index == sel.last_chunk ? sel.last_local
                                 : reader.chunks()[index].num_points - 1;
}

Result<AggregateResult> MergePartials(
    const StoreReader& reader, AggregateKind kind,
    const std::vector<ChunkPartial>& partials) {
  AggregateResult result;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  double sum_bound = 0.0;
  double point_bound = 0.0;
  // ε/(1−ε) maps a bound relative to raw values onto reconstructed ones;
  // lossless chunks contribute zero regardless.
  const double eb = reader.header().error_bound;
  const double factor = eb / (1.0 - eb);
  for (const ChunkPartial& partial : partials) {
    sum += partial.sum;
    min = std::min(min, partial.min);
    max = std::max(max, partial.max);
    result.count += partial.count;
    if (!partial.lossless) {
      sum_bound += factor * partial.abs_sum;
      point_bound = std::max(point_bound, factor * partial.max_abs);
    }
    if (partial.pushdown) {
      ++result.pushdown_chunks;
    } else {
      ++result.decoded_chunks;
    }
  }

  if (result.count == 0 &&
      (kind == AggregateKind::kMin || kind == AggregateKind::kMax ||
       kind == AggregateKind::kMean)) {
    return Status::OutOfRange("empty selection has no " +
                              std::string(AggregateKindName(kind)));
  }
  switch (kind) {
    case AggregateKind::kMin:
      result.value = min;
      result.error_bound = point_bound;
      break;
    case AggregateKind::kMax:
      result.value = max;
      result.error_bound = point_bound;
      break;
    case AggregateKind::kSum:
      result.value = sum;
      result.error_bound = sum_bound;
      break;
    case AggregateKind::kCount:
      result.value = static_cast<double>(result.count);
      result.error_bound = 0.0;
      break;
    case AggregateKind::kMean:
      result.value = sum / static_cast<double>(result.count);
      result.error_bound = sum_bound / static_cast<double>(result.count);
      break;
  }
  return result;
}

}  // namespace

Result<AggregateKind> ParseAggregateKind(const std::string& name) {
  if (name == "MIN") return AggregateKind::kMin;
  if (name == "MAX") return AggregateKind::kMax;
  if (name == "SUM") return AggregateKind::kSum;
  if (name == "COUNT") return AggregateKind::kCount;
  if (name == "MEAN") return AggregateKind::kMean;
  return Status::InvalidArgument(
      "unknown aggregate '" + name + "' (expected MIN/MAX/SUM/COUNT/MEAN)");
}

const char* AggregateKindName(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kMin:
      return "MIN";
    case AggregateKind::kMax:
      return "MAX";
    case AggregateKind::kSum:
      return "SUM";
    case AggregateKind::kCount:
      return "COUNT";
    case AggregateKind::kMean:
      return "MEAN";
  }
  return "?";
}

Result<AggregateResult> AggregateRange(const StoreReader& reader,
                                       AggregateKind kind, int64_t t0,
                                       int64_t t1,
                                       const AggregateOptions& options) {
  std::vector<const StoreReader*> readers = {&reader};
  Result<std::vector<AggregateResult>> results =
      AggregateStores(readers, kind, t0, t1, options);
  if (!results.ok()) return results.status();
  return std::move((*results)[0]);
}

Result<std::vector<AggregateResult>> AggregateStores(
    const std::vector<const StoreReader*>& readers, AggregateKind kind,
    int64_t t0, int64_t t1, const AggregateOptions& options) {
  // Resolve every store's selection first so invalid arguments surface
  // before any work is scheduled.
  std::vector<StoreReader::Selection> selections;
  selections.reserve(readers.size());
  for (const StoreReader* reader : readers) {
    Result<StoreReader::Selection> sel = reader->Select(t0, t1);
    if (!sel.ok()) return sel.status();
    selections.push_back(*sel);
  }

  // One task per (store, chunk) on a shared pool; each writes its own slot.
  struct Slot {
    size_t store = 0;
    size_t chunk = 0;
    Result<ChunkPartial> partial = Status::Internal("partial did not run");
  };
  std::vector<Slot> slots;
  for (size_t s = 0; s < readers.size(); ++s) {
    const StoreReader::Selection& sel = selections[s];
    if (sel.count == 0) continue;
    for (size_t c = sel.first_chunk; c <= sel.last_chunk; ++c) {
      Slot slot;
      slot.store = s;
      slot.chunk = c;
      slots.push_back(std::move(slot));
    }
  }
  {
    ThreadPool pool(options.jobs);
    for (size_t i = 0; i < slots.size(); ++i) {
      pool.Submit([&readers, &selections, &slots, &options, i]() {
        Slot& slot = slots[i];
        const StoreReader& reader = *readers[slot.store];
        uint32_t first = 0;
        uint32_t last = 0;
        LocalSpan(reader, selections[slot.store], slot.chunk, first, last);
        slot.partial = ComputeChunkPartial(reader, slot.chunk, first, last,
                                           options.allow_pushdown);
      });
    }
    pool.Wait();
  }

  // Merge in canonical (store, chunk) order — slots were built that way.
  std::vector<AggregateResult> results;
  results.reserve(readers.size());
  size_t cursor = 0;
  for (size_t s = 0; s < readers.size(); ++s) {
    std::vector<ChunkPartial> partials;
    while (cursor < slots.size() && slots[cursor].store == s) {
      if (!slots[cursor].partial.ok()) return slots[cursor].partial.status();
      partials.push_back(*slots[cursor].partial);
      ++cursor;
    }
    Result<AggregateResult> merged = MergePartials(*readers[s], kind, partials);
    if (!merged.ok()) return merged.status();
    results.push_back(*merged);
  }
  return results;
}

}  // namespace lossyts::store
