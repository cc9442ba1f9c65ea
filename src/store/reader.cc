#include "store/reader.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "compress/chimp.h"
#include "compress/gorilla.h"
#include "compress/pipeline.h"
#include "compress/segments.h"
#include "compress/serde.h"
#include "core/thread_pool.h"
#include "zip/crc32.h"
#include "zip/frame.h"

namespace lossyts::store {

Result<std::unique_ptr<StoreReader>> StoreReader::Open(
    const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file.is_open()) {
    return Status::NotFound("no store file at " + path);
  }
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(file)),
                             std::istreambuf_iterator<char>());
  if (file.bad()) {
    return Status::IoError("reading " + path + " failed");
  }
  return OpenBytes(std::move(bytes));
}

Result<std::unique_ptr<StoreReader>> StoreReader::OpenBytes(
    std::vector<uint8_t> bytes) {
  std::unique_ptr<StoreReader> reader(new StoreReader());
  if (Status s = reader->Load(std::move(bytes)); !s.ok()) return s;
  return reader;
}

Status StoreReader::Load(std::vector<uint8_t> bytes) {
  bytes_ = std::move(bytes);
  compress::ByteReader reader(bytes_);
  Result<StoreHeader> header = ReadStoreHeader(reader);
  if (!header.ok()) return header.status();
  header_ = std::move(*header);
  const size_t data_begin = reader.position();

  // A valid footer at EOF switches Load into strict (complete) mode.
  bool footer_valid = false;
  uint64_t index_offset = 0;
  uint32_t footer_chunks = 0;
  if (bytes_.size() >= data_begin + kFooterSize) {
    compress::ByteReader footer(bytes_.data() + (bytes_.size() - kFooterSize),
                                kFooterSize);
    const uint32_t magic = *footer.GetU32();
    const uint8_t* body = footer.current();
    index_offset = *footer.GetU64();
    footer_chunks = *footer.GetU32();
    footer_valid = magic == kFooterMagic &&
                   *footer.GetU32() == zip::ComputeCrc32(body, 12);
  }

  // Complete mode: the index must parse, the chunk scan must consume
  // exactly the frame region, and the two must agree entry-for-entry.
  std::vector<ChunkInfo> expected;
  if (footer_valid) {
    if (index_offset < data_begin ||
        index_offset > bytes_.size() - kFooterSize) {
      return Status::Corruption("store footer points outside the file");
    }
    compress::ByteReader index(bytes_.data() + index_offset,
                               bytes_.size() - kFooterSize - index_offset);
    if (index.remaining() < 8 || *index.GetU32() != kIndexMagic) {
      return Status::Corruption("store index has a bad magic");
    }
    const uint32_t entry_count = *index.GetU32();
    if (entry_count != footer_chunks) {
      return Status::Corruption("store index and footer disagree on count");
    }
    const uint64_t entries_size =
        static_cast<uint64_t>(entry_count) * kIndexEntrySize;
    if (index.remaining() != entries_size + 4) {
      return Status::Corruption("store index size is inconsistent");
    }
    // The size check above guarantees every read below succeeds.
    const uint8_t* entries_begin = index.current();
    expected.reserve(std::min<size_t>(entry_count, size_t{1} << 16));
    for (uint32_t i = 0; i < entry_count; ++i) {
      ChunkInfo info;
      info.offset = *index.GetU64();
      info.first_timestamp = *index.GetI64();
      info.num_points = *index.GetU32();
      const uint8_t alg = *index.GetU8();
      if (!IsKnownAlgorithm(alg)) {
        return Status::Corruption("store index entry has an unknown codec");
      }
      info.algorithm = static_cast<compress::AlgorithmId>(alg);
      expected.push_back(info);
    }
    if (*index.GetU32() != zip::ComputeCrc32(entries_begin, entries_size)) {
      return Status::Corruption("store index checksum mismatch");
    }
  }

  // One scan serves both modes: salvage keeps the longest valid prefix of
  // chunk frames up to EOF, complete mode needs the frames to tile the data
  // region exactly and to match the index.
  const size_t data_end = footer_valid ? index_offset : bytes_.size();
  const zip::FrameScan scan = zip::ScanFrames(
      bytes_.data(), data_begin, data_end, kChunkMagic, kChunkMaxPayload,
      [&](const zip::Frame& frame, size_t offset) -> Status {
        Result<ChunkInfo> info =
            ParseChunkFrame(frame, offset, header_.chunk_span);
        if (!info.ok()) return info.status();
        if (chunks_.empty()) {
          start_timestamp_ = info->first_timestamp;
          interval_ = info->interval_seconds;
        } else {
          const ChunkInfo& prev = chunks_.back();
          if (info->interval_seconds != interval_ ||
              info->first_timestamp !=
                  prev.first_timestamp +
                      static_cast<int64_t>(prev.num_points) * interval_) {
            return Status::Corruption(
                "store chunks do not chain on the time grid");
          }
        }
        if (footer_valid) {
          const size_t i = chunks_.size();
          if (i == expected.size()) {
            return Status::Corruption("store has chunk data the index omits");
          }
          if (info->offset != expected[i].offset ||
              info->first_timestamp != expected[i].first_timestamp ||
              info->num_points != expected[i].num_points ||
              info->algorithm != expected[i].algorithm) {
            return Status::Corruption("store index disagrees with chunk " +
                                      std::to_string(i));
          }
        }
        chunks_.push_back(*info);
        return Status::OK();
      });
  if (footer_valid) {
    if (!scan.status.ok()) return scan.status;
    if (chunks_.size() != expected.size()) {
      return Status::Corruption("store index lists more chunks than exist");
    }
  }
  clean_ = footer_valid;

  chunk_start_index_.reserve(chunks_.size());
  for (const ChunkInfo& chunk : chunks_) {
    chunk_start_index_.push_back(total_points_);
    total_points_ += chunk.num_points;
  }
  return Status::OK();
}

int64_t StoreReader::last_timestamp() const {
  if (total_points_ == 0) return start_timestamp_;
  return start_timestamp_ +
         static_cast<int64_t>(total_points_ - 1) * interval_;
}

std::vector<uint8_t> StoreReader::ChunkPayload(size_t index) const {
  const ChunkInfo& chunk = chunks_[index];
  const uint8_t* begin =
      bytes_.data() + chunk.offset + zip::kFrameHeaderSize;
  return std::vector<uint8_t>(begin, begin + chunk.payload_size);
}

void StoreReader::TouchLocked(std::map<size_t, CacheEntry>::iterator it)
    const {
  lru_.splice(lru_.begin(), lru_, it->second.lru);
}

std::shared_ptr<const std::vector<double>> StoreReader::InsertLocked(
    size_t index, std::shared_ptr<const std::vector<double>> values) const {
  auto it = cache_.find(index);
  if (it != cache_.end()) {
    // A racing decode got here first; keep its entry (identical values).
    TouchLocked(it);
    return it->second.values;
  }
  lru_.push_front(index);
  cache_.emplace(index, CacheEntry{values, lru_.begin()});
  while (cache_.size() > cache_capacity_) {
    cache_.erase(lru_.back());
    lru_.pop_back();
  }
  return values;
}

Result<std::shared_ptr<const std::vector<double>>>
StoreReader::DecodeChunkValues(size_t index) const {
  if (index >= chunks_.size()) {
    return Status::OutOfRange("chunk index " + std::to_string(index) +
                              " out of range");
  }
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = cache_.find(index);
    if (it != cache_.end()) {
      ++cache_hits_;
      TouchLocked(it);
      return it->second.values;
    }
  }
  // Decode outside the lock so parallel range scans overlap; two threads
  // racing on the same cold chunk both decode (each counting a miss) and
  // the first insert wins — the values are identical either way.
  Result<TimeSeries> decoded = compress::DecompressAny(ChunkPayload(index));
  if (!decoded.ok()) return decoded.status();
  if (decoded->size() != chunks_[index].num_points) {
    return Status::Corruption("chunk decoded to an unexpected point count");
  }
  auto values = std::make_shared<const std::vector<double>>(
      std::move(decoded->mutable_values()));
  std::lock_guard<std::mutex> lock(cache_mu_);
  ++cache_misses_;
  return InsertLocked(index, std::move(values));
}

Result<StoreReader::Selection> StoreReader::Select(int64_t t0,
                                                   int64_t t1) const {
  if (t0 > t1) {
    return Status::InvalidArgument("inverted time range");
  }
  Selection sel;
  if (total_points_ == 0 || t1 < start_timestamp_ || t0 > last_timestamp()) {
    return sel;  // count == 0: empty intersection.
  }
  const int64_t interval = interval_;
  uint64_t g0 = 0;
  if (t0 > start_timestamp_) {
    g0 = static_cast<uint64_t>((t0 - start_timestamp_ + interval - 1) /
                               interval);
  }
  uint64_t g1 = total_points_ - 1;
  if (t1 < last_timestamp()) {
    g1 = static_cast<uint64_t>((t1 - start_timestamp_) / interval);
  }
  if (g0 > g1) return sel;

  // Chunk containing a global index: the last start_index <= g.
  auto chunk_of = [this](uint64_t g) {
    auto it = std::upper_bound(chunk_start_index_.begin(),
                               chunk_start_index_.end(), g);
    return static_cast<size_t>(it - chunk_start_index_.begin()) - 1;
  };
  sel.first_chunk = chunk_of(g0);
  sel.last_chunk = chunk_of(g1);
  sel.first_local =
      static_cast<uint32_t>(g0 - chunk_start_index_[sel.first_chunk]);
  sel.last_local =
      static_cast<uint32_t>(g1 - chunk_start_index_[sel.last_chunk]);
  sel.count = g1 - g0 + 1;
  sel.start_timestamp =
      start_timestamp_ + static_cast<int64_t>(g0) * interval;
  return sel;
}

Result<double> StoreReader::ReadPoint(int64_t timestamp) const {
  if (total_points_ == 0) {
    return Status::NotFound("the store is empty");
  }
  if (timestamp < start_timestamp_ || timestamp > last_timestamp()) {
    return Status::NotFound("timestamp " + std::to_string(timestamp) +
                            " is outside the stored range");
  }
  if ((timestamp - start_timestamp_) % interval_ != 0) {
    return Status::InvalidArgument("timestamp " + std::to_string(timestamp) +
                                   " is off the sampling grid");
  }
  const uint64_t g =
      static_cast<uint64_t>((timestamp - start_timestamp_) / interval_);
  auto it = std::upper_bound(chunk_start_index_.begin(),
                             chunk_start_index_.end(), g);
  const size_t chunk_index =
      static_cast<size_t>(it - chunk_start_index_.begin()) - 1;
  const size_t k = static_cast<size_t>(g - chunk_start_index_[chunk_index]);
  const ChunkInfo& chunk = chunks_[chunk_index];

  // An already-decoded chunk answers from the cache regardless of codec.
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto cached = cache_.find(chunk_index);
    if (cached != cache_.end()) {
      ++cache_hits_;
      TouchLocked(cached);
      return (*cached->second.values)[k];
    }
  }

  switch (chunk.algorithm) {
    case compress::AlgorithmId::kPmc:
    case compress::AlgorithmId::kSwing: {
      // Model chunks: walk the segment list, no point materialization.
      Result<compress::SegmentSet> set =
          compress::ParseSegments(ChunkPayload(chunk_index), chunk.algorithm);
      if (!set.ok()) return set.status();
      for (const compress::SegmentModel& segment : set->segments) {
        if (k < segment.start_index + segment.length) {
          return segment.ValueAt(k - segment.start_index);
        }
      }
      return Status::Corruption("chunk segments do not cover the point");
    }
    case compress::AlgorithmId::kGorilla: {
      Result<TimeSeries> prefix =
          compress::GorillaCompressor().DecompressPrefix(
              ChunkPayload(chunk_index), k + 1);
      if (!prefix.ok()) return prefix.status();
      return prefix->values().back();
    }
    case compress::AlgorithmId::kChimp: {
      Result<TimeSeries> prefix = compress::ChimpCompressor().DecompressPrefix(
          ChunkPayload(chunk_index), k + 1);
      if (!prefix.ok()) return prefix.status();
      return prefix->values().back();
    }
    default: {
      // SZ (and any future codec without a cheaper path): full decode, which
      // also warms the cache for neighbouring reads.
      Result<std::shared_ptr<const std::vector<double>>> values =
          DecodeChunkValues(chunk_index);
      if (!values.ok()) return values.status();
      return (**values)[k];
    }
  }
}

Result<TimeSeries> StoreReader::ReadRange(int64_t t0, int64_t t1,
                                          int jobs) const {
  Result<Selection> selection = Select(t0, t1);
  if (!selection.ok()) return selection.status();
  if (selection->count == 0) {
    return TimeSeries(start_timestamp_, interval_, {});
  }
  const Selection& sel = *selection;
  const size_t n_chunks = sel.last_chunk - sel.first_chunk + 1;

  // Slot-indexed parallel decode, merged in chunk order below — the output
  // is byte-identical for every jobs value.
  std::vector<Result<std::shared_ptr<const std::vector<double>>>> slots(
      n_chunks, Status::Internal("chunk decode did not run"));
  {
    ThreadPool pool(jobs);
    for (size_t i = 0; i < n_chunks; ++i) {
      pool.Submit([this, &slots, &sel, i]() {
        slots[i] = DecodeChunkValues(sel.first_chunk + i);
      });
    }
    pool.Wait();
  }
  for (size_t i = 0; i < n_chunks; ++i) {
    if (!slots[i].ok()) return slots[i].status();
  }

  std::vector<double> values;
  values.reserve(sel.count);
  for (size_t i = 0; i < n_chunks; ++i) {
    const size_t chunk_index = sel.first_chunk + i;
    const std::vector<double>& decoded = **slots[i];
    const size_t from = chunk_index == sel.first_chunk ? sel.first_local : 0;
    const size_t to = chunk_index == sel.last_chunk
                          ? sel.last_local
                          : chunks_[chunk_index].num_points - 1;
    values.insert(values.end(), decoded.begin() + from,
                  decoded.begin() + to + 1);
  }
  return TimeSeries(sel.start_timestamp, interval_, std::move(values));
}

Result<TimeSeries> StoreReader::ReadAll(int jobs) const {
  if (total_points_ == 0) {
    return TimeSeries(start_timestamp_, interval_, {});
  }
  return ReadRange(start_timestamp_, last_timestamp(), jobs);
}

uint64_t StoreReader::cache_hits() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_hits_;
}

uint64_t StoreReader::cache_misses() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_misses_;
}

void StoreReader::ClearChunkCache() {
  std::lock_guard<std::mutex> lock(cache_mu_);
  cache_.clear();
  lru_.clear();
}

size_t StoreReader::cached_chunks() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_.size();
}

size_t StoreReader::chunk_cache_capacity() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_capacity_;
}

void StoreReader::SetChunkCacheCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  cache_capacity_ = capacity < 1 ? 1 : capacity;
  while (cache_.size() > cache_capacity_) {
    cache_.erase(lru_.back());
    lru_.pop_back();
  }
}

}  // namespace lossyts::store
