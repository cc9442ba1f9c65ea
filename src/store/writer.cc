#include "store/writer.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <utility>

#include "compress/pipeline.h"
#include "compress/serde.h"
#include "core/failpoint.h"
#include "zip/crc32.h"
#include "zip/frame.h"

namespace lossyts::store {

namespace {

/// fsyncs the directory containing `path` so a freshly created file's
/// directory entry survives power loss (the classic create-then-crash hole).
Status SyncParentDirectory(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IoError("cannot open directory " + dir + " for fsync: " +
                           std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IoError("fsync of directory " + dir + " failed: " +
                           std::strerror(errno));
  }
  return Status::OK();
}

/// The first `size` bytes of the file at `path`, or all of it if shorter.
Result<std::vector<uint8_t>> ReadHead(const std::string& path, uint64_t size) {
  std::ifstream file(path, std::ios::binary);
  if (!file.is_open()) return Status::IoError("cannot open " + path);
  std::vector<uint8_t> bytes(size);
  file.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(size));
  if (file.bad()) return Status::IoError("reading " + path + " failed");
  bytes.resize(static_cast<size_t>(file.gcount()));
  return bytes;
}

bool AllFinite(const std::vector<double>& values) {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

}  // namespace

Result<std::unique_ptr<StoreWriter>> StoreWriter::Create(
    const std::string& path, const StoreOptions& options) {
  if (Status s = compress::CheckErrorBound(options.error_bound); !s.ok()) {
    return s;
  }
  if (options.chunk_span == 0) {
    return Status::InvalidArgument("chunk span must be >= 1");
  }
  if (options.chunk_span > 65535) {
    // A chunk is one codec blob, and PMC/Swing segment lengths are u16; a
    // span past that could not even represent a single-segment chunk.
    return Status::InvalidArgument(
        "chunk span exceeds the u16 segment-length wire format: " +
        std::to_string(options.chunk_span));
  }

  const StoreHeader header = HeaderFor(options);
  std::unique_ptr<StoreWriter> writer(new StoreWriter());
  writer->options_ = options;
  writer->options_.codecs = header.codecs;
  if (writer->options_.codecs.size() > 255) {
    return Status::InvalidArgument("too many codecs for the u8 header field");
  }
  for (const std::string& name : writer->options_.codecs) {
    if (name.size() > 255) {
      return Status::InvalidArgument("codec name too long: " + name);
    }
    Result<std::unique_ptr<compress::Compressor>> codec =
        compress::MakeCompressor(name);
    if (!codec.ok()) return codec.status();
    writer->codecs_.push_back(std::move(*codec));
  }

  writer->path_ = path;
  writer->fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (writer->fd_ < 0) {
    return Status::IoError("cannot open " + path + " for writing: " +
                           std::strerror(errno));
  }
  if (options.sync) {
    // Make the directory entry itself durable; without this a power loss
    // after Finish could forget the file ever existed.
    if (Status s = SyncParentDirectory(path); !s.ok()) return s;
  }

  const std::vector<uint8_t> bytes = EncodeStoreHeader(header);
  if (Status s = writer->WriteAll(bytes.data(), bytes.size()); !s.ok()) {
    return s;
  }
  return writer;
}

Result<std::unique_ptr<StoreWriter>> StoreWriter::CreateFromPrefix(
    const std::string& path, const StoreOptions& options,
    const std::string& source, const ChunkPrefix& prefix) {
  if (prefix.chunks.empty()) return Create(path, options);
  Result<std::vector<uint8_t>> bytes = ReadHead(source, prefix.end_offset);
  if (!bytes.ok()) return bytes.status();
  const std::vector<uint8_t> header = EncodeStoreHeader(HeaderFor(options));
  if (bytes->size() < header.size() ||
      !std::equal(header.begin(), header.end(), bytes->begin())) {
    return Status::Corruption(source + " has another store header");
  }
  size_t next = 0;
  const zip::FrameScan scan = zip::ScanFrames(
      bytes->data(), header.size(), bytes->size(), kChunkMagic,
      kChunkMaxPayload, [&](const zip::Frame& frame, size_t offset) -> Status {
        Result<ChunkInfo> info =
            ParseChunkFrame(frame, offset, options.chunk_span);
        if (!info.ok()) return info.status();
        if (next == prefix.chunks.size() || *info != prefix.chunks[next] ||
            info->num_points != options.chunk_span) {
          return Status::Corruption("chunk " + std::to_string(next) + " of " +
                                    source + " is not the expected full chunk");
        }
        ++next;
        return Status::OK();
      });
  if (!scan.status.ok()) return scan.status;
  if (next != prefix.chunks.size()) {
    return Status::Corruption(source + " ends inside its chunk prefix");
  }

  Result<std::unique_ptr<StoreWriter>> writer = Create(path, options);
  if (!writer.ok()) return writer;
  StoreWriter& w = **writer;
  if (Status s = w.WriteAll(bytes->data() + header.size(),
                            bytes->size() - header.size());
      !s.ok()) {
    return s;
  }
  w.chunks_ = prefix.chunks;
  w.points_flushed_ =
      static_cast<uint64_t>(prefix.chunks.size()) * options.chunk_span;
  w.start_timestamp_ = prefix.chunks.front().first_timestamp;
  w.interval_ = prefix.chunks.front().interval_seconds;
  w.grid_fixed_ = true;
  return writer;
}

StoreWriter::~StoreWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status StoreWriter::WriteAll(const uint8_t* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd_, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      failed_ = true;
      return Status::IoError("write to " + path_ + " failed: " +
                             std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  offset_ += size;
  return Status::OK();
}

Status StoreWriter::SyncFile() {
  if (!options_.sync) return Status::OK();
  if (::fsync(fd_) != 0) {
    failed_ = true;
    return Status::IoError("fsync of " + path_ + " failed: " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status StoreWriter::WriteChunk(const std::vector<double>& values,
                               int64_t first_timestamp) {
  TimeSeries chunk(first_timestamp, interval_, values);

  // Trial-compress with every configured codec; smallest blob wins, ties
  // break toward the earlier codec (part of the determinism contract). Lossy
  // codecs reject non-finite values, so skip them outright for such chunks
  // instead of collecting per-codec errors.
  const bool finite = AllFinite(values);
  std::vector<uint8_t> best;
  Status first_error = Status::OK();
  for (size_t i = 0; i < codecs_.size(); ++i) {
    const std::string_view name = codecs_[i]->name();
    const bool lossless = name == "GORILLA" || name == "CHIMP";
    if (!finite && !lossless) continue;
    Result<std::vector<uint8_t>> blob =
        codecs_[i]->Compress(chunk, options_.error_bound);
    if (!blob.ok()) {
      if (first_error.ok()) first_error = blob.status();
      continue;
    }
    if (best.empty() || blob->size() < best.size()) best = std::move(*blob);
  }
  if (best.empty()) {
    failed_ = true;
    if (!first_error.ok()) return first_error;
    return Status::InvalidArgument(
        "no configured codec can compress this chunk (non-finite values "
        "and no lossless codec in the list?)");
  }

  Result<std::vector<uint8_t>> bytes =
      zip::EncodeFrame(kChunkMagic, kChunkMaxPayload, best);
  if (!bytes.ok()) {
    failed_ = true;
    return bytes.status();
  }

  ChunkInfo info;
  info.offset = offset_;
  info.first_timestamp = first_timestamp;
  info.num_points = static_cast<uint32_t>(values.size());
  info.algorithm = static_cast<compress::AlgorithmId>(best[0]);
  info.payload_size = static_cast<uint32_t>(best.size());
  info.interval_seconds = interval_;

  // Crash injection: when the failpoint fires, half the frame reaches the
  // file (a torn tail the reader's CRC scan must drop) and the writer is
  // dead — exactly the state a killed process leaves behind.
  Status crash = FailPoints::Hit("store_write");
  if (!crash.ok()) {
    // Best effort: the writer is dead either way.
    (void)WriteAll(bytes->data(), bytes->size() / 2);
    failed_ = true;
    return crash;
  }

  if (Status s = WriteAll(bytes->data(), bytes->size()); !s.ok()) return s;
  chunks_.push_back(info);
  points_flushed_ += values.size();
  return Status::OK();
}

Status StoreWriter::Append(const TimeSeries& series) {
  if (finished_) {
    return Status::FailedPrecondition("store writer is already finished");
  }
  if (failed_) {
    return Status::FailedPrecondition("store writer failed earlier");
  }
  if (series.empty()) return Status::OK();
  if (series.interval_seconds() <= 0) {
    return Status::InvalidArgument("store requires a positive interval");
  }

  if (!grid_fixed_) {
    start_timestamp_ = series.start_timestamp();
    interval_ = series.interval_seconds();
    grid_fixed_ = true;
  } else {
    if (series.interval_seconds() != interval_) {
      return Status::InvalidArgument(
          "append interval " + std::to_string(series.interval_seconds()) +
          " does not match the store's " + std::to_string(interval_));
    }
    const int64_t expected =
        start_timestamp_ +
        static_cast<int64_t>(points_written()) * interval_;
    if (series.start_timestamp() != expected) {
      return Status::InvalidArgument(
          "append breaks the regular grid: expected timestamp " +
          std::to_string(expected) + ", got " +
          std::to_string(series.start_timestamp()));
    }
  }

  for (double v : series.values()) buffer_.push_back(v);
  points_buffered_ = buffer_.size();

  // Write every full chunk, then drop the written prefix with one erase —
  // also when a write fails part-way, so the buffer never re-holds points
  // that are already in a chunk.
  size_t written = 0;
  Status status = Status::OK();
  while (buffer_.size() - written >= options_.chunk_span) {
    const auto begin = buffer_.begin() + static_cast<ptrdiff_t>(written);
    const std::vector<double> chunk(begin, begin + options_.chunk_span);
    const int64_t first_ts =
        start_timestamp_ + static_cast<int64_t>(points_flushed_) * interval_;
    status = WriteChunk(chunk, first_ts);
    if (!status.ok()) break;
    written += options_.chunk_span;
  }
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<ptrdiff_t>(written));
  points_buffered_ = buffer_.size();
  return status;
}

Status StoreWriter::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("store writer is already finished");
  }
  if (failed_) {
    return Status::FailedPrecondition("store writer failed earlier");
  }
  if (!buffer_.empty()) {
    const int64_t first_ts =
        start_timestamp_ + static_cast<int64_t>(points_flushed_) * interval_;
    if (Status s = WriteChunk(buffer_, first_ts); !s.ok()) return s;
    buffer_.clear();
    points_buffered_ = 0;
  }

  // Durability barrier: every chunk frame must be on stable storage before
  // the footer that declares the file complete goes out, otherwise a power
  // loss could leave a footer-valid file whose data region is torn — the one
  // state the strict open trusts without a salvage scan.
  if (Status s = SyncFile(); !s.ok()) return s;

  const uint64_t index_offset = offset_;
  compress::ByteWriter entries;
  for (const ChunkInfo& chunk : chunks_) {
    entries.PutU64(chunk.offset);
    entries.PutI64(chunk.first_timestamp);
    entries.PutU32(chunk.num_points);
    entries.PutU8(static_cast<uint8_t>(chunk.algorithm));
  }
  std::vector<uint8_t> entry_bytes = entries.Finish();

  compress::ByteWriter tail;
  tail.PutU32(kIndexMagic);
  if (Status s = compress::PutCountU32(tail, chunks_.size(), "index entry");
      !s.ok()) {
    failed_ = true;
    return s;
  }
  tail.PutBytes(entry_bytes);
  tail.PutU32(zip::ComputeCrc32(entry_bytes.data(), entry_bytes.size()));

  compress::ByteWriter footer_body;
  footer_body.PutU64(index_offset);
  footer_body.PutU32(static_cast<uint32_t>(chunks_.size()));
  std::vector<uint8_t> footer_bytes = footer_body.Finish();
  tail.PutU32(kFooterMagic);
  tail.PutBytes(footer_bytes);
  tail.PutU32(zip::ComputeCrc32(footer_bytes.data(), footer_bytes.size()));

  Status crash = FailPoints::Hit("store_write");
  if (!crash.ok()) {
    // A crash between the last chunk and the footer: the reader salvages
    // every chunk but reports the file as not clean.
    failed_ = true;
    return crash;
  }

  const std::vector<uint8_t> tail_bytes = tail.Finish();
  if (Status s = WriteAll(tail_bytes.data(), tail_bytes.size()); !s.ok()) {
    return s;
  }
  if (Status s = SyncFile(); !s.ok()) return s;
  if (::close(fd_) != 0) {
    fd_ = -1;
    failed_ = true;
    return Status::IoError("closing " + path_ + " failed: " +
                           std::strerror(errno));
  }
  fd_ = -1;
  finished_ = true;
  return Status::OK();
}

}  // namespace lossyts::store
