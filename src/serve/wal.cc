#include "serve/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>

#include "compress/serde.h"
#include "core/failpoint.h"
#include "zip/crc32.h"
#include "zip/frame.h"

namespace lossyts::serve {

namespace {

Status WriteFully(int fd, const uint8_t* data, size_t size,
                  const std::string& path) {
  size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("write to " + path + " failed: " +
                             std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

std::vector<uint8_t> EncodeWalHeader() {
  compress::ByteWriter writer;
  writer.PutU32(kWalMagic);
  writer.PutU8(kWalVersion);
  const uint8_t version = kWalVersion;
  writer.PutU32(zip::ComputeCrc32(&version, 1));
  return writer.Finish();
}

/// The record payload layout, for compress::WireWriter and WireReader.
template <typename W, compress::MaybeConst<WalRecord> R>
void Walk(W& w, R& record) {
  w.Field(record.series);
  w.Field(record.first_timestamp);
  w.Field(record.interval_seconds);
  w.Field(record.first_index);
  w.Field(record.values);
}

/// Decodes one record payload; any defect returns Corruption, which the
/// caller treats as "the valid prefix ends here".
Result<WalRecord> ParseRecordPayload(const zip::Frame& frame) {
  compress::WireReader reader(frame.payload, frame.payload_size);
  WalRecord record;
  Walk(reader, record);
  // The count must account for the rest of the payload exactly; anything
  // else is a corrupt or spliced length field.
  if (Status s = reader.Finish(); !s.ok()) return s;
  if (record.series.empty()) {
    return Status::Corruption("wal record with an empty id");
  }
  if (record.interval_seconds <= 0) {
    return Status::Corruption("wal record with a non-positive interval");
  }
  if (record.values.empty()) {
    return Status::Corruption("wal record with no values");
  }
  return record;
}

}  // namespace

Result<std::vector<uint8_t>> EncodeWalRecord(const WalRecord& record) {
  compress::WireWriter writer;
  writer.Field(uint64_t{0});  // The frame header, filled in by SealFrame.
  Walk(writer, record);
  Result<std::vector<uint8_t>> frame = writer.Finish();
  if (!frame.ok()) return frame.status();
  Status sealed = zip::SealFrame(kWalRecordMagic, kWalMaxPayload, *frame);
  if (!sealed.ok()) return sealed;
  return frame;
}

Result<WalReplay> ReplayWalBytes(const std::vector<uint8_t>& bytes) {
  // A header has exactly one valid form (magic, version, CRC of version).
  const std::vector<uint8_t> header = EncodeWalHeader();
  if (bytes.size() < kWalHeaderSize ||
      !std::equal(header.begin(), header.end(), bytes.begin())) {
    return Status::Corruption("wal file lacks a version " +
                              std::to_string(kWalVersion) + " header");
  }

  WalReplay replay;
  const zip::FrameScan scan = zip::ScanFrames(
      bytes.data(), kWalHeaderSize, bytes.size(), kWalRecordMagic,
      kWalMaxPayload, [&replay](const zip::Frame& frame, size_t) -> Status {
        Result<WalRecord> record = ParseRecordPayload(frame);
        if (!record.ok()) return record.status();
        replay.records.push_back(std::move(*record));
        return Status::OK();
      });
  replay.valid_bytes = scan.valid_end;
  replay.clean = scan.status.ok();
  return replay;
}

Result<WalReplay> ReplayWalFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file.is_open()) return Status::NotFound("no wal file at " + path);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(file)),
                             std::istreambuf_iterator<char>());
  if (file.bad()) return Status::IoError("reading " + path + " failed");
  return ReplayWalBytes(bytes);
}

Status ResetWalFile(const std::string& path) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot create " + tmp + ": " +
                           std::strerror(errno));
  }
  const std::vector<uint8_t> header = EncodeWalHeader();
  Status s = WriteFully(fd, header.data(), header.size(), tmp);
  if (s.ok() && ::fsync(fd) != 0) {
    s = Status::IoError("fsync of " + tmp + " failed: " +
                        std::strerror(errno));
  }
  ::close(fd);
  if (!s.ok()) return s;
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("rename " + tmp + " -> " + path + " failed: " +
                           std::strerror(errno));
  }
  const size_t slash = path.find_last_of('/');
  if (slash != std::string::npos) {
    return SyncDirectory(path.substr(0, slash == 0 ? 1 : slash));
  }
  return Status::OK();
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& path,
                                                   uint64_t valid_bytes) {
  std::unique_ptr<WalWriter> writer(new WalWriter());
  writer->path_ = path;

  struct stat st;
  const bool exists = ::stat(path.c_str(), &st) == 0;
  if (!exists) {
    if (Status s = ResetWalFile(path); !s.ok()) return s;
    valid_bytes = kWalHeaderSize;
  }
  writer->fd_ = ::open(path.c_str(), O_WRONLY);
  if (writer->fd_ < 0) {
    return Status::IoError("cannot open " + path + " for appending: " +
                           std::strerror(errno));
  }
  if (valid_bytes < kWalHeaderSize) {
    return Status::Corruption("wal valid prefix shorter than its header");
  }
  // Drop the torn tail before appending: everything after the valid prefix
  // is garbage a previous kill left behind.
  if (::ftruncate(writer->fd_, static_cast<off_t>(valid_bytes)) != 0) {
    return Status::IoError("truncate of " + path + " failed: " +
                           std::strerror(errno));
  }
  if (::lseek(writer->fd_, 0, SEEK_END) < 0) {
    return Status::IoError("seek in " + path + " failed: " +
                           std::strerror(errno));
  }
  writer->bytes_ = valid_bytes;
  return writer;
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status WalWriter::Append(const WalRecord& record) {
  if (failed_) {
    return Status::FailedPrecondition("wal writer failed earlier");
  }
  if (record.series.empty() || record.series.size() > 255) {
    return Status::InvalidArgument("wal series id must be 1..255 bytes");
  }
  if (record.values.empty()) {
    return Status::InvalidArgument("wal record must carry at least 1 point");
  }
  Result<std::vector<uint8_t>> encoded = EncodeWalRecord(record);
  if (!encoded.ok()) return encoded.status();
  const std::vector<uint8_t>& frame = *encoded;

  // Crash injection: half the frame reaches the log and the writer is dead —
  // the torn tail replay must drop, with every prior record intact.
  Status crash = FailPoints::Hit("wal_write");
  if (!crash.ok()) {
    failed_ = true;
    WriteFully(fd_, frame.data(), frame.size() / 2, path_);
    return crash;
  }

  if (Status s = WriteFully(fd_, frame.data(), frame.size(), path_);
      !s.ok()) {
    failed_ = true;
    return s;
  }
  bytes_ += frame.size();
  return Status::OK();
}

Status WalWriter::Sync() {
  if (failed_) {
    return Status::FailedPrecondition("wal writer failed earlier");
  }
  Status crash = FailPoints::Hit("wal_fsync");
  if (!crash.ok()) {
    failed_ = true;
    return crash;
  }
  if (::fsync(fd_) != 0) {
    failed_ = true;
    return Status::IoError("fsync of " + path_ + " failed: " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status EnsureDirectory(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) {
    return Status::OK();
  }
  return Status::IoError("cannot create directory " + path + ": " +
                         std::strerror(errno));
}

Status SyncDirectory(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IoError("cannot open directory " + path + " for fsync: " +
                           std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IoError("fsync of directory " + path + " failed: " +
                           std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace lossyts::serve
