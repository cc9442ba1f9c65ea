#ifndef LOSSYTS_COMPRESS_SERDE_H_
#define LOSSYTS_COMPRESS_SERDE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/status.h"

namespace lossyts::compress {

/// Little-endian byte-level writer for compressed payload headers and model
/// coefficient streams.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { bytes_.push_back(v); }
  void PutU16(uint16_t v) {
    for (int i = 0; i < 2; ++i) bytes_.push_back((v >> (8 * i)) & 0xFF);
  }
  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes_.push_back((v >> (8 * i)) & 0xFF);
  }
  void PutU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back((v >> (8 * i)) & 0xFF);
  }
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }
  void PutBytes(const std::vector<uint8_t>& data) {
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }

  size_t size() const { return bytes_.size(); }
  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> Finish() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

/// Writes a size_t count as u32, failing instead of silently truncating when
/// the count does not fit. Segment/model/symbol counts are stored as u32 on
/// the wire; a count past 2^32-1 would otherwise wrap and decode as a shorter
/// stream that still parses, corrupting the reconstruction undetectably.
inline Status PutCountU32(ByteWriter& writer, size_t count,
                          const char* what) {
  if (count > 0xFFFFFFFFull) {
    return Status::Internal(std::string(what) +
                            " count exceeds the u32 wire format: " +
                            std::to_string(count));
  }
  writer.PutU32(static_cast<uint32_t>(count));
  return Status::OK();
}

/// Little-endian byte-level reader; every accessor bounds-checks and returns
/// Corruption past the end so malformed blobs never crash decompression.
class ByteReader {
 public:
  explicit ByteReader(const std::vector<uint8_t>& bytes)
      : data_(bytes.data()), size_(bytes.size()) {}
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  Result<uint8_t> GetU8() {
    if (pos_ + 1 > size_) return Eof();
    return data_[pos_++];
  }
  Result<uint16_t> GetU16() {
    if (pos_ + 2 > size_) return Eof();
    uint16_t v = 0;
    for (int i = 0; i < 2; ++i) v |= static_cast<uint16_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  Result<uint32_t> GetU32() {
    if (pos_ + 4 > size_) return Eof();
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  Result<uint64_t> GetU64() {
    if (pos_ + 8 > size_) return Eof();
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  Result<int32_t> GetI32() {
    Result<uint32_t> v = GetU32();
    if (!v.ok()) return v.status();
    return static_cast<int32_t>(*v);
  }
  Result<int64_t> GetI64() {
    Result<uint64_t> v = GetU64();
    if (!v.ok()) return v.status();
    return static_cast<int64_t>(*v);
  }
  Result<double> GetDouble() {
    Result<uint64_t> bits = GetU64();
    if (!bits.ok()) return bits.status();
    double v;
    uint64_t b = *bits;
    std::memcpy(&v, &b, sizeof(v));
    return v;
  }

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }
  const uint8_t* current() const { return data_ + pos_; }
  /// Advances past `n` bytes. Corruption (with the cursor clamped to the end,
  /// so remaining() never underflows) when fewer than `n` bytes remain — a
  /// corrupted length field must not teleport the cursor out of the buffer.
  Status Skip(size_t n) {
    if (n > remaining()) {
      pos_ = size_;
      return Eof();
    }
    pos_ += n;
    return Status::OK();
  }

 private:
  static Status Eof() {
    return Status::Corruption("compressed payload truncated");
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace lossyts::compress

#endif  // LOSSYTS_COMPRESS_SERDE_H_
