#ifndef LOSSYTS_COMPRESS_SERDE_H_
#define LOSSYTS_COMPRESS_SERDE_H_

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
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
  void PutBytes(const void* data, size_t size) {
    const uint8_t* begin = static_cast<const uint8_t*>(data);
    bytes_.insert(bytes_.end(), begin, begin + size);
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

// Two-way field walker. A wire layout is written once, as a template over
// the walker `W` and the message type `T` (the struct or its const form):
// run with a WireWriter it appends the fields, run with a WireReader it
// fills them, so the two directions cannot drift apart. Each wire type has
// one overloaded Field call:
//
//   u8, u32, i32, i64, u64, f64  little-endian, as ByteWriter/ByteReader
//   u8-sized enum                one u8 (the reader does not range-check)
//   std::string                  short string: u8 length, then the bytes
//   std::vector<double>          u32 count, then count x f64
//   std::vector<std::string>     u32 count, then count short strings
//
// plus Message (u32 length, then at most kMaxWireMessage bytes) and List
// (u32 count, then each item through a caller-supplied layout). Both walkers
// keep the first error; the reader then reads nothing more.

/// The layout template parameter: `T` is `U` or `const U`.
template <typename T, typename U>
concept MaybeConst = std::same_as<std::remove_const_t<T>, U>;

template <typename E>
concept ByteEnum = std::is_enum_v<E> && sizeof(E) == 1;

/// Longest short string; the writer refuses a longer one.
inline constexpr size_t kMaxShortString = 255;
/// Longest Message; the writer truncates, the reader refuses a longer one.
inline constexpr size_t kMaxWireMessage = 4096;

class WireWriter {
 public:
  void Field(uint8_t v) { out_.PutU8(v); }
  void Field(uint32_t v) { out_.PutU32(v); }
  void Field(int32_t v) { out_.PutI32(v); }
  void Field(int64_t v) { out_.PutI64(v); }
  void Field(uint64_t v) { out_.PutU64(v); }
  void Field(double v) { out_.PutDouble(v); }
  template <ByteEnum E>
  void Field(E v) {
    out_.PutU8(static_cast<uint8_t>(v));
  }
  /// InvalidArgument past kMaxShortString bytes.
  void Field(const std::string& s) {
    if (s.size() > kMaxShortString) {
      Fail(Status::InvalidArgument(
          "string of " + std::to_string(s.size()) +
          " bytes exceeds the wire limit of " +
          std::to_string(kMaxShortString)));
      return;
    }
    out_.PutU8(static_cast<uint8_t>(s.size()));
    out_.PutBytes(s.data(), s.size());
  }
  /// One block copy on little-endian hosts, whose doubles are already in
  /// wire order; one value at a time elsewhere.
  void Field(const std::vector<double>& values) {
    if (!Count(values.size())) return;
    if constexpr (std::endian::native == std::endian::little) {
      out_.PutBytes(values.data(), values.size() * sizeof(double));
    } else {
      for (const double v : values) out_.PutDouble(v);
    }
  }
  void Field(const std::vector<std::string>& list) {
    List(list, [](WireWriter& w, const std::string& s) { w.Field(s); });
  }
  /// Truncated to kMaxWireMessage bytes.
  void Message(const std::string& s) {
    const size_t n = std::min(s.size(), kMaxWireMessage);
    out_.PutU32(static_cast<uint32_t>(n));
    out_.PutBytes(s.data(), n);
  }
  template <typename T, typename Layout>
  void List(const std::vector<T>& items, Layout&& layout) {
    if (!Count(items.size())) return;
    for (const T& item : items) layout(*this, item);
  }

  void Fail(Status status) {
    if (status_.ok()) status_ = std::move(status);
  }
  /// The bytes written, or the first error.
  Result<std::vector<uint8_t>> Finish() {
    if (!status_.ok()) return status_;
    return out_.Finish();
  }

 private:
  bool Count(size_t n) {
    if (n > 0xFFFFFFFFull) {
      Fail(Status::InvalidArgument("list of " + std::to_string(n) +
                                   " items exceeds the u32 wire count"));
      return false;
    }
    out_.PutU32(static_cast<uint32_t>(n));
    return true;
  }

  ByteWriter out_;
  Status status_;
};

class WireReader {
 public:
  explicit WireReader(const std::vector<uint8_t>& bytes) : in_(bytes) {}
  WireReader(const uint8_t* data, size_t size) : in_(data, size) {}

  void Field(uint8_t& v) { Get(&ByteReader::GetU8, v); }
  void Field(uint32_t& v) { Get(&ByteReader::GetU32, v); }
  void Field(int32_t& v) { Get(&ByteReader::GetI32, v); }
  void Field(int64_t& v) { Get(&ByteReader::GetI64, v); }
  void Field(uint64_t& v) { Get(&ByteReader::GetU64, v); }
  void Field(double& v) { Get(&ByteReader::GetDouble, v); }
  template <ByteEnum E>
  void Field(E& v) {
    uint8_t raw = 0;
    Field(raw);
    v = static_cast<E>(raw);
  }
  void Field(std::string& s) {
    uint8_t n = 0;
    Field(n);
    Bytes(s, n);
  }
  void Field(std::vector<double>& values) {
    uint32_t count = 0;
    Field(count);
    if (!ok()) return;
    if (count > in_.remaining() / sizeof(double)) {
      Fail(Status::Corruption("double list count exceeds the bytes left"));
      return;
    }
    values.resize(count);
    if constexpr (std::endian::native == std::endian::little) {
      if (count == 0) return;
      std::memcpy(values.data(), in_.current(), count * sizeof(double));
      (void)in_.Skip(count * sizeof(double));
    } else {
      for (double& v : values) Field(v);
    }
  }
  void Field(std::vector<std::string>& list) {
    List(list, [](WireReader& r, std::string& s) { r.Field(s); });
  }
  /// Corruption past kMaxWireMessage bytes.
  void Message(std::string& s) {
    uint32_t n = 0;
    Field(n);
    if (ok() && n > kMaxWireMessage) {
      Fail(Status::Corruption("message length field is implausible"));
    }
    Bytes(s, n);
  }
  /// Every item takes at least one byte, so a count past the bytes left is
  /// Corruption; items are appended as they parse, never reserved up front.
  template <typename T, typename Layout>
  void List(std::vector<T>& items, Layout&& layout) {
    uint32_t count = 0;
    Field(count);
    if (!ok()) return;
    if (count > in_.remaining()) {
      Fail(Status::Corruption("list count exceeds the bytes left"));
      return;
    }
    items.clear();
    for (uint32_t i = 0; i < count && ok(); ++i) {
      layout(*this, items.emplace_back());
    }
  }

  void Fail(Status status) {
    if (status_.ok()) status_ = std::move(status);
  }
  /// The first error, else Corruption unless every byte was read.
  Status Finish() const {
    if (ok() && in_.remaining() != 0) {
      return Status::Corruption("unexpected trailing bytes");
    }
    return status_;
  }

 private:
  bool ok() const { return status_.ok(); }
  template <typename T>
  void Get(Result<T> (ByteReader::*get)(), T& out) {
    if (!ok()) return;
    Result<T> v = (in_.*get)();
    if (v.ok()) {
      out = *v;
    } else {
      Fail(v.status());
    }
  }
  void Bytes(std::string& s, size_t n) {
    if (!ok()) return;
    if (n > in_.remaining()) {
      Fail(Status::Corruption("string truncated"));
      return;
    }
    s.assign(reinterpret_cast<const char*>(in_.current()), n);
    (void)in_.Skip(n);
  }

  ByteReader in_;
  Status status_;
};

}  // namespace lossyts::compress

#endif  // LOSSYTS_COMPRESS_SERDE_H_
