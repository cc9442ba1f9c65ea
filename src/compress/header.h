#ifndef LOSSYTS_COMPRESS_HEADER_H_
#define LOSSYTS_COMPRESS_HEADER_H_

#include <algorithm>
#include <cstdint>

#include "compress/compressor.h"
#include "compress/serde.h"
#include "core/status.h"
#include "core/time_series.h"

namespace lossyts::compress {

/// Shared blob header, following paper §3.2: "we compress the timestamps for
/// all the methods by storing the first timestamp as a 32-bit integer, the
/// sampling interval as a 16-bit integer, and the length of the generated
/// segments as a 16-bit integer" plus "a header with the sampling interval,
/// initial timestamp, and the number of data points".
struct BlobHeader {
  AlgorithmId algorithm;
  int32_t first_timestamp = 0;
  uint16_t interval_seconds = 0;
  uint32_t num_points = 0;
};

inline void WriteHeader(const BlobHeader& header, ByteWriter& writer) {
  writer.PutU8(static_cast<uint8_t>(header.algorithm));
  writer.PutI32(header.first_timestamp);
  writer.PutU16(header.interval_seconds);
  writer.PutU32(header.num_points);
}

inline Result<BlobHeader> ReadHeader(ByteReader& reader,
                                     AlgorithmId expected) {
  BlobHeader h;
  Result<uint8_t> alg = reader.GetU8();
  if (!alg.ok()) return alg.status();
  if (*alg != static_cast<uint8_t>(expected)) {
    return Status::Corruption("blob was produced by a different algorithm");
  }
  h.algorithm = expected;
  Result<int32_t> ts = reader.GetI32();
  if (!ts.ok()) return ts.status();
  h.first_timestamp = *ts;
  Result<uint16_t> interval = reader.GetU16();
  if (!interval.ok()) return interval.status();
  h.interval_seconds = *interval;
  Result<uint32_t> n = reader.GetU32();
  if (!n.ok()) return n.status();
  // Sanity bound against corrupted counts: even the densest segment encoding
  // (PMC: 65535 points per 7-byte segment) cannot describe more points than
  // this, so decoders can trust num_points for pre-allocation.
  const uint64_t max_points =
      static_cast<uint64_t>(reader.remaining()) * 16384 + 1;
  if (*n > max_points) {
    return Status::Corruption("point count exceeds what the payload can hold");
  }
  h.num_points = *n;
  return h;
}

/// Clamp for decoder pre-allocation sized from the header's point count. The
/// count passes only a coarse payload-derived sanity bound in ReadHeader, so
/// a corrupted count can still be orders of magnitude too large; reserving it
/// verbatim turns a 20-byte blob edit into a multi-gigabyte bad_alloc. The
/// vector grows normally past the clamp for genuinely long series.
inline size_t SafeReserve(uint32_t num_points) {
  return std::min<size_t>(num_points, size_t{1} << 16);
}

/// Validates that the series metadata fits the wire header exactly: i32
/// first timestamp, u16 sampling interval, u32 point count. MakeHeader casts
/// unconditionally, so every Compress implementation (and a stream's Open)
/// calls this first — otherwise e.g. an interval of 70000 s would silently
/// round-trip as 4464 s and the header round-trip oracle (conform/oracles.h)
/// would fire.
inline Status CheckHeaderRepresentable(int64_t first_timestamp,
                                       int64_t interval_seconds,
                                       uint64_t num_points) {
  if (first_timestamp < INT32_MIN || first_timestamp > INT32_MAX) {
    return Status::InvalidArgument(
        "first timestamp does not fit the i32 header field: " +
        std::to_string(first_timestamp));
  }
  if (interval_seconds < 0 || interval_seconds > 65535) {
    return Status::InvalidArgument(
        "sampling interval does not fit the u16 header field: " +
        std::to_string(interval_seconds));
  }
  if (num_points > 0xFFFFFFFFull) {
    return Status::InvalidArgument(
        "point count does not fit the u32 header field: " +
        std::to_string(num_points));
  }
  return Status::OK();
}

inline Status CheckHeaderRepresentable(const TimeSeries& series) {
  return CheckHeaderRepresentable(series.start_timestamp(),
                                  series.interval_seconds(), series.size());
}

inline BlobHeader MakeHeader(AlgorithmId algorithm, int64_t first_timestamp,
                             int64_t interval_seconds, uint64_t num_points) {
  BlobHeader h;
  h.algorithm = algorithm;
  h.first_timestamp = static_cast<int32_t>(first_timestamp);
  h.interval_seconds = static_cast<uint16_t>(interval_seconds);
  h.num_points = static_cast<uint32_t>(num_points);
  return h;
}

inline BlobHeader MakeHeader(AlgorithmId algorithm, const TimeSeries& series) {
  return MakeHeader(algorithm, series.start_timestamp(),
                    series.interval_seconds(), series.size());
}

}  // namespace lossyts::compress

#endif  // LOSSYTS_COMPRESS_HEADER_H_
