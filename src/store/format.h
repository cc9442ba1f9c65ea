#ifndef LOSSYTS_STORE_FORMAT_H_
#define LOSSYTS_STORE_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "compress/compressor.h"
#include "compress/serde.h"
#include "core/status.h"
#include "zip/frame.h"

namespace lossyts::store {

// On-disk layout of a chunk store file (all integers little-endian, written
// through compress::ByteWriter; every variable-size region is CRC32-framed
// with the gzip polynomial from zip/crc32.h, the same framing discipline as
// the eval/checkpoint row frames):
//
//   StoreFile  := FileHeader ChunkRecord* [IndexBlock Footer]
//
//   FileHeader := u32 kFileMagic, u8 version, f64 error_bound,
//                 u32 chunk_span, u8 codec_count,
//                 codec_count x (u8 name_len, name bytes),
//                 u32 crc32(version..names)
//   ChunkRecord:= one zip/frame.h frame: kChunkMagic, payload, at most
//                 kChunkMaxPayload bytes
//   IndexBlock := u32 kIndexMagic, u32 entry_count,
//                 entry_count x IndexEntry, u32 crc32(entries)
//   IndexEntry := u64 chunk_offset, i64 first_timestamp, u32 num_points,
//                 u8 algorithm_id                          (21 bytes)
//   Footer     := u32 kFooterMagic, u64 index_offset, u32 chunk_count,
//                 u32 crc32(index_offset, chunk_count)     (20 bytes)
//
// Each chunk payload is one of the library's self-describing compressed
// blobs (compress/header.h): its own header carries the algorithm id, first
// timestamp, sampling interval and point count, so a chunk decodes with
// compress::DecompressAny and the sparse index is fully rebuildable from a
// sequential scan of the frames. The index and footer are written once by
// StoreWriter::Finish; a file killed mid-ingestion simply ends after the
// last complete chunk frame and reopens via the salvage scan (reader.h).

inline constexpr uint32_t kFileMagic = 0x3153544Cu;    // "LTS1"
inline constexpr uint32_t kChunkMagic = 0x4353544Cu;   // "LTSC"
inline constexpr uint32_t kIndexMagic = 0x4953544Cu;   // "LTSI"
inline constexpr uint32_t kFooterMagic = 0x4653544Cu;  // "LTSF"
inline constexpr uint8_t kFormatVersion = 1;

/// Cap on one chunk frame's payload: the whole size field, since a chunk is
/// bounded by its file and the reader checks each size against the bytes left.
inline constexpr uint32_t kChunkMaxPayload = 0xFFFFFFFFu;
inline constexpr size_t kIndexEntrySize = 21;
inline constexpr size_t kFooterSize = 20;

/// Ingestion configuration. The defaults trial-compress every chunk with the
/// three PEBLC codecs plus the Gorilla lossless baseline and keep the best
/// ratio; restricting `codecs` to a single name produces the per-compressor
/// stores the evaluation grid sources transforms from (eval/store_source.h).
struct StoreOptions {
  /// Relative pointwise bound the lossy codecs are run at; also recorded in
  /// the file header as the bound every query's error report derives from.
  double error_bound = 0.05;
  /// Points per chunk; the final chunk of a stream may be shorter.
  uint32_t chunk_span = 1024;
  /// Codec names in compress::MakeCompressor spelling. Ties on compressed
  /// size break toward the earlier name, so the list order is part of the
  /// store's determinism contract. Empty selects PMC, SWING, SZ, GORILLA.
  std::vector<std::string> codecs;
  /// Power-loss durability: fsync the containing directory after the file is
  /// created, fsync the data region before the footer is written (so a file
  /// can never be footer-valid but data-torn), and fsync again after the
  /// footer. Off by default so tests and benches stay fast; the serve
  /// daemon's checkpoints turn it on.
  bool sync = false;
};

/// Identity of one chunk, as recorded in the sparse index: where its frame
/// starts, when it starts, how many points it holds and which codec won the
/// ingestion trial. `payload_size`/`interval_seconds` are recovered from the
/// frame and blob header on open (they are not index fields on disk).
struct ChunkInfo {
  uint64_t offset = 0;  ///< File offset of the chunk frame's magic.
  int64_t first_timestamp = 0;
  uint32_t num_points = 0;
  compress::AlgorithmId algorithm = compress::AlgorithmId::kPmc;
  uint32_t payload_size = 0;
  int32_t interval_seconds = 0;

  bool operator==(const ChunkInfo&) const = default;
};

/// Parses the chunk frame found at `offset`: its blob header must name a
/// known codec, hold 1..chunk_span points and a non-zero interval.
Result<ChunkInfo> ParseChunkFrame(const zip::Frame& frame, size_t offset,
                                  uint32_t chunk_span);

/// The leading run of *full* chunks (exactly chunk_span points each) of a
/// store. Chunks are aligned from the series' first point and trial
/// compression is per chunk, so a full chunk is a pure function of its
/// values and the store options: a later store over the same values under
/// the same header repeats these frames byte for byte.
struct ChunkPrefix {
  std::vector<ChunkInfo> chunks;
  uint64_t points = 0;      ///< chunks.size() x chunk_span.
  uint64_t end_offset = 0;  ///< File offset just past the last frame.
};

/// The full-chunk prefix of `chunks` (a store's index, in file order).
ChunkPrefix FullChunkPrefix(const std::vector<ChunkInfo>& chunks,
                            uint32_t chunk_span);

/// True for an algorithm id byte of one of the library's codecs.
inline bool IsKnownAlgorithm(uint8_t id) {
  return id >= static_cast<uint8_t>(compress::AlgorithmId::kPmc) &&
         id <= static_cast<uint8_t>(compress::AlgorithmId::kCameo);
}

/// Codecs whose blobs reconstruct bit-exactly: their chunks contribute zero
/// to every query's reported error bound.
inline bool IsLosslessAlgorithm(compress::AlgorithmId id) {
  return id == compress::AlgorithmId::kGorilla ||
         id == compress::AlgorithmId::kChimp;
}

/// Codecs whose blobs are explicit segment models (constant / linear), the
/// precondition for answering aggregates by pushdown without decoding.
inline bool SupportsPushdown(compress::AlgorithmId id) {
  return id == compress::AlgorithmId::kPmc ||
         id == compress::AlgorithmId::kSwing;
}

/// Resolved file header contents shared by the writer and reader.
struct StoreHeader {
  double error_bound = 0.0;
  uint32_t chunk_span = 0;
  std::vector<std::string> codecs;
};

/// The header a store written with `options` carries: an empty codec list
/// resolves to the default one.
StoreHeader HeaderFor(const StoreOptions& options);

/// Serializes `header`, including its CRC frame.
std::vector<uint8_t> EncodeStoreHeader(const StoreHeader& header);

/// Parses and CRC-verifies a file header, leaving `reader` positioned at the
/// first chunk frame. Corruption on any mismatch.
Result<StoreHeader> ReadStoreHeader(compress::ByteReader& reader);

}  // namespace lossyts::store

#endif  // LOSSYTS_STORE_FORMAT_H_
