#ifndef LOSSYTS_ZIP_FRAME_H_
#define LOSSYTS_ZIP_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/status.h"

namespace lossyts::zip {

// The one CRC frame behind store chunks (store/format.h), WAL records
// (serve/wal.h) and socket messages (serve/protocol.h), little-endian:
//
//   Frame := u32 magic, u32 payload_size, payload, u32 crc32(payload)
//
// with payload_size in [1, max_payload]. Each format passes its own magic
// and cap.

inline constexpr size_t kFrameHeaderSize = 8;  ///< magic + payload_size.
inline constexpr size_t kFrameOverhead = 12;   ///< Header + CRC trailer.

/// Frames a payload serialized in place: `frame` holds kFrameHeaderSize
/// reserved bytes, then the payload. Fills in the header and appends the
/// CRC; InvalidArgument, with `frame` unchanged, when the payload size is
/// outside [1, max_payload].
Status SealFrame(uint32_t magic, uint32_t max_payload,
                 std::vector<uint8_t>& frame);

/// One frame holding a copy of `payload`, with SealFrame's checks.
Result<std::vector<uint8_t>> EncodeFrame(uint32_t magic, uint32_t max_payload,
                                         const std::vector<uint8_t>& payload);

/// Checks the kFrameHeaderSize bytes at `header` (magic, size field in
/// [1, max_payload]) and returns the payload size; Corruption otherwise.
Result<uint32_t> ParseFrameHeader(const uint8_t* header, uint32_t magic,
                                  uint32_t max_payload);

/// Checks the u32 CRC trailer stored right after `payload`.
Status CheckFrameCrc(const uint8_t* payload, uint32_t payload_size);

/// A parsed frame: a view of its payload inside the caller's bytes.
struct Frame {
  const uint8_t* payload = nullptr;
  uint32_t payload_size = 0;
  size_t size = 0;  ///< Whole frame length, payload_size + kFrameOverhead.
};

/// Parses the frame at `data[offset]`, which must end by `data[end]`:
/// header, bounds and CRC checks. Corruption on any defect.
Result<Frame> ParseFrameAt(const uint8_t* data, size_t offset, size_t end,
                           uint32_t magic, uint32_t max_payload);

/// Where a valid-prefix scan stopped. `status` is OK iff the frames tile the
/// range exactly; otherwise it says why the frame at `valid_end` failed.
struct FrameScan {
  size_t valid_end = 0;
  Status status;
};

/// Parses consecutive frames in `data[begin, end)`, handing each and its
/// offset to `visit`; stops at the first frame that fails to parse or that
/// `visit` refuses with a non-OK Status.
FrameScan ScanFrames(
    const uint8_t* data, size_t begin, size_t end, uint32_t magic,
    uint32_t max_payload,
    const std::function<Status(const Frame& frame, size_t offset)>& visit);

}  // namespace lossyts::zip

#endif  // LOSSYTS_ZIP_FRAME_H_
