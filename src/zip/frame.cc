#include "zip/frame.h"

#include "zip/crc32.h"

namespace lossyts::zip {

namespace {

void StoreU32(uint8_t* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint32_t LoadU32(const uint8_t* in) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(in[i]) << (8 * i);
  return v;
}

}  // namespace

Status SealFrame(uint32_t magic, uint32_t max_payload,
                 std::vector<uint8_t>& frame) {
  if (frame.size() <= kFrameHeaderSize ||
      frame.size() - kFrameHeaderSize > max_payload) {
    return Status::InvalidArgument("frame payload must be 1 to " +
                                   std::to_string(max_payload) + " bytes");
  }
  const size_t size = frame.size() - kFrameHeaderSize;
  StoreU32(frame.data(), magic);
  StoreU32(frame.data() + 4, static_cast<uint32_t>(size));
  frame.resize(frame.size() + 4);
  StoreU32(frame.data() + kFrameHeaderSize + size,
           ComputeCrc32(frame.data() + kFrameHeaderSize, size));
  return Status::OK();
}

Result<std::vector<uint8_t>> EncodeFrame(uint32_t magic, uint32_t max_payload,
                                         const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> frame;
  frame.reserve(payload.size() + kFrameOverhead);
  frame.resize(kFrameHeaderSize);
  frame.insert(frame.end(), payload.begin(), payload.end());
  if (Status s = SealFrame(magic, max_payload, frame); !s.ok()) return s;
  return frame;
}

Result<uint32_t> ParseFrameHeader(const uint8_t* header, uint32_t magic,
                                  uint32_t max_payload) {
  if (LoadU32(header) != magic) {
    return Status::Corruption("frame has a bad magic");
  }
  const uint32_t size = LoadU32(header + 4);
  if (size == 0 || size > max_payload) {
    return Status::Corruption("frame size field is implausible");
  }
  return size;
}

Status CheckFrameCrc(const uint8_t* payload, uint32_t payload_size) {
  if (LoadU32(payload + payload_size) != ComputeCrc32(payload, payload_size)) {
    return Status::Corruption("frame checksum mismatch");
  }
  return Status::OK();
}

Result<Frame> ParseFrameAt(const uint8_t* data, size_t offset, size_t end,
                           uint32_t magic, uint32_t max_payload) {
  if (offset > end || end - offset < kFrameOverhead) {
    return Status::Corruption("frame truncated");
  }
  Result<uint32_t> size = ParseFrameHeader(data + offset, magic, max_payload);
  if (!size.ok()) return size.status();
  if (*size > end - offset - kFrameOverhead) {
    return Status::Corruption("frame truncated");
  }
  const Frame frame{data + offset + kFrameHeaderSize, *size,
                    *size + kFrameOverhead};
  if (Status s = CheckFrameCrc(frame.payload, *size); !s.ok()) return s;
  return frame;
}

FrameScan ScanFrames(
    const uint8_t* data, size_t begin, size_t end, uint32_t magic,
    uint32_t max_payload,
    const std::function<Status(const Frame& frame, size_t offset)>& visit) {
  FrameScan scan{begin, Status::OK()};
  while (scan.valid_end < end && scan.status.ok()) {
    Result<Frame> frame =
        ParseFrameAt(data, scan.valid_end, end, magic, max_payload);
    scan.status = frame.ok() ? visit(*frame, scan.valid_end) : frame.status();
    if (scan.status.ok()) scan.valid_end += frame->size;
  }
  return scan;
}

}  // namespace lossyts::zip
