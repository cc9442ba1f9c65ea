#include "serve/protocol.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iterator>

#include "compress/serde.h"
#include "core/failpoint.h"
#include "zip/frame.h"

namespace lossyts::serve {

namespace {

// Each message layout below is written once and runs in both directions:
// with a compress::WireWriter it encodes, with a compress::WireReader it
// decodes (see compress/serde.h for the wire types).
using compress::MaybeConst;

template <typename W, MaybeConst<QuerySpec> Q>
void Walk(W& w, Q& spec) {
  w.Field(spec.metrics);
  w.Field(spec.group_by);
  w.Field(spec.delimiter);
  w.Field(spec.t0);
  w.Field(spec.t1);
  w.Field(spec.match);
  w.Field(spec.pred_suffix);
  w.Field(spec.season_length);
}

template <typename W, MaybeConst<query::QueryResult> Q>
void Walk(W& w, Q& result) {
  w.Field(result.metric_names);
  w.Field(result.aggregate_names);
  w.List(result.rows, [](W& rows, auto& row) {
    rows.Field(row.group);
    rows.Field(row.series_count);
    rows.Field(row.points);
    rows.Field(row.aggregates);
    rows.Field(row.metrics);
  });
}

template <typename W, MaybeConst<SeriesStreamInfo> S>
void Walk(W& w, S& info) {
  w.Field(info.codec);
  w.Field(info.error_bound);
  w.Field(info.points);
  w.Field(info.rejected);
  w.Field(info.segments);
  w.Field(info.open_length);
  w.Field(info.open_anchor);
  w.Field(info.open_slope);
}

/// ServeStats' wire order: every field, as u64.
constexpr uint64_t ServeStats::*kStatsFields[] = {
    &ServeStats::shards,          &ServeStats::series,
    &ServeStats::points,          &ServeStats::wal_bytes,
    &ServeStats::appended_ops,    &ServeStats::flushes,
    &ServeStats::flush_failures,  &ServeStats::salvaged_stores,
    &ServeStats::replayed_records, &ServeStats::streamed_points,
    &ServeStats::stream_segments, &ServeStats::stream_rejected,
    &ServeStats::failed_shards,   &ServeStats::accepted,
    &ServeStats::rejected,        &ServeStats::deadline_misses,
    &ServeStats::evicted_clients,
};

template <typename W, MaybeConst<ServeStats> S>
void Walk(W& w, S& stats) {
  for (const auto field : kStatsFields) w.Field(stats.*field);
}

/// A request: its type byte, then the type's fields.
template <typename W, MaybeConst<Request> R>
void Walk(W& w, R& request) {
  w.Field(request.type);
  switch (request.type) {
    case RequestType::kAppend:
      w.Field(request.series);
      w.Field(request.first_timestamp);
      w.Field(request.interval_seconds);
      w.Field(request.values);
      return;
    case RequestType::kReadRange:
      w.Field(request.series);
      w.Field(request.t0);
      w.Field(request.t1);
      return;
    case RequestType::kStreamInfo:
      w.Field(request.series);
      return;
    case RequestType::kQuery:
      Walk(w, request.query);
      return;
    case RequestType::kPing:
    case RequestType::kStats:
    case RequestType::kShutdown:
    case RequestType::kListSeries:
      return;
  }
  w.Fail(Status::Corruption(
      "unknown request type " +
      std::to_string(static_cast<unsigned>(request.type))));
}

/// A reply: its kind byte, then kError's code and message, kRetry's backoff
/// and message, or kOk's body, whose layout depends on the request `type`.
template <typename W, MaybeConst<Reply> R>
void Walk(W& w, RequestType type, R& reply) {
  w.Field(reply.kind);
  switch (reply.kind) {
    case ReplyKind::kError:
      w.Field(reply.code);
      w.Message(reply.message);
      return;
    case ReplyKind::kRetry:
      w.Field(reply.retry_after_ms);
      w.Message(reply.message);
      return;
    case ReplyKind::kOk:
      break;
    default:
      w.Fail(Status::Corruption(
          "unknown reply kind " +
          std::to_string(static_cast<unsigned>(reply.kind))));
      return;
  }
  switch (type) {
    case RequestType::kReadRange:
      w.Field(reply.start_timestamp);
      w.Field(reply.interval_seconds);
      w.Field(reply.values);
      return;
    case RequestType::kStats:
      Walk(w, reply.stats);
      return;
    case RequestType::kListSeries:
      w.Field(reply.names);
      return;
    case RequestType::kQuery:
      Walk(w, reply.query);
      return;
    case RequestType::kStreamInfo:
      Walk(w, reply.stream);
      return;
    case RequestType::kPing:
    case RequestType::kAppend:
    case RequestType::kShutdown:
      return;
  }
  w.Fail(Status::Corruption("reply for an unknown request type"));
}

/// The Status a kError reply carries, indexed by its wire code (the
/// StatusCode value). kOk and codes past the table map to Internal.
using StatusFactory = Status (*)(std::string);
constexpr StatusFactory kStatusFromWire[] = {
    &Status::Internal,        &Status::InvalidArgument,
    &Status::OutOfRange,      &Status::Corruption,
    &Status::NotFound,        &Status::FailedPrecondition,
    &Status::Internal,        &Status::IoError,
    &Status::Unavailable,
};
static_assert(std::size(kStatusFromWire) ==
              static_cast<size_t>(StatusCode::kUnavailable) + 1);

}  // namespace

Result<std::vector<uint8_t>> EncodeRequest(const Request& request) {
  compress::WireWriter writer;
  Walk(writer, request);
  return writer.Finish();
}

Result<Request> DecodeRequest(const std::vector<uint8_t>& payload) {
  compress::WireReader reader(payload);
  Request request;
  Walk(reader, request);
  if (Status s = reader.Finish(); !s.ok()) return s;
  return request;
}

Result<std::vector<uint8_t>> EncodeReply(RequestType type,
                                         const Reply& reply) {
  compress::WireWriter writer;
  Walk(writer, type, reply);
  return writer.Finish();
}

Result<Reply> DecodeReply(RequestType type,
                          const std::vector<uint8_t>& payload) {
  compress::WireReader reader(payload);
  Reply reply;
  Walk(reader, type, reply);
  if (Status s = reader.Finish(); !s.ok()) return s;
  return reply;
}

Reply ReplyFromStatus(const Status& status, uint32_t retry_after_ms) {
  Reply reply;
  if (status.ok()) return reply;
  if (status.code() == StatusCode::kUnavailable) {
    reply.kind = ReplyKind::kRetry;
    reply.retry_after_ms = retry_after_ms;
    reply.message = status.message();
    return reply;
  }
  reply.kind = ReplyKind::kError;
  reply.code = static_cast<uint8_t>(status.code());
  reply.message = status.message();
  return reply;
}

Status StatusFromReply(const Reply& reply) {
  switch (reply.kind) {
    case ReplyKind::kOk:
      return Status::OK();
    case ReplyKind::kRetry:
      return Status::Unavailable(reply.message.empty() ? "server overloaded"
                                                       : reply.message);
    case ReplyKind::kError:
      return reply.code < std::size(kStatusFromWire)
                 ? kStatusFromWire[reply.code](reply.message)
                 : Status::Internal(reply.message);
  }
  return Status::Internal("malformed reply");
}

namespace {

/// Polls `fd` for `events` within the timeout. OK when ready; Unavailable on
/// timeout; IoError otherwise.
Status PollFor(int fd, short events, int timeout_ms) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  pfd.revents = 0;
  while (true) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return Status::OK();
    if (rc == 0) {
      return Status::Unavailable("peer did not become ready in " +
                                 std::to_string(timeout_ms) + "ms");
    }
    if (errno == EINTR) continue;
    return Status::IoError(std::string("poll failed: ") +
                           std::strerror(errno));
  }
}

Status SendAll(int fd, const uint8_t* data, size_t size, int timeout_ms) {
  size_t sent = 0;
  while (sent < size) {
    if (Status s = PollFor(fd, POLLOUT, timeout_ms); !s.ok()) return s;
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Status::IoError(std::string("socket send failed: ") +
                             std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Reads exactly `size` bytes. `clean_eof_ok`: a clean close before the
/// first byte is NotFound (peer hung up between frames); any later EOF is a
/// torn frame.
Status RecvAll(int fd, uint8_t* data, size_t size, int timeout_ms,
               bool clean_eof_ok) {
  size_t received = 0;
  while (received < size) {
    if (Status s = PollFor(fd, POLLIN, timeout_ms); !s.ok()) return s;
    const ssize_t n = ::recv(fd, data + received, size - received, 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Status::IoError(std::string("socket recv failed: ") +
                             std::strerror(errno));
    }
    if (n == 0) {
      if (clean_eof_ok && received == 0) {
        return Status::NotFound("peer closed the connection");
      }
      return Status::Corruption("connection closed mid-frame");
    }
    received += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status WriteFrame(int fd, const std::vector<uint8_t>& payload,
                  int timeout_ms) {
  Result<std::vector<uint8_t>> frame =
      zip::EncodeFrame(kFrameMagic, kMaxFramePayload, payload);
  if (!frame.ok()) return frame.status();

  // Crash injection: half the frame leaves the socket and the write errors —
  // the peer must treat the torn frame as a dead connection, never as data.
  Status crash = FailPoints::Hit("socket_write");
  if (!crash.ok()) {
    SendAll(fd, frame->data(), frame->size() / 2, timeout_ms);
    return crash;
  }
  return SendAll(fd, frame->data(), frame->size(), timeout_ms);
}

Result<std::vector<uint8_t>> ReadFrame(int fd, int timeout_ms) {
  uint8_t header[zip::kFrameHeaderSize];
  if (Status s = RecvAll(fd, header, sizeof(header), timeout_ms, true);
      !s.ok()) {
    return s;
  }
  Result<uint32_t> size =
      zip::ParseFrameHeader(header, kFrameMagic, kMaxFramePayload);
  if (!size.ok()) return size.status();
  std::vector<uint8_t> rest(*size + size_t{4});  // Payload + CRC trailer.
  if (Status s = RecvAll(fd, rest.data(), rest.size(), timeout_ms, false);
      !s.ok()) {
    return s;
  }
  if (Status s = zip::CheckFrameCrc(rest.data(), *size); !s.ok()) return s;
  rest.resize(*size);
  return rest;
}

Result<int> ListenUnix(const std::string& path) {
  struct sockaddr_un addr;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("cannot create socket: ") +
                           std::strerror(errno));
  }
  ::unlink(path.c_str());  // Replace a stale socket from a killed daemon.
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status s = Status::IoError("cannot bind " + path + ": " +
                                     std::strerror(errno));
    ::close(fd);
    return s;
  }
  if (::listen(fd, 128) != 0) {
    const Status s = Status::IoError("cannot listen on " + path + ": " +
                                     std::strerror(errno));
    ::close(fd);
    return s;
  }
  return fd;
}

Result<int> ConnectUnix(const std::string& path) {
  struct sockaddr_un addr;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("cannot create socket: ") +
                           std::strerror(errno));
  }
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const Status s = Status::IoError("cannot connect to " + path + ": " +
                                     std::strerror(errno));
    ::close(fd);
    return s;
  }
  return fd;
}

}  // namespace lossyts::serve
