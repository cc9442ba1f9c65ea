#ifndef LOSSYTS_SERVE_CLIENT_H_
#define LOSSYTS_SERVE_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/time_series.h"
#include "serve/protocol.h"

namespace lossyts::serve {

struct ClientOptions {
  /// Per-frame I/O timeout (the daemon's reply must start within this).
  int timeout_ms = 5000;
  /// How many kRetry replies to absorb (sleeping the server's
  /// retry_after_ms hint each time) before surfacing Unavailable.
  int max_retries = 20;
};

/// Synchronous client for the serve daemon: one connection, one in-flight
/// request. Backpressure (kRetry replies) is retried internally with the
/// server's backoff hint; everything else surfaces as the carried Status.
/// Not thread-safe — use one Client per thread.
///
/// Caveat an appender must know: a kRetry that follows a missed append
/// deadline means commit-UNKNOWN (the daemon never rolls back a queued
/// write), so a blind resend can collide with its own committed twin and
/// report InvalidArgument (grid break). Callers that need exactly-once
/// should read the series tail back before resending.
class Client {
 public:
  static Result<std::unique_ptr<Client>> Connect(
      const std::string& socket_path, const ClientOptions& options = {});

  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Status Ping();
  /// Appends `values` on the series' regular grid. OK only after the daemon
  /// has fsync'd the write (the durability contract). `values` moves into
  /// the request, so pass an rvalue to send the batch without a copy.
  Status Append(const std::string& series, int64_t first_timestamp,
                int32_t interval_seconds, std::vector<double> values);
  Result<TimeSeries> ReadRange(const std::string& series, int64_t t0,
                               int64_t t1);
  Result<ServeStats> Stats();
  Result<std::vector<std::string>> ListSeries();
  /// Grouped-metric query over the daemon's whole catalog; semantics are
  /// query::EvaluateGroupedSeries' (pooled pairs in canonical order).
  Result<query::QueryResult> Query(const QuerySpec& spec);
  /// State of the series' open streaming compressor (Shard::StreamInfo).
  Result<SeriesStreamInfo> StreamInfo(const std::string& series);
  /// Asks the daemon to drain and exit; acked before the drain starts.
  Status Shutdown();

 private:
  Client() = default;

  /// Sends `request` and reads its reply, absorbing kRetry replies. OK only
  /// for a kOk reply; otherwise the Status the reply carries, or
  /// InvalidArgument, with nothing sent, for a request that cannot be
  /// encoded.
  Result<Reply> RoundTrip(const Request& request);

  std::string path_;
  ClientOptions options_;
  int fd_ = -1;
};

}  // namespace lossyts::serve

#endif  // LOSSYTS_SERVE_CLIENT_H_
