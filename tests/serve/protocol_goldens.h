#ifndef LOSSYTS_TESTS_SERVE_PROTOCOL_GOLDENS_H_
#define LOSSYTS_TESTS_SERVE_PROTOCOL_GOLDENS_H_

// Golden wire messages of the serve protocol (serve/protocol.h): every
// RequestType's request and its kOk reply, plus one kError and one kRetry
// reply, each with a non-default value in every field the message carries.
// The hex literals were recorded from the encoders that wrote each layout
// twice (once to encode, once to decode), before the layouts moved onto one
// two-way walker; shared by protocol_golden_test.cc and protocol_test.cc.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/status.h"
#include "serve/protocol.h"

namespace lossyts::serve::golden {

struct ProtocolGolden {
  std::string name;
  RequestType type;  ///< The request, or the request the reply answers.
  bool is_reply = false;
  Request request;   ///< When !is_reply.
  Reply reply;       ///< When is_reply.
  std::string hex;
};

inline std::string Hex(const std::vector<uint8_t>& bytes) {
  std::string out;
  char byte[3];
  for (const uint8_t b : bytes) {
    std::snprintf(byte, sizeof(byte), "%02x", b);
    out += byte;
  }
  return out;
}

inline std::vector<uint8_t> FromHex(const std::string& hex) {
  std::vector<uint8_t> bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

/// The encoder's bytes whether it returns them bare or inside a Result.
inline std::vector<uint8_t> Bytes(std::vector<uint8_t> bytes) {
  return bytes;
}
inline std::vector<uint8_t> Bytes(Result<std::vector<uint8_t>> bytes) {
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? std::move(*bytes) : std::vector<uint8_t>{};
}

inline std::vector<uint8_t> Encode(const ProtocolGolden& golden) {
  return golden.is_reply ? Bytes(EncodeReply(golden.type, golden.reply))
                         : Bytes(EncodeRequest(golden.request));
}

/// OK when `bytes` decode as the golden's message kind.
inline Status Decode(const ProtocolGolden& golden,
                     const std::vector<uint8_t>& bytes) {
  if (golden.is_reply) return DecodeReply(golden.type, bytes).status();
  return DecodeRequest(bytes).status();
}

inline void ExpectEqual(const QuerySpec& a, const QuerySpec& b) {
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.group_by, b.group_by);
  EXPECT_EQ(a.delimiter, b.delimiter);
  EXPECT_EQ(a.t0, b.t0);
  EXPECT_EQ(a.t1, b.t1);
  EXPECT_EQ(a.match, b.match);
  EXPECT_EQ(a.pred_suffix, b.pred_suffix);
  EXPECT_EQ(a.season_length, b.season_length);
}

inline void ExpectEqual(const Request& a, const Request& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.series, b.series);
  EXPECT_EQ(a.first_timestamp, b.first_timestamp);
  EXPECT_EQ(a.interval_seconds, b.interval_seconds);
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(a.t0, b.t0);
  EXPECT_EQ(a.t1, b.t1);
  ExpectEqual(a.query, b.query);
}

inline std::vector<uint64_t> StatsFields(const ServeStats& s) {
  return {s.shards,           s.series,          s.points,
          s.wal_bytes,        s.appended_ops,    s.flushes,
          s.flush_failures,   s.salvaged_stores, s.replayed_records,
          s.streamed_points,  s.stream_segments, s.stream_rejected,
          s.failed_shards,    s.accepted,        s.rejected,
          s.deadline_misses,  s.evicted_clients};
}

inline void ExpectEqual(const Reply& a, const Reply& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.code, b.code);
  EXPECT_EQ(a.message, b.message);
  EXPECT_EQ(a.retry_after_ms, b.retry_after_ms);
  EXPECT_EQ(a.start_timestamp, b.start_timestamp);
  EXPECT_EQ(a.interval_seconds, b.interval_seconds);
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(StatsFields(a.stats), StatsFields(b.stats));
  EXPECT_EQ(a.names, b.names);
  EXPECT_EQ(a.query.metric_names, b.query.metric_names);
  EXPECT_EQ(a.query.aggregate_names, b.query.aggregate_names);
  ASSERT_EQ(a.query.rows.size(), b.query.rows.size());
  for (size_t i = 0; i < a.query.rows.size(); ++i) {
    EXPECT_EQ(a.query.rows[i].group, b.query.rows[i].group);
    EXPECT_EQ(a.query.rows[i].series_count, b.query.rows[i].series_count);
    EXPECT_EQ(a.query.rows[i].points, b.query.rows[i].points);
    EXPECT_EQ(a.query.rows[i].aggregates, b.query.rows[i].aggregates);
    EXPECT_EQ(a.query.rows[i].metrics, b.query.rows[i].metrics);
  }
  EXPECT_EQ(a.stream.codec, b.stream.codec);
  EXPECT_EQ(a.stream.error_bound, b.stream.error_bound);
  EXPECT_EQ(a.stream.points, b.stream.points);
  EXPECT_EQ(a.stream.rejected, b.stream.rejected);
  EXPECT_EQ(a.stream.segments, b.stream.segments);
  EXPECT_EQ(a.stream.open_length, b.stream.open_length);
  EXPECT_EQ(a.stream.open_anchor, b.stream.open_anchor);
  EXPECT_EQ(a.stream.open_slope, b.stream.open_slope);
}

inline std::vector<ProtocolGolden> ProtocolGoldens() {
  std::vector<ProtocolGolden> goldens;
  auto request = [&goldens](const std::string& name, RequestType type,
                            const std::string& hex) -> Request& {
    ProtocolGolden golden;
    golden.name = name;
    golden.type = type;
    golden.request.type = type;
    golden.hex = hex;
    goldens.push_back(golden);
    return goldens.back().request;
  };
  auto reply = [&goldens](const std::string& name, RequestType type,
                          const std::string& hex) -> Reply& {
    ProtocolGolden golden;
    golden.name = name;
    golden.type = type;
    golden.is_reply = true;
    golden.hex = hex;
    goldens.push_back(golden);
    return goldens.back().reply;
  };

  request("PingRequest", RequestType::kPing, "01");
  {
    Request& r = request("AppendRequest", RequestType::kAppend,
        "02097372762d372e63707535fb048ee0feffff0f00000003000000000000"
        "000000e03f00000000000002c09c7500883ce4377e");
    r.series = "srv-7.cpu";
    r.first_timestamp = -1234567890123;
    r.interval_seconds = 15;
    r.values = {0.5, -2.25, 1e300};
  }
  {
    Request& r = request("ReadRangeRequest", RequestType::kReadRange,
        "03097372762d372e6d656dfbffffffffffffff0000000000010000");
    r.series = "srv-7.mem";
    r.t0 = -5;
    r.t1 = int64_t{1} << 40;
  }
  request("StatsRequest", RequestType::kStats, "04");
  request("ShutdownRequest", RequestType::kShutdown, "05");
  request("ListSeriesRequest", RequestType::kListSeries, "06");
  {
    Request& r = request("QueryRequest", RequestType::kQuery,
        "0702000000036d61650b70696e62616c6c40302e3906707265666978012e"
        "78ecffffffffffffb168de3a0000000003637075032e666318000000");
    r.query.metrics = {"mae", "pinball@0.9"};
    r.query.group_by = "prefix";
    r.query.delimiter = ".";
    r.query.t0 = -5000;
    r.query.t1 = 987654321;
    r.query.match = "cpu";
    r.query.pred_suffix = ".fc";
    r.query.season_length = 24;
  }
  {
    Request& r = request("StreamInfoRequest", RequestType::kStreamInfo,
        "08056472696674");
    r.series = "drift";
  }

  reply("PingReply", RequestType::kPing, "00");
  reply("AppendReply", RequestType::kAppend, "00");
  {
    Reply& r = reply("ReadRangeReply", RequestType::kReadRange,
        "0009030000000000003c00000003000000000000000000f03f0000000000"
        "0000800000000000000c40");
    r.start_timestamp = 777;
    r.interval_seconds = 60;
    r.values = {1.0, -0.0, 3.5};
  }
  {
    Reply& r = reply("StatsReply", RequestType::kStats,
        "000107060504030201020706050403020103070605040302010407060504"
        "030201050706050403020106070605040302010707060504030201080706"
        "050403020109070605040302010a070605040302010b070605040302010c"
        "070605040302010d070605040302010e070605040302010f070605040302"
        "0110070605040302011107060504030201");
    uint64_t* fields[] = {
        &r.stats.shards,          &r.stats.series,
        &r.stats.points,          &r.stats.wal_bytes,
        &r.stats.appended_ops,    &r.stats.flushes,
        &r.stats.flush_failures,  &r.stats.salvaged_stores,
        &r.stats.replayed_records, &r.stats.streamed_points,
        &r.stats.stream_segments, &r.stats.stream_rejected,
        &r.stats.failed_shards,   &r.stats.accepted,
        &r.stats.rejected,        &r.stats.deadline_misses,
        &r.stats.evicted_clients,
    };
    uint64_t value = 0x0102030405060700ull;
    for (uint64_t* field : fields) *field = ++value;
  }
  reply("ShutdownReply", RequestType::kShutdown, "00");
  {
    Reply& r = reply("ListSeriesReply", RequestType::kListSeries,
        "00030000000161097372762d372e6370750e7372762d372e6370752e7072"
        "6564");
    r.names = {"a", "srv-7.cpu", "srv-7.cpu.pred"};
  }
  {
    Reply& r = reply("QueryReply", RequestType::kQuery,
        "0002000000036d61650b70696e62616c6c40302e3901000000044d45414e"
        "02000000036370750300000000000000b004000000000000010000000000"
        "00000040454002000000000000000000d03f000000000000c03f036d656d"
        "0100000000000000070000000000000001000000000000000000f0bf0200"
        "000000000000000000400000000000001040");
    r.query.metric_names = {"mae", "pinball@0.9"};
    r.query.aggregate_names = {"MEAN"};
    query::GroupRow row;
    row.group = "cpu";
    row.series_count = 3;
    row.points = 1200;
    row.aggregates = {42.5};
    row.metrics = {0.25, 0.125};
    r.query.rows.push_back(row);
    row.group = "mem";
    row.series_count = 1;
    row.points = 7;
    row.aggregates = {-1.0};
    row.metrics = {2.0, 4.0};
    r.query.rows.push_back(row);
  }
  {
    Reply& r = reply("StreamInfoReply", RequestType::kStreamInfo,
        "00055357494e479a9999999999a93fe80300000000000002000000000000"
        "001100000000000000090000000000000000000000000029400000000000"
        "00d0bf");
    r.stream.codec = "SWING";
    r.stream.error_bound = 0.05;
    r.stream.points = 1000;
    r.stream.rejected = 2;
    r.stream.segments = 17;
    r.stream.open_length = 9;
    r.stream.open_anchor = 12.5;
    r.stream.open_slope = -0.25;
  }
  {
    Reply& r = reply("ErrorReply", RequestType::kAppend,
        "0103160000006368756e6b2033206661696c65642069747320637263");
    r.kind = ReplyKind::kError;
    r.code = static_cast<uint8_t>(StatusCode::kCorruption);
    r.message = "chunk 3 failed its crc";
  }
  {
    Reply& r = reply("RetryReply", RequestType::kAppend,
        "024b0000000a00000071756575652066756c6c");
    r.kind = ReplyKind::kRetry;
    r.retry_after_ms = 75;
    r.message = "queue full";
  }
  return goldens;
}

}  // namespace lossyts::serve::golden

#endif  // LOSSYTS_TESTS_SERVE_PROTOCOL_GOLDENS_H_
