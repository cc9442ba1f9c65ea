// `serve`: durable ingest with reads and grouped queries beside it, through
// Daemon + Client in one process. A closed loop of two writer clients and one
// reader client.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/seed.h"
#include "data/datasets.h"
#include "harness/stats.h"
#include "query/query.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/shard.h"
#include "stream/streaming_compressor.h"
#include "workloads/common.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using lossyts::Result;
using lossyts::Status;
using lossyts::TimeSeries;

constexpr size_t kWriters = 2;
constexpr uint32_t kShards = 2;
constexpr size_t kBlockPoints = 512;    // Points per append.
constexpr size_t kWindowPoints = 512;   // Trailing window the reader asks for.
// The reader sends one request each time every writer has acked another
// append, polling for that progress at this interval. Pacing by progress
// rather than by time keeps the read load per appended point the same
// however fast the machine runs.
constexpr auto kReaderPoll = std::chrono::microseconds(100);
constexpr int64_t kStartTimestamp = 1'600'000'000;
constexpr int32_t kInterval = 60;
constexpr int kSetupReps = 10;  // On each side of the measurement.
// Forecast twins are `<series>.fcst`. A shard is FNV-1a(name) mod 2, which is
// the parity of the name bytes' low bits, so a suffix of odd parity such as
// ".pred" would always put the twin on the other shard: each writer would
// then stall on both shards' checkpoints, and whether the two shards'
// checkpoints coincide decided the run (measured: ~300k or ~200k points/s).
// ".fcst" has even parity and keeps a writer's pair on one shard.
constexpr const char* kPredSuffix = ".fcst";

// One writer's op stream: a series replayed from a dataset generator plus
// its forecast twin, a seasonal-naive forecast of it. Point i of either
// series is its pool value at i modulo the pool length.
struct WriterStream {
  std::string actual;
  std::string pred;
  std::vector<double> values;
  std::vector<double> pred_values;

  std::vector<double> Block(const std::vector<double>& pool, size_t k) const {
    std::vector<double> block(kBlockPoints);
    for (size_t j = 0; j < kBlockPoints; ++j) {
      block[j] = pool[(k * kBlockPoints + j) % pool.size()];
    }
    return block;
  }
  std::vector<double> Range(const std::vector<double>& pool, size_t first,
                            size_t count) const {
    std::vector<double> out(count);
    for (size_t j = 0; j < count; ++j) out[j] = pool[(first + j) % pool.size()];
    return out;
  }
};

int64_t TimestampOf(size_t point) {
  return kStartTimestamp + static_cast<int64_t>(point) * kInterval;
}

size_t ShardOf(const std::string& series) {
  return static_cast<size_t>(lossyts::HashTag(series) % kShards);
}

// Values from the ETTm1 and ElecDem generators. Series names carry a
// six-digit tag drawn from the seed such that writer w's pair lands on shard
// w, so both shards take writes. Equal-length names give both shards WAL
// records of one size, so they checkpoint after the same number of appends.
Result<std::vector<WriterStream>> MakeStreams(uint64_t seed) {
  lossyts::data::DatasetOptions options;
  options.seed = seed;
  const char* datasets[kWriters] = {"ETTm1", "ElecDem"};
  const char* prefixes[kWriters] = {"ettm1_", "elect_"};
  std::vector<WriterStream> streams(kWriters);
  for (size_t w = 0; w < kWriters; ++w) {
    Result<lossyts::data::Dataset> ds =
        lossyts::data::MakeDataset(datasets[w], options);
    if (!ds.ok()) return ds.status();
    WriterStream& s = streams[w];
    s.values = ds->series.values();
    const size_t n = s.values.size();
    const size_t season = std::max<size_t>(1, ds->season_length) % n;
    s.pred_values.resize(n);
    for (size_t i = 0; i < n; ++i) s.pred_values[i] = s.values[(i + n - season) % n];
  }
  for (size_t w = 0; w < kWriters; ++w) {
    WriterStream& s = streams[w];
    for (uint64_t tag = lossyts::MixSeed(seed, w);; ++tag) {
      char name[32];
      std::snprintf(name, sizeof(name), "%s%06llu", prefixes[w],
                    static_cast<unsigned long long>(tag % 1000000));
      s.actual = name;
      s.pred = s.actual + kPredSuffix;
      if (ShardOf(s.actual) == w && ShardOf(s.pred) == w) break;
    }
  }
  return streams;
}

lossyts::serve::DaemonOptions MakeDaemonOptions(const std::string& dir) {
  lossyts::serve::DaemonOptions options;
  options.dir = dir;
  options.socket_path = dir + ".sock";
  options.shards = kShards;
  options.jobs = 2;
  options.shard.stream_codec = "PMC";
  options.shard.stream_error_bound = 0.05;
  return options;  // fsync on, 4 MiB checkpoint threshold, default codecs.
}

bool SameValues(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// One reader request: a window ending at the last point acked by every
// writer when the request was sent (`blocks` appends per series).
struct ReaderOp {
  bool query = false;
  size_t writer = 0;  // ReadRange only.
  size_t blocks = 0;
};

int64_t WindowT0(size_t blocks) {
  return TimestampOf(blocks * kBlockPoints - kWindowPoints);
}
int64_t WindowT1(size_t blocks) {
  return TimestampOf(blocks * kBlockPoints - 1);
}

lossyts::query::QueryOptions ReaderQueryOptions(size_t blocks) {
  lossyts::query::QueryOptions options;
  options.metrics = {"mae", "rmse"};
  options.group_by = lossyts::query::GroupMode::kPrefix;
  options.t0 = WindowT0(blocks);
  options.t1 = WindowT1(blocks);
  options.pred_suffix = kPredSuffix;
  return options;
}

lossyts::serve::QuerySpec ReaderQuerySpec(size_t blocks) {
  lossyts::serve::QuerySpec spec;
  spec.metrics = {"mae", "rmse"};
  spec.group_by = "prefix";
  spec.t0 = WindowT0(blocks);
  spec.t1 = WindowT1(blocks);
  spec.pred_suffix = kPredSuffix;
  return spec;
}

// The query the daemon must answer, evaluated directly on the values the
// writers sent.
Result<lossyts::query::QueryResult> ExpectedQuery(
    const std::vector<WriterStream>& streams, size_t blocks) {
  const size_t first = blocks * kBlockPoints - kWindowPoints;
  std::vector<TimeSeries> actual;
  std::vector<TimeSeries> pred;
  for (const WriterStream& s : streams) {
    actual.emplace_back(WindowT0(blocks), kInterval,
                        s.Range(s.values, first, kWindowPoints));
    pred.emplace_back(WindowT0(blocks), kInterval,
                      s.Range(s.pred_values, first, kWindowPoints));
  }
  std::vector<lossyts::query::SeriesInput> inputs;
  for (size_t w = 0; w < streams.size(); ++w) {
    inputs.push_back({streams[w].actual, &actual[w], &pred[w]});
  }
  std::sort(inputs.begin(), inputs.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  return lossyts::query::EvaluateGroupedSeries(inputs,
                                               ReaderQueryOptions(blocks));
}

// What one daemon run leaves behind for the checks and the replay.
struct IngestLog {
  double wall_s = 0.0;
  size_t acked_actual[kWriters] = {};
  size_t acked_pred[kWriters] = {};
  std::vector<ReaderOp> reads;
  std::vector<std::pair<size_t, std::string>> queries;  // blocks, result
  lossyts::serve::ServeStats stats;
};

// Two writers of `blocks` appends per series each, and one reader beside
// them until both writers are done.
void Ingest(const std::vector<WriterStream>& streams,
            const std::string& socket, size_t blocks, RunResult& result,
            IngestLog& log) {
  std::atomic<size_t> progress[kWriters];
  for (auto& p : progress) p.store(0);
  std::atomic<size_t> writers_running{kWriters};
  OpBook books[kWriters + 1];
  std::vector<std::string> errors[kWriters + 1];
  const int64_t start = NowNs();

  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      const WriterStream& s = streams[w];
      Result<std::unique_ptr<lossyts::serve::Client>> client =
          lossyts::serve::Client::Connect(socket);
      if (!client.ok()) {
        errors[w].push_back("writer connect: " + client.status().ToString());
      }
      for (size_t k = 0; client.ok() && k < blocks; ++k) {
        const int64_t ts = TimestampOf(k * kBlockPoints);
        int64_t t = NowNs();
        Status a = (*client)->Append(s.actual, ts, kInterval, s.Block(s.values, k));
        books[w].Record("append", 1e-6 * static_cast<double>(NowNs() - t),
                        OutcomeOf(a));
        if (!a.ok()) break;
        log.acked_actual[w] = k + 1;
        t = NowNs();
        Status p =
            (*client)->Append(s.pred, ts, kInterval, s.Block(s.pred_values, k));
        books[w].Record("append", 1e-6 * static_cast<double>(NowNs() - t),
                        OutcomeOf(p));
        if (!p.ok()) break;
        log.acked_pred[w] = k + 1;
        progress[w].store(k + 1, std::memory_order_release);
      }
      writers_running.fetch_sub(1);
    });
  }
  threads.emplace_back([&] {
    OpBook& book = books[kWriters];
    Result<std::unique_ptr<lossyts::serve::Client>> client =
        lossyts::serve::Client::Connect(socket);
    if (!client.ok()) {
      errors[kWriters].push_back("reader connect: " +
                                 client.status().ToString());
      return;
    }
    for (size_t i = 0, sent_at = 0; writers_running.load() > 0;) {
      size_t blocks = std::numeric_limits<size_t>::max();
      for (auto& p : progress) {
        blocks = std::min(blocks, p.load(std::memory_order_acquire));
      }
      if (blocks <= sent_at || blocks * kBlockPoints < kWindowPoints) {
        std::this_thread::sleep_for(kReaderPoll);
        continue;
      }
      sent_at = blocks;
      if (i++ % 2 == 0) {
        const size_t w = (i / 2) % kWriters;  // i is odd here
        const WriterStream& s = streams[w];
        const int64_t t = NowNs();
        Result<TimeSeries> read =
            (*client)->ReadRange(s.actual, WindowT0(blocks), WindowT1(blocks));
        book.Record("read", 1e-6 * static_cast<double>(NowNs() - t),
                    OutcomeOf(read.status()));
        log.reads.push_back({false, w, blocks});
        if (read.ok() &&
            !SameValues(read->values(),
                        s.Range(s.values, blocks * kBlockPoints - kWindowPoints,
                                kWindowPoints))) {
          errors[kWriters].push_back("ReadRange of " + s.actual +
                                     " is not what was acked");
        }
      } else {
        const int64_t t = NowNs();
        Result<lossyts::query::QueryResult> answer =
            (*client)->Query(ReaderQuerySpec(blocks));
        book.Record("query", 1e-6 * static_cast<double>(NowNs() - t),
                    OutcomeOf(answer.status()));
        log.reads.push_back({true, 0, blocks});
        if (answer.ok()) {
          log.queries.emplace_back(blocks,
                                   lossyts::query::FormatQueryResult(*answer));
        }
      }
    }
  });
  for (std::thread& t : threads) t.join();
  log.wall_s = SecondsSince(start);
  for (size_t i = 0; i <= kWriters; ++i) {
    result.ops.Merge(books[i]);
    for (const std::string& e : errors[i]) result.Fail(e);
  }
}

// Output gates of one daemon run: every acked append reads back bit-exact,
// and every query answer equals EvaluateGroupedSeries on the same values.
void CheckIngest(const std::vector<WriterStream>& streams,
                 const std::string& socket, RunResult& result,
                 IngestLog& log) {
  Result<std::unique_ptr<lossyts::serve::Client>> client =
      lossyts::serve::Client::Connect(socket);
  if (!client.ok()) {
    result.Fail("check connect: " + client.status().ToString());
    return;
  }
  for (size_t w = 0; w < kWriters; ++w) {
    const WriterStream& s = streams[w];
    for (const auto& [name, pool, blocks] :
         {std::tuple{s.actual, &s.values, log.acked_actual[w]},
          std::tuple{s.pred, &s.pred_values, log.acked_pred[w]}}) {
      Result<TimeSeries> all = (*client)->ReadRange(
          name, kStartTimestamp, std::numeric_limits<int64_t>::max());
      if (!all.ok() || all->start_timestamp() != kStartTimestamp ||
          !SameValues(all->values(), s.Range(*pool, 0, blocks * kBlockPoints))) {
        result.Fail("series " + name + " does not read back its " +
                    std::to_string(blocks) + " acked appends bit-exact");
      }
    }
  }
  for (const auto& [blocks, answer] : log.queries) {
    Result<lossyts::query::QueryResult> expected = ExpectedQuery(streams, blocks);
    if (!expected.ok() ||
        lossyts::query::FormatQueryResult(*expected) != answer) {
      result.Fail("daemon Query differs from EvaluateGroupedSeries at " +
                  std::to_string(blocks) + " blocks");
      break;
    }
  }
  Result<lossyts::serve::ServeStats> stats = (*client)->Stats();
  if (!stats.ok()) {
    result.Fail("Stats: " + stats.status().ToString());
    return;
  }
  log.stats = *stats;
}

uint64_t StoreBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".lts") bytes += e.file_size();
  }
  return bytes;
}

// The acked op stream replayed into directly opened shards with the daemon's
// options, one op per AppendBatch, with the reader's windows read back at
// the progress they were sent at.
void Replay(const std::vector<WriterStream>& streams, const IngestLog& log,
            const lossyts::serve::ShardOptions& shard_options,
            const std::string& dir, Tracer& tracer, RunResult& result) {
  std::vector<std::unique_ptr<lossyts::serve::Shard>> shards;
  for (uint32_t i = 0; i < kShards; ++i) {
    Result<std::unique_ptr<lossyts::serve::Shard>> shard =
        lossyts::serve::Shard::Open(dir + "/shard-" + std::to_string(i),
                                    shard_options);
    if (!shard.ok()) {
      result.Fail("replay shard open: " + shard.status().ToString());
      return;
    }
    shards.push_back(std::move(*shard));
  }
  std::vector<double> batch_ms;
  std::vector<double> checkpoint_s;
  std::vector<double> read_ms;
  std::vector<double> evaluate_ms;
  uint64_t store_bytes = 0;
  uint64_t wal_bytes = 0;
  uint64_t user_bytes = 0;
  std::map<std::string, uint64_t> record_bytes;

  const auto append = [&](const std::string& series,
                          const std::vector<double>& pool,
                          const WriterStream& s, size_t k) {
    lossyts::serve::Shard& shard = *shards[ShardOf(series)];
    const lossyts::serve::ShardStats before = shard.Stats();
    std::vector<lossyts::serve::AppendOp> batch(1);
    batch[0] = {series, TimestampOf(k * kBlockPoints), kInterval,
                s.Block(pool, k)};
    const int id = tracer.Begin("serve.append_batch");
    const std::vector<Status> statuses = shard.AppendBatch(batch);
    tracer.End(id);
    const Span& span = tracer.spans()[static_cast<size_t>(id)];
    const double ms = 1e-6 * static_cast<double>(span.end_ns - span.start_ns);
    const lossyts::serve::ShardStats after = shard.Stats();
    if (!statuses[0].ok()) {
      result.Fail("replay append " + series + ": " + statuses[0].ToString());
    }
    user_bytes += kBlockPoints * sizeof(double);
    if (after.flushes > before.flushes) {
      tracer.Rename(id, "serve.checkpoint");
      checkpoint_s.push_back(1e-3 * ms);
      store_bytes += StoreBytes(dir + "/shard-" +
                                std::to_string(ShardOf(series)));
      wal_bytes += record_bytes[series];
    } else {
      batch_ms.push_back(ms);
      record_bytes[series] = after.wal_bytes - before.wal_bytes;
      wal_bytes += record_bytes[series];
    }
  };
  const auto read = [&](const std::string& series, size_t blocks) {
    Result<TimeSeries> r = lossyts::Status::Internal("unset");
    {
      const int id = tracer.Begin("serve.read_range");
      r = shards[ShardOf(series)]->ReadRange(series, WindowT0(blocks),
                                             WindowT1(blocks));
      tracer.End(id);
      const Span& span = tracer.spans()[static_cast<size_t>(id)];
      read_ms.push_back(1e-6 * static_cast<double>(span.end_ns - span.start_ns));
    }
    if (!r.ok()) result.Fail("replay read " + series + ": " + r.status().ToString());
    return r.ok() ? std::move(*r) : TimeSeries();
  };

  size_t blocks_max = 0;
  for (size_t w = 0; w < kWriters; ++w) {
    blocks_max = std::max(blocks_max, log.acked_actual[w]);
  }
  size_t next_read = 0;
  size_t next_query = 0;
  Tracer::Scope root(tracer, "run.replay");
  for (size_t k = 0; k < blocks_max; ++k) {
    for (size_t w = 0; w < kWriters; ++w) {
      const WriterStream& s = streams[w];
      if (k < log.acked_actual[w]) append(s.actual, s.values, s, k);
      if (k < log.acked_pred[w]) append(s.pred, s.pred_values, s, k);
    }
    for (; next_read < log.reads.size() && log.reads[next_read].blocks <= k + 1;
         ++next_read) {
      const ReaderOp& op = log.reads[next_read];
      if (!op.query) {
        read(streams[op.writer].actual, op.blocks);
        continue;
      }
      Tracer::Scope span(tracer, "run.query");
      std::vector<TimeSeries> series;
      for (const WriterStream& s : streams) {
        series.push_back(read(s.actual, op.blocks));
        series.push_back(read(s.pred, op.blocks));
      }
      std::vector<lossyts::query::SeriesInput> inputs;
      for (size_t w = 0; w < kWriters; ++w) {
        inputs.push_back({streams[w].actual, &series[2 * w], &series[2 * w + 1]});
      }
      std::sort(inputs.begin(), inputs.end(),
                [](const auto& a, const auto& b) { return a.name < b.name; });
      const int id = tracer.Begin("query.evaluate");
      Result<lossyts::query::QueryResult> answer =
          lossyts::query::EvaluateGroupedSeries(inputs,
                                                ReaderQueryOptions(op.blocks));
      tracer.End(id);
      const Span& q = tracer.spans()[static_cast<size_t>(id)];
      evaluate_ms.push_back(1e-6 * static_cast<double>(q.end_ns - q.start_ns));
      if (next_query < log.queries.size() &&
          log.queries[next_query].first == op.blocks) {
        if (!answer.ok() || lossyts::query::FormatQueryResult(*answer) !=
                                log.queries[next_query].second) {
          result.Fail("replayed query differs from the daemon's answer");
        }
        ++next_query;
      }
    }
  }

  const LatencySummary batch = SummarizeLatencies(batch_ms, 0, 0.0);
  std::vector<double> sorted = batch_ms;
  std::sort(sorted.begin(), sorted.end());
  result.Add("serve.append_batch_p50_ms", "ms", batch.p50, batch.samples);
  result.Add("serve.append_batch_p99_ms", "ms",
             sorted.empty() ? 0.0 : PercentileSorted(sorted, 99.0),
             batch.samples);
  double checkpoint_total = 0.0;
  for (double s : checkpoint_s) checkpoint_total += s;
  result.Add("serve.checkpoint_s", "s", checkpoint_total, checkpoint_s.size());
  result.Add("serve.checkpoint_max_s", "s",
             checkpoint_s.empty()
                 ? 0.0
                 : *std::max_element(checkpoint_s.begin(), checkpoint_s.end()),
             checkpoint_s.size());
  result.Add("serve.checkpoints", "count",
             static_cast<double>(checkpoint_s.size()), 1);
  result.Add("store.bytes_written_per_user_byte", "ratio",
             user_bytes ? static_cast<double>(store_bytes) /
                              static_cast<double>(user_bytes)
                        : 0.0,
             checkpoint_s.size());
  result.Add("serve.wal_bytes_per_user_byte", "ratio",
             user_bytes ? static_cast<double>(wal_bytes) /
                              static_cast<double>(user_bytes)
                        : 0.0,
             batch_ms.size() + checkpoint_s.size());
  result.Add("serve.read_range_ms", "ms", Median(read_ms), read_ms.size());
  result.Add("query.evaluate_ms", "ms", Median(evaluate_ms),
             evaluate_ms.size());
}

// The streaming compressor's append path alone, fed every acked value.
void MeasureStream(const std::vector<WriterStream>& streams,
                   const IngestLog& log, RunResult& result) {
  double seconds = 0.0;
  uint64_t points = 0;
  for (size_t w = 0; w < kWriters; ++w) {
    const WriterStream& s = streams[w];
    for (const auto& [pool, blocks] :
         {std::pair{&s.values, log.acked_actual[w]},
          std::pair{&s.pred_values, log.acked_pred[w]}}) {
      Result<std::unique_ptr<lossyts::stream::StreamingCompressor>> stream =
          lossyts::stream::MakeStreamingCompressor("PMC");
      if (!stream.ok() ||
          !(*stream)->Open(kStartTimestamp, kInterval, 0.05).ok()) {
        result.Fail("cannot open a PMC stream");
        return;
      }
      const std::vector<double> values =
          s.Range(*pool, 0, blocks * kBlockPoints);
      std::vector<lossyts::stream::StreamSegment> closed;
      const int64_t t = NowNs();
      for (double v : values) {
        if (!(*stream)->Append(v, &closed).ok()) {
          result.Fail("stream refused a value");
          return;
        }
      }
      seconds += SecondsSince(t);
      points += values.size();
    }
  }
  result.Add("stream.append_ns_per_point", "ns",
             points ? 1e9 * seconds / static_cast<double>(points) : 0.0,
             points);
}

}  // namespace

void RunServe(const RunArgs& args, RunResult& result) {
  const std::string catalog = args.run_dir + "/catalog";
  const lossyts::serve::DaemonOptions daemon_options =
      MakeDaemonOptions(catalog);

  // Set-up, repeated: op-stream generation and Daemon::Start on a fresh
  // catalog. The last daemon of the first round serves the run.
  std::vector<double> setup_s;
  std::vector<WriterStream> streams;
  std::unique_ptr<lossyts::serve::Daemon> daemon;
  const auto start_daemon = [&] {
    Result<std::vector<WriterStream>> made = MakeStreams(args.seed);
    if (!made.ok()) {
      result.Fail("op-stream generation: " + made.status().ToString());
      return false;
    }
    streams = std::move(*made);
    Result<std::unique_ptr<lossyts::serve::Daemon>> started =
        lossyts::serve::Daemon::Start(daemon_options);
    if (!started.ok()) {
      result.Fail("Daemon::Start: " + started.status().ToString());
      return false;
    }
    daemon = std::move(*started);
    return true;
  };
  const auto stop_daemon = [&] {
    if (daemon) {
      if (Status s = daemon->Stop(); !s.ok()) {
        result.Fail("Daemon::Stop: " + s.ToString());
      }
    }
    daemon.reset();
    fs::remove_all(catalog);
  };
  const auto set_up = [&](int reps) {
    return TimeSetup(reps, setup_s, start_daemon, stop_daemon);
  };
  if (!set_up(kSetupReps)) return;
  result.Note("serve: 2 shards, jobs 2, fsync on, 4 MiB WAL checkpoint, "
              "stream PMC@0.05; closed loop of 2 writers (" +
              streams[0].actual + ", " + streams[1].actual +
              " + .fcst twins, 512 points per append) and 1 reader "
              "(ReadRange / grouped Query over the trailing 512 points, one "
              "request per append acked by both writers)");

  // A fixed volume sized from the run length: 125 appends (64 000 points)
  // per series per second of --seconds, about the rate this closed loop
  // sustains on 4 cores with fsync on. A traced run ingests the same volume and then replays it.
  const size_t blocks = static_cast<size_t>(125.0 * args.seconds + 0.5);
  IngestLog log;
  Ingest(streams, daemon_options.socket_path, std::max<size_t>(blocks, 16),
         result, log);
  CheckIngest(streams, daemon_options.socket_path, result, log);
  stop_daemon();

  size_t acked_points = 0;
  for (size_t w = 0; w < kWriters; ++w) {
    acked_points += (log.acked_actual[w] + log.acked_pred[w]) * kBlockPoints;
  }
  const double fail_ms = 1e3 * log.wall_s;
  result.Note("serve: " + std::to_string(acked_points) + " points acked in " +
              FormatG17(log.wall_s) + " s; " + std::to_string(log.queries.size()) +
              " query answers checked; stats flushes " +
              std::to_string(log.stats.flushes) + ", rejected " +
              std::to_string(log.stats.rejected) + ", deadline misses " +
              std::to_string(log.stats.deadline_misses) + ", stream segments " +
              std::to_string(log.stats.stream_segments));

  if (!args.trace) {
    const bool set = set_up(kSetupReps);
    stop_daemon();
    if (!set) return;
    result.Add("setup_s", "s", Median(setup_s), setup_s.size());
    const double rate = static_cast<double>(acked_points) / log.wall_s;
    result.Add("throughput_per_s", "1/s", rate, acked_points);
    result.Add("append_points_per_s", "points/s", rate, acked_points);
    AddLatencyMetrics(result, "append", "append", fail_ms);
    AddLatencyMetrics(result, "read", "read", fail_ms);
    AddLatencyMetrics(result, "query", "query", fail_ms);
    result.Add("p50_ms", "ms", result.Value("append_p50_ms"),
               result.ops.Summary("append", fail_ms).samples);
    return;
  }

  const double client_append_p50 = result.ops.Summary("append", fail_ms).p50;
  const std::string replay_dir = args.run_dir + "/replay";
  fs::remove_all(replay_dir);
  fs::create_directories(replay_dir);
  Tracer tracer;
  Replay(streams, log, daemon_options.shard, replay_dir, tracer, result);
  fs::remove_all(replay_dir);
  MeasureStream(streams, log, result);

  result.Add("serve.frontend_ms", "ms",
             client_append_p50 - result.Value("serve.append_batch_p50_ms"), 1);
  result.Add("serve.flushes", "count", static_cast<double>(log.stats.flushes), 1);
  result.Add("serve.rejected", "count", static_cast<double>(log.stats.rejected),
             1);
  result.Add("serve.deadline_misses", "count",
             static_cast<double>(log.stats.deadline_misses), 1);
  result.Add("serve.stream_segments", "count",
             static_cast<double>(log.stats.stream_segments), 1);
  // The replay takes another path than the daemon run, so the overhead is
  // the measured cost of one span times the spans recorded.
  AddTraceAccounting(result, tracer, SpanCostEstimateS(tracer));
  WriteTrace(result, tracer, args);
}

}  // namespace perfbench
