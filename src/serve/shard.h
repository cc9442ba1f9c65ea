#ifndef LOSSYTS_SERVE_SHARD_H_
#define LOSSYTS_SERVE_SHARD_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/time_series.h"
#include "serve/stream_info.h"
#include "serve/wal.h"
#include "store/format.h"
#include "stream/streaming_compressor.h"

namespace lossyts::serve {

/// Per-shard configuration (the daemon fans one ShardOptions out to all its
/// shards).
struct ShardOptions {
  /// Error bound / chunk span / codec list of the checkpoint stores. The
  /// codec list defaults to the StoreOptions default (PMC, SWING, SZ,
  /// GORILLA); a purely lossless list ({"GORILLA"}) makes recovery
  /// bit-exact, which is what the chaos battery pins.
  double error_bound = 0.05;
  uint32_t chunk_span = 512;
  std::vector<std::string> codecs;
  /// Checkpoint threshold: after an append batch, if the WAL has grown past
  /// this many bytes the shard checkpoints its dirty series into their .lts
  /// stores (see Flush) and resets the log. 0 checkpoints after every batch.
  uint64_t flush_wal_bytes = 4u << 20;
  /// fsync-before-ack. Turning this off voids the durability contract (a
  /// kill can lose acked writes) and exists only for throughput benches.
  bool sync = true;
  /// When non-empty ("PMC"/"SWING"), every series additionally feeds a
  /// per-series open streaming compressor at `stream_error_bound`. The
  /// stream state is derived purely from the durable value sequence, so
  /// recovery rebuilds it by re-feeding the recovered values — after any
  /// crash it is exactly the state of a stream that saw only the surviving
  /// points. Queried via StreamInfo / the kStreamInfo request.
  std::string stream_codec;
  double stream_error_bound = 0.05;
};

/// One logical append (the unit of atomicity: after any crash, each op is
/// fully visible or fully absent — never split).
struct AppendOp {
  std::string series;
  int64_t first_timestamp = 0;
  int32_t interval_seconds = 0;
  std::vector<double> values;
};

/// Aggregate shard counters, summed across shards by the daemon's stats op.
struct ShardStats {
  uint64_t series = 0;
  uint64_t points = 0;
  uint64_t wal_bytes = 0;
  uint64_t appended_ops = 0;
  uint64_t flushes = 0;        ///< Completed checkpoints.
  uint64_t flush_failures = 0; ///< Aborted checkpoints (WAL retained).
  uint64_t salvaged_stores = 0;   ///< Stores opened without a valid footer.
  uint64_t replayed_records = 0;  ///< WAL records applied on open.
  uint64_t streamed_points = 0;   ///< Points accepted by series streams.
  uint64_t stream_segments = 0;   ///< Segments closed by series streams.
  uint64_t stream_rejected = 0;   ///< Points the streams refused.
  bool wal_clean = true;          ///< Open found no torn WAL tail.
  bool failed = false;            ///< The shard writer is dead.
};

/// One shard of the serve catalog: a directory holding one WAL plus one
/// `.lts` checkpoint store per series, mirrored by an in-memory series map.
///
/// Concurrency contract: AppendBatch and Flush are single-writer (the
/// daemon's per-shard drain task enforces this; tests calling them directly
/// must not race them). Read methods are thread-safe against the writer and
/// each other, and snapshot-consistent: each read pins the visible point
/// count under the shard mutex, so a reader never observes half of an
/// append. The writer applies an op to memory only after the WAL fsync that
/// makes it durable, so everything readable is everything recoverable.
///
/// Crash recovery (Open): salvage-open every `.lts` store (torn checkpoints
/// fall back to the longest valid chunk prefix), then replay the WAL on top.
/// Records fully covered by a store are skipped, partially covered records
/// apply only their uncovered suffix (first_index makes this exact), and a
/// gap — a record whose first_index is past the series' recovered length —
/// ends that series' replay, mirroring the torn-tail rule. The WAL is then
/// truncated to its valid prefix and reopened for appending. Each store
/// written under this shard's exact store header keeps its full-chunk
/// prefix for the next checkpoint to copy; any other store is rewritten in
/// full by it.
class Shard {
 public:
  static Result<std::unique_ptr<Shard>> Open(const std::string& dir,
                                             const ShardOptions& options);

  /// Validates, logs, fsyncs, then applies a batch of appends; one Status
  /// per op, positionally. Group commit: the whole batch shares one fsync.
  /// The ops' values move into the log records, so an rvalue batch is never
  /// copied.
  /// Invalid ops (bad id, grid break) fail their slot without poisoning the
  /// batch; a WAL write/fsync failure kills the shard — every op not made
  /// durable by a successful Sync reports the failure, nothing of the batch
  /// becomes visible, and later calls refuse with FailedPrecondition.
  std::vector<Status> AppendBatch(std::vector<AppendOp> ops);

  /// Checkpoints every dirty series into its `.lts` store and resets the
  /// WAL. Each new store is a .tmp sibling (StoreOptions::sync) that starts
  /// with the live store's full-chunk frames, copied verbatim and checked,
  /// and encodes only the values past them; it is then renamed over the
  /// live store and the directory fsync'd. The file is byte-identical to a
  /// one-shot write of all the values. A prefix frame that fails its check
  /// falls back to encoding the whole series from memory. Failure
  /// (including the "shard_flush" failpoint: once per dirty series, once
  /// before the WAL reset) aborts the checkpoint but is NOT fatal: the WAL
  /// still covers everything, so ingest continues and the next threshold
  /// crossing retries.
  Status Flush();

  /// Snapshot-consistent range read (inclusive, clamped to the stored
  /// extent; empty intersection yields an empty series). NotFound for an
  /// unknown series.
  Result<TimeSeries> ReadRange(const std::string& series, int64_t t0,
                               int64_t t1) const;

  /// Series names currently visible, sorted.
  std::vector<std::string> ListSeries() const;

  /// State of the series' open streaming compressor. FailedPrecondition when
  /// the shard runs without a stream codec, or when this series' grid
  /// metadata does not fit the streaming header (i32 timestamp / u16
  /// interval); NotFound for an unknown series. Thread-safe like the other
  /// reads.
  Result<SeriesStreamInfo> StreamInfo(const std::string& series) const;

  ShardStats Stats() const;

  /// True when `name` is a valid series id: 1..128 bytes of [A-Za-z0-9_.-],
  /// not starting with '.', so ids map 1:1 onto checkpoint file names.
  static bool ValidSeriesName(const std::string& name);

 private:
  Shard() = default;

  struct SeriesState {
    int64_t start_timestamp = 0;
    int32_t interval_seconds = 0;
    std::vector<double> values;
    /// Points covered by the on-disk .lts checkpoint (vs the WAL).
    uint64_t store_points = 0;
    /// The on-disk store's full-chunk prefix, which the next checkpoint
    /// copies forward instead of encoding again. Set after each checkpoint's
    /// rename and rebuilt by Open; empty when the store's header differs
    /// from this shard's. Only the writer reads it.
    store::ChunkPrefix store_prefix;
    /// Open streaming compressor (null until first fed, or permanently when
    /// the series' metadata cannot open a stream). Never checkpointed: the
    /// state is a pure function of `values`, rebuilt on recovery.
    std::unique_ptr<stream::StreamingCompressor> stream;
    uint64_t stream_fed = 0;       ///< Values offered to the stream so far.
    uint64_t stream_rejected = 0;  ///< Offers the stream refused.
    bool stream_failed = false;    ///< Stream could not be opened.
  };

  /// Grid position of a series as seen by later ops in the same batch:
  /// committed state plus every earlier op of the batch (which may have
  /// created the series, so the origin travels with the count).
  struct BatchSeries {
    int64_t start_timestamp = 0;
    int32_t interval_seconds = 0;
    uint64_t points = 0;
  };

  /// Validates `op` against the series' current grid (creating the series
  /// on first append) and moves it into the record to log; does not mutate
  /// shard state, only the batch-local `pending` map.
  Result<WalRecord> PrepareOp(
      AppendOp op, std::map<std::string, BatchSeries>& pending) const;
  /// Applies one replayed record during Open (idempotent against the
  /// checkpoint stores). Returns false when the record opens a gap.
  bool ApplyReplayedRecord(const WalRecord& record);
  /// Offers `state`'s un-fed values to its streaming compressor, creating it
  /// on first use. No-op when streaming is off or the stream failed to open.
  /// Caller holds mu_ (or is still single-threaded inside Open).
  void AdvanceStream(SeriesState& state);
  /// The options of this shard's checkpoint stores.
  store::StoreOptions CheckpointOptions() const;

  std::string dir_;
  ShardOptions options_;
  std::unique_ptr<WalWriter> wal_;
  /// Writer-death flag and a WAL size mirror; atomics so Stats() (any
  /// thread) never touches wal_, which only the writer may use.
  std::atomic<bool> failed_{false};
  std::atomic<uint64_t> wal_bytes_{kWalHeaderSize};

  mutable std::mutex mu_;  ///< Guards series_ and the stats counters below.
  std::map<std::string, SeriesState> series_;
  uint64_t appended_ops_ = 0;
  uint64_t flushes_ = 0;
  uint64_t flush_failures_ = 0;
  uint64_t salvaged_stores_ = 0;
  uint64_t replayed_records_ = 0;
  bool wal_clean_ = true;
};

}  // namespace lossyts::serve

#endif  // LOSSYTS_SERVE_SHARD_H_
