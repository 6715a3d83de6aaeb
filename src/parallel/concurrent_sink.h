#ifndef CEPJOIN_PARALLEL_CONCURRENT_SINK_H_
#define CEPJOIN_PARALLEL_CONCURRENT_SINK_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "runtime/match.h"

namespace cepjoin {

class EngineStateReader;
class EngineStateWriter;
class QueryMetrics;

/// Collects matches from concurrently running shard workers and replays
/// them into downstream (single-threaded) MatchSinks in a canonical,
/// thread-count-independent order.
///
/// Design: one ShardSink per worker, each appending to its own buffer —
/// no locking, no false sharing on the hot path. Every entry carries an
/// order key, and delivery stable-sorts entries by (key, flush, partition):
///
///  - matches emitted while processing event s are keyed s (their
///    emit_serial), and s belongs to exactly one partition, so they are
///    totally ordered by key alone — the same order the single-threaded
///    PartitionedRuntime emits them in;
///  - matches flushed when a query's engines are finished are keyed by
///    the cut, not by emit_serial (which is the partition's LAST serial,
///    long past): a mid-stream removal keys them at the last serial
///    routed before it, sorting after that serial's own matches, and
///    end of stream keys them kEndOfStream. Flushes of one cut share a
///    key, so the partition id breaks the tie — ascending partition
///    order, as PartitionedRuntime::Finish emits them;
///  - matches of one (query, partition) are recorded by one worker in
///    that partition's deterministic engine order — and with multiple
///    queries, in snapshot (registration) order within a run — which
///    the stable sort preserves.
///
/// Incremental delivery: after each batch a worker moves its new entries
/// into its shard's outbox (PublishBatch). The thread that feeds the
/// runtime computes a low watermark W — no entry keyed below W can still
/// appear — and DeliverBelow(W) hands over every published entry keyed
/// below W. Released entries always precede the held ones in the
/// canonical order, and a partition is pinned to one shard, so a stable
/// sort of each released prefix followed by the rest is the same
/// sequence as one stable sort of everything: each query's delivered
/// sequence is the same whether the stream ran on 1 worker or 16, and
/// whenever the watermark happened to move.
///
/// Thread-safety: each ShardSink's recording buffer (entries_, the
/// current query/partition/key) is confined to its worker thread. The
/// hand-off to the delivering thread is the outbox, guarded by the
/// shard's annotated outbox_mu_, plus an atomic batch counter the
/// worker bumps after publishing. DeliverBelow() and
/// SaveEntries() touch only outboxes, so they are safe while workers
/// run. total_matches()/DrainTo()/DrainPerQuery() also read the
/// recording buffers and are only legal once the workers have been
/// JOINED (or, in single-threaded use, never started).
class ConcurrentMatchSink {
 public:
  /// Order key of matches flushed at end of stream: after every serial.
  static constexpr EventSerial kEndOfStream =
      std::numeric_limits<EventSerial>::max();

  /// Per-worker MatchSink facade. The owning worker must call
  /// set_current() (or set_current_partition() in single-query use)
  /// before feeding its engines, so recorded matches carry the
  /// partition tie-breaker and the owning query's id.
  class ShardSink : public MatchSink {
   public:
    void OnMatch(const Match& match) override;
    void set_current_partition(uint32_t partition) {
      current_partition_ = partition;
    }
    void set_current(uint64_t query, uint32_t partition,
                     QueryMetrics* metrics = nullptr) {
      current_query_ = query;
      current_partition_ = partition;
      current_metrics_ = metrics;
    }
    /// Latency anchor of the batch being evaluated (its router-entry
    /// time); matches recorded while it is set feed the owning query's
    /// ingest-to-match histogram. A zero (epoch) time point — the
    /// default, and what workers set before Finish-time flushes — skips
    /// that histogram: end-of-stream matches have no ingest anchor.
    void set_batch_ingest_time(std::chrono::steady_clock::time_point t) {
      batch_ingested_at_ = t;
    }
    /// Keys every match recorded until EndFlush() at the cut `key` (see
    /// the class comment): the worker brackets the engine Finish() calls
    /// of a removal with the snapshot's cut serial, and end-of-stream
    /// finishing with kEndOfStream.
    void BeginFlush(EventSerial key) {
      flushing_ = true;
      flush_key_ = key;
    }
    void EndFlush() { flushing_ = false; }

    /// Owning worker, after each batch: moves the entries recorded since
    /// the last call into the outbox, then counts one completed batch.
    void PublishBatch();
    /// As PublishBatch, without counting a batch (restored entries).
    void Publish() CEPJOIN_EXCLUDES(outbox_mu_);
    /// Batches published so far: once it reads n, the outbox holds the
    /// entries of the first n batches (PublishBatch counts after
    /// publishing).
    uint64_t batches_published() const { return batches_published_.load(); }

    /// Checkpoint support: serializes the outbox (matches tagged with
    /// runtime query id + partition) into `w`. Safe on any thread; a
    /// consistent cut needs the worker quiesced, with every releasable
    /// entry already delivered, so the blob holds only the held tail.
    void SaveEntries(EngineStateWriter* w) const
        CEPJOIN_EXCLUDES(outbox_mu_);

    /// Restore counterpart, on the owning worker: decodes a SaveEntries
    /// blob, keeps only the entries whose partition `shard_of` maps to
    /// `shard`, and remaps capture-time runtime query ids through
    /// `query_remap`. Every capture-time shard blob is offered to every
    /// restore-time shard; the filter re-partitions the union under the
    /// new shard map, and the canonical delivery order erases any
    /// difference in which buffer an entry landed in. The blob keeps no
    /// order key, so a loaded entry is keyed by its emit_serial; call
    /// Publish() afterwards.
    Status LoadEntries(EngineStateReader* r, size_t shard,
                       const std::function<size_t(uint32_t)>& shard_of,
                       const std::unordered_map<uint64_t, uint64_t>&
                           query_remap);

   private:
    friend class ConcurrentMatchSink;
    struct Entry {
      Match match;
      uint64_t query = 0;
      uint32_t partition = 0;
      EventSerial key = 0;
      /// Recorded by an engine Finish(): sorts after matches emitted at
      /// the same key.
      bool flush = false;
    };

    /// Moves every outbox entry keyed below `watermark` to `out`,
    /// keeping the rest in order.
    void TakeBelow(EventSerial watermark, std::vector<Entry>* out)
        CEPJOIN_EXCLUDES(outbox_mu_);
    /// Moves every entry, outbox first, to `out`. Workers joined.
    void TakeAll(std::vector<Entry>* out) CEPJOIN_EXCLUDES(outbox_mu_);
    /// Entries not yet delivered. Workers joined.
    size_t held() const CEPJOIN_EXCLUDES(outbox_mu_);

    std::vector<Entry> entries_;
    uint64_t current_query_ = 0;
    uint32_t current_partition_ = 0;
    QueryMetrics* current_metrics_ = nullptr;
    std::chrono::steady_clock::time_point batch_ingested_at_{};
    bool flushing_ = false;
    EventSerial flush_key_ = 0;

    mutable Mutex outbox_mu_;
    std::vector<Entry> outbox_ CEPJOIN_GUARDED_BY(outbox_mu_);
    std::atomic<uint64_t> batches_published_{0};
  };

  explicit ConcurrentMatchSink(size_t num_shards);

  ShardSink* shard(size_t i) { return shards_[i].get(); }
  size_t num_shards() const { return shards_.size(); }

  /// Incremental delivery: replays every published entry keyed below
  /// `watermark` in canonical order, dispatching each to
  /// `sink_for(query id)` (a null sink drops that query's matches).
  /// The caller guarantees that no entry keyed below `watermark` can
  /// still be recorded. Safe while workers run.
  void DeliverBelow(EventSerial watermark,
                    const std::function<MatchSink*(uint64_t)>& sink_for);

  /// Total matches held across all shards. Only meaningful once the
  /// workers have stopped.
  size_t total_matches() const;

  /// Replays every held match into `out` in canonical order (see class
  /// comment), ignoring query tags, and clears the buffers. Must only be
  /// called after all workers have been joined.
  void DrainTo(MatchSink* out);

  /// Multi-query drain: replays every held match in canonical order,
  /// dispatching each to `sink_for(query id)` — each query's sink
  /// receives exactly the subsequence a single-query run would have
  /// produced. A null sink drops that query's matches. Clears the
  /// buffers; must only be called after all workers have been joined.
  void DrainPerQuery(const std::function<MatchSink*(uint64_t)>& sink_for);

 private:
  /// Stable-sorts `entries` into canonical order and dispatches them.
  static void Deliver(std::vector<ShardSink::Entry>* entries,
                      const std::function<MatchSink*(uint64_t)>& sink_for);

  std::vector<std::unique_ptr<ShardSink>> shards_;
};

}  // namespace cepjoin

#endif  // CEPJOIN_PARALLEL_CONCURRENT_SINK_H_
