#ifndef CEPJOIN_PARALLEL_SHARD_ROUTER_H_
#define CEPJOIN_PARALLEL_SHARD_ROUTER_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "parallel/bounded_queue.h"
#include "parallel/event_batch.h"
#include "parallel/query_set.h"

namespace cepjoin {

/// Hash-routes a timestamp-ordered keyed stream to per-shard batch
/// queues. A partition maps to exactly one shard for the lifetime of the
/// router, so each partition's events reach its worker in global arrival
/// order — the invariant the deterministic merge (concurrent_sink.h)
/// relies on.
///
/// Route() is called from a single ingestion thread; workers consume the
/// queues concurrently.
///
/// The router also keeps the books the low watermark needs: for every
/// batch it has pushed and not yet seen acknowledged, the first serial
/// it carries. A worker that reports n completed batches
/// (AcknowledgeBatches) has evaluated every serial of its first n, so
/// LowWatermark() — the first serial some shard has not yet evaluated,
/// or the next serial when every shard is idle — bounds every match key
/// still to come. That only holds while serials strictly increase in
/// routing order; a stream that breaks it (hand-built events, all
/// serial 0) turns the bookkeeping off for the router's lifetime.
class ShardRouter {
 public:
  /// `queue_capacity` is in batches per shard; with the default batch
  /// size a capacity of 8 bounds in-flight events per shard at ~2048.
  ShardRouter(size_t num_shards, size_t batch_size = kDefaultBatchSize,
              size_t queue_capacity = kDefaultQueueCapacity);

  /// Shard owning `partition`: splitmix64-mixed hash mod num_shards, so
  /// dense partition ids (0, 1, 2, ...) still spread evenly.
  size_t ShardOf(uint32_t partition) const;

  /// Appends the event to its shard's pending batch; flushes the batch
  /// to the shard queue once it reaches the batch size (blocking if the
  /// shard's queue is full — back-pressure, never loss).
  void Route(const EventPtr& e);

  /// Routes a run of events that all belong to one partition (the shape
  /// the ingest pipeline's merge emits): the shard hash is computed once
  /// for the whole run instead of per event. Equivalent to calling
  /// Route() on each event.
  void RouteRun(const EventPtr* events, size_t n);

  /// Flushes all non-empty pending batches.
  void FlushAll();

  /// Publishes a new query-set snapshot: every batch flushed from now on
  /// carries it (parallel/query_set.h). Call FlushAll() first so events
  /// routed under the previous set are not retroactively re-tagged. Must
  /// be called from the routing thread.
  void set_query_snapshot(std::shared_ptr<const QuerySetSnapshot> snapshot) {
    snapshot_ = std::move(snapshot);
  }

  /// Enables latency stamping: each pending batch records the wall time
  /// its first event was routed (EventBatch::ingested_at), anchoring the
  /// downstream ingest-to-match histograms. One steady_clock read per
  /// batch; off by default so metric-less runtimes pay nothing.
  void set_stamp_ingest_time(bool enabled) { stamp_ingest_time_ = enabled; }

  /// Pushes an event-less batch carrying the current snapshot to every
  /// shard, so each worker switches epoch now rather than at its next
  /// data batch. Call FlushAll() first. Each marker is in flight at
  /// last_serial() until acknowledged.
  void PushSnapshotToAll();

  /// Flushes pending batches and closes every shard queue (signals
  /// end-of-stream to the workers). Idempotent.
  void CloseAll();

  /// True while every routed serial exceeded the one before it; the
  /// watermark below is meaningful only then.
  bool serials_increasing() const { return serials_increasing_; }
  /// The last serial routed, or 0 before any event.
  EventSerial last_serial() const {
    return events_routed_ > 0 ? next_serial_ - 1 : 0;
  }

  /// Records that `shard`'s worker has completed `batches_done` batches
  /// in total (data batches and snapshot markers; control batches do not
  /// count). Returns true if that acknowledged batches not acknowledged
  /// before.
  bool AcknowledgeBatches(size_t shard, uint64_t batches_done);

  /// The first serial that some shard has not yet evaluated: the oldest
  /// unacknowledged batch, or events still pending here, else the next
  /// serial. Requires serials_increasing().
  EventSerial LowWatermark() const;

  size_t num_shards() const { return queues_.size(); }
  BoundedQueue<EventBatch>& queue(size_t shard) { return *queues_[shard]; }

  /// Events routed so far (including events still in pending batches).
  uint64_t events_routed() const { return events_routed_; }
  /// Batches successfully flushed into shard queues so far.
  uint64_t batches_flushed() const { return batches_flushed_; }
  /// Events dropped because their shard queue was already closed
  /// (flushing after CloseAll). Always 0 in normal operation.
  uint64_t events_dropped() const { return events_dropped_; }

  static constexpr size_t kDefaultQueueCapacity = 8;

 private:
  void Flush(size_t shard);
  /// Serial bookkeeping for one routed event.
  void NoteSerial(EventSerial serial) {
    if (serial < next_serial_) serials_increasing_ = false;
    next_serial_ = serial + 1;
  }

  std::vector<std::unique_ptr<BoundedQueue<EventBatch>>> queues_;
  std::vector<EventBatch> pending_;
  /// Per shard: the watermark serial of each pushed, unacknowledged
  /// batch (its first event's serial; a marker's last_serial()), in push
  /// order, and how many batches were acknowledged. Kept only while
  /// serials_increasing_.
  std::vector<std::deque<EventSerial>> in_flight_;
  std::vector<uint64_t> acknowledged_;
  std::shared_ptr<const QuerySetSnapshot> snapshot_;
  size_t batch_size_;
  bool stamp_ingest_time_ = false;
  bool serials_increasing_ = true;
  EventSerial next_serial_ = 0;
  uint64_t events_routed_ = 0;
  uint64_t batches_flushed_ = 0;
  uint64_t events_dropped_ = 0;
};

}  // namespace cepjoin

#endif  // CEPJOIN_PARALLEL_SHARD_ROUTER_H_
