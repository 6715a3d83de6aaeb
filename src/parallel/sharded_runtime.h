#ifndef CEPJOIN_PARALLEL_SHARDED_RUNTIME_H_
#define CEPJOIN_PARALLEL_SHARDED_RUNTIME_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "adaptive/partition_planner.h"
#include "common/status.h"
#include "event/stream.h"
#include "obs/metrics.h"
#include "obs/pipeline_metrics.h"
#include "parallel/concurrent_sink.h"
#include "parallel/event_batch.h"
#include "parallel/query_set.h"
#include "parallel/shard_checkpoint.h"
#include "parallel/shard_router.h"
#include "parallel/worker.h"
#include "runtime/match.h"

namespace cepjoin {

/// Tuning knobs of the sharded execution layer.
struct ShardedOptions {
  /// Worker threads (shards). 0 means std::thread::hardware_concurrency.
  size_t num_threads = 0;
  /// Events per routed batch (amortizes queue synchronization).
  size_t batch_size = kDefaultBatchSize;
  /// Queue depth per shard, in batches (bounds in-flight memory and
  /// applies back-pressure to the ingestion thread).
  size_t queue_capacity = ShardRouter::kDefaultQueueCapacity;
  /// Observability registry (not owned, may be null = metrics off).
  /// When set, the runtime registers per-shard throughput/queue-depth
  /// instruments, stamps routed batches with their ingest time, and
  /// gives each query a QueryMetrics bundle (labelled query=<id> unless
  /// AddQuery supplies one) recording match counts, ingest-to-match and
  /// detection latency histograms, per-partition memory gauges, and
  /// per-last-position match counters.
  MetricsRegistry* metrics = nullptr;
};

/// Multi-threaded scale-out of PartitionedRuntime (Sec. 6.2 partition
/// contiguity), hosting any number of concurrently registered queries
/// over ONE shared routing pass: partition-local matching is
/// embarrassingly parallel, so events are hash-routed by partition key
/// to N shard workers, each owning, per query, its partitions'
/// per-partition plans and engines. Workers are fed through bounded
/// batch queues; matches funnel into a ConcurrentMatchSink, which
/// replays them into each query's sink in a canonical,
/// thread-count-independent order as the shards' low watermark passes
/// them.
///
/// Guarantees, for any keyed stream, any thread count, and any set of
/// registered queries:
///  - plans are identical to PartitionedRuntime's (shared
///    PartitionPlanner, same statistics, same seed);
///  - each query's drained match sequence is identical to running that
///    query alone on the events routed while it was registered (batches
///    carry query-set snapshots, so mid-stream AddQuery/RemoveQuery cut
///    the stream at a deterministic event boundary);
///  - each query's summed counters are identical to
///    PartitionedRuntime::TotalCounters() on its sub-stream.
///
/// Threading model: the caller's thread ingests (OnEvent/ProcessStream),
/// routes, and registers/removes queries; workers evaluate. Each
/// OnEvent/OnBatch/OnPartitionRun call ends by delivering, on the
/// caller's thread, every match the low watermark has passed: the
/// first serial some shard has not yet evaluated, from the batches the
/// router pushed and the batches each worker reports complete. Finish()
/// closes the queues, joins the workers, and delivers the rest (end-of-
/// stream flushes included) — so downstream MatchSinks see one thread
/// and need no synchronization. A stream whose serials do not strictly
/// increase has no watermark; its matches wait for Finish(). All
/// cross-thread hand-off funnels through the annotated BoundedQueue
/// (parallel/bounded_queue.h), the shard sinks' annotated outboxes
/// (parallel/concurrent_sink.h) and the lock-free metric instruments;
/// the runtime itself holds no mutex and its members are confined to
/// the ingest thread.
class ShardedRuntime {
 public:
  /// Multi-query runtime with no queries yet; use AddQuery().
  explicit ShardedRuntime(const ShardedOptions& options);

  /// Single-query convenience (the pre-service API): plans `pattern`
  /// against per-partition statistics from `history` and registers it
  /// with `sink`. Aborts on an unknown algorithm, matching the legacy
  /// constructors; the service path validates names first.
  ShardedRuntime(const SimplePattern& pattern, const EventStream& history,
                 size_t num_types, const std::string& algorithm,
                 MatchSink* sink, const ShardedOptions& options = {},
                 uint64_t seed = 7, double latency_alpha = 0.0);
  ~ShardedRuntime();

  ShardedRuntime(const ShardedRuntime&) = delete;
  ShardedRuntime& operator=(const ShardedRuntime&) = delete;

  /// Registers a query: later-routed events feed it, earlier ones do
  /// not (the cut is exact — pending router batches are flushed first).
  /// Returns the query's id within this runtime. The planner must be
  /// non-null; `sink` receives the query's matches on the caller's
  /// thread, from the feeding calls once the watermark passes them and
  /// from Finish().
  StatusOr<uint64_t> AddQuery(std::unique_ptr<PartitionPlanner> planner,
                              MatchSink* sink);

  /// As above, but records the query's pipeline metrics through
  /// `metrics` (not owned; must outlive the runtime) instead of a
  /// runtime-owned bundle labelled by the numeric id — this is how
  /// CepService shares ONE bundle between a query's inline and sharded
  /// paths. Ignored (treated as the plain overload) when the runtime
  /// was built without a registry.
  StatusOr<uint64_t> AddQuery(std::unique_ptr<PartitionPlanner> planner,
                              MatchSink* sink, QueryMetrics* metrics);

  /// Deregisters a query: events routed after this call do not feed it.
  /// Every shard is sent the cut at once, finishes the query's engines
  /// (flushing trailing-negation matches, keyed at the cut) and the
  /// matches reach the query's sink as the watermark passes the cut —
  /// from a later feeding call or, at the latest, Finish().
  /// Counters/partition accessors for the query become valid after
  /// Finish().
  Status RemoveQuery(uint64_t query);

  /// Routes one event. Events must arrive in timestamp order, exactly as
  /// with the single-threaded runtimes. Must not be called after
  /// Finish().
  void OnEvent(const EventPtr& e);
  /// Routes a run of events. The router accumulates per-shard batches
  /// either way; this only amortizes the facade call.
  void OnBatch(const EventPtr* events, size_t n);
  /// Routes a run of events known to share one partition (the shape the
  /// async ingest pipeline emits); hashes once per run instead of per
  /// event. Same ordering contract as OnEvent.
  void OnPartitionRun(const EventPtr* events, size_t n);
  void ProcessStream(const EventStream& stream);

  /// Flushes pending batches, signals end-of-stream, joins all workers,
  /// and delivers every match not yet delivered — the end-of-stream
  /// flushes and whatever the watermark had not passed — into each
  /// query's sink in canonical order. Idempotent.
  void Finish();

  size_t num_threads() const { return workers_.size(); }
  size_t num_queries() const { return queries_.size(); }

  /// Distinct partitions one query saw across all workers.
  /// FailedPrecondition before Finish() — reading worker state while
  /// workers run would race (and an in-flight value would be wrong
  /// anyway); NotFound for an unknown query id.
  StatusOr<size_t> NumPartitionsOf(uint64_t query) const;
  /// One query's counters aggregated across all workers' partition
  /// engines. Same preconditions as NumPartitionsOf.
  StatusOr<EngineCounters> CountersOf(uint64_t query) const;
  /// The plan serving one partition under one query; NotFound if the
  /// query never saw the partition. Same preconditions.
  StatusOr<const EnginePlan*> PlanOf(uint64_t query, uint32_t partition) const;

  // Single-query accessors (the pre-service API; require exactly one
  // registered query). Valid after Finish(); abort on violated
  // preconditions like the rest of the legacy surface.
  size_t num_partitions() const;
  const EnginePlan& PlanFor(uint32_t partition) const;
  EngineCounters TotalCounters() const;

  /// Events routed so far.
  uint64_t events_routed() const { return router_.events_routed(); }

  /// The shard owning `partition` under this runtime's thread count.
  size_t ShardOfPartition(uint32_t partition) const {
    return router_.ShardOf(partition);
  }

  /// Checkpoint capture: flushes pending batches, then walks the shards
  /// one at a time, each serializing its live engines on its own worker
  /// thread (control batch; the caller blocks until the shard reports
  /// done). With every shard quiesced it delivers every releasable match
  /// and only then serializes the held sink entries (normally none when
  /// serials increase). The result is a consistent cut: all events routed before
  /// this call are fully evaluated, and each of their matches is either
  /// delivered before this call returns or inside the snapshot; none
  /// routed after are. The runtime stays usable — this is the online
  /// path CheckpointCoordinator drives between batches.
  Status CaptureCheckpoint(ShardedCheckpoint* out);

  /// Checkpoint restore into a freshly constructed runtime with the same
  /// query set already re-registered (any thread count): re-routes each
  /// partition blob to the shard owning it HERE, hands every capture-time
  /// sink blob to every shard (each keeps the entries it now owns), and
  /// remaps sink-entry query ids through `query_remap` (capture-time
  /// runtime id -> this runtime's id). FailedPrecondition if events were
  /// already routed.
  Status RestoreCheckpoint(
      const ShardedCheckpoint& checkpoint,
      const std::unordered_map<uint64_t, uint64_t>& query_remap);

 private:
  struct QueryEntry {
    std::unique_ptr<PartitionPlanner> planner;
    MatchSink* sink = nullptr;
    bool active = false;
    /// The query's shared metrics bundle: `metrics` points at either an
    /// external bundle (AddQuery overload) or `owned_metrics`. Null when
    /// the runtime has no registry. Kept alive until destruction — the
    /// workers hold raw pointers through their snapshots.
    QueryMetrics* metrics = nullptr;
    std::unique_ptr<QueryMetrics> owned_metrics;
  };

  /// Flushes pending batches under the old snapshot, then publishes the
  /// current active set as a new epoch, cut at the last routed serial.
  void PublishSnapshot();
  /// Acknowledges the batches the workers have completed and, if that
  /// moved anything (or `force`), delivers every match below the low
  /// watermark. No-op while serials do not strictly increase.
  void DeliverReleasable(bool force);
  std::function<MatchSink*(uint64_t)> SinkLookup();
  uint64_t SoleQueryId() const;
  /// Runs `fn` on shard `shard`'s worker thread via a control batch and
  /// blocks until it completes. FIFO queue order guarantees every batch
  /// routed before this call is evaluated first.
  Status RunOnWorker(size_t shard,
                     const std::function<void(ShardWorker*)>& fn);

  std::map<uint64_t, QueryEntry> queries_;  // id order == registration order
  /// The snapshot last published to the router; RestoreCheckpoint hands
  /// it to the workers directly (they may not have seen a batch yet).
  std::shared_ptr<const QuerySetSnapshot> snapshot_;
  uint64_t next_query_id_ = 0;
  uint64_t epoch_ = 0;
  MetricsRegistry* metrics_;  // not owned, null = metrics off
  ShardRouter router_;
  ConcurrentMatchSink concurrent_sink_;
  /// Per-shard instruments, address-stable (workers keep pointers).
  std::vector<std::unique_ptr<ShardMetrics>> shard_metrics_;
  std::vector<std::unique_ptr<ShardWorker>> workers_;
  bool finished_ = false;
};

}  // namespace cepjoin

#endif  // CEPJOIN_PARALLEL_SHARDED_RUNTIME_H_
