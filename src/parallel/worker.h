#ifndef CEPJOIN_PARALLEL_WORKER_H_
#define CEPJOIN_PARALLEL_WORKER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "adaptive/partition_planner.h"
#include "common/status.h"
#include "obs/pipeline_metrics.h"
#include "parallel/bounded_queue.h"
#include "parallel/concurrent_sink.h"
#include "parallel/event_batch.h"
#include "parallel/query_set.h"
#include "parallel/shard_checkpoint.h"

namespace cepjoin {

/// One shard's execution thread. Hosts, for every registered query, the
/// engines of every partition hashed to this shard; consumes event
/// batches from its queue in FIFO order (preserving global arrival
/// order within each partition), and emits matches to its private
/// ShardSink tagged with (query, partition) — no shared mutable state
/// with other workers.
///
/// Multi-query: each batch carries the query-set snapshot that was
/// active when it was routed. A run of events costs ONE queue pop and
/// ONE partition-run segmentation regardless of how many queries are
/// registered — the per-query cost is just the engine feed. On an epoch
/// change the worker finishes the engines of queries that left the set
/// (flushing their trailing-negation matches) before touching the new
/// batch, so a deregistered query sees exactly the events routed before
/// its deregistration.
///
/// Plans come from each query's shared, immutable PartitionPlanner, so a
/// partition gets the same plan here as it would in the single-threaded
/// PartitionedRuntime.
///
/// After each batch (event-less epoch markers included) the worker
/// publishes the batch's matches to its ShardSink's outbox and counts
/// the batch there; the runtime turns those counts into the low
/// watermark that releases matches to the query sinks.
///
/// Thread-safety: the ONLY synchronized state a worker touches is its
/// BoundedQueue (whose lock protocol carries thread-safety annotations;
/// see parallel/bounded_queue.h), its ShardSink's outbox (annotated
/// mutex, parallel/concurrent_sink.h) and the striped-atomic metric
/// instruments. Everything else — queries_, the engines, the ShardSink's
/// recording buffer — is confined to the worker thread between Start()
/// and Join(); CountersOf()/NumPartitionsOf()/PlanFor() are caller-thread
/// reads made safe by the Join() happens-before edge, hence "valid only
/// after Join()".
class ShardWorker {
 public:
  /// `metrics` (owned by the runtime, may be null) carries this shard's
  /// pipeline instruments: per-shard event/batch counters and the queue
  /// depth gauge, updated once per popped batch.
  ShardWorker(BoundedQueue<EventBatch>* queue,
              ConcurrentMatchSink::ShardSink* sink,
              const ShardMetrics* metrics = nullptr);
  ~ShardWorker();

  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  /// Launches the worker thread. The thread runs until the queue is
  /// closed and drained, then finishes every remaining engine.
  void Start();

  /// Waits for the worker thread to exit. The queue must have been
  /// closed first, or Join() blocks forever. Idempotent.
  void Join();

  /// Aggregated counters across one query's partition engines on this
  /// shard (disjoint sub-streams: totals sum). Zero counters if this
  /// worker never saw events for the query. Valid only after Join().
  EngineCounters CountersOf(uint64_t query) const;

  /// Partitions this worker instantiated engines for, for one query.
  /// Valid after Join().
  size_t NumPartitionsOf(uint64_t query) const;

  /// The plan serving `partition` under `query`, or nullptr if this
  /// worker never saw that combination. Valid only after Join().
  const EnginePlan* PlanFor(uint64_t query, uint32_t partition) const;

  /// Checkpoint capture: serializes every live (unfinished) engine on
  /// this shard into `partitions` (ascending query id, then ascending
  /// partition). MUST run on the worker thread — the runtime delivers it
  /// via a control batch (EventBatch::control), which also guarantees
  /// every earlier batch has been fully evaluated and published. The
  /// sink's held entries are serialized by the runtime from its outbox.
  Status CaptureState(std::vector<PartitionSnapshot>* partitions);

  /// Checkpoint restore into a freshly started worker: adopts `snapshot`
  /// as the active query set, rebuilds an engine for each of this
  /// shard's `partitions` entries and loads its state, then loads from
  /// every capture-time `sink_blobs` entry the buffered matches whose
  /// partition `shard_of` maps to `shard`, remapping their query ids
  /// through `query_remap` (capture-time runtime id -> this runtime's
  /// id), and publishes them to the outbox. Same control-batch delivery
  /// contract as CaptureState.
  Status RestoreState(std::shared_ptr<const QuerySetSnapshot> snapshot,
                      const std::vector<const PartitionSnapshot*>& partitions,
                      const std::vector<const std::string*>& sink_blobs,
                      const std::unordered_map<uint64_t, uint64_t>& query_remap,
                      size_t shard,
                      const std::function<size_t(uint32_t)>& shard_of);

 private:
  struct PartitionState {
    EnginePlan plan;
    std::unique_ptr<Engine> engine;
    /// Exact cep_query_memory_bytes{query, partition} gauge, refreshed
    /// from the engine's counters after every run this partition
    /// evaluates and zeroed when the engine is released. Null when
    /// metrics are off. The handle is cached here so the hot loop never
    /// touches the registry mutex.
    Gauge* memory = nullptr;
    /// Watermarks of this engine's instance-kernel counters already
    /// folded into the query's registry totals (SyncCounterDelta): the
    /// registry counter is shared across partitions and shards, so each
    /// engine contributes growth deltas, synced per run and at finish.
    uint64_t kernel_lanes_reported = 0;
    uint64_t kernel_blocks_reported = 0;
    /// Watermark of EngineCounters::retractions_processed already folded
    /// into cep_query_retractions_total; same delta-sync discipline.
    uint64_t retractions_reported = 0;
  };
  struct QueryState {
    const PartitionPlanner* planner = nullptr;
    QueryMetrics* metrics = nullptr;
    std::unordered_map<uint32_t, PartitionState> partitions;
    bool finished = false;
    EngineCounters counters;  // aggregated when the query finishes
  };

  void Run();
  QueryState& QueryStateFor(const ShardQuery& query);
  PartitionState& StateFor(QueryState& query, uint32_t partition);
  /// Finishes one query's engines in ascending partition order,
  /// aggregates its counters, and releases the engines.
  void FinishQuery(uint64_t id, QueryState& state);
  /// Finishes every live query absent from `next` (ascending query id).
  void FinishQueriesRemovedBy(const QuerySetSnapshot& next);

  BoundedQueue<EventBatch>* queue_;
  ConcurrentMatchSink::ShardSink* sink_;
  const ShardMetrics* metrics_;
  std::unordered_map<uint64_t, QueryState> queries_;
  std::shared_ptr<const QuerySetSnapshot> active_;
  std::thread thread_;
  bool joined_ = false;
};

}  // namespace cepjoin

#endif  // CEPJOIN_PARALLEL_WORKER_H_
