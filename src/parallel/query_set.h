#ifndef CEPJOIN_PARALLEL_QUERY_SET_H_
#define CEPJOIN_PARALLEL_QUERY_SET_H_

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace cepjoin {

class PartitionPlanner;
class QueryMetrics;

/// One registered keyed query as the shard workers see it: a stable id
/// plus the immutable planner generating its per-partition plans. The
/// planner is owned by the ShardedRuntime and outlives every snapshot
/// referencing it.
struct ShardQuery {
  uint64_t id = 0;
  const PartitionPlanner* planner = nullptr;
  /// Shared per-query instrument bundle (obs/pipeline_metrics.h), owned
  /// by the runtime alongside the planner; null when metrics are off.
  /// All recording through it is striped/atomic, so every worker can
  /// write through the same bundle.
  QueryMetrics* metrics = nullptr;
};

/// An immutable snapshot of the active query set, in registration order.
/// The router stamps the current snapshot onto every flushed batch, so a
/// worker knows *exactly* which queries each event run belongs to: a
/// query registered mid-stream sees precisely the events routed after
/// its snapshot was published, and a deregistered query's engines are
/// finished the moment a worker pops the first batch from a later epoch
/// — FIFO queues make the cut deterministic at any thread count. A
/// removal pushes an event-less batch carrying the new snapshot to every
/// shard, so shards without traffic finish the query promptly too.
///
/// Snapshots are never mutated after publication; workers compare
/// shared_ptr identity to detect epoch changes.
struct QuerySetSnapshot {
  uint64_t epoch = 0;
  std::vector<ShardQuery> queries;
  /// The last serial routed before publication: the order key of the
  /// Finish-time matches of the queries this snapshot removes
  /// (parallel/concurrent_sink.h).
  EventSerial cut_serial = 0;
};

}  // namespace cepjoin

#endif  // CEPJOIN_PARALLEL_QUERY_SET_H_
