#ifndef CEPJOIN_OBS_PIPELINE_METRICS_H_
#define CEPJOIN_OBS_PIPELINE_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "runtime/match.h"

namespace cepjoin {

/// Canonical metric names of the pipeline instruments. Every name,
/// label set and meaning is documented in README.md's metrics reference
/// table; keep the two in sync.
namespace metric_names {
inline constexpr char kIngestEvents[] = "cep_ingest_events_total";
inline constexpr char kIngestBatches[] = "cep_ingest_batches_total";
inline constexpr char kSourceWatermark[] = "cep_source_watermark_seconds";
inline constexpr char kSourceWatermarkLag[] =
    "cep_source_watermark_lag_seconds";
inline constexpr char kMergedWatermark[] = "cep_merged_watermark_seconds";
inline constexpr char kShardEvents[] = "cep_shard_events_total";
inline constexpr char kShardBatches[] = "cep_shard_batches_total";
inline constexpr char kShardQueueDepth[] = "cep_shard_queue_depth";
inline constexpr char kQueryEvents[] = "cep_query_events_total";
inline constexpr char kQueryMatches[] = "cep_query_matches_total";
inline constexpr char kQueryRetractions[] = "cep_query_retractions_total";
inline constexpr char kQueryRevocations[] = "cep_query_revocations_total";
inline constexpr char kIngestToMatchSeconds[] =
    "cep_query_ingest_to_match_seconds";
inline constexpr char kDetectionSeconds[] = "cep_query_detection_seconds";
inline constexpr char kQueryMemoryBytes[] = "cep_query_memory_bytes";
inline constexpr char kInstanceKernelLanes[] =
    "cep_query_instance_kernel_lanes_total";
inline constexpr char kInstanceKernelBlocks[] =
    "cep_query_instance_kernel_blocks_total";
inline constexpr char kLastPositionMatches[] =
    "cep_query_last_position_matches_total";
inline constexpr char kLastPosition[] = "cep_query_last_position";
inline constexpr char kStageSeconds[] = "cep_stage_seconds";
inline constexpr char kIngestSourceRetries[] =
    "cep_ingest_source_retries_total";
inline constexpr char kIngestLateRetractions[] =
    "cep_ingest_late_retractions_total";
inline constexpr char kCheckpointsTotal[] = "cep_checkpoints_total";
inline constexpr char kCheckpointFailures[] = "cep_checkpoint_failures_total";
inline constexpr char kCheckpointsSkipped[] = "cep_checkpoints_skipped_total";
inline constexpr char kCheckpointStallSeconds[] =
    "cep_checkpoint_stall_seconds";
inline constexpr char kCheckpointBytes[] = "cep_checkpoint_bytes";
inline constexpr char kCheckpointLastSeq[] = "cep_checkpoint_last_seq";
inline constexpr char kRestoresTotal[] = "cep_restores_total";
}  // namespace metric_names

/// The per-query instrument bundle, shared by the inline feed path
/// (CepService's match sink wrapper) and every shard worker evaluating
/// the query — all recording is striped/atomic, so one bundle serves any
/// number of threads. Handles are resolved once at query registration;
/// the hot path never touches the registry mutex (the lone exception is
/// the first match at a given last-position, which lazily registers that
/// position's counter).
class QueryMetrics {
 public:
  /// Last positions >= kMaxTrackedPositions are counted into matches but
  /// not per-position (patterns are far smaller in practice).
  static constexpr int kMaxTrackedPositions = 32;

  QueryMetrics(MetricsRegistry* registry, MetricLabels base_labels);

  MetricsRegistry* registry() const { return registry_; }
  const MetricLabels& base_labels() const { return base_labels_; }

  Counter* events_total;
  Counter* matches_total;
  /// Delta-input queries: retractions the engines consumed
  /// (EngineCounters::retractions_processed, delta-synced) and match
  /// revocations delivered to sinks. Net matches = matches_total -
  /// revocations_total; both stay 0 on insert-only queries.
  Counter* retractions_total;
  Counter* revocations_total;
  Histogram* ingest_to_match_seconds;
  Histogram* detection_seconds;
  /// Lanes / 64-lane blocks the vectorized instance×instance combine
  /// kernels processed for this query (EngineCounters::
  /// instance_kernel_lanes/_blocks, delta-synced by the feed paths).
  /// Zero while the columnar path is off — the observable coverage of
  /// the run-at-a-time combine.
  Counter* instance_kernel_lanes;
  Counter* instance_kernel_blocks;

  /// Per-last-position match counter, created lazily on first use. The
  /// init race is benign: GetCounter is idempotent, both racers cache
  /// the same instrument. Returns nullptr for untracked positions.
  Counter* LastPositionCounter(int pos);

  /// Snapshot-time read of the tracked per-position match counts
  /// (index = last position; positions never hit read 0). Feed to
  /// OutputProfiler::MostFrequent for the dominant-position gauge.
  std::vector<uint64_t> LastPositionCounts() const;

  /// Resolves the (query, partition) memory gauge. Registry-mutex cost;
  /// callers cache the handle per live partition.
  Gauge* MemoryGauge(uint32_t partition);
  /// The single pseudo-partition gauge of an unkeyed query.
  Gauge* MemoryGauge() { return MemoryGaugeLabeled("all"); }

 private:
  Gauge* MemoryGaugeLabeled(const std::string& partition_label);

  MetricsRegistry* registry_;
  MetricLabels base_labels_;
  std::atomic<Counter*> last_position_[kMaxTrackedPositions] = {};
};

/// Per-shard pipeline instruments, owned by the sharded runtime.
struct ShardMetrics {
  ShardMetrics(MetricsRegistry* registry, size_t shard);

  Counter* events_total;
  Counter* batches_total;
  Gauge* queue_depth;
};

/// One ingest-to-match latency observation is taken every
/// kIngestLatencySampleEvery-th match per thread (the first match on a
/// thread is always sampled). Sampling bounds the per-match cost of the
/// clock read + histogram record to well under the 2% overhead budget
/// bench_micro asserts; quantiles are unaffected, only the histogram's
/// `count` (and `sum`) reflect samples rather than every match —
/// `cep_query_matches_total` stays exact.
inline constexpr uint32_t kIngestLatencySampleEvery = 16;

/// Records the full per-match bundle: match count, sampled
/// ingest-to-match latency against `ingested_at` (the batch's
/// router-entry time), detection latency carried on the match, and the
/// last-position counter. No-op when `metrics` is null. Shared by the
/// inline sink wrapper and the concurrent shard sink so both paths emit
/// identical totals.
void RecordMatchMetrics(QueryMetrics* metrics, const Match& match,
                        std::chrono::steady_clock::time_point ingested_at);

/// Advances a registry counter mirroring a monotonic engine counter:
/// adds the growth of `current` over `*reported` and records the new
/// watermark. Engine counters only grow, so feeding the delta keeps the
/// registry total exact across any number of sync points (per-batch
/// refreshes, snapshots, query finish) without double counting. No-op
/// when `counter` is null (metrics off).
inline void SyncCounterDelta(Counter* counter, uint64_t current,
                             uint64_t* reported) {
  if (counter == nullptr || current <= *reported) return;
  counter->Inc(current - *reported);
  *reported = current;
}

}  // namespace cepjoin

#endif  // CEPJOIN_OBS_PIPELINE_METRICS_H_
