#ifndef CEPJOIN_PARALLEL_INGEST_PIPELINE_H_
#define CEPJOIN_PARALLEL_INGEST_PIPELINE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "event/event.h"
#include "event/stream_source.h"
#include "obs/metrics.h"
#include "parallel/bounded_queue.h"
#include "parallel/event_batch.h"

namespace cepjoin {

/// Unit of transfer between an ingestion thread and the merge stage: a
/// timestamp-ordered run of raw events (serials not yet assigned) from
/// one source group. A chunk with a non-empty `error` is a failure
/// sentinel: the group's source `failed_source` died with that message
/// and no further chunks follow.
struct SourceChunk {
  std::vector<Event> events;
  std::string error;
  size_t failed_source = 0;
};

/// Tuning knobs of the async ingestion stage.
struct IngestOptions {
  /// Ingestion threads. Sources are split into this many contiguous
  /// groups, one thread each; 0 (and any surplus) means one thread per
  /// source.
  size_t num_ingest_threads = 0;
  /// Events per SourceChunk, and the cap on the same-partition runs the
  /// merge emits (amortizes queue synchronization; bounds merge-stage
  /// buffering).
  size_t chunk_size = kDefaultBatchSize;
  /// Queue depth per ingestion thread, in chunks (back-pressure toward
  /// the sources when parsing outruns evaluation).
  size_t queue_capacity = 8;
  /// Transient-failure retries per StreamSource::Next call: a source
  /// failing with StatusCode::kUnavailable (StreamSource::error_code) is
  /// re-polled up to this many times with exponential backoff before its
  /// group fails. Parse/validation errors (kInvalidArgument) are never
  /// retried — re-reading malformed input cannot fix it. 0 = fail fast.
  size_t source_retry_limit = 0;
  /// Initial backoff before the first retry; doubles per attempt.
  std::chrono::milliseconds source_retry_backoff{10};
  /// Delta streams: how far behind the merge frontier an insertion stays
  /// resolvable by a retraction (RetractionLedger's horizon). Retractions
  /// of older targets pass through as late no-ops, counted by
  /// cep_ingest_late_retractions_total. CepService derives it from its
  /// registered queries' windows; the default keeps every insertion.
  Timestamp retraction_horizon = std::numeric_limits<Timestamp>::infinity();
  /// Observability registry (not owned, may be null = metrics off).
  /// When set, the pipeline exposes per-source event-time watermarks
  /// (cep_source_watermark_seconds{source=i}: the last timestamp each
  /// source emitted into its group merge), per-source watermark lag
  /// (cep_source_watermark_lag_seconds{source=i}: how far the source's
  /// watermark trails the most advanced source — the slack the k-way
  /// merge is buffering on its behalf), the merged output watermark
  /// (cep_merged_watermark_seconds), and ingest throughput counters.
  MetricsRegistry* metrics = nullptr;
};

/// Outcome of one pipeline run. [[nodiscard]]: a dropped result swallows
/// the first source failure — the merged prefix was still evaluated, so
/// the caller would silently act on a truncated stream.
struct [[nodiscard]] IngestResult {
  bool ok = false;
  /// First source failure observed by the merge (parse error, timestamp
  /// regression, non-finite timestamp).
  std::string error;
  /// Index (into the constructor's source vector) of the failing source.
  size_t failed_source = 0;
  /// Events delivered to the consumer. On failure this is the valid
  /// merged prefix that was already handed downstream.
  uint64_t events = 0;
};

/// The async ingestion stage: N source threads feeding a k-way
/// timestamp-ordered merge.
///
/// Each ingestion thread owns a contiguous group of sources, pulls
/// events from them directly (no intra-group queues, so a thread can
/// never deadlock against itself), merges its group locally by
/// (ts, source index), and pushes timestamp-ordered chunks into its
/// bounded queue. The caller of Run() — the router thread — performs the
/// top-level merge across the per-thread queues by (ts, group index),
/// assigns global serials and per-partition sequence numbers exactly as
/// EventStream::Append would, and hands maximal same-partition runs
/// (capped at chunk_size) to the consumer.
///
/// Determinism: both merge levels break timestamp ties by source index
/// (groups are contiguous and ascending, so the two-level tie-break
/// composes to a single global rule). The merged event sequence —
/// order, serials, partition_seqs — is therefore a pure function of the
/// sources, independent of thread count, chunk size, queue capacity,
/// and scheduling. Feeding the runs to the sharded router yields a
/// match set byte-identical to replaying the same merged sequence
/// through the synchronous runtimes.
///
/// Failure: a source that errors (or emits a non-finite or regressing
/// timestamp) ends its group with a sentinel chunk. The merge delivers
/// everything ordered before the failure it has already merged, then
/// stops, closes all queues (releasing blocked producers), joins the
/// threads, and reports the first failure in the IngestResult.
class IngestPipeline {
 public:
  /// Consumer of merged output: a maximal (chunk_size-capped) run of
  /// consecutive same-partition events in merged global order.
  using RunConsumer = std::function<void(const EventPtr* run, size_t n)>;

  IngestPipeline(std::vector<std::unique_ptr<StreamSource>> sources,
                 const IngestOptions& options = {});
  ~IngestPipeline();

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Starts the ingestion threads, merges to completion (or first
  /// failure), and joins them. Blocks the calling thread; callable
  /// once.
  IngestResult Run(const RunConsumer& consume);

  size_t num_sources() const { return sources_.size(); }
  /// Ingestion threads Run() will use (groups of sources).
  size_t num_ingest_threads() const { return num_groups_; }

 private:
  struct Group {
    size_t first_source;  // global index of the group's first source
    size_t num_sources;
    std::unique_ptr<BoundedQueue<SourceChunk>> queue;
  };

  void IngestGroup(Group& group);
  void CloseAndJoin();
  /// Refreshes the per-source lag gauges against the current maximum
  /// source watermark. Called from the merge thread once per delivered
  /// run; reads the watermark gauges the group threads write (atomic).
  void UpdateWatermarkLags();

  std::vector<std::unique_ptr<StreamSource>> sources_;
  IngestOptions options_;
  std::vector<Group> groups_;
  size_t num_groups_ = 0;
  std::vector<std::thread> threads_;
  bool ran_ = false;
  // Metrics handles, resolved once at construction (null = metrics off).
  std::vector<Gauge*> source_watermark_;  // one per source
  std::vector<Gauge*> source_lag_;        // one per source
  Gauge* merged_watermark_ = nullptr;
  Counter* ingest_events_ = nullptr;
  Counter* ingest_batches_ = nullptr;
  Counter* source_retries_ = nullptr;
};

}  // namespace cepjoin

#endif  // CEPJOIN_PARALLEL_INGEST_PIPELINE_H_
