#ifndef CEPJOIN_API_CEP_SERVICE_H_
#define CEPJOIN_API_CEP_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "adaptive/partitioned_runtime.h"
#include "api/query_spec.h"
#include "common/status.h"
#include "engine/engine_factory.h"
#include "event/arena.h"
#include "event/partition_sequencer.h"
#include "event/retraction_ledger.h"
#include "event/stream.h"
#include "event/stream_source.h"
#include "obs/metrics.h"
#include "obs/pipeline_metrics.h"
#include "parallel/ingest_pipeline.h"
#include "parallel/sharded_runtime.h"
#include "stats/collector.h"

namespace cepjoin {

class CepService;
class EngineStateWriter;

/// Construction-time configuration of a CepService. Validated by
/// CepService::Create (returned errors, no aborts).
struct ServiceOptions {
  /// Statistics source: a historical stream (the paper's preprocessing
  /// pass). Required for keyed queries (per-partition statistics) and
  /// for unkeyed queries registered without explicit stats. Must
  /// outlive Register() calls that consume it.
  const EventStream* history = nullptr;
  /// Registry size (number of event types). Required with `history`;
  /// also bounds the type ids a registered pattern may reference.
  size_t num_types = 0;
  /// Pre-built statistics collector, an alternative unkeyed stats
  /// source (takes precedence over `history` for unkeyed queries).
  /// Must outlive Register() calls that consume it.
  const StatsCollector* collector = nullptr;
  /// Worker threads for keyed queries: 1 runs each keyed query on a
  /// single-threaded PartitionedRuntime; any other value runs ALL keyed
  /// queries inside one sharded runtime (0 = hardware concurrency),
  /// where N queries cost one routing pass, not N.
  size_t num_threads = 1;
  /// Events per evaluation batch (ProcessStream chunking, router batch
  /// size, async merge run cap). Must be >= 1.
  size_t batch_size = 256;
  /// Ingestion source threads for ProcessSourceAsync (0 = one per
  /// source).
  size_t num_ingest_threads = 0;
  /// Seed for randomized plan generators when a QuerySpec sets none.
  uint64_t default_seed = 7;
  /// Transient-failure retries per StreamSource::Next call on the async
  /// ingest path and PumpAttachedSources: a source failing with
  /// StatusCode::kUnavailable (see StreamSource::error_code) is retried
  /// up to this many times with exponential backoff before the failure
  /// becomes final. 0 = fail fast (the pre-retry behavior). Retries are
  /// counted by cep_ingest_source_retries_total.
  size_t source_retry_limit = 0;
  /// Initial backoff before the first retry; doubles per attempt.
  std::chrono::milliseconds source_retry_backoff{10};
  /// Runtime observability (src/obs/): per-query match/latency/memory
  /// instruments, per-shard throughput, ingest watermarks — exported by
  /// MetricsSnapshot(). The instruments are striped relaxed atomics, so
  /// leaving this on costs low single-digit nanoseconds per event/match;
  /// turn it off to make MetricsSnapshot() return an empty snapshot and
  /// the ingest path skip its per-batch clock read.
  bool enable_metrics = true;
};

/// Reference to one registered query. Handles are small copyable values
/// tied to the service that issued them; the service must outlive every
/// handle. A default-constructed handle is invalid.
class QueryHandle {
 public:
  QueryHandle() = default;

  bool valid() const { return service_ != nullptr; }
  /// Id of the query within its service (stable, never reused).
  uint64_t id() const { return id_; }

  /// Stops feeding the query. Unkeyed and single-threaded keyed
  /// queries are finished immediately (trailing matches flush to the
  /// query's sink inline); sharded keyed queries are cut at the current
  /// routing position, finish as every worker passes the cut, and their
  /// matches reach the sink as the shards' watermark passes them (at the
  /// latest at the service's Finish()).
  Status Deregister();

  /// The query's counters. Unkeyed / single-threaded keyed: valid any
  /// time. Sharded keyed: FailedPrecondition until the service has
  /// finished (reading racing workers would return wrong data).
  StatusOr<EngineCounters> counters() const;

  /// The query's evaluation plans, one per DNF subpattern. Unkeyed
  /// queries only; keyed queries are planned per partition — use
  /// num_partitions()/PlanFor().
  StatusOr<std::vector<EnginePlan>> plans() const;

  /// Distinct partitions this keyed query has seen. Single-threaded:
  /// valid any time. Sharded: FailedPrecondition before the service
  /// has finished — the precondition is enforced, never silently
  /// answered with a stale or partial count.
  StatusOr<size_t> num_partitions() const;

  /// The plan serving one partition of a keyed query.
  StatusOr<EnginePlan> PlanFor(uint32_t partition) const;

 private:
  friend class CepService;
  QueryHandle(CepService* service, uint64_t id) : service_(service), id_(id) {}

  CepService* service_ = nullptr;
  uint64_t id_ = 0;
};

/// A long-lived CEP session hosting many concurrently registered
/// pattern queries over ONE shared ingest path — the deployment shape
/// the paper's evaluation assumes (many queries, one stream). Queries
/// are described declaratively (QuerySpec), registered and retired at
/// any point of the stream, and served per-query match streams,
/// counters, and plans through QueryHandle.
///
///   auto service = CepService::Create({.history = &history,
///                                      .num_types = registry.size(),
///                                      .num_threads = 4}).value();
///   auto handle = service->Register(QuerySpec::Simple(pattern)
///                                       .Keyed()
///                                       .WithAlgorithm("DP-LD")
///                                       .WithSink(&sink));
///   if (!handle.ok()) { /* bad spec: returned, not aborted */ }
///   service->ProcessStream(live);
///   service->Finish();
///
/// Execution: unkeyed queries run on per-query engines fed inline on
/// the ingest thread; keyed queries run per-partition, single-threaded
/// or inside one shared sharded runtime (options.num_threads) where N
/// queries cost one routing pass. Every query's match sequence and
/// counters are byte-identical to running it alone on the events
/// ingested while it was registered, at every thread count.
///
/// Thread-safety: the service is a single-caller facade — Register,
/// Remove, OnEvent/ProcessStream/ProcessSource*, and Finish must all be
/// invoked from one thread (or be externally serialized). The service
/// spawns threads internally (shard workers, ingest groups), but every
/// cross-thread edge lives behind the annotated BoundedQueue and the
/// registry's annotated mutex (obs/metrics.h); the service object
/// itself holds no lock for the linter's no-raw-mutex rule to find.
class CepService {
 public:
  /// Validates `options` (bad batch size, history without num_types)
  /// and builds an empty service.
  static StatusOr<std::unique_ptr<CepService>> Create(
      const ServiceOptions& options);

  ~CepService();
  CepService(const CepService&) = delete;
  CepService& operator=(const CepService&) = delete;

  /// Validates the spec and registers the query. All spec errors —
  /// unknown algorithm (the message lists KnownAlgorithms()), missing
  /// pattern or sink, keyed nested patterns, statistics/pattern
  /// dimension mismatches, type ids outside the service's registry —
  /// come back as InvalidArgument; nothing aborts. A query registered
  /// mid-stream sees exactly the events ingested after Register
  /// returns.
  StatusOr<QueryHandle> Register(const QuerySpec& spec);

  /// Deregisters by id; see QueryHandle::Deregister.
  Status Deregister(uint64_t query_id);

  // ---- shared ingest: every active query sees the same stream -------

  /// Feeds one event (timestamp order) to every active query.
  void OnEvent(const EventPtr& e);
  /// Feeds a run of events through every active query's batched path.
  void OnBatch(const EventPtr* events, size_t n);
  /// Replays a finite stream in batch_size chunks.
  void ProcessStream(const EventStream& stream);
  /// Async ingestion (parallel/ingest_pipeline.h): parses `sources` on
  /// dedicated threads, merges in timestamp order, and fans the merged
  /// runs to every active query. Blocks until the sources drain or one
  /// fails; the valid merged prefix has been evaluated either way.
  IngestResult ProcessSourceAsync(
      std::vector<std::unique_ptr<StreamSource>> sources);
  IngestResult ProcessSourceAsync(std::unique_ptr<StreamSource> source);

  // ---- durable ingest: attached sources with replayable positions ----

  /// Attaches a source to the service-owned ingest state (serial
  /// assignment, per-partition sequencing, retraction resolution). The
  /// attached sources are pulled by PumpAttachedSources on the caller's
  /// thread — the checkpointable alternative to ProcessSourceAsync: the
  /// per-source read positions are part of every checkpoint, and
  /// RestoreFrom seeks positional sources (StreamSource::supports_
  /// position) back to them, replaying exactly the un-checkpointed tail.
  /// Attach every source before the first pump.
  Status AttachSource(std::unique_ptr<StreamSource> source);
  size_t num_attached_sources() const { return attached_.size(); }

  /// Pulls up to `max_events` events from the attached sources, merged
  /// across sources in (timestamp, inserts-first, attach-order) order —
  /// the async pipeline's merge, run synchronously — and feeds them to
  /// every active query. Returns the number of events fed; 0 means all
  /// sources are exhausted. Source parse/validation failures surface as
  /// InvalidArgument (or Unavailable for transient failures after
  /// retries; see ServiceOptions::source_retry_limit) with the valid
  /// prefix already evaluated.
  StatusOr<size_t> PumpAttachedSources(
      size_t max_events = std::numeric_limits<size_t>::max());

  // ---- durability: checkpoint and restore ---------------------------

  /// Serializes the full engine state — every active query's windows,
  /// partial-match instances, counters, held sharded matches, and
  /// the attached sources' merge/read positions — into `out` as one
  /// deterministic payload (durable/snapshot_codec.h framing). The cut
  /// is consistent: everything ingested before the call is inside,
  /// nothing after. The service keeps running.
  Status CaptureCheckpointBytes(std::string* out);

  /// Captures (as CaptureCheckpointBytes) and publishes the result as
  /// the next checkpoint in `dir` via the crash-safe two-phase manifest
  /// protocol (durable/checkpoint_store.h). Creates `dir` if missing.
  Status CheckpointTo(const std::string& dir);

  struct RestoreReport {
    /// Sequence number of the checkpoint that was restored.
    uint64_t checkpoint_seq = 0;
    /// True when the newest checkpoint was corrupt and recovery fell
    /// back to the previous one; `detail` names the corruption. The
    /// fallback loses only the work since that older cut — tail replay
    /// from the restored source positions recovers the rest.
    bool fell_back = false;
    std::string detail;
  };

  /// Restores the newest valid checkpoint from `dir` into THIS service,
  /// which must be freshly created with the same options shape (thread
  /// class: 1 vs sharded) and the same queries registered in the same
  /// order, with the same attached sources. Positional sources are
  /// seeked to their recorded offsets so the next PumpAttachedSources
  /// replays the un-checkpointed tail; drained match sequences are then
  /// byte-identical to a run that never crashed. NotFound if `dir` or
  /// its manifest does not exist; DataLoss if no stored checkpoint
  /// verifies; FailedPrecondition if this service's registration
  /// sequence disagrees with the checkpoint's.
  StatusOr<RestoreReport> RestoreFrom(const std::string& dir);

  /// Ends the session: finishes every active query, joins the sharded
  /// workers, and delivers each query's remaining matches to its sink.
  /// Idempotent. No ingest or registration is accepted afterwards.
  void Finish();

  // ---- introspection ------------------------------------------------

  /// One coherent view of every instrument: per-query event/match
  /// counters, ingest-to-match and detection latency histograms
  /// (HistogramData::Quantile gives p50/p99), exact per-(query,
  /// partition) memory bytes, dominant last-position gauges, per-shard
  /// throughput/queue depth, and ingest watermarks. Inline-fed memory
  /// gauges are refreshed on the way; sharded workers keep theirs
  /// current. Builds of CEPJOIN_DETAILED_METRICS also append the
  /// cep_stage_seconds drill-down histograms. Callable any time —
  /// mid-stream snapshots are racy-free but momentary; empty when the
  /// service was created with enable_metrics = false. Export with
  /// ToPrometheusText()/ToJson() (obs/export.h).
  cepjoin::MetricsSnapshot MetricsSnapshot();

  /// The registry backing MetricsSnapshot(); null when metrics are off.
  /// Exposed for callers that want to add their own instruments next to
  /// the runtime's.
  MetricsRegistry* metrics_registry() { return metrics_registry_.get(); }

  /// Queries currently fed by the ingest path.
  size_t num_active_queries() const;
  /// Total queries ever registered.
  size_t num_queries() const { return queries_.size(); }
  /// True once any keyed query runs on the shared sharded runtime.
  bool sharded() const { return sharded_ != nullptr; }
  /// Worker threads keyed queries execute on.
  size_t num_threads() const;
  bool finished() const { return finished_; }

  // Per-query accessors backing QueryHandle (see its documentation).
  StatusOr<EngineCounters> CountersOf(uint64_t query_id) const;
  StatusOr<std::vector<EnginePlan>> PlansOf(uint64_t query_id) const;
  StatusOr<size_t> NumPartitionsOf(uint64_t query_id) const;
  StatusOr<EnginePlan> PlanForPartitionOf(uint64_t query_id,
                                          uint32_t partition) const;

  // Wrapper support (CepRuntime): stable references into an unkeyed
  // query's state, valid while the service lives. Abort on unknown ids
  // or keyed queries — the wrappers own their single query.
  const std::vector<SimplePattern>& UnkeyedSubpatterns(
      uint64_t query_id) const;
  const std::vector<EnginePlan>& UnkeyedPlans(uint64_t query_id) const;
  const EngineCounters& UnkeyedCounters(uint64_t query_id) const;
  /// Forgets ServiceOptions::collector (wrapper support: the nested
  /// CepRuntime constructor hands in a caller-owned collector that only
  /// outlives construction; later registrations through service() must
  /// report "no statistics source" instead of dereferencing it).
  void DropExternalCollector() { options_.collector = nullptr; }

 private:
  struct QueryState {
    std::string name;
    bool keyed = false;
    bool active = false;
    // Exactly one evaluation host, by (keyed, num_threads):
    std::unique_ptr<Engine> engine;                   // unkeyed
    std::unique_ptr<PartitionedRuntime> partitioned;  // keyed, 1 thread
    uint64_t sharded_id = 0;                          // keyed, sharded
    bool uses_sharded = false;
    std::vector<SimplePattern> subpatterns;  // unkeyed
    std::vector<EnginePlan> plans;           // unkeyed
    std::unique_ptr<MatchSink> owned_sink;   // callback adapter, if any
    MatchSink* sink = nullptr;
    /// The query's instrument bundle (null = metrics off). Shared with
    /// the sharded workers for keyed sharded queries; recorded through
    /// `metrics_sink` (wrapping `sink`) on the inline paths.
    std::unique_ptr<QueryMetrics> metrics;
    std::unique_ptr<MatchSink> metrics_sink;
    /// The unkeyed query's counters. While the engine lives this is a
    /// cache refreshed on every read; once the engine is finished and
    /// released it is the final snapshot. Mutable so const accessors
    /// can refresh it — callers hold `const EngineCounters&` into this
    /// address-stable storage (std::map node), which must stay valid
    /// across Deregister()/Finish() like the legacy runtime's did.
    mutable EngineCounters counters;
    /// Watermarks of the inline-fed hosts' instance-kernel counters
    /// already folded into the registry (SyncCounterDelta): refreshed at
    /// MetricsSnapshot() and finalized when the query finishes. Sharded
    /// queries sync on the worker threads instead.
    uint64_t kernel_lanes_reported = 0;
    uint64_t kernel_blocks_reported = 0;
    /// Watermark of retractions_processed already folded into
    /// cep_query_retractions_total; same delta-sync discipline.
    uint64_t retractions_reported = 0;
  };

  explicit CepService(const ServiceOptions& options);

  Status ValidateSpec(const QuerySpec& spec) const;
  /// The unkeyed statistics source, building one from history on first
  /// use; null if the service has neither collector nor history.
  const StatsCollector* EffectiveCollector();
  /// Feeds one merged same-partition run to every active query (the
  /// async ingest consumer).
  void OnMergedRun(const EventPtr* run, size_t n);
  /// The shared dispatch of every ingest entry point: feeds the run to
  /// each active inline-fed query host.
  void FeedInline(const EventPtr* events, size_t n);
  const QueryState* Find(uint64_t query_id) const;
  /// Finishes an inline-fed (unkeyed or single-threaded keyed) query;
  /// unkeyed engines are released after snapshotting their counters.
  void FinishInlineQuery(QueryState& state);
  /// Folds an inline-fed query's instance-kernel counter growth into its
  /// registry counters. No-op for sharded queries (their workers sync)
  /// and when metrics are off.
  void SyncInlineKernelCounters(QueryState& state);
  /// Recomputes the active inline-fed host list after a lifecycle
  /// change, so per-event ingest never scans retired queries.
  void RebuildInlineFeeds();
  /// Refills one attached source's lookahead head, with transient-
  /// failure retries per ServiceOptions::source_retry_limit.
  Status RefillAttachedHead(size_t index);
  /// Serializes one inline-hosted query's engine state section.
  Status SaveQueryState(const QueryState& state, EngineStateWriter* w) const;
  /// Creates the attached-source ledger, bounded by the retraction
  /// horizon, and resolves its late-retraction counter.
  void CreateAttachedLedger();

  struct AttachedSource {
    std::unique_ptr<StreamSource> source;
    /// 1-event lookahead of the k-way merge.
    Event head{};
    bool has_head = false;
    bool exhausted = false;
    /// The source's position BEFORE `head` was pulled: re-reading from
    /// here re-delivers `head` first, so checkpoints cut between pumps
    /// never drop the buffered lookahead.
    uint64_t head_position = 0;
    /// Monotonicity baseline (per-source timestamp order check).
    double last_ts = -std::numeric_limits<double>::infinity();
  };

  ServiceOptions options_;
  std::unique_ptr<MetricsRegistry> metrics_registry_;  // null = metrics off
  /// Ingest-to-match anchor of the batch currently feeding the inline
  /// queries: stamped once per FeedInline (one clock read per batch),
  /// read by every inline query's metrics sink, zeroed before
  /// Finish-time flushes (end-of-stream matches have no ingest anchor).
  std::chrono::steady_clock::time_point inline_batch_start_{};
  Counter* ingest_events_ = nullptr;   // null = metrics off
  Counter* ingest_batches_ = nullptr;  // null = metrics off
  std::unique_ptr<StatsCollector> own_collector_;
  std::map<uint64_t, QueryState> queries_;  // id order == registration order
  /// Active queries fed on the ingest thread (unkeyed engines and
  /// single-threaded keyed runtimes), in registration order. Pointers
  /// into queries_ (std::map nodes are address-stable); rebuilt on
  /// Register/Deregister/Finish.
  std::vector<QueryState*> inline_feeds_;
  uint64_t next_id_ = 0;
  std::unique_ptr<ShardedRuntime> sharded_;
  /// Durable ingest state (AttachSource/PumpAttachedSources): the
  /// service-owned twin of the async pipeline's merge state, kept here
  /// so checkpoints can carry it.
  std::vector<AttachedSource> attached_;
  uint64_t attached_next_serial_ = 0;
  PartitionSequencer attached_seq_;
  std::unique_ptr<RetractionLedger> attached_ledger_;
  /// How far behind the stream a retraction can still change any
  /// registered query's output: 2 x the largest window of any delta
  /// query (or DNF subpattern) ever registered. A match containing x
  /// ends at most one window after x.ts, and an engine keeps it
  /// revocable for one window more. Never shrinks. Bounds the attached
  /// ledger and each ProcessSourceAsync merge ledger.
  Timestamp retraction_horizon_ = 0.0;
  Counter* late_retractions_ = nullptr;  // null = metrics off / no ledger
  EventArena attached_arena_;
  Counter* restores_total_ = nullptr;  // null = metrics off
  bool finished_ = false;
};

}  // namespace cepjoin

#endif  // CEPJOIN_API_CEP_SERVICE_H_
