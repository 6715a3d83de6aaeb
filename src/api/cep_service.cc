#include "api/cep_service.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "obs/stage_timer.h"
#include "optimizer/registry.h"
#include "runtime/output_profiler.h"

namespace cepjoin {

namespace {

/// Adapts a QuerySpec callback to the MatchSink interface.
class CallbackSink : public MatchSink {
 public:
  explicit CallbackSink(std::function<void(const Match&)> callback)
      : callback_(std::move(callback)) {}
  void OnMatch(const Match& match) override { callback_(match); }

 private:
  std::function<void(const Match&)> callback_;
};

/// Inline-path metrics tee: forwards each match to the query's sink,
/// then records the full metrics bundle against the current inline
/// batch's ingest anchor (the service stamps `*batch_start` once per
/// FeedInline; a zero anchor — Finish-time flushes — skips the
/// ingest-to-match histogram).
class MatchMetricsSink : public MatchSink {
 public:
  MatchMetricsSink(MatchSink* inner, QueryMetrics* metrics,
                   const std::chrono::steady_clock::time_point* batch_start)
      : inner_(inner), metrics_(metrics), batch_start_(batch_start) {}
  void OnMatch(const Match& match) override {
    inner_->OnMatch(match);
    RecordMatchMetrics(metrics_, match, *batch_start_);
  }

 private:
  MatchSink* inner_;
  QueryMetrics* metrics_;
  const std::chrono::steady_clock::time_point* batch_start_;
};

/// Largest type id a pattern references, or -1 for none.
int64_t MaxTypeId(const SimplePattern& pattern) {
  int64_t max_type = -1;
  for (const EventSpec& spec : pattern.events()) {
    max_type = std::max<int64_t>(max_type, spec.type);
  }
  return max_type;
}

int64_t MaxTypeId(const PatternNode& node) {
  if (node.kind() == PatternNode::Kind::kLeaf) {
    return static_cast<int64_t>(node.spec().type);
  }
  int64_t max_type = -1;
  for (const auto& child : node.children()) {
    max_type = std::max(max_type, MaxTypeId(*child));
  }
  return max_type;
}

std::string SpecLabel(const QuerySpec& spec) {
  return spec.name().empty() ? std::string("query")
                             : "query '" + spec.name() + "'";
}

}  // namespace

// ---- QueryHandle ----------------------------------------------------------

Status QueryHandle::Deregister() {
  if (!valid()) return Status::FailedPrecondition("invalid (default) handle");
  return service_->Deregister(id_);
}

StatusOr<EngineCounters> QueryHandle::counters() const {
  if (!valid()) return Status::FailedPrecondition("invalid (default) handle");
  return service_->CountersOf(id_);
}

StatusOr<std::vector<EnginePlan>> QueryHandle::plans() const {
  if (!valid()) return Status::FailedPrecondition("invalid (default) handle");
  return service_->PlansOf(id_);
}

StatusOr<size_t> QueryHandle::num_partitions() const {
  if (!valid()) return Status::FailedPrecondition("invalid (default) handle");
  return service_->NumPartitionsOf(id_);
}

StatusOr<EnginePlan> QueryHandle::PlanFor(uint32_t partition) const {
  if (!valid()) return Status::FailedPrecondition("invalid (default) handle");
  return service_->PlanForPartitionOf(id_, partition);
}

// ---- CepService -----------------------------------------------------------

CepService::CepService(const ServiceOptions& options) : options_(options) {
  if (options_.enable_metrics) {
    metrics_registry_ = std::make_unique<MetricsRegistry>();
    ingest_events_ =
        metrics_registry_->GetCounter(metric_names::kIngestEvents);
    ingest_batches_ =
        metrics_registry_->GetCounter(metric_names::kIngestBatches);
    restores_total_ =
        metrics_registry_->GetCounter(metric_names::kRestoresTotal);
  }
}

CepService::~CepService() = default;

StatusOr<std::unique_ptr<CepService>> CepService::Create(
    const ServiceOptions& options) {
  if (options.batch_size < 1) {
    return Status::InvalidArgument("batch_size must be >= 1, got " +
                                   std::to_string(options.batch_size));
  }
  if (options.history != nullptr && options.num_types == 0) {
    return Status::InvalidArgument(
        "num_types must be set (to the registry size) when a history "
        "stream is provided");
  }
  return std::unique_ptr<CepService>(new CepService(options));
}

const StatsCollector* CepService::EffectiveCollector() {
  if (options_.collector != nullptr) return options_.collector;
  if (options_.history == nullptr) return nullptr;
  if (own_collector_ == nullptr) {
    own_collector_ = std::make_unique<StatsCollector>(*options_.history,
                                                      options_.num_types);
  }
  return own_collector_.get();
}

Status CepService::ValidateSpec(const QuerySpec& spec) const {
  const std::string label = SpecLabel(spec);
  if (!spec.simple().has_value() && !spec.nested().has_value()) {
    return Status::InvalidArgument(
        label + " has no pattern; build the spec with QuerySpec::Simple "
                "or QuerySpec::Nested");
  }
  CEPJOIN_RETURN_IF_ERROR(ValidateAlgorithm(spec.algorithm()));
  if (spec.sink() == nullptr && !spec.callback()) {
    return Status::InvalidArgument(
        label + " has no match destination; set WithSink or WithCallback");
  }
  if (spec.sink() != nullptr && spec.callback()) {
    return Status::InvalidArgument(
        label + " sets both WithSink and WithCallback; choose one");
  }
  if (!std::isfinite(spec.latency_alpha()) || spec.latency_alpha() < 0.0) {
    return Status::InvalidArgument(label +
                                   " latency_alpha must be finite and >= 0");
  }
  if (spec.nested().has_value()) {
    if (spec.keyed()) {
      return Status::InvalidArgument(
          label + " is keyed: keyed execution supports simple patterns "
                  "only (nested patterns decompose into multiple engines "
                  "per partition; register the DNF alternatives as "
                  "separate keyed queries instead)");
    }
    if (spec.nested()->root == nullptr) {
      return Status::InvalidArgument(label + " nested pattern has no root");
    }
    if (spec.stats().has_value()) {
      return Status::InvalidArgument(
          label + " sets explicit stats on a nested pattern; statistics "
                  "are collected per DNF subpattern from the service's "
                  "collector or history");
    }
    if (options_.num_types > 0 &&
        MaxTypeId(*spec.nested()->root) >=
            static_cast<int64_t>(options_.num_types)) {
      return Status::InvalidArgument(
          label + " references type id " +
          std::to_string(MaxTypeId(*spec.nested()->root)) +
          " but the service registry has only " +
          std::to_string(options_.num_types) + " types");
    }
    if (options_.collector == nullptr && options_.history == nullptr) {
      return Status::InvalidArgument(
          label + " has no statistics source: create the service with a "
                  "history stream or collector (nested patterns cannot "
                  "use WithStats)");
    }
  }
  if (spec.keyed()) {
    if (spec.stats().has_value()) {
      return Status::InvalidArgument(
          label + " sets explicit stats on a keyed query; keyed queries "
                  "derive per-partition statistics from the service's "
                  "history stream");
    }
    if (options_.history == nullptr) {
      return Status::InvalidArgument(
          label + " is keyed but the service was created without a "
                  "history stream (ServiceOptions::history) to derive "
                  "per-partition statistics from");
    }
  }
  if (spec.simple().has_value()) {
    const SimplePattern& pattern = *spec.simple();
    if (pattern.delta_input() &&
        pattern.strategy() != SelectionStrategy::kSkipTillAny) {
      return Status::InvalidArgument(
          label + " sets WithDeltaInput under " +
          SelectionStrategyName(pattern.strategy()) +
          "; retractions are only defined for skip-till-any (pruning "
          "strategies make the surviving match set depend on events that "
          "may later be retracted)");
    }
    if (options_.num_types > 0 &&
        MaxTypeId(pattern) >= static_cast<int64_t>(options_.num_types)) {
      return Status::InvalidArgument(
          label + " references type id " + std::to_string(MaxTypeId(pattern)) +
          " but the service registry has only " +
          std::to_string(options_.num_types) + " types");
    }
    if (spec.stats().has_value() &&
        spec.stats()->size() != pattern.num_positive()) {
      return Status::InvalidArgument(
          label + " stats cover " + std::to_string(spec.stats()->size()) +
          " slots but the pattern has " +
          std::to_string(pattern.num_positive()) + " positive slots");
    }
    if (!spec.keyed() && !spec.stats().has_value() &&
        options_.collector == nullptr && options_.history == nullptr) {
      return Status::InvalidArgument(
          label + " has no statistics source: set QuerySpec::WithStats or "
                  "create the service with a history stream or collector");
    }
  }
  return Status::Ok();
}

StatusOr<QueryHandle> CepService::Register(const QuerySpec& spec) {
  if (finished_) {
    return Status::FailedPrecondition("Register after Finish");
  }
  CEPJOIN_RETURN_IF_ERROR(ValidateSpec(spec));

  QueryState state;
  state.name = spec.name();
  state.keyed = spec.keyed();
  if (spec.callback()) {
    state.owned_sink = std::make_unique<CallbackSink>(spec.callback());
    state.sink = state.owned_sink.get();
  } else {
    state.sink = spec.sink();
  }
  uint64_t seed = spec.seed().value_or(options_.default_seed);

  MatchSink* inline_sink = state.sink;
  if (metrics_registry_ != nullptr) {
    // One bundle per query, labelled by the (never reused) id —
    // next_id_ is only advanced on success, so the label matches the
    // handle's id. A user-given name rides along as a second label.
    MetricLabels labels{{"query", std::to_string(next_id_)}};
    if (!spec.name().empty()) labels.emplace_back("name", spec.name());
    state.metrics = std::make_unique<QueryMetrics>(metrics_registry_.get(),
                                                   std::move(labels));
    state.metrics_sink = std::make_unique<MatchMetricsSink>(
        state.sink, state.metrics.get(), &inline_batch_start_);
    inline_sink = state.metrics_sink.get();
  }

  if (spec.keyed()) {
    if (options_.num_threads == 1) {
      state.partitioned = std::make_unique<PartitionedRuntime>(
          *spec.simple(), *options_.history, options_.num_types,
          spec.algorithm(), inline_sink, seed, spec.latency_alpha(),
          options_.batch_size);
    } else {
      auto planner = std::make_unique<PartitionPlanner>(
          *spec.simple(), *options_.history, options_.num_types,
          spec.algorithm(), seed, spec.latency_alpha());
      if (sharded_ == nullptr) {
        ShardedOptions sharded_options;
        sharded_options.num_threads = options_.num_threads;
        sharded_options.batch_size = options_.batch_size;
        sharded_options.metrics = metrics_registry_.get();
        sharded_ = std::make_unique<ShardedRuntime>(sharded_options);
      }
      // The shard sinks record through the shared bundle themselves;
      // the query's raw sink receives the drained matches unwrapped.
      StatusOr<uint64_t> sharded_id =
          sharded_->AddQuery(std::move(planner), state.sink,
                             state.metrics.get());
      if (!sharded_id.ok()) return sharded_id.status();
      state.sharded_id = *sharded_id;
      state.uses_sharded = true;
    }
  } else {
    // Unkeyed: one plan and engine per DNF subpattern (a simple pattern
    // is its own single subpattern), fed inline on the ingest thread.
    if (spec.simple().has_value()) {
      state.subpatterns = {*spec.simple()};
    } else {
      state.subpatterns = ToDnf(*spec.nested());
      if (state.subpatterns.empty()) {
        return Status::InvalidArgument(SpecLabel(spec) +
                                       " nested pattern has no DNF "
                                       "alternatives");
      }
    }
    for (const SimplePattern& sub : state.subpatterns) {
      PatternStats stats = spec.stats().has_value()
                               ? *spec.stats()
                               : EffectiveCollector()->CollectForPattern(sub);
      CostFunction cost = MakeCostFunction(sub, stats, spec.latency_alpha());
      StatusOr<EnginePlan> plan = MakePlan(spec.algorithm(), cost, seed);
      if (!plan.ok()) return plan.status();
      state.plans.push_back(std::move(plan).value());
    }
    state.engine =
        state.subpatterns.size() == 1
            ? BuildEngine(state.subpatterns[0], state.plans[0], inline_sink)
            : BuildDnfEngine(state.subpatterns, state.plans, inline_sink);
  }

  // Widen the retraction horizon to this query's delta windows (keyed
  // queries are simple patterns; unkeyed ones run their subpatterns).
  auto widen = [this](const SimplePattern& pattern) {
    if (pattern.delta_input()) {
      retraction_horizon_ =
          std::max(retraction_horizon_, 2.0 * pattern.window());
    }
  };
  if (spec.keyed()) widen(*spec.simple());
  for (const SimplePattern& sub : state.subpatterns) widen(sub);
  if (attached_ledger_ != nullptr) {
    attached_ledger_->set_horizon(retraction_horizon_);
  }

  state.active = true;
  uint64_t id = next_id_++;
  queries_.emplace(id, std::move(state));
  RebuildInlineFeeds();
  return QueryHandle(this, id);
}

void CepService::RebuildInlineFeeds() {
  inline_feeds_.clear();
  for (auto& [id, state] : queries_) {
    if (state.active && !state.uses_sharded) inline_feeds_.push_back(&state);
  }
}

void CepService::SyncInlineKernelCounters(QueryState& state) {
  if (state.metrics == nullptr) return;
  EngineCounters current;
  if (!state.keyed) {
    // While the engine lives, read it; afterwards the final snapshot in
    // state.counters keeps the totals exact.
    current = state.engine != nullptr ? state.engine->counters()
                                      : state.counters;
  } else if (state.partitioned != nullptr) {
    current = state.partitioned->TotalCounters();
  } else {
    return;  // sharded: the workers sync their own engines' deltas
  }
  SyncCounterDelta(state.metrics->instance_kernel_lanes,
                   current.instance_kernel_lanes,
                   &state.kernel_lanes_reported);
  SyncCounterDelta(state.metrics->instance_kernel_blocks,
                   current.instance_kernel_blocks,
                   &state.kernel_blocks_reported);
  SyncCounterDelta(state.metrics->retractions_total,
                   current.retractions_processed,
                   &state.retractions_reported);
}

void CepService::FinishInlineQuery(QueryState& state) {
  // Finish-time matches have no ingest anchor; zero it so the metrics
  // sink skips the ingest-to-match histogram for them.
  inline_batch_start_ = {};
  if (state.engine != nullptr) {
    state.engine->Finish();
    // Retired queries release their engines (and their buffered
    // windows) right away; the counters snapshot keeps serving
    // counters(), and the partitioned runtime's plan map keeps backing
    // num_partitions()/PlanFor().
    state.counters = state.engine->counters();
    state.engine.reset();
    // The released engine's footprint is gone; say so.
    if (state.metrics != nullptr) state.metrics->MemoryGauge()->Set(0.0);
  } else if (state.partitioned != nullptr) {
    state.partitioned->Finish();  // releases the partition engines
    if (state.metrics != nullptr) {
      for (uint32_t partition : state.partitioned->Partitions()) {
        state.metrics->MemoryGauge(partition)->Set(0.0);
      }
    }
  }
  // Fold in kernel work since the last snapshot (TotalCounters serves
  // the Finish-time snapshot for released partition engines).
  SyncInlineKernelCounters(state);
}

Status CepService::Deregister(uint64_t query_id) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) {
    return Status::NotFound("unknown query id " + std::to_string(query_id));
  }
  if (finished_) {
    return Status::FailedPrecondition("Deregister after Finish");
  }
  QueryState& state = it->second;
  if (!state.active) {
    return Status::FailedPrecondition("query " + std::to_string(query_id) +
                                      " already deregistered");
  }
  if (state.uses_sharded) {
    CEPJOIN_RETURN_IF_ERROR(sharded_->RemoveQuery(state.sharded_id));
  } else {
    FinishInlineQuery(state);
  }
  state.active = false;
  RebuildInlineFeeds();
  return Status::Ok();
}

void CepService::FeedInline(const EventPtr* events, size_t n) {
  if (metrics_registry_ != nullptr && !inline_feeds_.empty()) {
    inline_batch_start_ = std::chrono::steady_clock::now();
  }
  for (QueryState* state : inline_feeds_) {
    if (state->metrics != nullptr) state->metrics->events_total->Inc(n);
    if (state->engine != nullptr) {
      state->engine->OnBatch(events, n);
    } else {
      state->partitioned->OnBatch(events, n);
    }
  }
}

void CepService::OnEvent(const EventPtr& e) {
  CEPJOIN_CHECK(!finished_) << "OnEvent after Finish";
  if (ingest_events_ != nullptr) {
    ingest_events_->Inc();
    ingest_batches_->Inc();
  }
  FeedInline(&e, 1);
  if (sharded_ != nullptr) sharded_->OnEvent(e);
}

void CepService::OnBatch(const EventPtr* events, size_t n) {
  CEPJOIN_CHECK(!finished_) << "OnBatch after Finish";
  if (ingest_events_ != nullptr) {
    ingest_events_->Inc(n);
    ingest_batches_->Inc();
  }
  FeedInline(events, n);
  if (sharded_ != nullptr) sharded_->OnBatch(events, n);
}

void CepService::ProcessStream(const EventStream& stream) {
  const std::vector<EventPtr>& events = stream.events();
  for (size_t i = 0; i < events.size(); i += options_.batch_size) {
    OnBatch(events.data() + i,
            std::min(options_.batch_size, events.size() - i));
  }
}

void CepService::OnMergedRun(const EventPtr* run, size_t n) {
  FeedInline(run, n);
  // Merged runs share one partition, so the sharded router hashes once.
  if (sharded_ != nullptr) sharded_->OnPartitionRun(run, n);
}

IngestResult CepService::ProcessSourceAsync(
    std::vector<std::unique_ptr<StreamSource>> sources) {
  CEPJOIN_CHECK(!finished_) << "ProcessSourceAsync after Finish";
  IngestOptions ingest;
  ingest.num_ingest_threads = options_.num_ingest_threads;
  ingest.chunk_size = options_.batch_size;
  ingest.source_retry_limit = options_.source_retry_limit;
  ingest.source_retry_backoff = options_.source_retry_backoff;
  ingest.retraction_horizon = retraction_horizon_;
  // The pipeline owns the ingest throughput counters and watermark
  // gauges for this run (merged runs bypass OnBatch, so nothing double
  // counts).
  ingest.metrics = metrics_registry_.get();
  IngestPipeline pipeline(std::move(sources), ingest);
  return pipeline.Run(
      [this](const EventPtr* run, size_t n) { OnMergedRun(run, n); });
}

IngestResult CepService::ProcessSourceAsync(
    std::unique_ptr<StreamSource> source) {
  std::vector<std::unique_ptr<StreamSource>> sources;
  sources.push_back(std::move(source));
  return ProcessSourceAsync(std::move(sources));
}

void CepService::Finish() {
  if (finished_) return;
  finished_ = true;
  for (auto& [id, state] : queries_) {
    if (!state.active) continue;
    if (!state.uses_sharded) FinishInlineQuery(state);
    state.active = false;
  }
  inline_feeds_.clear();
  // Joins the workers and delivers every sharded query's remaining
  // matches (including mid-stream deregistered ones) to its sink.
  if (sharded_ != nullptr) sharded_->Finish();
}

cepjoin::MetricsSnapshot CepService::MetricsSnapshot() {
  if (metrics_registry_ == nullptr) return {};
  // Refresh the snapshot-time gauges: exact memory of the inline-fed
  // hosts (sharded workers keep their partitions' gauges current on
  // their own threads) and each query's dominant last position.
  for (auto& entry : queries_) {
    QueryState& state = entry.second;
    if (state.metrics == nullptr) continue;
    if (!state.keyed) {
      double bytes =
          state.engine != nullptr
              ? static_cast<double>(state.engine->counters().CurrentBytes())
              : 0.0;
      state.metrics->MemoryGauge()->Set(bytes);
    } else if (state.partitioned != nullptr) {
      QueryMetrics* metrics = state.metrics.get();
      state.partitioned->ForEachPartition(
          [metrics](uint32_t partition, const Engine& engine) {
            metrics->MemoryGauge(partition)->Set(
                static_cast<double>(engine.counters().CurrentBytes()));
          });
    }
    SyncInlineKernelCounters(state);
    int best = OutputProfiler::MostFrequent(state.metrics->LastPositionCounts());
    if (best >= 0) {
      metrics_registry_
          ->GetGauge(metric_names::kLastPosition, state.metrics->base_labels())
          ->Set(static_cast<double>(best));
    }
  }
  cepjoin::MetricsSnapshot snap = metrics_registry_->Snapshot();
#ifdef CEPJOIN_DETAILED_METRICS
  // Fold in the process-global stage-timer histograms and restore the
  // (name, labels) sort Snapshot() guarantees.
  cepjoin::MetricsSnapshot detailed = DetailedMetricsRegistry().Snapshot();
  for (MetricPoint& point : detailed.points) {
    snap.points.push_back(std::move(point));
  }
  std::sort(snap.points.begin(), snap.points.end(),
            [](const MetricPoint& a, const MetricPoint& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
#endif
  return snap;
}

size_t CepService::num_active_queries() const {
  size_t active = 0;
  for (const auto& [id, state] : queries_) {
    if (state.active) ++active;
  }
  return active;
}

size_t CepService::num_threads() const {
  return sharded_ != nullptr ? sharded_->num_threads()
                             : (options_.num_threads == 0 ? 0 : 1);
}

const CepService::QueryState* CepService::Find(uint64_t query_id) const {
  auto it = queries_.find(query_id);
  return it != queries_.end() ? &it->second : nullptr;
}

StatusOr<EngineCounters> CepService::CountersOf(uint64_t query_id) const {
  const QueryState* state = Find(query_id);
  if (state == nullptr) {
    return Status::NotFound("unknown query id " + std::to_string(query_id));
  }
  if (!state->keyed) return UnkeyedCounters(query_id);
  if (state->partitioned != nullptr) return state->partitioned->TotalCounters();
  return sharded_->CountersOf(state->sharded_id);
}

StatusOr<std::vector<EnginePlan>> CepService::PlansOf(
    uint64_t query_id) const {
  const QueryState* state = Find(query_id);
  if (state == nullptr) {
    return Status::NotFound("unknown query id " + std::to_string(query_id));
  }
  if (state->keyed) {
    return Status::FailedPrecondition(
        "keyed queries are planned per partition; use num_partitions() "
        "and PlanFor(partition)");
  }
  return state->plans;
}

StatusOr<size_t> CepService::NumPartitionsOf(uint64_t query_id) const {
  const QueryState* state = Find(query_id);
  if (state == nullptr) {
    return Status::NotFound("unknown query id " + std::to_string(query_id));
  }
  if (!state->keyed) {
    return Status::FailedPrecondition(
        "unkeyed queries have no partitions; use plans()");
  }
  if (state->partitioned != nullptr) return state->partitioned->num_partitions();
  return sharded_->NumPartitionsOf(state->sharded_id);
}

StatusOr<EnginePlan> CepService::PlanForPartitionOf(uint64_t query_id,
                                                    uint32_t partition) const {
  const QueryState* state = Find(query_id);
  if (state == nullptr) {
    return Status::NotFound("unknown query id " + std::to_string(query_id));
  }
  if (!state->keyed) {
    return Status::FailedPrecondition(
        "unkeyed queries have no per-partition plans; use plans()");
  }
  if (state->partitioned != nullptr) {
    const EnginePlan* plan = state->partitioned->FindPlan(partition);
    if (plan == nullptr) {
      return Status::NotFound("no events seen for partition " +
                              std::to_string(partition));
    }
    return *plan;
  }
  StatusOr<const EnginePlan*> plan =
      sharded_->PlanOf(state->sharded_id, partition);
  if (!plan.ok()) return plan.status();
  return **plan;
}

const std::vector<SimplePattern>& CepService::UnkeyedSubpatterns(
    uint64_t query_id) const {
  const QueryState* state = Find(query_id);
  CEPJOIN_CHECK(state != nullptr && !state->keyed);
  return state->subpatterns;
}

const std::vector<EnginePlan>& CepService::UnkeyedPlans(
    uint64_t query_id) const {
  const QueryState* state = Find(query_id);
  CEPJOIN_CHECK(state != nullptr && !state->keyed);
  return state->plans;
}

const EngineCounters& CepService::UnkeyedCounters(uint64_t query_id) const {
  const QueryState* state = Find(query_id);
  CEPJOIN_CHECK(state != nullptr && !state->keyed);
  // Always hand out the same address-stable storage: a reference taken
  // before Deregister()/Finish() released the engine must stay valid
  // (and final) afterwards, exactly like the legacy runtime's.
  if (state->engine != nullptr) state->counters = state->engine->counters();
  return state->counters;
}

}  // namespace cepjoin
