#include "parallel/sharded_runtime.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/mutex.h"
#include "durable/snapshot_codec.h"

namespace cepjoin {

namespace {

size_t ResolveThreads(size_t requested) {
  if (requested > 0) return requested;
  size_t hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace

ShardedRuntime::ShardedRuntime(const ShardedOptions& options)
    : metrics_(options.metrics),
      router_(ResolveThreads(options.num_threads), options.batch_size,
              options.queue_capacity),
      concurrent_sink_(router_.num_shards()) {
  if (metrics_ != nullptr) {
    // Stamp each routed batch with its router-entry time: the anchor of
    // the ingest-to-match latency histograms. One clock read per batch.
    router_.set_stamp_ingest_time(true);
    shard_metrics_.reserve(router_.num_shards());
    for (size_t shard = 0; shard < router_.num_shards(); ++shard) {
      shard_metrics_.push_back(
          std::make_unique<ShardMetrics>(metrics_, shard));
    }
  }
  workers_.reserve(router_.num_shards());
  for (size_t shard = 0; shard < router_.num_shards(); ++shard) {
    workers_.push_back(std::make_unique<ShardWorker>(
        &router_.queue(shard), concurrent_sink_.shard(shard),
        metrics_ != nullptr ? shard_metrics_[shard].get() : nullptr));
  }
  try {
    for (auto& worker : workers_) worker->Start();
  } catch (...) {
    // Thread creation failed partway: close the queues so the workers
    // already started can exit, letting ~ShardWorker join them instead
    // of deadlocking on a never-closed queue.
    router_.CloseAll();
    throw;
  }
}

ShardedRuntime::ShardedRuntime(const SimplePattern& pattern,
                               const EventStream& history, size_t num_types,
                               const std::string& algorithm, MatchSink* sink,
                               const ShardedOptions& options, uint64_t seed,
                               double latency_alpha)
    : ShardedRuntime(options) {
  CEPJOIN_CHECK(sink != nullptr);
  // The legacy constructor promises a ready runtime or an abort; the
  // planner itself aborts on unknown algorithms, matching that contract.
  AddQuery(std::make_unique<PartitionPlanner>(pattern, history, num_types,
                                              algorithm, seed, latency_alpha),
           sink)
      .value();
}

ShardedRuntime::~ShardedRuntime() {
  // Release the workers even if the caller never called Finish();
  // buffered matches are dropped in that case, mirroring an engine
  // destroyed before Finish().
  router_.CloseAll();
  for (auto& worker : workers_) worker->Join();
}

StatusOr<uint64_t> ShardedRuntime::AddQuery(
    std::unique_ptr<PartitionPlanner> planner, MatchSink* sink) {
  return AddQuery(std::move(planner), sink, nullptr);
}

StatusOr<uint64_t> ShardedRuntime::AddQuery(
    std::unique_ptr<PartitionPlanner> planner, MatchSink* sink,
    QueryMetrics* metrics) {
  CEPJOIN_CHECK(planner != nullptr);
  CEPJOIN_CHECK(sink != nullptr);
  if (finished_) {
    return Status::FailedPrecondition("AddQuery after Finish");
  }
  uint64_t id = next_query_id_++;
  QueryEntry entry;
  entry.planner = std::move(planner);
  entry.sink = sink;
  entry.active = true;
  if (metrics_ != nullptr) {
    if (metrics != nullptr) {
      entry.metrics = metrics;
    } else {
      entry.owned_metrics = std::make_unique<QueryMetrics>(
          metrics_, MetricLabels{{"query", std::to_string(id)}});
      entry.metrics = entry.owned_metrics.get();
    }
  }
  queries_.emplace(id, std::move(entry));
  PublishSnapshot();
  return id;
}

Status ShardedRuntime::RemoveQuery(uint64_t query) {
  auto it = queries_.find(query);
  if (it == queries_.end()) {
    return Status::NotFound("unknown query id " + std::to_string(query));
  }
  if (finished_) {
    return Status::FailedPrecondition("RemoveQuery after Finish");
  }
  if (!it->second.active) {
    return Status::FailedPrecondition("query " + std::to_string(query) +
                                      " already removed");
  }
  it->second.active = false;
  PublishSnapshot();
  // Every shard must pass the cut, including shards with no traffic
  // after it: otherwise their flush of this query would wait for their
  // next data batch while the watermark moves on without it.
  router_.PushSnapshotToAll();
  return Status::Ok();
}

void ShardedRuntime::PublishSnapshot() {
  // Events routed so far must be evaluated under the set that was
  // active when they arrived: flush them under the old snapshot before
  // stamping the new one.
  router_.FlushAll();
  auto snapshot = std::make_shared<QuerySetSnapshot>();
  snapshot->epoch = ++epoch_;
  snapshot->cut_serial = router_.last_serial();
  for (const auto& [id, entry] : queries_) {
    if (!entry.active) continue;
    ShardQuery q;
    q.id = id;
    q.planner = entry.planner.get();
    q.metrics = entry.metrics;
    snapshot->queries.push_back(q);
  }
  snapshot_ = snapshot;
  router_.set_query_snapshot(std::move(snapshot));
}

Status ShardedRuntime::RunOnWorker(
    size_t shard, const std::function<void(ShardWorker*)>& fn) {
  Notification done;
  EventBatch batch;
  batch.control = std::make_shared<const std::function<void(ShardWorker*)>>(
      [&fn, &done](ShardWorker* worker) {
        fn(worker);
        done.Notify();
      });
  if (!router_.queue(shard).Push(std::move(batch))) {
    return Status::FailedPrecondition("shard queue closed");
  }
  // The Notification's mutex publishes everything the callback wrote
  // (the captured snapshot / restored engines) to this thread.
  done.WaitForNotification();
  return Status::Ok();
}

Status ShardedRuntime::CaptureCheckpoint(ShardedCheckpoint* out) {
  CEPJOIN_CHECK(out != nullptr);
  if (finished_) {
    return Status::FailedPrecondition("CaptureCheckpoint after Finish");
  }
  // Events buffered in the router must be inside the cut: push them to
  // the queues ahead of our control batches.
  router_.FlushAll();
  out->partitions.clear();
  out->sink_blobs.clear();
  out->sink_blobs.reserve(workers_.size());
  Status capture = Status::Ok();
  for (size_t shard = 0; shard < workers_.size(); ++shard) {
    CEPJOIN_RETURN_IF_ERROR(RunOnWorker(shard, [&](ShardWorker* worker) {
      Status s = worker->CaptureState(&out->partitions);
      if (capture.ok() && !s.ok()) capture = s;
    }));
  }
  // Every shard has now evaluated every routed batch. Deliver all that
  // is releasable BEFORE serializing the outboxes, so "delivered before
  // this call returned" plus "in the snapshot" is exactly the prefix an
  // uninterrupted run delivers, however the watermark moved before.
  DeliverReleasable(/*force=*/true);
  for (size_t shard = 0; shard < workers_.size(); ++shard) {
    EngineStateWriter w;
    concurrent_sink_.shard(shard)->SaveEntries(&w);
    out->sink_blobs.push_back(w.Finish());
  }
  return capture;
}

Status ShardedRuntime::RestoreCheckpoint(
    const ShardedCheckpoint& checkpoint,
    const std::unordered_map<uint64_t, uint64_t>& query_remap) {
  if (finished_) {
    return Status::FailedPrecondition("RestoreCheckpoint after Finish");
  }
  if (router_.events_routed() != 0) {
    return Status::FailedPrecondition(
        "RestoreCheckpoint requires a runtime that has not routed events");
  }
  // Group the engine blobs by the shard owning each partition HERE —
  // this is where a checkpoint cut at 4 threads redistributes onto 2.
  std::vector<std::vector<const PartitionSnapshot*>> by_shard(workers_.size());
  for (const PartitionSnapshot& snap : checkpoint.partitions) {
    by_shard[router_.ShardOf(snap.partition)].push_back(&snap);
  }
  std::vector<const std::string*> sink_blobs;
  sink_blobs.reserve(checkpoint.sink_blobs.size());
  for (const std::string& blob : checkpoint.sink_blobs) {
    sink_blobs.push_back(&blob);
  }
  const std::function<size_t(uint32_t)> shard_of =
      [this](uint32_t partition) { return router_.ShardOf(partition); };
  Status restore = Status::Ok();
  for (size_t shard = 0; shard < workers_.size(); ++shard) {
    CEPJOIN_RETURN_IF_ERROR(RunOnWorker(shard, [&, shard](ShardWorker* w) {
      Status s = w->RestoreState(snapshot_, by_shard[shard], sink_blobs,
                                 query_remap, shard, shard_of);
      if (restore.ok() && !s.ok()) restore = s;
    }));
  }
  return restore;
}

void ShardedRuntime::OnEvent(const EventPtr& e) {
  CEPJOIN_CHECK(!finished_) << "OnEvent after Finish";
  router_.Route(e);
  DeliverReleasable(/*force=*/false);
}

void ShardedRuntime::OnBatch(const EventPtr* events, size_t n) {
  CEPJOIN_CHECK(!finished_) << "OnBatch after Finish";
  for (size_t i = 0; i < n; ++i) router_.Route(events[i]);
  DeliverReleasable(/*force=*/false);
}

void ShardedRuntime::OnPartitionRun(const EventPtr* events, size_t n) {
  CEPJOIN_CHECK(!finished_) << "OnPartitionRun after Finish";
  router_.RouteRun(events, n);
  DeliverReleasable(/*force=*/false);
}

void ShardedRuntime::DeliverReleasable(bool force) {
  // Without strictly increasing serials there is no watermark: matches
  // wait for Finish().
  if (!router_.serials_increasing()) return;
  bool progressed = false;
  for (size_t shard = 0; shard < workers_.size(); ++shard) {
    progressed |= router_.AcknowledgeBatches(
        shard, concurrent_sink_.shard(shard)->batches_published());
  }
  // Entries are published only with a completed batch, and only a
  // completed batch moves the watermark: with no progress there is
  // nothing new to release.
  if (!progressed && !force) return;
  concurrent_sink_.DeliverBelow(router_.LowWatermark(), SinkLookup());
}

std::function<MatchSink*(uint64_t)> ShardedRuntime::SinkLookup() {
  return [this](uint64_t query) -> MatchSink* {
    auto it = queries_.find(query);
    return it != queries_.end() ? it->second.sink : nullptr;
  };
}

void ShardedRuntime::ProcessStream(const EventStream& stream) {
  OnBatch(stream.events().data(), stream.size());
}

void ShardedRuntime::Finish() {
  if (finished_) return;
  finished_ = true;
  router_.CloseAll();
  for (auto& worker : workers_) worker->Join();
  // The remainder sorts after everything already delivered, so this
  // completes the canonical sequence.
  concurrent_sink_.DrainPerQuery(SinkLookup());
}

StatusOr<size_t> ShardedRuntime::NumPartitionsOf(uint64_t query) const {
  if (queries_.find(query) == queries_.end()) {
    return Status::NotFound("unknown query id " + std::to_string(query));
  }
  if (!finished_) {
    // Reading worker state while workers still run would be a data
    // race, and a partial count would be silently wrong anyway.
    return Status::FailedPrecondition(
        "NumPartitionsOf before Finish: partition counts are only "
        "complete once the workers have been joined");
  }
  size_t total = 0;
  for (const auto& worker : workers_) total += worker->NumPartitionsOf(query);
  return total;
}

StatusOr<EngineCounters> ShardedRuntime::CountersOf(uint64_t query) const {
  if (queries_.find(query) == queries_.end()) {
    return Status::NotFound("unknown query id " + std::to_string(query));
  }
  if (!finished_) {
    return Status::FailedPrecondition("CountersOf before Finish");
  }
  EngineCounters total;
  for (const auto& worker : workers_) {
    total.MergeDisjoint(worker->CountersOf(query));
  }
  return total;
}

StatusOr<const EnginePlan*> ShardedRuntime::PlanOf(uint64_t query,
                                                   uint32_t partition) const {
  if (queries_.find(query) == queries_.end()) {
    return Status::NotFound("unknown query id " + std::to_string(query));
  }
  if (!finished_) {
    return Status::FailedPrecondition("PlanOf before Finish");
  }
  size_t shard = router_.ShardOf(partition);
  const EnginePlan* plan = workers_[shard]->PlanFor(query, partition);
  if (plan == nullptr) {
    return Status::NotFound("no events seen for partition " +
                            std::to_string(partition));
  }
  return plan;
}

uint64_t ShardedRuntime::SoleQueryId() const {
  CEPJOIN_CHECK_EQ(queries_.size(), 1u)
      << "single-query accessor on a multi-query runtime";
  return queries_.begin()->first;
}

size_t ShardedRuntime::num_partitions() const {
  CEPJOIN_CHECK(finished_) << "num_partitions before Finish";
  return NumPartitionsOf(SoleQueryId()).value();
}

const EnginePlan& ShardedRuntime::PlanFor(uint32_t partition) const {
  CEPJOIN_CHECK(finished_) << "PlanFor before Finish";
  StatusOr<const EnginePlan*> plan = PlanOf(SoleQueryId(), partition);
  CEPJOIN_CHECK(plan.ok()) << plan.status().ToString();
  return **plan;
}

EngineCounters ShardedRuntime::TotalCounters() const {
  CEPJOIN_CHECK(finished_) << "TotalCounters before Finish";
  return CountersOf(SoleQueryId()).value();
}

}  // namespace cepjoin
