#include "parallel/worker.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "durable/snapshot_codec.h"
#include "event/partition_runs.h"

namespace cepjoin {

ShardWorker::ShardWorker(BoundedQueue<EventBatch>* queue,
                         ConcurrentMatchSink::ShardSink* sink,
                         const ShardMetrics* metrics)
    : queue_(queue), sink_(sink), metrics_(metrics) {
  CEPJOIN_CHECK(queue_ != nullptr);
  CEPJOIN_CHECK(sink_ != nullptr);
}

ShardWorker::~ShardWorker() {
  if (thread_.joinable()) thread_.join();
}

void ShardWorker::Start() {
  CEPJOIN_CHECK(!thread_.joinable()) << "worker already started";
  thread_ = std::thread([this] { Run(); });
}

void ShardWorker::Join() {
  if (joined_) return;
  CEPJOIN_CHECK(thread_.joinable()) << "worker never started";
  thread_.join();
  joined_ = true;
}

ShardWorker::QueryState& ShardWorker::QueryStateFor(const ShardQuery& query) {
  auto it = queries_.find(query.id);
  if (it != queries_.end()) return it->second;
  QueryState state;
  state.planner = query.planner;
  state.metrics = query.metrics;
  return queries_.emplace(query.id, std::move(state)).first->second;
}

ShardWorker::PartitionState& ShardWorker::StateFor(QueryState& query,
                                                   uint32_t partition) {
  auto it = query.partitions.find(partition);
  if (it != query.partitions.end()) return it->second;
  PartitionState state;
  state.plan = query.planner->PlanFor(partition);
  state.engine = query.planner->BuildEngineFor(state.plan, sink_);
  if (query.metrics != nullptr) {
    // Registry mutex, but only on first sight of a (query, partition) —
    // the per-run gauge update below goes through this cached handle.
    state.memory = query.metrics->MemoryGauge(partition);
  }
  return query.partitions.emplace(partition, std::move(state)).first->second;
}

void ShardWorker::FinishQuery(uint64_t id, QueryState& state) {
  if (state.finished) return;
  // Ascending partition order, so Finish-time matches of this query on
  // this shard are recorded deterministically.
  std::vector<uint32_t> partitions;
  partitions.reserve(state.partitions.size());
  for (const auto& [partition, ps] : state.partitions) {
    partitions.push_back(partition);
  }
  std::sort(partitions.begin(), partitions.end());
  // Finish-time matches carry no ingest anchor (their "arrival" is the
  // end of stream, not a routed batch): clear the batch time so the
  // ingest-to-match histogram skips them while counts/detection still
  // record.
  sink_->set_batch_ingest_time({});
  for (uint32_t partition : partitions) {
    sink_->set_current(id, partition, state.metrics);
    state.partitions.at(partition).engine->Finish();
  }
  EngineCounters total;
  for (uint32_t partition : partitions) {
    total.MergeDisjoint(state.partitions.at(partition).engine->counters());
  }
  state.counters = total;
  state.finished = true;
  // Retired queries release their engines (and buffered windows) right
  // here on the worker thread; the plans stay for PlanFor(). The memory
  // gauges report the release: this (query, partition) is genuinely
  // back to zero resident bytes.
  for (uint32_t partition : partitions) {
    PartitionState& ps = state.partitions.at(partition);
    // Finish() itself never grows the kernel counters today, but the
    // final sync keeps the registry exact by construction either way.
    if (state.metrics != nullptr) {
      const EngineCounters& counters = ps.engine->counters();
      SyncCounterDelta(state.metrics->instance_kernel_lanes,
                       counters.instance_kernel_lanes,
                       &ps.kernel_lanes_reported);
      SyncCounterDelta(state.metrics->instance_kernel_blocks,
                       counters.instance_kernel_blocks,
                       &ps.kernel_blocks_reported);
      SyncCounterDelta(state.metrics->retractions_total,
                       counters.retractions_processed,
                       &ps.retractions_reported);
    }
    ps.engine.reset();
    if (ps.memory != nullptr) ps.memory->Set(0.0);
  }
}

void ShardWorker::FinishQueriesRemovedBy(const QuerySetSnapshot& next) {
  std::vector<uint64_t> removed;
  for (auto& [id, state] : queries_) {
    if (state.finished) continue;
    bool still_active = false;
    for (const ShardQuery& q : next.queries) {
      if (q.id == id) {
        still_active = true;
        break;
      }
    }
    if (!still_active) removed.push_back(id);
  }
  std::sort(removed.begin(), removed.end());
  for (uint64_t id : removed) FinishQuery(id, queries_.at(id));
}

void ShardWorker::Run() {
  EventBatch batch;
  while (queue_->Pop(batch)) {
    if (batch.control != nullptr) {
      // Checkpoint capture/restore runs here, on the worker thread, with
      // every earlier batch fully evaluated (FIFO queue order is the
      // synchronization; the caller blocks on a Notification inside the
      // callback's closure).
      (*batch.control)(this);
      batch.control.reset();
      continue;
    }
    if (metrics_ != nullptr && !batch.empty()) {
      metrics_->events_total->Inc(batch.events.size());
      metrics_->batches_total->Inc();
      metrics_->queue_depth->Set(static_cast<double>(queue_->size()));
    }
    if (batch.queries != nullptr && batch.queries != active_) {
      sink_->BeginFlush(batch.queries->cut_serial);
      FinishQueriesRemovedBy(*batch.queries);
      sink_->EndFlush();
      active_ = batch.queries;
    }
    // Every match recorded while this batch evaluates is anchored to
    // the batch's router-entry time (zero when stamping is off).
    sink_->set_batch_ingest_time(batch.ingested_at);
    if (active_ != nullptr && !active_->queries.empty()) {
      // Segment the batch into maximal runs of one partition and hand
      // each run to every active query's engine over its batched path:
      // the queue pop, the segmentation, and the run bookkeeping are
      // paid once per run, not once per (run, query). Runs preserve the
      // batch's global arrival order, so per-partition order is
      // untouched for every query; the router's batch size already
      // bounds run length.
      ForEachPartitionRun(
          batch.events.data(), batch.events.size(), batch.events.size(),
          [&](uint32_t partition, const EventPtr* run, size_t run_length) {
            for (const ShardQuery& q : active_->queries) {
              PartitionState& state = StateFor(QueryStateFor(q), partition);
              sink_->set_current(q.id, partition, q.metrics);
              state.engine->OnBatch(run, run_length);
              if (q.metrics != nullptr) {
                const EngineCounters& counters = state.engine->counters();
                q.metrics->events_total->Inc(run_length);
                state.memory->Set(
                    static_cast<double>(counters.CurrentBytes()));
                SyncCounterDelta(q.metrics->instance_kernel_lanes,
                                 counters.instance_kernel_lanes,
                                 &state.kernel_lanes_reported);
                SyncCounterDelta(q.metrics->instance_kernel_blocks,
                                 counters.instance_kernel_blocks,
                                 &state.kernel_blocks_reported);
                SyncCounterDelta(q.metrics->retractions_total,
                                 counters.retractions_processed,
                                 &state.retractions_reported);
              }
            }
          });
    }
    batch.events.clear();
    batch.queries.reset();
    // Hand this batch's matches to the delivering thread, then count the
    // batch: the count is what advances the low watermark past it.
    sink_->PublishBatch();
  }
  // End of stream: finish the remaining queries in ascending id order so
  // Finish-time matches of this shard are recorded deterministically.
  std::vector<uint64_t> remaining;
  for (const auto& [id, state] : queries_) {
    if (!state.finished) remaining.push_back(id);
  }
  std::sort(remaining.begin(), remaining.end());
  sink_->BeginFlush(ConcurrentMatchSink::kEndOfStream);
  for (uint64_t id : remaining) FinishQuery(id, queries_.at(id));
  sink_->EndFlush();
}

Status ShardWorker::CaptureState(std::vector<PartitionSnapshot>* partitions) {
  std::vector<uint64_t> ids;
  for (const auto& [id, state] : queries_) {
    if (!state.finished) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  for (uint64_t id : ids) {
    QueryState& state = queries_.at(id);
    std::vector<uint32_t> parts;
    parts.reserve(state.partitions.size());
    for (const auto& [partition, ps] : state.partitions) {
      parts.push_back(partition);
    }
    std::sort(parts.begin(), parts.end());
    for (uint32_t partition : parts) {
      EngineStateWriter w;
      CEPJOIN_RETURN_IF_ERROR(
          state.partitions.at(partition).engine->SaveState(&w));
      PartitionSnapshot snap;
      snap.query = id;
      snap.partition = partition;
      snap.engine_state = w.Finish();
      partitions->push_back(std::move(snap));
    }
  }
  return Status::Ok();
}

Status ShardWorker::RestoreState(
    std::shared_ptr<const QuerySetSnapshot> snapshot,
    const std::vector<const PartitionSnapshot*>& partitions,
    const std::vector<const std::string*>& sink_blobs,
    const std::unordered_map<uint64_t, uint64_t>& query_remap, size_t shard,
    const std::function<size_t(uint32_t)>& shard_of) {
  if (!queries_.empty()) {
    return Status::FailedPrecondition(
        "RestoreState requires a freshly started worker");
  }
  active_ = std::move(snapshot);
  for (const PartitionSnapshot* snap : partitions) {
    const ShardQuery* query = nullptr;
    if (active_ != nullptr) {
      for (const ShardQuery& q : active_->queries) {
        if (q.id == snap->query) {
          query = &q;
          break;
        }
      }
    }
    if (query == nullptr) {
      return Status::FailedPrecondition(
          "checkpoint carries state for query id " +
          std::to_string(snap->query) + " absent from the active query set");
    }
    PartitionState& state =
        StateFor(QueryStateFor(*query), snap->partition);
    EngineStateReader reader(snap->engine_state);
    CEPJOIN_RETURN_IF_ERROR(reader.Init());
    CEPJOIN_RETURN_IF_ERROR(state.engine->LoadState(&reader));
    const EngineCounters& counters = state.engine->counters();
    // The restored engine counters include pre-checkpoint work; start
    // the delta-sync watermarks there so this process's registry
    // counters report only work done after the restore (counters are
    // process-local; a restart is a counter reset either way).
    state.kernel_lanes_reported = counters.instance_kernel_lanes;
    state.kernel_blocks_reported = counters.instance_kernel_blocks;
    state.retractions_reported = counters.retractions_processed;
    if (state.memory != nullptr) {
      state.memory->Set(static_cast<double>(counters.CurrentBytes()));
    }
  }
  for (const std::string* blob : sink_blobs) {
    EngineStateReader reader(*blob);
    CEPJOIN_RETURN_IF_ERROR(reader.Init());
    CEPJOIN_RETURN_IF_ERROR(
        sink_->LoadEntries(&reader, shard, shard_of, query_remap));
  }
  sink_->Publish();
  return Status::Ok();
}

EngineCounters ShardWorker::CountersOf(uint64_t query) const {
  auto it = queries_.find(query);
  return it != queries_.end() ? it->second.counters : EngineCounters{};
}

size_t ShardWorker::NumPartitionsOf(uint64_t query) const {
  auto it = queries_.find(query);
  return it != queries_.end() ? it->second.partitions.size() : 0;
}

const EnginePlan* ShardWorker::PlanFor(uint64_t query,
                                       uint32_t partition) const {
  auto it = queries_.find(query);
  if (it == queries_.end()) return nullptr;
  auto pit = it->second.partitions.find(partition);
  return pit != it->second.partitions.end() ? &pit->second.plan : nullptr;
}

}  // namespace cepjoin
