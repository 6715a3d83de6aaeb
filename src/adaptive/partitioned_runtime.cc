#include "adaptive/partitioned_runtime.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"
#include "durable/snapshot_codec.h"
#include "event/partition_runs.h"

namespace cepjoin {

PartitionedRuntime::PartitionedRuntime(const SimplePattern& pattern,
                                       const EventStream& history,
                                       size_t num_types,
                                       const std::string& algorithm,
                                       MatchSink* sink, uint64_t seed,
                                       double latency_alpha, size_t batch_size)
    : planner_(pattern, history, num_types, algorithm, seed, latency_alpha),
      sink_(sink),
      batch_size_(batch_size) {
  CEPJOIN_CHECK(sink_ != nullptr);
  CEPJOIN_CHECK_GE(batch_size_, 1u) << "batch_size must be >= 1";
}

PartitionedRuntime::PartitionState& PartitionedRuntime::StateFor(
    uint32_t partition) {
  auto it = engines_.find(partition);
  if (it != engines_.end()) return it->second;
  PartitionState state;
  state.plan = planner_.PlanFor(partition);
  state.engine = planner_.BuildEngineFor(state.plan, sink_);
  return engines_.emplace(partition, std::move(state)).first->second;
}

void PartitionedRuntime::OnEvent(const EventPtr& e) {
  CEPJOIN_CHECK(!finished_) << "OnEvent after Finish";
  StateFor(e->partition).engine->OnEvent(e);
}

void PartitionedRuntime::OnBatch(const EventPtr* events, size_t n) {
  CEPJOIN_CHECK(!finished_) << "OnBatch after Finish";
  ForEachPartitionRun(events, n, batch_size_,
                      [&](uint32_t partition, const EventPtr* run,
                          size_t run_length) {
                        StateFor(partition).engine->OnBatch(run, run_length);
                      });
}

void PartitionedRuntime::ProcessStream(const EventStream& stream) {
  OnBatch(stream.events().data(), stream.size());
}

void PartitionedRuntime::Finish() {
  if (finished_) return;
  finished_ = true;
  // Ascending partition order, after every OnEvent-time match: the
  // sharded runtime keys its end-of-stream flushes after every serial
  // and breaks their ties by partition, so Finish-time matches (trailing
  // negation) reach the sink in this same order at any thread count.
  for (uint32_t partition : Partitions()) {
    PartitionState& state = engines_.at(partition);
    state.engine->Finish();
    final_counters_.MergeDisjoint(state.engine->counters());
    state.engine.reset();
  }
}

Status PartitionedRuntime::SaveStateTo(
    std::vector<std::pair<uint32_t, std::string>>* out) const {
  if (finished_) {
    return Status::FailedPrecondition(
        "SaveStateTo after Finish: the engines have been released");
  }
  for (uint32_t partition : Partitions()) {
    EngineStateWriter w;
    CEPJOIN_RETURN_IF_ERROR(engines_.at(partition).engine->SaveState(&w));
    out->emplace_back(partition, w.Finish());
  }
  return Status::Ok();
}

Status PartitionedRuntime::LoadPartitionState(uint32_t partition,
                                              const std::string& blob) {
  if (finished_) {
    return Status::FailedPrecondition("LoadPartitionState after Finish");
  }
  EngineStateReader reader(blob);
  CEPJOIN_RETURN_IF_ERROR(reader.Init());
  return StateFor(partition).engine->LoadState(&reader);
}

std::vector<uint32_t> PartitionedRuntime::Partitions() const {
  std::vector<uint32_t> partitions;
  partitions.reserve(engines_.size());
  for (const auto& [partition, state] : engines_) {
    partitions.push_back(partition);
  }
  std::sort(partitions.begin(), partitions.end());
  return partitions;
}

const EnginePlan& PartitionedRuntime::PlanFor(uint32_t partition) const {
  const EnginePlan* plan = FindPlan(partition);
  CEPJOIN_CHECK(plan != nullptr)
      << "no events seen for partition " << partition;
  return *plan;
}

const EnginePlan* PartitionedRuntime::FindPlan(uint32_t partition) const {
  auto it = engines_.find(partition);
  return it != engines_.end() ? &it->second.plan : nullptr;
}

EngineCounters PartitionedRuntime::TotalCounters() const {
  if (finished_) return final_counters_;
  EngineCounters total;
  for (const auto& [partition, state] : engines_) {
    total.MergeDisjoint(state.engine->counters());
  }
  return total;
}

}  // namespace cepjoin
