// Durable half of CepService: attached-source ingest with replayable
// positions, checkpoint capture, and crash recovery. Split from
// cep_service.cc so the registration/dispatch hot path and the
// durability machinery evolve independently.
#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/cep_service.h"
#include "common/check.h"
#include "durable/checkpoint_store.h"
#include "durable/snapshot_codec.h"
#include "obs/pipeline_metrics.h"

namespace cepjoin {

namespace {

/// Version of the service-level checkpoint payload (the section layout
/// AROUND the per-engine blobs; those carry kEngineStateFormatVersion
/// themselves). Bump on any layout change.
constexpr uint32_t kServiceCheckpointVersion = 2;

/// Merge order of two source heads: earlier timestamp first, inserts
/// before retractions at equal timestamps, remaining ties to the lower
/// attach index (the caller's ascending scan). Identical to the async
/// pipeline's rule, so both ingest paths produce the same merged
/// sequence from the same sources.
bool MergesBefore(const Event& a, const Event& b) {
  if (a.ts != b.ts) return a.ts < b.ts;
  return a.polarity > b.polarity;
}

}  // namespace

// ---- durable ingest -------------------------------------------------------

void CepService::CreateAttachedLedger() {
  attached_ledger_ = std::make_unique<RetractionLedger>();
  attached_ledger_->set_horizon(retraction_horizon_);
  if (metrics_registry_ != nullptr) {
    late_retractions_ =
        metrics_registry_->GetCounter(metric_names::kIngestLateRetractions);
  }
}

Status CepService::AttachSource(std::unique_ptr<StreamSource> source) {
  if (source == nullptr) {
    return Status::InvalidArgument("AttachSource: source is null");
  }
  if (finished_) return Status::FailedPrecondition("AttachSource after Finish");
  if (source->declares_retractions() && attached_ledger_ == nullptr) {
    CreateAttachedLedger();
  }
  AttachedSource attached;
  attached.source = std::move(source);
  attached_.push_back(std::move(attached));
  return Status::Ok();
}

Status CepService::RefillAttachedHead(size_t index) {
  AttachedSource& src = attached_[index];
  if (src.exhausted) return Status::Ok();
  size_t attempts = 0;
  std::chrono::milliseconds backoff = options_.source_retry_backoff;
  while (true) {
    // Record the position BEFORE pulling: re-reading from here after a
    // restore re-delivers the head we are about to buffer.
    src.head_position = src.source->position();
    if (src.source->Next(&src.head)) {
      if (!std::isfinite(src.head.ts) || src.head.ts < src.last_ts) {
        src.has_head = false;
        return Status::InvalidArgument(
            "attached source " + std::to_string(index) +
            ": timestamps must be finite and non-decreasing");
      }
      src.last_ts = src.head.ts;
      src.has_head = true;
      return Status::Ok();
    }
    src.has_head = false;
    if (src.source->ok()) {
      src.exhausted = true;
      return Status::Ok();
    }
    // Same retry policy as the async pipeline: only transient failures
    // (kUnavailable) are re-polled; parse errors are final.
    if (src.source->error_code() == StatusCode::kUnavailable &&
        attempts < options_.source_retry_limit) {
      ++attempts;
      if (metrics_registry_ != nullptr) {
        metrics_registry_->GetCounter(metric_names::kIngestSourceRetries)
            ->Inc();
      }
      std::this_thread::sleep_for(backoff);
      backoff *= 2;
      continue;
    }
    std::string message = "attached source " + std::to_string(index) + ": " +
                          src.source->error();
    return src.source->error_code() == StatusCode::kUnavailable
               ? Status::Unavailable(std::move(message))
               : Status::InvalidArgument(std::move(message));
  }
}

StatusOr<size_t> CepService::PumpAttachedSources(size_t max_events) {
  if (finished_) {
    return Status::FailedPrecondition("PumpAttachedSources after Finish");
  }
  const size_t k = attached_.size();
  size_t fed = 0;
  std::vector<EventPtr> run;
  run.reserve(options_.batch_size);
  uint32_t run_partition = 0;
  auto flush = [&] {
    if (run.empty()) return;
    OnMergedRun(run.data(), run.size());
    if (ingest_events_ != nullptr) {
      ingest_events_->Inc(run.size());
      ingest_batches_->Inc();
    }
    run.clear();
  };
  // Returns with the run flushed so the valid merged prefix has been
  // evaluated even when the pump fails mid-way.
  auto fail = [&](Status status) {
    flush();
    return status;
  };

  for (size_t i = 0; i < k; ++i) {
    if (!attached_[i].has_head) {
      CEPJOIN_RETURN_IF_ERROR(RefillAttachedHead(i));
    }
  }
  while (fed < max_events) {
    size_t best = k;
    for (size_t i = 0; i < k; ++i) {
      if (attached_[i].has_head &&
          (best == k || MergesBefore(attached_[i].head, attached_[best].head))) {
        best = i;
      }
    }
    if (best == k) break;  // every source exhausted

    Event e = std::move(attached_[best].head);
    attached_[best].has_head = false;
    // Serial assignment, identical to EventStream::Append and the async
    // merge: global arrival serials, dense per-partition sequences for
    // inserts, ledger resolution for retractions.
    e.serial = attached_next_serial_++;
    if (e.polarity < 0) {
      e.partition_seq = 0;
      if (attached_ledger_ == nullptr) {
        return fail(Status::InvalidArgument(
            "attached source " + std::to_string(best) +
            " emitted a retraction but declared an insert-only stream"));
      }
      StatusOr<RetractionLedger::Resolution> resolved =
          attached_ledger_->Resolve(&e);
      if (!resolved.ok()) return fail(resolved.status());
      if (*resolved == RetractionLedger::Resolution::kLate &&
          late_retractions_ != nullptr) {
        late_retractions_->Inc();
      }
    } else {
      e.partition_seq = attached_seq_.Next(e.partition);
      if (attached_ledger_ != nullptr) attached_ledger_->RecordInsert(e);
    }
    uint32_t partition = e.partition;
    if (!run.empty() &&
        (partition != run_partition || run.size() >= options_.batch_size)) {
      flush();
    }
    run_partition = partition;
    run.push_back(attached_arena_.Add(std::move(e)));
    ++fed;

    Status refilled = RefillAttachedHead(best);
    if (!refilled.ok()) return fail(std::move(refilled));
  }
  flush();
  return fed;
}

// ---- checkpoint capture ---------------------------------------------------

Status CepService::SaveQueryState(const QueryState& state,
                                  EngineStateWriter* w) const {
  SnapshotWriter& p = w->payload();
  if (!state.keyed) {
    p.U8(state.engine != nullptr ? 1 : 0);
    if (state.engine != nullptr) {
      EngineStateWriter engine_writer;
      CEPJOIN_RETURN_IF_ERROR(state.engine->SaveState(&engine_writer));
      p.Str(engine_writer.Finish());
    }
  } else if (state.partitioned != nullptr) {
    std::vector<std::pair<uint32_t, std::string>> blobs;
    if (state.active) {
      CEPJOIN_RETURN_IF_ERROR(state.partitioned->SaveStateTo(&blobs));
    }
    p.U64(blobs.size());
    for (const auto& [partition, blob] : blobs) {
      p.U32(partition);
      p.Str(blob);
    }
  }
  // Sharded queries carry no inline section: their engines live in the
  // sharded block below, keyed by service id.
  return Status::Ok();
}

Status CepService::CaptureCheckpointBytes(std::string* out) {
  CEPJOIN_CHECK(out != nullptr);
  if (finished_) {
    return Status::FailedPrecondition("CaptureCheckpointBytes after Finish");
  }
  EngineStateWriter outer;
  SnapshotWriter& p = outer.payload();
  p.U32(kServiceCheckpointVersion);
  p.U64(next_id_);
  p.U8(sharded_ != nullptr ? 1 : 0);

  // Attached-source ingest state: merge serials, per-partition
  // sequences, the live-insert ledger, and each source's replay
  // position (the pre-head position when a lookahead is buffered, so
  // replay re-delivers it).
  p.U8(attached_.empty() ? 0 : 1);
  if (!attached_.empty()) {
    p.U64(attached_next_serial_);
    attached_seq_.SaveTo(&p);
    p.U8(attached_ledger_ != nullptr ? 1 : 0);
    if (attached_ledger_ != nullptr) attached_ledger_->SaveTo(&p);
    p.U64(attached_.size());
    for (const AttachedSource& src : attached_) {
      p.U8(src.source->supports_position() ? 1 : 0);
      p.U64(src.has_head ? src.head_position : src.source->position());
      p.U8(src.exhausted ? 1 : 0);
    }
  }

  // Per-query sections, in id (registration) order.
  p.U64(queries_.size());
  for (const auto& [id, state] : queries_) {
    p.U64(id);
    p.Str(state.name);
    p.U8(state.keyed ? 1 : 0);
    p.U8(state.active ? 1 : 0);
    p.U8(state.uses_sharded ? 1 : 0);
    if (!state.keyed && state.engine != nullptr) {
      state.counters = state.engine->counters();
    }
    outer.WriteCounters(state.counters);
    CEPJOIN_RETURN_IF_ERROR(SaveQueryState(state, &outer));
  }

  // Sharded block: the capture-time (runtime id -> service id) table —
  // restore composes it with the new runtime's table to remap buffered
  // sink entries — then every live engine blob keyed by SERVICE id
  // (stable across restarts), then each shard's buffered sink entries.
  if (sharded_ != nullptr) {
    std::unordered_map<uint64_t, uint64_t> runtime_to_service;
    std::vector<std::pair<uint64_t, uint64_t>> mapping;
    for (const auto& [id, state] : queries_) {
      if (!state.uses_sharded) continue;
      runtime_to_service.emplace(state.sharded_id, id);
      mapping.emplace_back(state.sharded_id, id);
    }
    std::sort(mapping.begin(), mapping.end());
    p.U64(mapping.size());
    for (const auto& [runtime_id, service_id] : mapping) {
      p.U64(runtime_id);
      p.U64(service_id);
    }
    ShardedCheckpoint checkpoint;
    CEPJOIN_RETURN_IF_ERROR(sharded_->CaptureCheckpoint(&checkpoint));
    p.U64(checkpoint.partitions.size());
    for (const PartitionSnapshot& snap : checkpoint.partitions) {
      auto it = runtime_to_service.find(snap.query);
      if (it == runtime_to_service.end()) {
        return Status::FailedPrecondition(
            "sharded runtime captured state for unknown runtime query id " +
            std::to_string(snap.query));
      }
      p.U64(it->second);
      p.U32(snap.partition);
      p.Str(snap.engine_state);
    }
    p.U64(checkpoint.sink_blobs.size());
    for (const std::string& blob : checkpoint.sink_blobs) p.Str(blob);
  }

  *out = outer.Finish();
  return Status::Ok();
}

Status CepService::CheckpointTo(const std::string& dir) {
  std::string payload;
  CEPJOIN_RETURN_IF_ERROR(CaptureCheckpointBytes(&payload));
  CheckpointStore store(dir);
  CEPJOIN_RETURN_IF_ERROR(store.Open());
  return store.WriteCheckpoint(payload);
}

// ---- restore --------------------------------------------------------------

StatusOr<CepService::RestoreReport> CepService::RestoreFrom(
    const std::string& dir) {
  if (finished_) return Status::FailedPrecondition("RestoreFrom after Finish");
  CheckpointStore store(dir);
  StatusOr<CheckpointStore::LoadedCheckpoint> loaded = store.LoadLatest();
  if (!loaded.ok()) return loaded.status();

  EngineStateReader outer(loaded->payload);
  CEPJOIN_RETURN_IF_ERROR(outer.Init());
  SnapshotReader& p = outer.payload();

  uint32_t version = p.U32();
  if (p.ok() && version != kServiceCheckpointVersion) {
    return Status::DataLoss("checkpoint payload version " +
                            std::to_string(version) + " is not the supported " +
                            std::to_string(kServiceCheckpointVersion));
  }
  uint64_t next_id = p.U64();
  uint8_t sharded_flag = p.U8();
  if (!p.ok()) return p.status();
  if (next_id != next_id_) {
    return Status::FailedPrecondition(
        "checkpoint was cut with " + std::to_string(next_id) +
        " queries ever registered, this service has " +
        std::to_string(next_id_) +
        "; re-create the service and replay the same registration sequence "
        "before RestoreFrom");
  }
  if ((sharded_flag != 0) != (sharded_ != nullptr)) {
    return Status::FailedPrecondition(
        "checkpoint host kind mismatch: the checkpoint was cut on a " +
        std::string(sharded_flag != 0 ? "sharded" : "single-threaded") +
        " service; re-create this service with a matching "
        "ServiceOptions::num_threads class (1 vs many; the sharded thread "
        "COUNT may differ freely)");
  }

  uint8_t has_ingest = p.U8();
  if (!p.ok()) return p.status();
  if ((has_ingest != 0) != !attached_.empty()) {
    return Status::FailedPrecondition(
        has_ingest != 0
            ? "checkpoint carries attached-source state; attach the same "
              "sources (in the same order) before RestoreFrom"
            : "this service has attached sources but the checkpoint was cut "
              "without any");
  }
  if (has_ingest != 0) {
    attached_next_serial_ = p.U64();
    attached_seq_.LoadFrom(&p);
    uint8_t has_ledger = p.U8();
    if (has_ledger != 0) {
      if (attached_ledger_ == nullptr) CreateAttachedLedger();
      attached_ledger_->LoadFrom(&p);
    }
    uint64_t n_sources = p.U64();
    if (!p.ok()) return p.status();
    if (n_sources != attached_.size()) {
      return Status::FailedPrecondition(
          "checkpoint was cut with " + std::to_string(n_sources) +
          " attached sources, this service has " +
          std::to_string(attached_.size()));
    }
    for (size_t i = 0; i < attached_.size(); ++i) {
      uint8_t positional = p.U8();
      uint64_t position = p.U64();
      uint8_t exhausted = p.U8();
      if (!p.ok()) return p.status();
      AttachedSource& src = attached_[i];
      if (positional != 0) {
        if (!src.source->supports_position()) {
          return Status::FailedPrecondition(
              "attached source " + std::to_string(i) +
              " was positional at capture but the attached replacement is "
              "not; tail replay is impossible");
        }
        CEPJOIN_RETURN_IF_ERROR(src.source->SeekTo(position));
      }
      // The lookahead is NOT restored — the seek re-delivers it; the
      // monotonicity baseline resets with the replay position.
      src.has_head = false;
      src.exhausted = exhausted != 0;
      src.last_ts = -std::numeric_limits<double>::infinity();
    }
  }

  uint64_t n_queries = p.U64();
  if (!p.ok()) return p.status();
  if (n_queries != queries_.size()) {
    return Status::FailedPrecondition(
        "checkpoint carries " + std::to_string(n_queries) +
        " queries, this service has " + std::to_string(queries_.size()));
  }
  for (auto& [id, state] : queries_) {
    uint64_t saved_id = p.U64();
    std::string saved_name = p.Str();
    uint8_t saved_keyed = p.U8();
    uint8_t saved_active = p.U8();
    uint8_t saved_sharded = p.U8();
    if (!p.ok()) return p.status();
    if (saved_id != id || saved_name != state.name ||
        (saved_keyed != 0) != state.keyed ||
        (saved_active != 0) != state.active ||
        (saved_sharded != 0) != state.uses_sharded) {
      return Status::FailedPrecondition(
          "query " + std::to_string(id) +
          " disagrees with the checkpoint's registration sequence "
          "(id/name/keyed/active/host); re-create the service and replay "
          "the exact registration (and deregistration) order");
    }
    outer.ReadCounters(&state.counters);
    if (!state.keyed) {
      uint8_t has_engine = p.U8();
      if (!p.ok()) return p.status();
      if ((has_engine != 0) != (state.engine != nullptr)) {
        return Status::FailedPrecondition(
            "query " + std::to_string(id) +
            ": live-engine mismatch against the checkpoint");
      }
      if (has_engine != 0) {
        std::string blob = p.Str();
        if (!p.ok()) return p.status();
        EngineStateReader reader(blob);
        CEPJOIN_RETURN_IF_ERROR(reader.Init());
        CEPJOIN_RETURN_IF_ERROR(state.engine->LoadState(&reader));
      }
    } else if (!state.uses_sharded) {
      uint64_t n_partitions = p.U64();
      if (!p.ok()) return p.status();
      if (state.partitioned == nullptr) {
        return Status::FailedPrecondition(
            "query " + std::to_string(id) +
            " has no partitioned runtime to restore into");
      }
      for (uint64_t i = 0; i < n_partitions && p.ok(); ++i) {
        uint32_t partition = p.U32();
        std::string blob = p.Str();
        if (!p.ok()) break;
        CEPJOIN_RETURN_IF_ERROR(
            state.partitioned->LoadPartitionState(partition, blob));
      }
      if (!p.ok()) return p.status();
    }
  }

  if (sharded_flag != 0) {
    // Compose (capture runtime id -> service id) with (service id ->
    // this runtime's id) into the sink-entry remap table.
    std::unordered_map<uint64_t, uint64_t> service_to_new_runtime;
    for (const auto& [id, state] : queries_) {
      if (state.uses_sharded) {
        service_to_new_runtime.emplace(id, state.sharded_id);
      }
    }
    std::unordered_map<uint64_t, uint64_t> query_remap;
    uint64_t n_mappings = p.U64();
    for (uint64_t i = 0; i < n_mappings && p.ok(); ++i) {
      uint64_t old_runtime = p.U64();
      uint64_t service_id = p.U64();
      if (!p.ok()) break;
      auto it = service_to_new_runtime.find(service_id);
      if (it == service_to_new_runtime.end()) {
        return Status::FailedPrecondition(
            "checkpoint maps a sharded query to service id " +
            std::to_string(service_id) +
            " which is not sharded in this service");
      }
      query_remap.emplace(old_runtime, it->second);
    }
    ShardedCheckpoint checkpoint;
    uint64_t n_partitions = p.U64();
    for (uint64_t i = 0; i < n_partitions && p.ok(); ++i) {
      uint64_t service_id = p.U64();
      uint32_t partition = p.U32();
      std::string blob = p.Str();
      if (!p.ok()) break;
      auto it = service_to_new_runtime.find(service_id);
      if (it == service_to_new_runtime.end()) {
        return Status::FailedPrecondition(
            "checkpoint carries sharded engine state for service id " +
            std::to_string(service_id) + " which is not sharded here");
      }
      PartitionSnapshot snap;
      snap.query = it->second;
      snap.partition = partition;
      snap.engine_state = std::move(blob);
      checkpoint.partitions.push_back(std::move(snap));
    }
    uint64_t n_sinks = p.U64();
    for (uint64_t i = 0; i < n_sinks && p.ok(); ++i) {
      checkpoint.sink_blobs.push_back(p.Str());
    }
    if (!p.ok()) return p.status();
    CEPJOIN_RETURN_IF_ERROR(
        sharded_->RestoreCheckpoint(checkpoint, query_remap));
  }

  if (!p.ok()) return p.status();
  if (!p.AtEnd()) {
    return Status::DataLoss(
        "checkpoint payload has trailing bytes after the last section");
  }
  if (restores_total_ != nullptr) restores_total_->Inc();
  RestoreReport report;
  report.checkpoint_seq = loaded->seq;
  report.fell_back = loaded->fell_back;
  report.detail = loaded->detail;
  return report;
}

}  // namespace cepjoin
