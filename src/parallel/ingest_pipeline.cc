#include "parallel/ingest_pipeline.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"
#include "event/arena.h"
#include "event/partition_sequencer.h"
#include "event/retraction_ledger.h"
#include "obs/pipeline_metrics.h"

namespace cepjoin {

namespace {

// Merge order of two heads with equal progress: earlier timestamp
// first; at equal timestamps insertions merge before retractions (so a
// retraction arriving at the exact timestamp of its insertion lands
// after it and resolves); remaining ties fall to the caller's
// ascending-index scan (lowest source/group index wins). Insert-only
// streams have uniform polarity, so their order is bit-identical to the
// pre-delta (ts, source index) rule.
inline bool MergesBefore(const Event& a, const Event& b) {
  if (a.ts != b.ts) return a.ts < b.ts;
  return a.polarity > b.polarity;
}

}  // namespace

IngestPipeline::IngestPipeline(
    std::vector<std::unique_ptr<StreamSource>> sources,
    const IngestOptions& options)
    : sources_(std::move(sources)), options_(options) {
  CEPJOIN_CHECK_GE(options_.chunk_size, 1u);
  CEPJOIN_CHECK_GE(options_.queue_capacity, 1u);
  for (const auto& source : sources_) CEPJOIN_CHECK(source != nullptr);
  size_t k = sources_.size();
  num_groups_ = options_.num_ingest_threads == 0
                    ? k
                    : std::min(options_.num_ingest_threads, k);
  groups_.reserve(num_groups_);
  for (size_t g = 0; g < num_groups_; ++g) {
    // Contiguous split: group g serves sources [g*k/T, (g+1)*k/T). The
    // ascending layout is what lets the per-group and cross-group
    // tie-breaks compose into one global source-index rule.
    Group group;
    group.first_source = g * k / num_groups_;
    group.num_sources = (g + 1) * k / num_groups_ - group.first_source;
    group.queue =
        std::make_unique<BoundedQueue<SourceChunk>>(options_.queue_capacity);
    groups_.push_back(std::move(group));
  }
  if (options_.metrics != nullptr) {
    MetricsRegistry* reg = options_.metrics;
    source_watermark_.reserve(k);
    source_lag_.reserve(k);
    for (size_t i = 0; i < k; ++i) {
      MetricLabels labels{{"source", std::to_string(i)}};
      source_watermark_.push_back(
          reg->GetGauge(metric_names::kSourceWatermark, labels));
      source_lag_.push_back(
          reg->GetGauge(metric_names::kSourceWatermarkLag, labels));
    }
    merged_watermark_ = reg->GetGauge(metric_names::kMergedWatermark);
    ingest_events_ = reg->GetCounter(metric_names::kIngestEvents);
    ingest_batches_ = reg->GetCounter(metric_names::kIngestBatches);
    source_retries_ = reg->GetCounter(metric_names::kIngestSourceRetries);
  }
}

IngestPipeline::~IngestPipeline() { CloseAndJoin(); }

void IngestPipeline::UpdateWatermarkLags() {
  // Gauges start at 0, so a source that has not emitted yet reads as
  // watermark 0 and its lag is the whole frontier — the honest answer
  // for the non-negative timestamps the sources produce.
  double max_watermark = 0.0;
  for (Gauge* wm : source_watermark_) {
    max_watermark = std::max(max_watermark, wm->Value());
  }
  for (size_t i = 0; i < source_watermark_.size(); ++i) {
    double lag = max_watermark - source_watermark_[i]->Value();
    source_lag_[i]->Set(lag < 0.0 ? 0.0 : lag);
  }
}

void IngestPipeline::CloseAndJoin() {
  for (auto& group : groups_) group.queue->Close();
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
}

// Runs on the group's ingestion thread: pull from each owned source,
// merge locally by (ts, source index), push timestamp-ordered chunks.
void IngestPipeline::IngestGroup(Group& group) {
  const size_t k = group.num_sources;
  std::vector<Event> heads(k);
  std::vector<char> live(k, 0);
  SourceChunk chunk;
  chunk.events.reserve(options_.chunk_size);

  auto fail = [&](size_t local_source, const std::string& message) {
    // Deliver the valid events parsed before the failure, then the
    // sentinel; the merge stops at the sentinel.
    if (!chunk.events.empty()) {
      if (!group.queue->Push(std::move(chunk))) return;
      chunk = SourceChunk{};
    }
    SourceChunk sentinel;
    // An empty message would make the sentinel look like a data chunk.
    sentinel.error = message.empty() ? "source failed" : message;
    sentinel.failed_source = group.first_source + local_source;
    // A rejected push means the merge already failed on another group
    // and closed every queue; its failure wins, ours is redundant.
    if (!group.queue->Push(std::move(sentinel))) return;
    group.queue->Close();
  };

  auto refill = [&](size_t i, double min_ts) -> bool {
    StreamSource& source = *sources_[group.first_source + i];
    size_t attempts = 0;
    std::chrono::milliseconds backoff = options_.source_retry_backoff;
    while (true) {
      if (source.Next(&heads[i])) {
        if (!std::isfinite(heads[i].ts) || heads[i].ts < min_ts) {
          fail(i, "source " + std::to_string(group.first_source + i) +
                      ": timestamps must be finite and non-decreasing");
          return false;
        }
        live[i] = 1;
        return true;
      }
      live[i] = 0;
      if (source.ok()) return true;  // cleanly exhausted
      // Transient failure (kUnavailable): back off and re-poll. Fatal
      // codes (parse errors) fall through immediately — re-reading
      // malformed input cannot fix it.
      if (source.error_code() == StatusCode::kUnavailable &&
          attempts < options_.source_retry_limit) {
        ++attempts;
        if (source_retries_ != nullptr) source_retries_->Inc();
        std::this_thread::sleep_for(backoff);
        backoff *= 2;
        continue;
      }
      fail(i, source.error());
      return false;
    }
  };

  for (size_t i = 0; i < k; ++i) {
    if (!refill(i, -std::numeric_limits<double>::infinity())) return;
  }
  while (true) {
    size_t best = k;
    for (size_t i = 0; i < k; ++i) {
      // Strict ordering: the lowest source index wins full ties (see
      // MergesBefore for the timestamp/polarity rule).
      if (live[i] && (best == k || MergesBefore(heads[i], heads[best]))) {
        best = i;
      }
    }
    if (best == k) break;  // every source exhausted
    chunk.events.push_back(std::move(heads[best]));
    if (!source_watermark_.empty()) {
      // The source's event-time frontier: every event it will still emit
      // has ts >= this. One atomic store; the merge thread reads it to
      // derive the lag gauges.
      source_watermark_[group.first_source + best]->Set(
          chunk.events.back().ts);
    }
    if (!refill(best, chunk.events.back().ts)) return;
    if (chunk.events.size() >= options_.chunk_size) {
      if (!group.queue->Push(std::move(chunk))) return;  // merge aborted
      chunk = SourceChunk{};
      chunk.events.reserve(options_.chunk_size);
    }
  }
  if (!chunk.events.empty()) {
    // Rejected only when the merge failed elsewhere and closed the
    // queues; the trailing chunk is then intentionally dropped (the
    // merge stopped at the failure's valid prefix).
    if (!group.queue->Push(std::move(chunk))) return;
  }
  group.queue->Close();
}

IngestResult IngestPipeline::Run(const RunConsumer& consume) {
  CEPJOIN_CHECK(!ran_) << "IngestPipeline::Run is callable once";
  ran_ = true;
  CEPJOIN_CHECK(consume != nullptr);

  IngestResult result;
  if (sources_.empty()) {
    result.ok = true;
    return result;
  }

  threads_.reserve(num_groups_);
  try {
    for (auto& group : groups_) {
      threads_.emplace_back([this, &group] { IngestGroup(group); });
    }
  } catch (...) {
    CloseAndJoin();
    throw;
  }

  // Cursor over one group's queue: `chunk` is the current data chunk,
  // `pos` the next unread event in it.
  struct Cursor {
    SourceChunk chunk;
    size_t pos = 0;
    bool open = true;
  };
  std::vector<Cursor> cursors(num_groups_);

  bool failed = false;
  std::vector<EventPtr> run;
  run.reserve(options_.chunk_size);
  auto flush_run = [&] {
    if (run.empty()) return;
    consume(run.data(), run.size());
    result.events += run.size();
    if (merged_watermark_ != nullptr) {
      // The merge frontier: everything at or below this timestamp has
      // been handed downstream. Updated per run, not per event.
      merged_watermark_->Set(run.back()->ts);
      ingest_events_->Inc(run.size());
      ingest_batches_->Inc();
      UpdateWatermarkLags();
    }
    run.clear();
  };

  EventSerial next_serial = 0;
  PartitionSequencer partition_seq;
  // Merged events are arena-built: the consumer's runs point into
  // contiguous blocks, same layout as a materialized EventStream.
  EventArena arena;
  // Delta streams: retraction targets are resolved against the merged
  // order (serials only exist here), so the merge owns the ledger. Any
  // declaring source turns it on for the whole merge — targets may
  // cross sources. Insert-only pipelines never touch it.
  std::unique_ptr<RetractionLedger> ledger;
  Counter* late_retractions = nullptr;  // null = metrics off
  for (const auto& source : sources_) {
    if (source->declares_retractions()) {
      ledger = std::make_unique<RetractionLedger>();
      ledger->set_horizon(options_.retraction_horizon);
      if (options_.metrics != nullptr) {
        late_retractions = options_.metrics->GetCounter(
            metric_names::kIngestLateRetractions);
      }
      break;
    }
  }

  try {
    while (!failed) {
      // Make sure every open group exposes its next merged event, then
      // pick the global minimum by (ts, group index).
      size_t best = num_groups_;
      for (size_t g = 0; g < num_groups_; ++g) {
        Cursor& cursor = cursors[g];
        while (cursor.open && cursor.pos == cursor.chunk.events.size() &&
               cursor.chunk.error.empty()) {
          cursor.chunk = SourceChunk{};
          cursor.pos = 0;
          if (!groups_[g].queue->Pop(cursor.chunk)) cursor.open = false;
        }
        if (!cursor.open) continue;
        if (!cursor.chunk.error.empty()) {
          result.error = cursor.chunk.error;
          result.failed_source = cursor.chunk.failed_source;
          failed = true;
          best = num_groups_;
          break;
        }
        const Event& head = cursor.chunk.events[cursor.pos];
        if (best == num_groups_ ||
            MergesBefore(head,
                         cursors[best].chunk.events[cursors[best].pos])) {
          best = g;
        }
      }
      if (best == num_groups_) break;  // all groups done, or failed

      Cursor& cursor = cursors[best];
      Event e = std::move(cursor.chunk.events[cursor.pos++]);
      // Same serial/sequence assignment as EventStream::Append, so the
      // merged sequence is indistinguishable from a materialized stream.
      e.serial = next_serial++;
      if (e.IsRetraction()) {
        if (ledger == nullptr) {
          result.error =
              "retraction from a source that does not declare retractions";
          failed = true;
          continue;
        }
        // Like EventStream::Append: a retraction holds a serial but no
        // partition sequence slot and no type count.
        e.partition_seq = 0;
        StatusOr<RetractionLedger::Resolution> resolved = ledger->Resolve(&e);
        if (!resolved.ok()) {
          // Same contract as a source failure: the valid merged prefix
          // stays delivered, the offending event is dropped.
          result.error = resolved.status().message();
          failed = true;
          continue;
        }
        if (*resolved == RetractionLedger::Resolution::kLate &&
            late_retractions != nullptr) {
          late_retractions->Inc();
        }
      } else {
        e.partition_seq = partition_seq.Next(e.partition);
        if (ledger != nullptr) ledger->RecordInsert(e);
      }
      if (!run.empty() && (run.back()->partition != e.partition ||
                           run.size() >= options_.chunk_size)) {
        flush_run();
      }
      run.push_back(arena.Add(std::move(e)));
    }
    flush_run();
  } catch (...) {
    CloseAndJoin();
    throw;
  }

  CloseAndJoin();
  result.ok = !failed;
  return result;
}

}  // namespace cepjoin
