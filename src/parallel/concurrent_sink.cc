#include "parallel/concurrent_sink.h"

#include <algorithm>
#include <iterator>
#include <tuple>
#include <utility>

#include "common/check.h"
#include "durable/snapshot_codec.h"
#include "obs/pipeline_metrics.h"

namespace cepjoin {

void ConcurrentMatchSink::ShardSink::SaveEntries(EngineStateWriter* w) const {
  MutexLock lock(outbox_mu_);
  w->payload().U64(outbox_.size());
  for (const Entry& entry : outbox_) {
    w->WriteMatch(entry.match);
    w->payload().U64(entry.query);
    w->payload().U32(entry.partition);
  }
}

Status ConcurrentMatchSink::ShardSink::LoadEntries(
    EngineStateReader* r, size_t shard,
    const std::function<size_t(uint32_t)>& shard_of,
    const std::unordered_map<uint64_t, uint64_t>& query_remap) {
  SnapshotReader& p = r->payload();
  uint64_t n = p.U64();
  for (uint64_t i = 0; i < n && p.ok(); ++i) {
    Entry entry;
    entry.match = r->ReadMatch();
    entry.query = p.U64();
    entry.partition = p.U32();
    if (!p.ok()) break;
    if (shard_of(entry.partition) != shard) continue;
    auto it = query_remap.find(entry.query);
    if (it == query_remap.end()) {
      return Status::FailedPrecondition(
          "buffered match references capture-time query id " +
          std::to_string(entry.query) +
          " with no restore-time counterpart");
    }
    entry.query = it->second;
    entry.key = entry.match.emit_serial;
    entries_.push_back(std::move(entry));
  }
  return r->status();
}

void ConcurrentMatchSink::ShardSink::OnMatch(const Match& match) {
  Entry entry;
  entry.match = match;
  entry.query = current_query_;
  entry.partition = current_partition_;
  entry.key = flushing_ ? flush_key_ : match.emit_serial;
  entry.flush = flushing_;
  entries_.push_back(std::move(entry));
  // Striped counters/histograms: every shard records through the same
  // per-query bundle without contention, and a snapshot merges the
  // per-thread cells — the sharded equivalent of merging per-shard
  // output profilers at drain time.
  RecordMatchMetrics(current_metrics_, match, batch_ingested_at_);
}

void ConcurrentMatchSink::ShardSink::Publish() {
  if (entries_.empty()) return;
  MutexLock lock(outbox_mu_);
  if (outbox_.empty()) {
    outbox_.swap(entries_);
  } else {
    outbox_.insert(outbox_.end(), std::make_move_iterator(entries_.begin()),
                   std::make_move_iterator(entries_.end()));
    entries_.clear();
  }
}

void ConcurrentMatchSink::ShardSink::PublishBatch() {
  Publish();
  batches_published_.fetch_add(1);
}

void ConcurrentMatchSink::ShardSink::TakeBelow(EventSerial watermark,
                                               std::vector<Entry>* out) {
  MutexLock lock(outbox_mu_);
  size_t kept = 0;
  for (size_t i = 0; i < outbox_.size(); ++i) {
    if (outbox_[i].key < watermark) {
      out->push_back(std::move(outbox_[i]));
    } else {
      if (kept != i) outbox_[kept] = std::move(outbox_[i]);
      ++kept;
    }
  }
  outbox_.erase(outbox_.begin() + static_cast<std::ptrdiff_t>(kept),
                outbox_.end());
}

void ConcurrentMatchSink::ShardSink::TakeAll(std::vector<Entry>* out) {
  MutexLock lock(outbox_mu_);
  // Outbox first: it holds the earlier-recorded entries.
  for (Entry& entry : outbox_) out->push_back(std::move(entry));
  outbox_.clear();
  for (Entry& entry : entries_) out->push_back(std::move(entry));
  entries_.clear();
}

ConcurrentMatchSink::ConcurrentMatchSink(size_t num_shards) {
  CEPJOIN_CHECK(num_shards > 0);
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<ShardSink>());
  }
}

size_t ConcurrentMatchSink::ShardSink::held() const {
  MutexLock lock(outbox_mu_);
  return outbox_.size() + entries_.size();
}

size_t ConcurrentMatchSink::total_matches() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->held();
  return total;
}

void ConcurrentMatchSink::Deliver(
    std::vector<ShardSink::Entry>* entries,
    const std::function<MatchSink*(uint64_t)>& sink_for) {
  // `entries` is a concatenation in shard order. Entries of one partition
  // are contiguous in relative order within exactly one shard's buffer
  // (the router pins a partition to one shard regardless of query), so
  // the stable sort preserves each (query, partition)'s engine emission
  // order.
  std::stable_sort(entries->begin(), entries->end(),
                   [](const ShardSink::Entry& a, const ShardSink::Entry& b) {
                     return std::tie(a.key, a.flush, a.partition) <
                            std::tie(b.key, b.flush, b.partition);
                   });
  for (ShardSink::Entry& entry : *entries) {
    MatchSink* out = sink_for(entry.query);
    if (out != nullptr) out->OnMatch(entry.match);
  }
  entries->clear();
}

void ConcurrentMatchSink::DeliverBelow(
    EventSerial watermark,
    const std::function<MatchSink*(uint64_t)>& sink_for) {
  std::vector<ShardSink::Entry> released;
  for (auto& shard : shards_) shard->TakeBelow(watermark, &released);
  if (!released.empty()) Deliver(&released, sink_for);
}

void ConcurrentMatchSink::DrainTo(MatchSink* out) {
  CEPJOIN_CHECK(out != nullptr);
  DrainPerQuery([out](uint64_t) { return out; });
}

void ConcurrentMatchSink::DrainPerQuery(
    const std::function<MatchSink*(uint64_t)>& sink_for) {
  std::vector<ShardSink::Entry> all;
  all.reserve(total_matches());
  for (auto& shard : shards_) shard->TakeAll(&all);
  Deliver(&all, sink_for);
}

}  // namespace cepjoin
