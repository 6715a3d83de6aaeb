#include "parallel/shard_router.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace cepjoin {

namespace {

// splitmix64 finalizer: full-avalanche mix so that the dense partition
// ids typical of keyed streams (vehicle 0, 1, 2, ...) do not all land on
// shard (id % num_shards) in lockstep.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

ShardRouter::ShardRouter(size_t num_shards, size_t batch_size,
                         size_t queue_capacity)
    : batch_size_(batch_size) {
  CEPJOIN_CHECK(num_shards > 0);
  CEPJOIN_CHECK(batch_size_ > 0);
  queues_.reserve(num_shards);
  pending_.resize(num_shards);
  in_flight_.resize(num_shards);
  acknowledged_.resize(num_shards, 0);
  for (size_t i = 0; i < num_shards; ++i) {
    queues_.push_back(std::make_unique<BoundedQueue<EventBatch>>(
        queue_capacity));
    pending_[i].events.reserve(batch_size_);
  }
}

size_t ShardRouter::ShardOf(uint32_t partition) const {
  return static_cast<size_t>(Mix64(partition) % queues_.size());
}

void ShardRouter::Route(const EventPtr& e) {
  size_t shard = ShardOf(e->partition);
  if (stamp_ingest_time_ && pending_[shard].events.empty()) {
    pending_[shard].ingested_at = std::chrono::steady_clock::now();
  }
  pending_[shard].events.push_back(e);
  NoteSerial(e->serial);
  ++events_routed_;
  if (pending_[shard].events.size() >= batch_size_) Flush(shard);
}

void ShardRouter::RouteRun(const EventPtr* events, size_t n) {
  if (n == 0) return;
  size_t shard = ShardOf(events[0]->partition);
  // pending_ never resizes after construction, so the reference stays
  // valid across Flush (which swaps the element's contents).
  EventBatch& pending = pending_[shard];
  for (size_t i = 0; i < n; ++i) {
    CEPJOIN_CHECK_EQ(events[i]->partition, events[0]->partition)
        << "RouteRun requires a same-partition run";
    if (stamp_ingest_time_ && pending.events.empty()) {
      pending.ingested_at = std::chrono::steady_clock::now();
    }
    pending.events.push_back(events[i]);
    NoteSerial(events[i]->serial);
    if (pending.events.size() >= batch_size_) Flush(shard);
  }
  events_routed_ += n;
}

void ShardRouter::Flush(size_t shard) {
  if (pending_[shard].empty()) return;
  EventBatch batch;
  batch.events.reserve(batch_size_);
  std::swap(batch, pending_[shard]);
  batch.queries = snapshot_;
  size_t batch_events = batch.events.size();
  EventSerial first_serial = batch.events.front()->serial;
  if (queues_[shard]->Push(std::move(batch))) {
    ++batches_flushed_;
    if (serials_increasing_) in_flight_[shard].push_back(first_serial);
  } else {
    // Closed queue: the batch was dropped, not delivered — keep the
    // counters honest so events_routed() - events_dropped() reconciles
    // with the workers' events_processed.
    events_dropped_ += batch_events;
  }
}

void ShardRouter::FlushAll() {
  for (size_t shard = 0; shard < queues_.size(); ++shard) Flush(shard);
}

void ShardRouter::PushSnapshotToAll() {
  for (size_t shard = 0; shard < queues_.size(); ++shard) {
    CEPJOIN_CHECK(pending_[shard].empty())
        << "PushSnapshotToAll before FlushAll";
    EventBatch marker;
    marker.queries = snapshot_;
    if (queues_[shard]->Push(std::move(marker)) && serials_increasing_) {
      in_flight_[shard].push_back(last_serial());
    }
  }
}

bool ShardRouter::AcknowledgeBatches(size_t shard, uint64_t batches_done) {
  std::deque<EventSerial>& in_flight = in_flight_[shard];
  uint64_t& acknowledged = acknowledged_[shard];
  CEPJOIN_CHECK(batches_done <= acknowledged + in_flight.size())
      << "shard " << shard << " completed more batches than were pushed";
  bool progressed = acknowledged < batches_done;
  while (acknowledged < batches_done) {
    in_flight.pop_front();
    ++acknowledged;
  }
  return progressed;
}

EventSerial ShardRouter::LowWatermark() const {
  EventSerial watermark = next_serial_;
  for (size_t shard = 0; shard < queues_.size(); ++shard) {
    // Serials increase in push order, so a shard's oldest unacknowledged
    // batch (else its pending one) holds its smallest unevaluated serial.
    if (!in_flight_[shard].empty()) {
      watermark = std::min(watermark, in_flight_[shard].front());
    } else if (!pending_[shard].empty()) {
      watermark =
          std::min(watermark, pending_[shard].events.front()->serial);
    }
  }
  return watermark;
}

void ShardRouter::CloseAll() {
  FlushAll();
  for (auto& queue : queues_) queue->Close();
}

}  // namespace cepjoin
