#include "event/retraction_ledger.h"

#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "common/check.h"

namespace cepjoin {

namespace {

/// Timestamps key by exact bit pattern: a retraction must quote the
/// insertion's timestamp verbatim, never a recomputed approximation.
uint64_t TsBits(Timestamp ts) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(ts), "Timestamp must be 64-bit");
  std::memcpy(&bits, &ts, sizeof(bits));
  return bits;
}

size_t KeyHash(TypeId type, uint32_t partition, Timestamp ts) {
  uint64_t h = TsBits(ts);
  h ^= (static_cast<uint64_t>(type) << 32) ^ partition;
  // 64-bit mix (splitmix64 finalizer).
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return static_cast<size_t>(h);
}

/// Bytes of one SaveTo record: type, partition, ts bits, serial.
constexpr uint64_t kRecordBytes = 4 + 4 + 8 + 8;

}  // namespace

void RetractionLedger::set_horizon(Timestamp horizon) {
  CEPJOIN_CHECK(horizon >= 0.0) << "retraction horizon must be >= 0";
  horizon_ = horizon;
}

void RetractionLedger::RecordInsert(const Event& e) {
  Advance(e.ts);
  Append(e.type, e.partition, e.ts, e.serial);
}

StatusOr<RetractionLedger::Resolution> RetractionLedger::Resolve(Event* r) {
  Advance(r->ts);
  // Exactly the records behind the floor are forgotten, so a late target
  // is never looked up and an in-horizon one is never missing.
  if (r->target_ts < floor_) {
    r->target_serial = r->serial;
    return Resolution::kLate;
  }
  size_t slot = index_.empty()
                    ? 0
                    : FindSlot(r->type, r->partition, r->target_ts);
  if (index_.empty() || index_[slot] == 0) {
    return Status::InvalidArgument(
        "retraction targets no live insertion (type " +
        std::to_string(r->type) + ", partition " +
        std::to_string(r->partition) + ", ts " +
        std::to_string(r->target_ts) +
        "): never inserted or already retracted");
  }
  Record& rec = At(index_[slot] - 1);
  r->target_serial = rec.serial;
  rec.live = false;
  --live_;
  if (rec.older != kNone) {
    index_[slot] = rec.older + 1;
  } else {
    EraseSlot(slot);
  }
  return Resolution::kLive;
}

void RetractionLedger::Advance(Timestamp now) {
  const Timestamp cutoff = now - horizon_;
  if (cutoff > floor_) floor_ = cutoff;
  while (head_ < tail_ && At(head_).ts < floor_) {
    const Record& rec = At(head_);
    if (rec.live) {
      // The index points at the newest live duplicate of the key; any
      // newer duplicate shares this timestamp and goes in this same loop.
      size_t slot = FindSlot(rec.type, rec.partition, rec.ts);
      if (index_[slot] == head_ + 1) EraseSlot(slot);
      --live_;
    }
    ++head_;
  }
}

void RetractionLedger::Append(TypeId type, uint32_t partition, Timestamp ts,
                              EventSerial serial) {
  if (tail_ - head_ == ring_.size()) GrowRing();
  if ((keys_ + 1) * 2 > index_.size()) GrowIndex();
  const uint64_t seq = tail_++;
  size_t slot = FindSlot(type, partition, ts);
  uint64_t older = kNone;
  if (index_[slot] != 0) {
    older = index_[slot] - 1;
  } else {
    ++keys_;
  }
  index_[slot] = seq + 1;
  At(seq) = Record{ts, serial, older, type, partition, true};
  ++live_;
}

size_t RetractionLedger::FindSlot(TypeId type, uint32_t partition,
                                  Timestamp ts) const {
  const size_t mask = index_.size() - 1;
  const uint64_t bits = TsBits(ts);
  size_t slot = KeyHash(type, partition, ts) & mask;
  while (index_[slot] != 0) {
    const Record& rec = At(index_[slot] - 1);
    if (rec.type == type && rec.partition == partition &&
        TsBits(rec.ts) == bits) {
      return slot;
    }
    slot = (slot + 1) & mask;
  }
  return slot;
}

void RetractionLedger::EraseSlot(size_t slot) {
  const size_t mask = index_.size() - 1;
  size_t hole = slot;
  size_t next = slot;
  while (true) {
    next = (next + 1) & mask;
    if (index_[next] == 0) break;
    const Record& rec = At(index_[next] - 1);
    size_t home = KeyHash(rec.type, rec.partition, rec.ts) & mask;
    // The entry at `next` may move into the hole unless its home lies
    // cyclically in (hole, next]: then probing from home never passes
    // the hole.
    bool stays = hole <= next ? (hole < home && home <= next)
                              : (hole < home || home <= next);
    if (!stays) {
      index_[hole] = index_[next];
      hole = next;
    }
  }
  index_[hole] = 0;
  --keys_;
}

void RetractionLedger::GrowRing() {
  std::vector<Record> grown(ring_.empty() ? 64 : ring_.size() * 2);
  const size_t mask = grown.size() - 1;
  for (uint64_t seq = head_; seq < tail_; ++seq) {
    grown[seq & mask] = At(seq);
  }
  ring_ = std::move(grown);
}

void RetractionLedger::GrowIndex() {
  std::vector<uint64_t> old = std::move(index_);
  index_.assign(old.empty() ? 128 : old.size() * 2, 0);
  const size_t mask = index_.size() - 1;
  for (uint64_t entry : old) {
    if (entry == 0) continue;
    const Record& rec = At(entry - 1);
    size_t slot = KeyHash(rec.type, rec.partition, rec.ts) & mask;
    while (index_[slot] != 0) slot = (slot + 1) & mask;
    index_[slot] = entry;
  }
}

void RetractionLedger::SaveTo(SnapshotWriter* w) const {
  w->F64(floor_);
  w->U64(live_);
  for (uint64_t seq = head_; seq < tail_; ++seq) {
    const Record& rec = At(seq);
    if (!rec.live) continue;
    w->U32(static_cast<uint32_t>(rec.type));
    w->U32(rec.partition);
    w->U64(TsBits(rec.ts));
    w->U64(rec.serial);
  }
}

void RetractionLedger::LoadFrom(SnapshotReader* r) {
  ring_.clear();
  index_.clear();
  head_ = tail_ = 0;
  keys_ = live_ = 0;
  floor_ = r->F64();
  uint64_t n = r->U64();
  if (r->ok() && std::isnan(floor_)) {
    r->Fail("retraction ledger floor is NaN");
    return;
  }
  if (r->ok() && n > r->remaining() / kRecordBytes) {
    r->Fail("retraction ledger claims " + std::to_string(n) +
            " records, more than the payload holds");
    return;
  }
  Timestamp previous = -std::numeric_limits<Timestamp>::infinity();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    TypeId type = static_cast<TypeId>(r->U32());
    uint32_t partition = r->U32();
    uint64_t bits = r->U64();
    EventSerial serial = r->U64();
    Timestamp ts = 0.0;
    std::memcpy(&ts, &bits, sizeof(ts));
    if (!r->ok()) break;
    if (!std::isfinite(ts) || ts < previous) {
      r->Fail("retraction ledger records are not in timestamp order");
      break;
    }
    previous = ts;
    Append(type, partition, ts, serial);
  }
}

}  // namespace cepjoin
