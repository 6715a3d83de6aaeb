#ifndef CEPJOIN_EVENT_RETRACTION_LEDGER_H_
#define CEPJOIN_EVENT_RETRACTION_LEDGER_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/status.h"
#include "durable/snapshot_io.h"
#include "event/event.h"

namespace cepjoin {

/// Tracks live insertions of a delta stream so a retraction can be
/// resolved to the serial of the insertion it cancels. Owned by whoever
/// assigns serials: EventStream::Append for materialized streams, the
/// ingest merge and CepService's attached-source pump for streamed
/// sources.
///
/// A retraction identifies its target by (type, partition, target_ts).
/// Duplicate keys (two live insertions of the same type, partition and
/// timestamp) resolve last-in-first-out, which is deterministic and
/// matches the "retract the most recent occurrence" reading; real
/// streams with real-valued timestamps essentially never hit this case.
///
/// Horizon: a ledger with a finite horizon H forgets an insertion once
/// the stream's timestamp passes insertion.ts + H, in timestamp order
/// as records arrive (amortized O(1), never a scan). A retraction whose
/// target_ts < r.ts - H is *late*: no engine with a window <= H / 2 can
/// still act on it (see CepService's horizon rule), so it resolves to
/// its own serial, which no insertion carries, and reaches the engines
/// as a time-advancing no-op. The default horizon is infinite: every
/// live insertion stays resolvable. Precisely, "late" means behind the
/// forget floor: the largest now - H the ledger has applied. With a
/// constant H that is r.ts - H; after H grows it stays where it was
/// until the stream catches up, since what was forgotten stays gone.
///
/// Layout: one ring of records in arrival (= timestamp) order, an
/// open-addressing index from key to the newest live record, and a
/// per-record link to the next-older live record of the same key for
/// LIFO duplicates. Steady-state inserts allocate nothing.
class RetractionLedger {
 public:
  /// How a successful Resolve found its target.
  enum class Resolution : uint8_t {
    kLive,  // resolved to a live insertion, which is now retracted
    kLate,  // target_ts is behind the horizon: resolved to r's own serial
  };

  /// Sets how far behind the newest timestamp an insertion stays
  /// resolvable. Must be >= 0; takes effect from the next record.
  /// Insertions already forgotten stay forgotten (and late).
  void set_horizon(Timestamp horizon);

  /// Registers a live insertion. Call with every polarity=+1 event, in
  /// stream order (non-decreasing timestamps).
  void RecordInsert(const Event& e);

  /// Resolves a retraction: fills r->target_serial with the serial of
  /// the (most recent) live insertion of (r->type, r->partition,
  /// r->target_ts) and retracts it, or with r->serial for a late
  /// retraction. Fails if the target is inside the horizon but no such
  /// insertion is live, i.e. it was never inserted or already retracted.
  StatusOr<Resolution> Resolve(Event* r);

  /// Live (inserted, not yet retracted or forgotten) insertions.
  size_t size() const { return live_; }

  /// Checkpoint support: the forget floor, then the live records in
  /// arrival order, which is already canonical (a function of the
  /// stream prefix alone).
  void SaveTo(SnapshotWriter* w) const;

  /// Replaces this ledger's records with a SaveTo encoding (the horizon
  /// is kept). Malformed input latches DataLoss on the reader; check
  /// r->status() after.
  void LoadFrom(SnapshotReader* r);

 private:
  static constexpr uint64_t kNone = std::numeric_limits<uint64_t>::max();

  struct Record {
    Timestamp ts;
    EventSerial serial;
    /// Sequence number of the next-older live record with the same key,
    /// or kNone. Duplicates share a timestamp, so they are forgotten
    /// together and a link never outlives its target.
    uint64_t older;
    TypeId type;
    uint32_t partition;
    bool live;
  };

  /// Raises the forget floor to now - horizon and forgets the records
  /// behind it, oldest first.
  void Advance(Timestamp now);
  /// Appends a live record at the ring's tail and indexes it.
  void Append(TypeId type, uint32_t partition, Timestamp ts,
              EventSerial serial);
  Record& At(uint64_t seq) { return ring_[seq & (ring_.size() - 1)]; }
  const Record& At(uint64_t seq) const {
    return ring_[seq & (ring_.size() - 1)];
  }
  /// Index slot holding `key`'s newest live record, or the empty slot
  /// where it would go.
  size_t FindSlot(TypeId type, uint32_t partition, Timestamp ts) const;
  /// Empties `slot`, shifting later probes back (no tombstones).
  void EraseSlot(size_t slot);
  void GrowRing();
  void GrowIndex();

  std::vector<Record> ring_;  // power-of-two capacity
  uint64_t head_ = 0;         // sequence number of the oldest record
  uint64_t tail_ = 0;         // sequence number of the next record
  /// Open-addressing (linear probing) index: record sequence + 1, 0 =
  /// empty. Power-of-two capacity, at most half full.
  std::vector<uint64_t> index_;
  size_t keys_ = 0;  // occupied index slots
  size_t live_ = 0;
  Timestamp horizon_ = std::numeric_limits<Timestamp>::infinity();
  /// Every record with ts < floor_ is forgotten; never decreases.
  Timestamp floor_ = -std::numeric_limits<Timestamp>::infinity();
};

}  // namespace cepjoin

#endif  // CEPJOIN_EVENT_RETRACTION_LEDGER_H_
