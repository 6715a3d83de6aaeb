#ifndef CEPJOIN_EVENT_STREAM_H_
#define CEPJOIN_EVENT_STREAM_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "event/arena.h"
#include "event/event.h"
#include "event/partition_sequencer.h"
#include "event/retraction_ledger.h"

namespace cepjoin {

/// A finite, timestamp-ordered event stream held in memory.
///
/// The paper replays a historical NASDAQ stream; this container plays the
/// same role for our synthetic streams. Events are appended in timestamp
/// order and receive their global serial automatically.
class EventStream {
 public:
  EventStream() = default;

  /// Appends an event. `e.ts` must be >= the previous event's timestamp;
  /// serial and per-partition sequence numbers are assigned here. With
  /// retractions enabled, a polarity=-1 event has its target_serial
  /// resolved here against the stream's own insertions (an unbounded
  /// ledger: a materialized stream holds every event anyway). Any
  /// violation, such as a retraction that targets no live insertion, is
  /// a programmer error (CHECK); untrusted input goes through TryAppend.
  void Append(Event e);

  /// Append for untrusted input: the same checks, returned as a Status
  /// instead of a CHECK. On error the stream is unchanged.
  Status TryAppend(Event e);

  /// Opts this stream into ± delta semantics. Must be called before the
  /// first retraction is appended; inserts appended earlier are NOT
  /// retractable (the ledger only sees appends made after the call), so
  /// call it before the first Append. Insert-only streams never pay for
  /// the ledger.
  void EnableRetractions();
  bool retractions_enabled() const { return ledger_ != nullptr; }

  const std::vector<EventPtr>& events() const { return events_; }
  size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  const EventPtr& operator[](size_t i) const { return events_[i]; }

  /// Timestamp of the last event, or 0 for an empty stream.
  Timestamp end_ts() const;
  /// Timestamp of the first event, or 0 for an empty stream.
  Timestamp begin_ts() const;
  /// end_ts() - begin_ts().
  Timestamp Duration() const;

  /// Number of events of each type (indexed by TypeId; grows as needed).
  /// Counts insertions only: a retraction is a command about an earlier
  /// event, not an occurrence, so it must not skew type rates.
  const std::vector<size_t>& type_counts() const { return type_counts_; }

 private:
  std::vector<EventPtr> events_;
  std::vector<size_t> type_counts_;
  PartitionSequencer partition_seq_;
  /// Present only after EnableRetractions().
  std::unique_ptr<RetractionLedger> ledger_;
  /// Events are arena-allocated: contiguous blocks, one shared control
  /// block per EventArena block instead of one heap Event per append.
  EventArena arena_;
};

}  // namespace cepjoin

#endif  // CEPJOIN_EVENT_STREAM_H_
