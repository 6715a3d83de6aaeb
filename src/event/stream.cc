#include "event/stream.h"

#include <utility>

#include "common/check.h"

namespace cepjoin {

void EventStream::Append(Event e) {
  Status appended = TryAppend(std::move(e));
  CEPJOIN_CHECK(appended.ok()) << appended.message();
}

Status EventStream::TryAppend(Event e) {
  if (!events_.empty() && !(e.ts >= events_.back()->ts)) {
    return Status::InvalidArgument(
        "streams must be appended in timestamp order");
  }
  e.serial = static_cast<EventSerial>(events_.size());
  if (e.IsRetraction()) {
    if (!retractions_enabled()) {
      return Status::InvalidArgument(
          "retraction appended to a stream without EnableRetractions()");
    }
    // A retraction is a command about an earlier insertion, not an
    // occurrence: it takes a stream slot (serial) for deterministic
    // ordering, but does not advance the partition sequencer or the
    // type counts.
    e.partition_seq = 0;
    CEPJOIN_RETURN_IF_ERROR(ledger_->Resolve(&e).status());
  } else {
    e.partition_seq = partition_seq_.Next(e.partition);
    if (e.type >= type_counts_.size()) {
      type_counts_.resize(e.type + 1, 0);
    }
    ++type_counts_[e.type];
    if (ledger_ != nullptr) ledger_->RecordInsert(e);
  }
  events_.push_back(arena_.Add(std::move(e)));
  return Status::Ok();
}

void EventStream::EnableRetractions() {
  if (ledger_ == nullptr) ledger_ = std::make_unique<RetractionLedger>();
}

Timestamp EventStream::end_ts() const {
  return events_.empty() ? 0.0 : events_.back()->ts;
}

Timestamp EventStream::begin_ts() const {
  return events_.empty() ? 0.0 : events_.front()->ts;
}

Timestamp EventStream::Duration() const { return end_ts() - begin_ts(); }

}  // namespace cepjoin
