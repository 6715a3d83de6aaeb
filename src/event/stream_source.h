#ifndef CEPJOIN_EVENT_STREAM_SOURCE_H_
#define CEPJOIN_EVENT_STREAM_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/check.h"
#include "common/status.h"
#include "event/stream.h"

namespace cepjoin {

/// Pull-based producer of a timestamp-ordered event sequence — the unit
/// of work of one ingestion thread in the async pipeline
/// (parallel/ingest_pipeline.h). A source fills `type`, `ts`,
/// `partition`, and `attrs` only; `serial` and `partition_seq` are
/// assigned downstream by the merge stage, which preserves the global
/// invariants of EventStream::Append across any number of sources.
///
/// Contract:
///  - Next() returns events with non-decreasing, finite timestamps;
///  - after Next() returns false, ok() distinguishes a clean end of
///    stream from a source failure described by error();
///  - a source is single-consumer: Next() is only ever called from one
///    thread at a time (the pipeline dedicates each source to one
///    ingest thread).
class StreamSource {
 public:
  virtual ~StreamSource() = default;

  /// Pulls the next event into `*out`. Returns false at end-of-stream
  /// or on failure; `*out` is unspecified in that case — [[nodiscard]]:
  /// consuming `*out` without checking reads indeterminate data.
  [[nodiscard]] virtual bool Next(Event* out) = 0;

  /// Valid once Next() has returned false: true iff the source ended
  /// cleanly.
  virtual bool ok() const = 0;

  /// Describes the failure when !ok(); empty otherwise.
  virtual std::string error() const = 0;

  /// True iff this source may emit polarity=-1 events. The ingest merge
  /// checks it once up front: any declaring source makes the merge
  /// maintain a RetractionLedger over the merged insertions (retraction
  /// targets are resolved against the recombined stream, so they may
  /// cross sources). Insert-only pipelines skip the ledger entirely.
  virtual bool declares_retractions() const { return false; }

  /// Classifies the failure when !ok(). kUnavailable marks a transient
  /// condition the ingest pipeline's bounded-retry loop may retry
  /// (IngestOptions::source_retry_limit); every other code is fatal.
  /// The built-in sources only produce data errors, hence the default.
  virtual StatusCode error_code() const { return StatusCode::kInvalidArgument; }

  // -- positional replay (durable checkpoints) -------------------------
  //
  // A positional source can report where its next un-consumed event
  // begins (an index, a byte offset — any stable token) and resume from
  // such a token later. Checkpoints record position() per attached
  // source; crash recovery SeekTo()s it and re-reads the tail, which is
  // what makes replay after RestoreFrom exact.

  /// True iff position()/SeekTo() are meaningful for this source.
  virtual bool supports_position() const { return false; }
  /// Replay token of the next event Next() would produce.
  virtual uint64_t position() const { return 0; }
  /// Repositions the source at a token previously returned by
  /// position(). InvalidArgument for non-positional sources.
  [[nodiscard]] virtual Status SeekTo(uint64_t position) {
    (void)position;
    return Status::InvalidArgument("source does not support positioning");
  }
};

/// Replays an in-memory EventStream (or an offset/stride slice of one)
/// as a StreamSource. A stride slice of a timestamp-ordered stream is
/// itself timestamp-ordered, so a materialized stream can be fanned out
/// over N ingest threads as slices (offset i, stride N); the pipeline's
/// deterministic merge defines the recombined order.
class EventStreamSource : public StreamSource {
 public:
  /// `stream` must outlive the source. `stride` >= 1; `offset` may be
  /// past the end (an empty source).
  explicit EventStreamSource(const EventStream* stream, size_t offset = 0,
                             size_t stride = 1)
      : stream_(stream), next_(offset), stride_(stride) {
    CEPJOIN_CHECK_GE(stride_, 1u);
  }

  bool Next(Event* out) override {
    if (next_ >= stream_->size()) return false;
    const Event& e = *(*stream_)[next_];
    out->type = e.type;
    out->ts = e.ts;
    out->partition = e.partition;
    // Inline attribute storage makes this a flat copy for every schema
    // that fits AttrVec's inline capacity — no per-replayed-event heap
    // allocation; spilled schemas reuse `out`'s existing heap block
    // across Next() calls.
    out->attrs = e.attrs;
    out->polarity = e.polarity;
    out->target_ts = e.target_ts;
    // The merge reassigns serials, so a replayed retraction's target
    // must be re-resolved there from (type, partition, target_ts) — the
    // materialized stream's target_serial is meaningless downstream.
    out->serial = 0;
    out->partition_seq = 0;
    out->target_serial = 0;
    next_ += stride_;
    return true;
  }

  bool ok() const override { return true; }
  std::string error() const override { return {}; }
  bool declares_retractions() const override {
    return stream_->retractions_enabled();
  }

  /// Position token: the index of the next replayed event. SeekTo past
  /// the end is valid (an exhausted source), mirroring the constructor's
  /// offset contract.
  bool supports_position() const override { return true; }
  uint64_t position() const override { return next_; }
  Status SeekTo(uint64_t position) override {
    next_ = static_cast<size_t>(position);
    return Status::Ok();
  }

 private:
  const EventStream* stream_;
  size_t next_;
  size_t stride_;
};

}  // namespace cepjoin

#endif  // CEPJOIN_EVENT_STREAM_SOURCE_H_
