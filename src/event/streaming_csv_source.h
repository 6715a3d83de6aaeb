#ifndef CEPJOIN_EVENT_STREAMING_CSV_SOURCE_H_
#define CEPJOIN_EVENT_STREAMING_CSV_SOURCE_H_

#include <istream>
#include <sstream>
#include <string>
#include <vector>

#include "event/event_type.h"
#include "event/stream_source.h"

namespace cepjoin {

/// Incremental CSV event source: parses one row per Next() call instead
/// of materializing a full EventStream up front, so ingestion threads
/// can overlap parsing with evaluation and replay files larger than
/// memory. Layout and validation match LoadCsvStream (event/csv_loader.h),
/// which is implemented on top of this source:
///
///   type,ts,partition,attr1,attr2,...     (header row, names free-form)
///   MSFT,0.125,0,101.5,0.25
///
/// Rows must have finite, non-decreasing timestamps and an integral
/// partition id in [0, UINT32_MAX]; any violation ends the stream with
/// ok() == false and an error naming the line.
///
/// Delta streams: the header may end with the reserved columns
/// `polarity` and (optionally, directly after it) `retract_ts`:
///
///   type,ts,partition,attr1,polarity,retract_ts
///   MSFT,0.125,0,101.5,+1,
///   MSFT,2.5,0,0,-1,0.125
///
/// `polarity` must be +1/1 (insert) or -1 (retract); a retraction's
/// `retract_ts` names the timestamp of the insertion being retracted
/// (finite, <= the row's own ts; without a retract_ts column it
/// defaults to the row's ts). Inserts must leave retract_ts empty.
/// Validation is strict, mirroring the non-finite-timestamp hardening:
/// any other polarity value is a parse error naming the line. Whether a
/// retraction's target was ever inserted is checked where serials are
/// assigned (EventStream::TryAppend, the ingest merge, CepService's
/// attached-source pump), which returns a Status for it. The header is
/// parsed at construction so declares_retractions() is valid before the
/// first Next().
///
/// Registry modes:
///  - mutable registry: types are registered on first sight with the
///    attribute names taken from the header. Single-threaded use only
///    (the loader path).
///  - read-only registry: every type name must already be registered;
///    an unknown name is a parse error. This mode never mutates shared
///    state, so multiple read-only sources can run on concurrent
///    ingestion threads against one registry.
/// In both modes, a type that is already registered with attribute
/// names different from the header's is a parse error (never an
/// abort): events must match the schema the predicates were compiled
/// against.
class StreamingCsvSource : public StreamSource {
 public:
  /// Mutable-registry mode. `input` and `registry` must outlive the
  /// source.
  StreamingCsvSource(std::istream* input, EventTypeRegistry* registry);

  /// Read-only-registry mode (safe for concurrent sources sharing
  /// `registry`).
  StreamingCsvSource(std::istream* input, const EventTypeRegistry* registry);

  bool Next(Event* out) override;
  bool ok() const override { return ok_; }
  std::string error() const override { return error_; }
  /// True iff the header declares the reserved `polarity` column.
  bool declares_retractions() const override { return has_polarity_; }

  /// Line the parser stopped on; names the offending line after a
  /// failure.
  size_t line_number() const { return line_number_; }

  /// Positional replay: the token is the byte offset of the next unread
  /// row (tracked after every consumed line, so it stays valid at EOF
  /// where tellg() fails). SeekTo() repositions the underlying stream at
  /// such an offset and resumes parsing there; the monotone-timestamp
  /// baseline resets to the resume point. The header must have parsed
  /// successfully.
  bool supports_position() const override { return true; }
  uint64_t position() const override { return stream_pos_; }
  Status SeekTo(uint64_t position) override;

 private:
  bool Fail(const std::string& message);
  bool ParseHeader();
  /// Refreshes stream_pos_ after a consumed line (no-op at EOF).
  void RecordStreamPos();
  /// Resolves a row's type name, validating the header schema against
  /// the type's registered schema on first sight. kInvalidTypeId means
  /// the source has failed.
  TypeId ResolveType(const std::string& name);

  std::istream* input_;
  const EventTypeRegistry* registry_;
  EventTypeRegistry* mutable_registry_;  // null in read-only mode
  std::vector<std::string> attribute_names_;
  std::vector<char> schema_checked_;  // indexed by TypeId
  size_t header_cells_ = 0;
  /// One past the last attribute cell: header_cells_ minus the reserved
  /// polarity/retract_ts columns.
  size_t attr_cells_end_ = 0;
  size_t polarity_cell_ = 0;
  size_t retract_ts_cell_ = 0;
  size_t line_number_ = 0;
  /// Byte offset of the next unread row (position()'s token).
  uint64_t stream_pos_ = 0;
  double previous_ts_;
  bool has_polarity_ = false;
  bool has_retract_ts_ = false;
  bool header_parsed_ = false;
  bool done_ = false;
  bool ok_ = true;
  std::string error_;
};

namespace internal {
/// Holds the text buffer of a StringCsvSource. A separate base so it is
/// constructed before the StreamingCsvSource base that points into it.
struct OwnedTextStream {
  explicit OwnedTextStream(std::string text) : stream(std::move(text)) {}
  std::istringstream stream;
};
}  // namespace internal

/// A StreamingCsvSource that owns its text buffer — convenient for
/// tests, examples, and network payloads already held in memory.
class StringCsvSource : private internal::OwnedTextStream,
                        public StreamingCsvSource {
 public:
  StringCsvSource(std::string text, EventTypeRegistry* registry)
      : OwnedTextStream(std::move(text)),
        StreamingCsvSource(&stream, registry) {}
  StringCsvSource(std::string text, const EventTypeRegistry* registry)
      : OwnedTextStream(std::move(text)),
        StreamingCsvSource(&stream, registry) {}

  // Not movable: the base's istream pointer is bound to this object's
  // text stream and would dangle in the moved-to source.
  StringCsvSource(const StringCsvSource&) = delete;
  StringCsvSource& operator=(const StringCsvSource&) = delete;
};

}  // namespace cepjoin

#endif  // CEPJOIN_EVENT_STREAMING_CSV_SOURCE_H_
