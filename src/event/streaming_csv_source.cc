#include "event/streaming_csv_source.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>

namespace cepjoin {

namespace {

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  for (char c : line) {
    if (c == ',') {
      cells.push_back(cell);
      cell.clear();
    } else if (c != '\r') {
      cell += c;
    }
  }
  cells.push_back(cell);
  return cells;
}

bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size();
}

}  // namespace

StreamingCsvSource::StreamingCsvSource(std::istream* input,
                                       EventTypeRegistry* registry)
    : input_(input),
      registry_(registry),
      mutable_registry_(registry),
      previous_ts_(-std::numeric_limits<double>::infinity()) {
  // Eager: declares_retractions() must be answerable before the first
  // Next() (the ingest merge decides up front whether to keep a
  // ledger). A bad header simply fails the source at construction.
  ParseHeader();
}

StreamingCsvSource::StreamingCsvSource(std::istream* input,
                                       const EventTypeRegistry* registry)
    : input_(input),
      registry_(registry),
      mutable_registry_(nullptr),
      previous_ts_(-std::numeric_limits<double>::infinity()) {
  ParseHeader();
}

bool StreamingCsvSource::Fail(const std::string& message) {
  ok_ = false;
  // The line number is part of the message so it survives channels that
  // only carry the error string (the async pipeline's IngestResult).
  error_ = line_number_ > 0
               ? message + " (line " + std::to_string(line_number_) + ")"
               : message;
  done_ = true;
  return false;
}

TypeId StreamingCsvSource::ResolveType(const std::string& name) {
  TypeId type = registry_->Find(name);
  if (type == kInvalidTypeId) {
    if (mutable_registry_ == nullptr) {
      Fail("unknown event type '" + name + "' (read-only registry)");
      return kInvalidTypeId;
    }
    // New type: registered with the header's schema, trivially valid.
    type = mutable_registry_->Register(name, attribute_names_);
    if (type >= schema_checked_.size()) schema_checked_.resize(type + 1, 0);
    schema_checked_[type] = 1;
    return type;
  }
  if (type >= schema_checked_.size()) schema_checked_.resize(type + 1, 0);
  if (!schema_checked_[type]) {
    // A pre-registered type must match the header, or predicates
    // compiled against the registered schema would read the wrong (or a
    // missing) attribute slot. Registry::Register would abort the
    // process on this; bad input deserves a parse error instead.
    if (registry_->Info(type).attribute_names != attribute_names_) {
      Fail("event type '" + name +
           "' is registered with a different attribute schema than the "
           "header");
      return kInvalidTypeId;
    }
    schema_checked_[type] = 1;
  }
  return type;
}

bool StreamingCsvSource::ParseHeader() {
  std::string line;
  if (!std::getline(*input_, line)) {
    return Fail("empty input: missing header");
  }
  ++line_number_;
  std::vector<std::string> header = SplitCsvLine(line);
  if (header.size() < 3) {
    return Fail("header must contain at least type,ts,partition");
  }
  header_cells_ = header.size();
  attr_cells_end_ = header.size();
  // The reserved delta columns are recognized at the tail of the header
  // only: `...,polarity` or `...,polarity,retract_ts`.
  if (header.back() == "retract_ts") {
    if (header.size() < 5 || header[header.size() - 2] != "polarity") {
      return Fail(
          "a retract_ts column must directly follow a polarity column");
    }
    has_polarity_ = true;
    has_retract_ts_ = true;
    polarity_cell_ = header.size() - 2;
    retract_ts_cell_ = header.size() - 1;
    attr_cells_end_ = header.size() - 2;
  } else if (header.back() == "polarity") {
    has_polarity_ = true;
    polarity_cell_ = header.size() - 1;
    attr_cells_end_ = header.size() - 1;
  }
  for (size_t i = 3; i < attr_cells_end_; ++i) {
    // Non-trailing occurrences would be ambiguous with attributes of
    // the same name; strictness beats silently treating a delta column
    // as a payload value.
    if (header[i] == "polarity" || header[i] == "retract_ts") {
      return Fail("reserved column '" + header[i] +
                  "' must be the last header column (optionally followed "
                  "by retract_ts)");
    }
  }
  attribute_names_.assign(header.begin() + 3,
                          header.begin() + attr_cells_end_);
  header_parsed_ = true;
  RecordStreamPos();
  return true;
}

void StreamingCsvSource::RecordStreamPos() {
  // tellg() fails (returns -1) once eofbit is set; keeping the last
  // good offset makes position() stable at end-of-stream, where replay
  // correctly re-reads zero rows (or rows appended since).
  std::streampos pos = input_->tellg();
  if (pos >= 0) stream_pos_ = static_cast<uint64_t>(pos);
}

Status StreamingCsvSource::SeekTo(uint64_t position) {
  if (!header_parsed_) {
    return Status::FailedPrecondition(
        "cannot seek a CSV source whose header failed to parse");
  }
  input_->clear();
  input_->seekg(static_cast<std::streamoff>(position));
  if (input_->fail()) {
    return Status::InvalidArgument("seek to byte offset " +
                                   std::to_string(position) + " failed");
  }
  stream_pos_ = position;
  done_ = false;
  ok_ = true;
  error_.clear();
  // The rows before the offset were validated before the checkpoint;
  // re-validation restarts from the resume point only.
  previous_ts_ = -std::numeric_limits<double>::infinity();
  return Status::Ok();
}

bool StreamingCsvSource::Next(Event* out) {
  if (done_) return false;
  if (!header_parsed_ && !ParseHeader()) return false;

  std::string line;
  while (std::getline(*input_, line)) {
    ++line_number_;
    RecordStreamPos();
    if (line.empty()) continue;
    std::vector<std::string> cells = SplitCsvLine(line);
    if (cells.size() != header_cells_) {
      return Fail("row has " + std::to_string(cells.size()) +
                  " cells, header has " + std::to_string(header_cells_));
    }
    out->type = ResolveType(cells[0]);
    if (out->type == kInvalidTypeId) return false;  // Fail already called
    if (!ParseDouble(cells[1], &out->ts) || !std::isfinite(out->ts)) {
      // NaN would also sail past the ordering check below (every
      // comparison involving it is false) and then crash downstream in
      // EventStream::Append; reject non-finite values right here.
      return Fail("bad timestamp '" + cells[1] + "'");
    }
    if (out->ts < previous_ts_) {
      return Fail("timestamps must be non-decreasing");
    }
    previous_ts_ = out->ts;
    double partition = 0.0;
    if (!ParseDouble(cells[2], &partition) || std::floor(partition) != partition ||
        partition < 0 ||
        partition > static_cast<double>(std::numeric_limits<uint32_t>::max())) {
      return Fail("bad partition '" + cells[2] +
                  "' (must be an integer in [0, 4294967295])");
    }
    out->partition = static_cast<uint32_t>(partition);
    out->attrs.clear();
    out->attrs.reserve(attribute_names_.size());
    for (size_t i = 3; i < attr_cells_end_; ++i) {
      double value = 0.0;
      if (!ParseDouble(cells[i], &value)) {
        return Fail("bad attribute value '" + cells[i] + "'");
      }
      out->attrs.push_back(value);
    }
    out->polarity = 1;
    out->target_ts = 0.0;
    if (has_polarity_) {
      const std::string& pol = cells[polarity_cell_];
      if (pol == "1" || pol == "+1") {
        out->polarity = 1;
      } else if (pol == "-1") {
        out->polarity = -1;
      } else {
        return Fail("bad polarity '" + pol + "' (must be +1, 1, or -1)");
      }
      if (out->polarity > 0) {
        if (has_retract_ts_ && !cells[retract_ts_cell_].empty()) {
          return Fail("insert rows must leave retract_ts empty, got '" +
                      cells[retract_ts_cell_] + "'");
        }
      } else {
        out->target_ts = out->ts;
        if (has_retract_ts_ && !cells[retract_ts_cell_].empty()) {
          if (!ParseDouble(cells[retract_ts_cell_], &out->target_ts) ||
              !std::isfinite(out->target_ts)) {
            return Fail("bad retract_ts '" + cells[retract_ts_cell_] + "'");
          }
          if (out->target_ts > out->ts) {
            return Fail("retract_ts must not exceed the row's own ts");
          }
        }
      }
    }
    out->serial = 0;
    out->partition_seq = 0;
    out->target_serial = 0;
    return true;
  }
  done_ = true;
  return false;
}

}  // namespace cepjoin
