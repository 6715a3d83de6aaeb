#include "event/csv_loader.h"

#include <sstream>
#include <string>
#include <utility>

#include "event/streaming_csv_source.h"

namespace cepjoin {

// The loader is the materializing shell around StreamingCsvSource: the
// source does all parsing and validation (one row per Next), the loader
// just appends into an EventStream. Keeping a single row parser means
// the synchronous and async ingestion paths accept exactly the same
// inputs and reject exactly the same malformed rows.
CsvLoadResult LoadCsvStream(std::istream& input, EventTypeRegistry* registry) {
  CsvLoadResult result;
  StreamingCsvSource source(&input, registry);
  // A polarity-declaring header turns the stream into a delta stream;
  // TryAppend then resolves each retraction to the serial of the
  // insertion it cancels, and rejects one that targets no live
  // insertion (never inserted, or already retracted) on its line.
  if (source.declares_retractions()) result.stream.EnableRetractions();
  Event e;
  while (source.Next(&e)) {
    Status appended = result.stream.TryAppend(std::move(e));
    if (!appended.ok()) {
      result.ok = false;
      result.error = appended.message() + " (line " +
                     std::to_string(source.line_number()) + ")";
      result.error_line = source.line_number();
      return result;
    }
  }
  if (!source.ok()) {
    result.ok = false;
    result.error = source.error();
    result.error_line = source.line_number();
    return result;
  }
  result.ok = true;
  return result;
}

CsvLoadResult LoadCsvStreamFromString(const std::string& text,
                                      EventTypeRegistry* registry) {
  std::istringstream stream(text);
  return LoadCsvStream(stream, registry);
}

}  // namespace cepjoin
