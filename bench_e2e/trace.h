// In-memory span tracing for the benchmark's traced run. Spans are
// recorded in the benchmark's own code around each call into a layer's
// public functions (the library itself carries no tracing); they stay in
// memory and are written out once the run ends.
#ifndef CEPJOIN_BENCH_E2E_TRACE_H_
#define CEPJOIN_BENCH_E2E_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "measure.h"

namespace cepjoin {
namespace e2e {

/// One recorded interval. `parent` is the index of the enclosing span,
/// or -1 at the root; spans of one phase share the phase's root.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
};

/// Single-threaded span recorder (every traced call is made from the
/// thread that drives the service).
class Tracer {
 public:
  Tracer();

  /// Opens a span under the innermost open span; returns its index.
  int32_t Begin(const char* name);
  void End(int32_t index);

  /// Self time per span name, in seconds: each span's duration minus the
  /// part of it its direct children cover (children never overlap, since
  /// spans nest on one thread).
  std::map<std::string, double> SelfSeconds() const;
  /// Total (inclusive) time per span name, in seconds.
  std::map<std::string, double> TotalSeconds() const;
  /// Number of spans per name.
  std::map<std::string, uint64_t> Counts() const;
  /// Durations (seconds) of the spans named `name`, in recording order.
  std::vector<double> Durations(const std::string& name) const;

  /// Writes every span as one tab-separated line (id, name, start_ns,
  /// end_ns, parent id or -1) after a header line. Returns false when
  /// the file cannot be written.
  bool WriteTsv(const std::string& path) const;

  size_t size() const { return spans_.size(); }

 private:
  int64_t NowNs() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a null tracer records nothing (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

}  // namespace e2e
}  // namespace cepjoin

#endif  // CEPJOIN_BENCH_E2E_TRACE_H_
