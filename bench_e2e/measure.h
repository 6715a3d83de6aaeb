// Measurement primitives of the end-to-end benchmark: clocks, process
// CPU time and peak memory, quantiles, the order-independent match
// digest every run is checked against, and the paced-phase latency
// recorder.
#ifndef CEPJOIN_BENCH_E2E_MEASURE_H_
#define CEPJOIN_BENCH_E2E_MEASURE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/match.h"

namespace cepjoin {
namespace e2e {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);
double SecondsBetween(Clock::time_point a, Clock::time_point b);

/// Process CPU time, user + system, over all threads, in seconds.
double ProcessCpuSeconds();

/// The process's peak resident set size (ru_maxrss), in MiB.
double PeakRssMb();

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty input.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Log-bucketed histogram of non-negative values (bucket width 0.5% of
/// the value, from 1e-4 up), so percentiles of millions of samples cost
/// a few kilobytes and do not inflate the process's peak memory.
class LogHistogram {
 public:
  LogHistogram();
  void Record(double value);
  void Merge(const LogHistogram& other);
  /// Interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  uint64_t count() const { return count_; }

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

/// Order-independent digest of a query's net match multiset: a match
/// adds its hash, a revocation subtracts it, so any delivery order (and
/// any insert/revoke interleaving that nets to the same multiset) gives
/// the same value. The hash covers the DNF subpattern and every slot's
/// event serials (a Kleene slot's serials as a set).
uint64_t MatchHash(const Match& match);

/// The paced phase's clock: events are offered in batches of `batch`
/// at a constant event rate, so event i (its stream serial) is due with
/// its batch, at start + floor(i / batch) * batch / rate. Latency is
/// taken from the due time, so a stall also charges the wait it imposes
/// on every later event.
struct PaceSchedule {
  Clock::time_point start{};
  double rate = 0.0;
  uint64_t batch = 1;

  Clock::time_point DueTime(uint64_t serial) const {
    uint64_t first = serial / batch * batch;
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(first) / rate));
  }
  /// Events due by `now`: whole batches.
  uint64_t DueBy(Clock::time_point now) const {
    double elapsed = std::chrono::duration<double>(now - start).count();
    if (elapsed < 0.0) return 0;
    return (static_cast<uint64_t>(elapsed * rate / static_cast<double>(batch)) +
            1) *
           batch;
  }
};

/// Sink of one query: digest, counts and, in the paced phase, the
/// due-time-to-sink latency of each match. Called only on the thread
/// that drives the service (inline hosts deliver during ingest, the
/// sharded host drains at Finish on the caller).
class DigestSink : public MatchSink {
 public:
  void OnMatch(const Match& match) override;

  /// Records latency samples against `schedule` (null: no samples).
  void set_schedule(const PaceSchedule* schedule) { schedule_ = schedule; }

  uint64_t digest() const { return digest_; }
  uint64_t received() const { return received_; }
  uint64_t revoked() const { return revoked_; }
  /// Due-to-sink latencies in milliseconds (paced phase only).
  const LogHistogram& latencies_ms() const { return latencies_ms_; }

  /// Test hook for the benchmark's self-test: the next match is hashed
  /// with one serial changed, as a defective engine would emit it.
  void CorruptNextMatch() { corrupt_next_ = true; }

 private:
  const PaceSchedule* schedule_ = nullptr;
  uint64_t digest_ = 0;
  uint64_t received_ = 0;
  uint64_t revoked_ = 0;
  bool corrupt_next_ = false;
  LogHistogram latencies_ms_;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints the result line the benchmark contract asks for: one JSON
/// object with `correct`, `attempted`, `failed` and `metrics`.
void PrintResultLine(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Metric>& metrics);

}  // namespace e2e
}  // namespace cepjoin

#endif  // CEPJOIN_BENCH_E2E_MEASURE_H_
