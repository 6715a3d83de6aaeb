#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace cepjoin {
namespace e2e {

double SecondsSince(Clock::time_point start) {
  return SecondsBetween(start, Clock::now());
}

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

namespace {

constexpr double kHistogramMin = 1e-4;
constexpr double kHistogramGrowth = 1.005;
constexpr size_t kHistogramBuckets = 7000;  // up to ~1.5e11

double BucketLow(size_t i) {
  return i == 0 ? 0.0
                : kHistogramMin *
                      std::pow(kHistogramGrowth, static_cast<double>(i - 1));
}

}  // namespace

LogHistogram::LogHistogram() : buckets_(kHistogramBuckets, 0) {}

void LogHistogram::Record(double value) {
  size_t i = 0;
  if (value >= kHistogramMin) {
    i = 1 + static_cast<size_t>(std::log(value / kHistogramMin) /
                                std::log(kHistogramGrowth));
    i = std::min(i, kHistogramBuckets - 1);
  }
  ++buckets_[i];
  ++count_;
}

void LogHistogram::Merge(const LogHistogram& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LogHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  double rank = q * static_cast<double>(count_ - 1);
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    if (static_cast<double>(seen + buckets_[i]) > rank) {
      double frac = (rank - static_cast<double>(seen) + 0.5) /
                    static_cast<double>(buckets_[i]);
      double low = BucketLow(i);
      double high = BucketLow(i + 1);
      return low + (high - low) * std::min(1.0, frac);
    }
    seen += buckets_[i];
  }
  return BucketLow(buckets_.size() - 1);
}

namespace {

uint64_t Mix(uint64_t x) {
  // splitmix64 finalizer.
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t MatchHash(const Match& match) {
  uint64_t h = Mix(static_cast<uint64_t>(match.subpattern) + 1);
  for (const auto& slot : match.slots) {
    uint64_t slot_hash = 0;
    for (const EventPtr& e : slot) slot_hash += Mix(e->serial);
    h = Mix(h ^ slot_hash);
  }
  return h;
}

void DigestSink::OnMatch(const Match& match) {
  uint64_t h = MatchHash(match);
  if (corrupt_next_) {
    corrupt_next_ = false;
    Match corrupted = match;
    for (auto& slot : corrupted.slots) {
      if (slot.empty()) continue;
      auto changed = std::make_shared<Event>(*slot[0]);
      changed->serial += 1;
      slot[0] = changed;
      break;
    }
    h = MatchHash(corrupted);
  }
  if (match.IsRevocation()) {
    digest_ -= h;
    ++revoked_;
    return;
  }
  digest_ += h;
  ++received_;
  if (schedule_ != nullptr) {
    latencies_ms_.Record(
        SecondsBetween(schedule_->DueTime(match.last_event_serial),
                       Clock::now()) *
        1e3);
  }
}

void PrintResultLine(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace e2e
}  // namespace cepjoin
