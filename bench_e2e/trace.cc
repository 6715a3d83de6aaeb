#include "trace.h"

#include <cstdio>

#include "common/check.h"

namespace cepjoin {
namespace e2e {

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int32_t Tracer::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::End(int32_t index) {
  CEPJOIN_CHECK(!open_.empty() && open_.back() == index)
      << "spans must close innermost first";
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  open_.pop_back();
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    int64_t own = spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
    self[spans_[i].name] += static_cast<double>(own) * 1e-9;
  }
  return self;
}

std::map<std::string, double> Tracer::TotalSeconds() const {
  std::map<std::string, double> total;
  for (const Span& span : spans_) {
    total[span.name] += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
  return total;
}

std::map<std::string, uint64_t> Tracer::Counts() const {
  std::map<std::string, uint64_t> counts;
  for (const Span& span : spans_) ++counts[span.name];
  return counts;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> durations;
  for (const Span& span : spans_) {
    if (name == span.name) {
      durations.push_back(static_cast<double>(span.end_ns - span.start_ns) *
                          1e-9);
    }
  }
  return durations;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tname\tstart_ns\tend_ns\tparent\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%d\n", i, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent);
  }
  return std::fclose(f) == 0;
}

}  // namespace e2e
}  // namespace cepjoin
