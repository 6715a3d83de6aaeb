// End-to-end CepService benchmark: one workload per process, driven
// through the service's public API from generated input to the sinks.
//
//   cep_e2e_bench --workload <paper_mix|keyed_sharded|delta_durable>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 --work-dir <dir> [--spans <file>] [--corrupt-match]
//
// --trace 0 measures the end-to-end metrics: a closed-loop phase
// (repeated set-up + replay of the fixed input as fast as the service
// accepts it; throughput and CPU), a paced open-loop phase (the same
// input offered at the workload's fixed rate; latency from each event's
// due time), and recovery (fresh service + RestoreFrom + tail replay).
// --trace 1 is a separate run that calls each layer's public functions
// from this file under in-memory spans and reports per-layer figures.
// Every run checks its matches against the single-threaded inline
// configuration and exits 1 on any mismatch. The last stdout line is
// the JSON result; see README.md.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/cep_service.h"
#include "common/check.h"
#include "engine/engine_factory.h"
#include "event/streaming_csv_source.h"
#include "inputs.h"
#include "measure.h"
#include "parallel/ingest_pipeline.h"
#include "adaptive/partition_planner.h"
#include "stats/collector.h"
#include "trace.h"

namespace cepjoin {
namespace e2e {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
  std::string spans_out;
  bool corrupt_match = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--corrupt-match") {
      args->corrupt_match = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--spans") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

// ---- sessions: one service with every query registered ----------------

/// A service with every query registered. The sinks are declared first
/// so the service, which may deliver matches until it is destroyed, goes
/// first.
struct Session {
  std::vector<std::unique_ptr<DigestSink>> sinks;
  std::vector<QueryHandle> handles;
  std::unique_ptr<CepService> service;
};

using Digests = std::vector<uint64_t>;

Digests DigestsOf(const Session& s) {
  Digests d;
  for (const auto& sink : s.sinks) d.push_back(sink->digest());
  return d;
}

/// Create + Register of every query: the set-up the benchmark times.
Session OpenSession(const WorkloadInput& w, size_t num_threads,
                    Tracer* tracer = nullptr) {
  ServiceOptions options;
  options.history = &w.history;
  options.num_types = w.registry.size();
  options.num_threads = num_threads;
  options.batch_size = w.batch_size;
  options.num_ingest_threads = 1;
  Session s;
  {
    ScopedSpan span(tracer, "api.create");
    s.service = CepService::Create(options).value();
  }
  for (const QuerySpec& query : w.queries) {
    s.sinks.push_back(std::make_unique<DigestSink>());
    QuerySpec spec = query;
    spec.WithSink(s.sinks.back().get());
    ScopedSpan span(tracer, "api.register");
    StatusOr<QueryHandle> handle = s.service->Register(spec);
    CEPJOIN_CHECK_OK(handle.status());
    s.handles.push_back(*handle);
  }
  return s;
}

/// The CSV input from row `begin` on (header kept), for recovery probes
/// that start mid-stream.
std::string CsvFromRow(const std::string& csv, size_t begin) {
  size_t header_end = csv.find('\n') + 1;
  size_t pos = header_end;
  for (size_t row = 0; row < begin; ++row) pos = csv.find('\n', pos) + 1;
  return csv.substr(0, header_end) + csv.substr(pos);
}

std::unique_ptr<StreamSource> CsvSource(const WorkloadInput& w,
                                        std::string text) {
  return std::make_unique<StringCsvSource>(std::move(text), &w.registry);
}

/// Parses the CSV input into a stream exactly as the loader does
/// (retractions resolved to their targets' serials).
EventStream ParseCsvStream(const WorkloadInput& w) {
  std::istringstream in(w.csv);
  StreamingCsvSource source(&in, &w.registry);
  EventStream stream;
  if (source.declares_retractions()) stream.EnableRetractions();
  Event e;
  while (source.Next(&e)) stream.Append(std::move(e));
  CEPJOIN_CHECK(source.ok()) << source.error();
  return stream;
}

// ---- correctness gate --------------------------------------------------

struct Gate {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// Accounts one phase: `offered` events, of which `processed` reached
  /// the service without an ingest error; all are failed when the
  /// phase's matches do not verify.
  void Account(const char* phase, uint64_t offered, uint64_t processed,
               bool verified) {
    attempted += offered;
    if (!verified) {
      correct = false;
      failed += offered;
      std::printf("CORRECTNESS FAILURE in %s\n", phase);
    } else {
      failed += offered - std::min(offered, processed);
    }
  }
};

/// The matches each sink received must equal the engine's own counters.
/// Requires a finished service (sharded counters are read after Finish).
bool CountersAgree(const Session& s, const char* phase) {
  bool ok = true;
  for (size_t q = 0; q < s.sinks.size(); ++q) {
    StatusOr<EngineCounters> c = s.handles[q].counters();
    if (!c.ok() || c->matches_emitted != s.sinks[q]->received() ||
        c->matches_revoked != s.sinks[q]->revoked()) {
      std::printf("%s: query %zu sink received %llu (%llu revoked) but the "
                  "engine counters disagree\n",
                  phase, q,
                  static_cast<unsigned long long>(s.sinks[q]->received()),
                  static_cast<unsigned long long>(s.sinks[q]->revoked()));
      ok = false;
    }
  }
  return ok;
}

bool DigestsMatch(const Digests& got, const Digests& want, const char* phase) {
  bool ok = got.size() == want.size();
  for (size_t q = 0; ok && q < got.size(); ++q) {
    if (got[q] != want[q]) {
      std::printf("%s: query %zu match digest %016llx != reference %016llx\n",
                  phase, q, static_cast<unsigned long long>(got[q]),
                  static_cast<unsigned long long>(want[q]));
      ok = false;
    }
  }
  return ok;
}

/// The reference: the single-threaded inline configuration (one
/// service thread, events fed by OnBatch from a pre-parsed stream, no
/// checkpoints) on the same input.
Digests ReferenceDigests(const WorkloadInput& w) {
  EventStream parsed;
  const EventStream* stream = &w.live;
  if (w.feed != Feed::kOnBatch) {
    parsed = ParseCsvStream(w);
    stream = &parsed;
  }
  Session s = OpenSession(w, 1);
  s.service->ProcessStream(*stream);
  s.service->Finish();
  CEPJOIN_CHECK(CountersAgree(s, "reference"));
  return DigestsOf(s);
}

// ---- feeding -----------------------------------------------------------

/// What the pacer saw of the host while it waited: spinning, it reads
/// the clock every few nanoseconds, so a gap between two reads longer
/// than kPreemptionGap is time the host took the CPU away.
struct SpinStats {
  double spin_s = 0.0;
  double preempted_s = 0.0;

  double preempted_share() const {
    return spin_s > 0.0 ? preempted_s / spin_s : 0.0;
  }
};

constexpr double kPreemptionGap = 200e-6;

/// Hooks of one replay: pacing (null: closed loop) and checkpoints.
struct Replay {
  const PaceSchedule* pace = nullptr;
  /// Generator lateness of each event (paced): when it was handed to the
  /// service minus when it was due, milliseconds.
  LogHistogram* lag_ms = nullptr;
  SpinStats* spin = nullptr;
  /// Checkpoint directory (empty: no checkpoints).
  std::string checkpoint_dir;
  /// Sink digests right after the last checkpoint.
  Digests digests_at_last_cut;
  /// Traced runs: spans, checkpoint payload sizes, and the peak of the
  /// engines' exact state bytes sampled from MetricsSnapshot.
  Tracer* tracer = nullptr;
  std::vector<double>* snapshot_bytes = nullptr;
  double* state_bytes_peak = nullptr;
};

/// Spins until `due`. The pacer never sleeps: an idle virtual CPU that
/// halts can take milliseconds to be scheduled again on a busy host,
/// and that wake-up delay would land in the latency figures as if the
/// program had caused it.
void SpinUntil(Clock::time_point due, SpinStats* stats) {
  Clock::time_point start = Clock::now();
  Clock::time_point prev = start;
  while (prev < due) {
    Clock::time_point now = Clock::now();
    double gap = SecondsBetween(prev, now);
    if (gap > kPreemptionGap) stats->preempted_s += gap;
    prev = now;
  }
  stats->spin_s += SecondsBetween(start, prev);
}

/// A StreamSource offering its inner source's events on the paced
/// schedule: Next() holds event i back until its due time. Runs on the
/// ingest thread; `lag_ms` is read only after the pipeline has joined.
class PacedSource : public StreamSource {
 public:
  PacedSource(std::unique_ptr<StreamSource> inner, const PaceSchedule* pace,
              LogHistogram* lag_ms, SpinStats* spin)
      : inner_(std::move(inner)), pace_(pace), lag_ms_(lag_ms), spin_(spin) {}

  bool Next(Event* out) override {
    if (!inner_->Next(out)) return false;
    Clock::time_point due = pace_->DueTime(next_++);
    Clock::time_point now = Clock::now();
    if (now < due) {
      SpinUntil(due, spin_);
      now = Clock::now();
    }
    lag_ms_->Record(SecondsBetween(due, now) * 1e3);
    return true;
  }
  bool ok() const override { return inner_->ok(); }
  std::string error() const override { return inner_->error(); }
  bool declares_retractions() const override {
    return inner_->declares_retractions();
  }

 private:
  std::unique_ptr<StreamSource> inner_;
  const PaceSchedule* pace_;
  LogHistogram* lag_ms_;
  SpinStats* spin_;
  uint64_t next_ = 0;
};

/// Waits until event `next` is due and returns how many events, from
/// `next` on and capped at `limit`, are due now; records each one's lag.
size_t AwaitDue(const Replay& r, size_t next, size_t limit) {
  while (true) {
    Clock::time_point now = Clock::now();
    size_t due = static_cast<size_t>(r.pace->DueBy(now));
    if (due > next) {
      size_t k = std::min(due, limit) - next;
      for (size_t i = next; i < next + k; ++i) {
        r.lag_ms->Record(SecondsBetween(r.pace->DueTime(i), now) * 1e3);
      }
      return k;
    }
    SpinUntil(r.pace->DueTime(next), r.spin);
  }
}

double StateBytes(const MetricsSnapshot& snap);

/// Samples the engines' exact state bytes from MetricsSnapshot every
/// 100 ms (a snapshot of thousands of partitions costs milliseconds) and
/// keeps the peak.
struct StateSampler {
  Clock::time_point next = Clock::now();

  void Maybe(CepService& service, Tracer* tracer, double* peak) {
    if (Clock::now() < next) return;
    ScopedSpan span(tracer, "bench.snapshot");
    *peak = std::max(*peak, StateBytes(service.MetricsSnapshot()));
    next = Clock::now() + std::chrono::milliseconds(100);
  }
};

/// One checkpoint: in traced runs the capture alone first (its time and
/// payload size), then CheckpointTo (capture + publish).
void TakeCheckpoint(Session& s, const std::string& dir, Replay& r) {
  if (r.tracer != nullptr) {
    std::string bytes;
    {
      ScopedSpan span(r.tracer, "durable.capture");
      CEPJOIN_CHECK_OK(s.service->CaptureCheckpointBytes(&bytes));
    }
    r.snapshot_bytes->push_back(static_cast<double>(bytes.size()));
  }
  ScopedSpan span(r.tracer, "durable.checkpoint_to");
  CEPJOIN_CHECK_OK(s.service->CheckpointTo(dir));
  r.digests_at_last_cut = DigestsOf(s);
}

/// Feeds the whole input (closed loop, or paced when r.pace is set) and
/// finishes the service. Returns the events that reached the service.
uint64_t FeedAndFinish(const WorkloadInput& w, Session& s, Replay& r,
                       std::unique_ptr<StreamSource> source) {
  CepService& service = *s.service;
  uint64_t processed = 0;
  StateSampler sampler;
  auto sample_state = [&] {
    if (r.state_bytes_peak != nullptr) {
      sampler.Maybe(service, r.tracer, r.state_bytes_peak);
    }
  };
  switch (w.feed) {
    case Feed::kOnBatch: {
      const std::vector<EventPtr>& events = w.live.events();
      size_t n = events.size();
      for (size_t i = 0; i < n;) {
        size_t k = std::min(w.batch_size, n - i);
        if (r.pace != nullptr) {
          k = AwaitDue(r, i, i + k);
        }
        {
          ScopedSpan span(r.tracer, "api.on_batch");
          service.OnBatch(events.data() + i, k);
        }
        i += k;
        sample_state();
      }
      processed = n;
      break;
    }
    case Feed::kAsyncSource: {
      if (r.pace != nullptr) {
        source = std::make_unique<PacedSource>(std::move(source), r.pace,
                                               r.lag_ms, r.spin);
      }
      IngestResult result = service.ProcessSourceAsync(std::move(source));
      if (!result.ok) std::printf("ingest error: %s\n", result.error.c_str());
      processed = result.events;
      break;
    }
    case Feed::kAttachedPump: {
      CEPJOIN_CHECK_OK(service.AttachSource(std::move(source)));
      const size_t n = w.live_events;
      const size_t every =
          w.checkpoint_every > 0 ? w.checkpoint_every : n;
      size_t fed = 0;
      bool failed = false;
      while (fed < n && !failed) {
        size_t next_cut = std::min(n, (fed / every + 1) * every);
        size_t want = next_cut - fed;
        if (r.pace != nullptr) {
          want = AwaitDue(r, fed, next_cut);
        }
        StatusOr<size_t> pumped = [&] {
          ScopedSpan span(r.tracer, "api.pump");
          return service.PumpAttachedSources(want);
        }();
        sample_state();
        if (!pumped.ok() || *pumped == 0) {
          std::printf("pump error: %s\n",
                      pumped.ok() ? "source ended early"
                                  : pumped.status().ToString().c_str());
          failed = true;
          break;
        }
        fed += *pumped;
        if (!r.checkpoint_dir.empty() && fed % every == 0 && fed < n) {
          TakeCheckpoint(s, r.checkpoint_dir, r);
        }
      }
      processed = fed;
      break;
    }
  }
  ScopedSpan span(r.tracer, "api.finish");
  service.Finish();
  return processed;
}

std::unique_ptr<StreamSource> InputSource(const WorkloadInput& w) {
  if (w.feed == Feed::kOnBatch) return nullptr;
  return CsvSource(w, w.csv);
}

// ---- recovery ----------------------------------------------------------

struct Recovery {
  double seconds = 0.0;
  bool verified = false;
  uint64_t tail_events = 0;
};

/// A cut for recovery: the input from `begin` on, checkpointed in `dir`
/// `w.recovery_tail` events before the end. `at_cut` and `full` are the
/// sink digests of the uncrashed run at the cut and at its end.
struct Cut {
  size_t begin = 0;
  std::string dir;
  Digests at_cut;
  Digests full;
};

/// Fresh Create + Register + RestoreFrom + tail replay + Finish. The
/// digests the restored service delivers, added to those delivered
/// before the cut, must equal the uncrashed run's.
Recovery Recover(const WorkloadInput& w, const Cut& cut,
                 Tracer* tracer = nullptr) {
  const size_t end = w.live_events;
  std::unique_ptr<StreamSource> source;
  if (w.feed != Feed::kOnBatch) {
    source =
        CsvSource(w, cut.begin == 0 ? w.csv : CsvFromRow(w.csv, cut.begin));
  }
  Recovery rec;
  rec.tail_events = w.recovery_tail;
  Clock::time_point start = Clock::now();
  Session s = OpenSession(w, w.num_threads);
  if (source != nullptr) {
    CEPJOIN_CHECK_OK(s.service->AttachSource(std::move(source)));
  }
  {
    ScopedSpan span(tracer, "durable.restore");
    CEPJOIN_CHECK_OK(s.service->RestoreFrom(cut.dir).status());
  }
  {
    ScopedSpan span(tracer, "durable.replay");
    if (w.feed == Feed::kOnBatch) {
      const std::vector<EventPtr>& events = w.live.events();
      for (size_t i = end - w.recovery_tail; i < end; i += w.batch_size) {
        s.service->OnBatch(events.data() + i, std::min(w.batch_size, end - i));
      }
    } else {
      while (true) {
        StatusOr<size_t> pumped = s.service->PumpAttachedSources();
        CEPJOIN_CHECK_OK(pumped.status());
        if (*pumped == 0) break;
      }
    }
    s.service->Finish();
  }
  Clock::time_point done = Clock::now();
  rec.seconds = SecondsBetween(start, done);
  rec.verified = true;
  for (size_t q = 0; q < s.sinks.size(); ++q) {
    if (cut.at_cut[q] + s.sinks[q]->digest() != cut.full[q]) {
      std::printf("recovery: query %zu digest after restore does not add up "
                  "to the uncrashed run's\n", q);
      rec.verified = false;
    }
  }
  return rec;
}

/// For workloads whose timed phases take no checkpoints: an uncrashed
/// run over the input's last rows (a warm-up long enough to fill every
/// window, then the tail) with one CheckpointTo at the cut.
Cut ProbeCut(const WorkloadInput& w, const std::string& dir,
             Tracer* tracer = nullptr,
             std::vector<double>* snapshot_bytes = nullptr) {
  const size_t end = w.live_events;
  const size_t warm = std::min(w.recovery_tail, end - w.recovery_tail);
  Cut cut;
  cut.begin = end - w.recovery_tail - warm;
  cut.dir = dir;
  std::filesystem::remove_all(dir);
  Session s = OpenSession(w, w.num_threads);
  Replay r;
  r.tracer = tracer;
  r.snapshot_bytes = snapshot_bytes;
  if (w.feed == Feed::kOnBatch) {
    const std::vector<EventPtr>& events = w.live.events();
    auto feed = [&](size_t from, size_t to) {
      for (size_t i = from; i < to; i += w.batch_size) {
        s.service->OnBatch(events.data() + i, std::min(w.batch_size, to - i));
      }
    };
    feed(cut.begin, end - w.recovery_tail);
    TakeCheckpoint(s, dir, r);
    feed(end - w.recovery_tail, end);
  } else {
    CEPJOIN_CHECK_OK(
        s.service->AttachSource(CsvSource(w, CsvFromRow(w.csv, cut.begin))));
    CEPJOIN_CHECK_OK(s.service->PumpAttachedSources(warm).status());
    TakeCheckpoint(s, dir, r);
    CEPJOIN_CHECK_OK(s.service->PumpAttachedSources().status());
  }
  cut.at_cut = r.digests_at_last_cut;
  s.service->Finish();
  cut.full = DigestsOf(s);
  return cut;
}

// ---- metrics snapshots -------------------------------------------------

double StateBytes(const MetricsSnapshot& snap) {
  double total = 0.0;
  for (const MetricPoint& p : snap.points) {
    if (p.name == metric_names::kQueryMemoryBytes) total += p.value;
  }
  return total;
}

double ShardSkew(const MetricsSnapshot& snap) {
  std::vector<double> events;
  for (const MetricPoint& p : snap.points) {
    if (p.name == metric_names::kShardEvents) events.push_back(p.value);
  }
  if (events.empty()) return 0.0;
  double sum = 0.0;
  for (double e : events) sum += e;
  double mean = sum / static_cast<double>(events.size());
  return mean > 0.0 ? *std::max_element(events.begin(), events.end()) / mean
                    : 0.0;
}

/// p99 of the worker-side ingest-to-match histograms, merged over
/// queries, in milliseconds.
double EmitLatencyP99Ms(const MetricsSnapshot& snap) {
  HistogramData merged;
  for (const MetricPoint& p : snap.points) {
    if (p.name != metric_names::kIngestToMatchSeconds) continue;
    if (merged.counts.empty()) {
      merged = p.histogram;
      continue;
    }
    if (merged.le != p.histogram.le) continue;
    for (size_t i = 0; i < merged.counts.size(); ++i) {
      merged.counts[i] += p.histogram.counts[i];
    }
    merged.count += p.histogram.count;
    merged.sum += p.histogram.sum;
  }
  return merged.Quantile(0.99) * 1e3;
}

// ---- the untraced run: end-to-end metrics ------------------------------

/// One verified unit of work: its events, and what its matches must be
/// checked against once the reference is known.
struct PhaseCheck {
  const char* phase;
  uint64_t offered = 0;
  uint64_t processed = 0;
  bool counters_ok = false;
  Digests digests;
};

struct PacedResult {
  std::vector<PhaseCheck> checks;
  std::vector<double> setup_s;
  /// Each pass's match latency p50 and p99, and the share of the pacer's
  /// waiting time the host preempted it.
  std::vector<double> p50_ms;
  std::vector<double> p99_ms;
  std::vector<double> preempted;
  /// Pooled over the passes, for the printed distribution.
  LogHistogram latencies_ms;
  LogHistogram lag_ms;
  size_t passes = 0;
};

/// The paced open-loop phase: `passes` replays of the input, each on a
/// fresh service, offered at w.paced_rate with the workload's
/// checkpoints; latencies and lags are pooled over the passes.
PacedResult RunPaced(const WorkloadInput& w, const std::string& ckpt_dir,
                     size_t passes) {
  PacedResult result;
  for (size_t pass = 0; pass < passes; ++pass) {
    std::unique_ptr<StreamSource> source = InputSource(w);
    PaceSchedule pace;
    pace.rate = w.paced_rate;
    pace.batch = w.batch_size;
    SpinStats spin;
    Replay r;
    r.pace = &pace;
    r.lag_ms = &result.lag_ms;
    r.spin = &spin;
    if (w.checkpoint_every > 0) {
      std::filesystem::remove_all(ckpt_dir);
      r.checkpoint_dir = ckpt_dir;
    }
    Clock::time_point setup_start = Clock::now();
    Session s = OpenSession(w, w.num_threads);
    result.setup_s.push_back(SecondsSince(setup_start));
    for (auto& sink : s.sinks) sink->set_schedule(&pace);
    pace.start = Clock::now() + std::chrono::milliseconds(2);
    PhaseCheck check;
    check.phase = "paced phase";
    check.offered = w.live_events;
    check.processed = FeedAndFinish(w, s, r, std::move(source));
    check.counters_ok = CountersAgree(s, "paced phase");
    check.digests = DigestsOf(s);
    result.checks.push_back(check);
    LogHistogram pass_latencies;
    for (const auto& sink : s.sinks) pass_latencies.Merge(sink->latencies_ms());
    result.p50_ms.push_back(pass_latencies.Quantile(0.50));
    result.p99_ms.push_back(pass_latencies.Quantile(0.99));
    result.preempted.push_back(spin.preempted_share());
    result.latencies_ms.Merge(pass_latencies);
    ++result.passes;
  }
  return result;
}

/// Latency figures of the paced phase: medians of the per-pass
/// quantiles over the less disturbed half of the passes (at least one),
/// ranked by how much of the pacer's wait the host preempted. A noisy
/// neighbour on a shared host stalls every thread of the process for
/// milliseconds at a time; the pacer sees those stalls, the latency
/// figures should not be set by them.
std::pair<double, double> SettledLatency(const PacedResult& paced) {
  std::vector<size_t> order(paced.passes);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return paced.preempted[a] < paced.preempted[b];
  });
  order.resize(std::max<size_t>(1, (order.size() + 1) / 2));
  std::vector<double> p50;
  std::vector<double> p99;
  for (size_t i : order) {
    p50.push_back(paced.p50_ms[i]);
    p99.push_back(paced.p99_ms[i]);
  }
  return {Median(p50), Median(p99)};
}

/// Flags a paced phase whose generator fell behind its schedule: then
/// the offered rate was not the rate served and its latency figures
/// describe a growing backlog. Short stalls are not flagged; they show in
/// the lag and latency percentiles.
void ReportPacing(const WorkloadInput& w, const PacedResult& paced) {
  double lag_p50 = paced.lag_ms.Quantile(0.50);
  double lag_p99 = paced.lag_ms.Quantile(0.99);
  std::printf("paced phase: %zu passes of %zu events at a fixed %.0f "
              "events/s (%s)\n",
              paced.passes, w.live_events, w.paced_rate,
              w.paced_rate_reason.c_str());
  std::printf("paced phase: generator lag ms p50 %.3f p99 %.3f over %zu "
              "events; match latency ms p50 %.3f p90 %.3f p99 %.3f p99.9 "
              "%.3f over %zu matches\n",
              lag_p50, lag_p99, paced.lag_ms.count(),
              paced.latencies_ms.Quantile(0.5),
              paced.latencies_ms.Quantile(0.9),
              paced.latencies_ms.Quantile(0.99),
              paced.latencies_ms.Quantile(0.999), paced.latencies_ms.count());
  for (size_t i = 0; i < paced.passes; ++i) {
    std::printf("paced pass %zu: match latency ms p50 %.4f p99 %.4f; host "
                "preempted %.2f%% of the pacer's wait\n",
                i, paced.p50_ms[i], paced.p99_ms[i],
                100.0 * paced.preempted[i]);
  }
  // A backlog that grows for the whole schedule leaves most events late.
  if (lag_p50 > 10.0) {
    std::printf("FLAG: paced generator fell behind its schedule (median "
                "event handed over %.1f ms late); the match latency "
                "figures describe a growing backlog\n", lag_p50);
  }
}

// Shares of --seconds: the closed loop, then the paced passes; recovery
// probes (workloads whose timed phases take no checkpoints) and extra
// set-up samples take bounded time on top.
constexpr double kClosedShare = 0.4;
constexpr double kPacedShare = 0.45;
constexpr double kProbeShare = 0.1;
constexpr size_t kMinSetupSamples = 15;
constexpr double kExtraSetupSeconds = 1.5;

int RunUntraced(const WorkloadInput& w, const Args& args) {
  const std::string ckpt_dir = args.work_dir + "/checkpoints";
  std::vector<double> setup_s;
  std::vector<double> events_per_s;
  std::vector<double> cpu_us;
  std::vector<double> recovery_s;
  std::vector<PhaseCheck> checks;
  std::vector<Recovery> recoveries;

  // Closed loop: repeated set-up + full replay, at least three times and
  // until its share of the run is spent. The paced phase then replays
  // the input at the fixed rate as often as its share allows.
  const double pass_s = static_cast<double>(w.live_events) / w.paced_rate;
  const double closed_budget_s = kClosedShare * args.seconds;
  const size_t paced_passes = static_cast<size_t>(std::max(
      1.0, std::round(kPacedShare * args.seconds / pass_s)));
  Clock::time_point phase_start = Clock::now();
  for (int rep = 0; rep < 3 || SecondsSince(phase_start) < closed_budget_s;
       ++rep) {
    std::unique_ptr<StreamSource> source = InputSource(w);
    Replay r;
    if (w.checkpoint_every > 0) {
      std::filesystem::remove_all(ckpt_dir);
      r.checkpoint_dir = ckpt_dir;
    }
    Clock::time_point setup_start = Clock::now();
    Session s = OpenSession(w, w.num_threads);
    Clock::time_point feed_start = Clock::now();
    double cpu_start = ProcessCpuSeconds();
    if (args.corrupt_match && rep == 0) s.sinks[0]->CorruptNextMatch();
    PhaseCheck check;
    check.phase = "closed loop";
    check.offered = w.live_events;
    check.processed = FeedAndFinish(w, s, r, std::move(source));
    double feed_s = SecondsSince(feed_start);
    double cpu_s = ProcessCpuSeconds() - cpu_start;
    setup_s.push_back(SecondsBetween(setup_start, feed_start));
    events_per_s.push_back(static_cast<double>(w.live_events) / feed_s);
    cpu_us.push_back(cpu_s * 1e6 / static_cast<double>(w.live_events));
    std::printf("closed loop rep %d: setup %.4f s, %.1f events/s, %.3f us "
                "cpu/event\n",
                rep, setup_s.back(), events_per_s.back(), cpu_us.back());
    check.counters_ok = CountersAgree(s, "closed loop");
    check.digests = DigestsOf(s);
    checks.push_back(check);
    if (rep == 0) {
      for (size_t q = 0; q < w.queries.size(); ++q) {
        std::printf("query %-28s %12llu matches %10llu revoked\n",
                    w.queries[q].name().c_str(),
                    static_cast<unsigned long long>(s.sinks[q]->received()),
                    static_cast<unsigned long long>(s.sinks[q]->revoked()));
      }
    }
    if (w.checkpoint_every > 0) {
      // The run ends with recovery from its last checkpoint, cut
      // recovery_tail events before the end.
      Cut cut;
      cut.dir = ckpt_dir;
      cut.at_cut = r.digests_at_last_cut;
      cut.full = check.digests;
      s.service.reset();
      recoveries.push_back(Recover(w, cut));
    }
  }

  PacedResult paced = RunPaced(w, ckpt_dir, paced_passes);
  setup_s.insert(setup_s.end(), paced.setup_s.begin(), paced.setup_s.end());
  checks.insert(checks.end(), paced.checks.begin(), paced.checks.end());
  // Set-up is milliseconds on some workloads: more samples than the
  // replays give keep its median steady.
  Clock::time_point extra_start = Clock::now();
  while (setup_s.size() < kMinSetupSamples &&
         SecondsSince(extra_start) < kExtraSetupSeconds) {
    Clock::time_point start = Clock::now();
    Session s = OpenSession(w, w.num_threads);
    setup_s.push_back(SecondsSince(start));
  }

  if (w.checkpoint_every == 0) {
    // One uncrashed run with a checkpoint at the cut, then repeated
    // recoveries from it: each is a fresh service and is verified.
    Clock::time_point probe_start = Clock::now();
    const Cut cut = ProbeCut(w, ckpt_dir);
    while (recoveries.size() < 5 ||
           (recoveries.size() < 15 &&
            SecondsSince(probe_start) < kProbeShare * args.seconds)) {
      recoveries.push_back(Recover(w, cut));
    }
  }
  std::filesystem::remove_all(ckpt_dir);

  // The reference runs after the timed phases, so no untimed program
  // work sits between set-up and measurement.
  const Digests reference = ReferenceDigests(w);
  Gate gate;
  for (const PhaseCheck& c : checks) {
    bool ok = DigestsMatch(c.digests, reference, c.phase) && c.counters_ok;
    gate.Account(c.phase, c.offered, c.processed, ok);
  }
  for (const Recovery& rec : recoveries) {
    recovery_s.push_back(rec.seconds);
    gate.Account("recovery", rec.tail_events, rec.tail_events, rec.verified);
  }

  ReportPacing(w, paced);
  std::printf("closed loop: %zu reps of %zu events; recovery: %zu samples, "
              "tail %zu events\n",
              events_per_s.size(), w.live_events, recovery_s.size(),
              w.recovery_tail);
  const std::pair<double, double> latency = SettledLatency(paced);
  double success = static_cast<double>(gate.attempted - gate.failed) /
                   static_cast<double>(std::max<uint64_t>(1, gate.attempted));
  std::vector<Metric> metrics = {
      {"events_per_s", Median(events_per_s), "events/s"},
      {"cpu_us_per_event", Median(cpu_us), "us"},
      {"match_latency_p50_ms", latency.first, "ms"},
      {"match_latency_p99_ms", latency.second, "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"setup_s", Median(setup_s), "s"},
      {"success_rate", success, "ratio"},
      {"recovery_s", Median(recovery_s), "s"},
  };
  for (const Metric& m : metrics) {
    std::printf("  %-22s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  PrintResultLine(gate.correct, gate.attempted, gate.failed, metrics);
  return gate.correct ? 0 : 1;
}

// ---- the traced run: per-layer metrics ---------------------------------

/// The per-layer metrics, in BENCHMARK.json order, with their units.
/// Every traced run reports all of them; a layer a workload does not
/// reach reports 0 (the durable layer is reached by every workload's
/// recovery measurement).
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"stats.collect_s", "s"},
    {"optimizer.plan_s", "s"},
    {"optimizer.plans", "count"},
    {"optimizer.model_cost", "cost"},
    {"api.register_s", "s"},
    {"api.dispatch_ns_per_event", "ns/event"},
    {"engine.busy_s", "s"},
    {"engine.nfa_ns_per_event", "ns/event"},
    {"engine.tree_ns_per_event", "ns/event"},
    {"engine.instances_created", "count"},
    {"engine.predicate_evals", "count"},
    {"engine.matches", "count"},
    {"engine.match_yield", "ratio"},
    {"engine.state_bytes_peak", "bytes"},
    {"engine.retractions", "count"},
    {"event.parse_ns_per_event", "ns/event"},
    {"parallel.merge_ns_per_event", "ns/event"},
    {"parallel.route_ns_per_event", "ns/event"},
    {"parallel.finish_s", "s"},
    {"parallel.buffered_matches", "count"},
    {"parallel.shard_skew", "ratio"},
    {"parallel.emit_latency_p99_ms", "ms"},
    {"parallel.cpu_ratio_vs_inline", "ratio"},
    {"durable.capture_ms_p50", "ms"},
    {"durable.capture_ms_max", "ms"},
    {"durable.publish_ms_p50", "ms"},
    {"durable.snapshot_bytes_first", "bytes"},
    {"durable.snapshot_bytes_last", "bytes"},
    {"durable.restore_s", "s"},
    {"durable.replay_events_per_s", "events/s"},
    {"bench.generator_lag_p99_ms", "ms"},
    {"bench.trace_overhead", "ratio"},
};

std::vector<SimplePattern> Subpatterns(const QuerySpec& q) {
  if (q.simple().has_value()) return {*q.simple()};
  return ToDnf(*q.nested());
}

uint64_t PlanSeed(const QuerySpec& q) {
  return q.seed().value_or(ServiceOptions().default_seed);
}

/// Partitions of the input in first-arrival order, and each one's
/// events (retractions go to their target's partition).
struct PartitionedInput {
  std::vector<uint32_t> order;
  std::unordered_map<uint32_t, std::vector<EventPtr>> events;
};

PartitionedInput SplitByPartition(const EventStream& stream) {
  PartitionedInput split;
  for (const EventPtr& e : stream.events()) {
    auto [it, inserted] = split.events.try_emplace(e->partition);
    if (inserted) split.order.push_back(e->partition);
    it->second.push_back(e);
  }
  return split;
}

/// The statistics and optimizer layers called directly: the history
/// pass and the planning of every query (of every partition seen in the
/// input, for keyed queries). Keyed planners are kept for the engine
/// pass.
struct PlanningResult {
  uint64_t plans = 0;
  double model_cost = 0.0;
  std::vector<std::unique_ptr<PartitionPlanner>> planners;
};

PlanningResult TracePlanning(const WorkloadInput& w,
                             const PartitionedInput& split, Tracer* t) {
  PlanningResult result;
  if (w.feed == Feed::kOnBatch) {
    std::unique_ptr<StatsCollector> collector;
    {
      ScopedSpan span(t, "stats.collect");
      collector =
          std::make_unique<StatsCollector>(w.history, w.registry.size());
    }
    for (const QuerySpec& q : w.queries) {
      for (const SimplePattern& sub : Subpatterns(q)) {
        PatternStats stats = [&] {
          ScopedSpan span(t, "stats.collect");
          return collector->CollectForPattern(sub);
        }();
        ScopedSpan span(t, "optimizer.plan");
        CostFunction cost = MakeCostFunction(sub, stats, q.latency_alpha());
        EnginePlan plan = MakePlan(q.algorithm(), cost, PlanSeed(q)).value();
        ++result.plans;
        result.model_cost += plan.cost;
      }
    }
    return result;
  }
  for (const QuerySpec& q : w.queries) {
    {
      ScopedSpan span(t, "stats.collect");
      result.planners.push_back(std::make_unique<PartitionPlanner>(
          *q.simple(), w.history, w.registry.size(), q.algorithm(),
          PlanSeed(q), q.latency_alpha()));
    }
    for (uint32_t p : split.order) {
      ScopedSpan span(t, "optimizer.plan");
      EnginePlan plan = result.planners.back()->PlanFor(p);
      ++result.plans;
      result.model_cost += plan.cost;
    }
  }
  return result;
}

/// The engine layer driven alone, through src/engine's factory, on the
/// same events the service saw: unkeyed queries with the service's
/// plans in its batches; keyed queries one engine per partition, each
/// partition's events in order.
struct EngineResult {
  EngineCounters totals;
  Digests digests;
};

EngineResult TraceEngines(const WorkloadInput& w, const Session& s,
                          const PlanningResult& planning,
                          const PartitionedInput& split, Tracer* t) {
  EngineResult result;
  auto span_name = [](const EnginePlan& plan) {
    return plan.kind == EnginePlan::Kind::kOrder ? "engine.nfa" : "engine.tree";
  };
  for (size_t q = 0; q < w.queries.size(); ++q) {
    DigestSink sink;
    if (w.feed == Feed::kOnBatch) {
      uint64_t id = s.handles[q].id();
      const std::vector<SimplePattern>& subs =
          s.service->UnkeyedSubpatterns(id);
      const std::vector<EnginePlan>& plans = s.service->UnkeyedPlans(id);
      const char* name = span_name(plans[0]);
      std::unique_ptr<Engine> engine =
          subs.size() == 1 ? BuildEngine(subs[0], plans[0], &sink)
                           : BuildDnfEngine(subs, plans, &sink);
      const std::vector<EventPtr>& events = w.live.events();
      for (size_t i = 0; i < events.size(); i += w.batch_size) {
        ScopedSpan span(t, name);
        engine->OnBatch(events.data() + i,
                        std::min(w.batch_size, events.size() - i));
      }
      {
        ScopedSpan span(t, name);
        engine->Finish();
      }
      result.totals.MergeDisjoint(engine->counters());
    } else {
      const PartitionPlanner& planner = *planning.planners[q];
      for (uint32_t p : split.order) {
        EnginePlan plan = planner.PlanFor(p);
        ScopedSpan span(t, span_name(plan));
        std::unique_ptr<Engine> engine = planner.BuildEngineFor(plan, &sink);
        const std::vector<EventPtr>& events = split.events.at(p);
        for (size_t i = 0; i < events.size(); i += w.batch_size) {
          engine->OnBatch(events.data() + i,
                          std::min(w.batch_size, events.size() - i));
        }
        engine->Finish();
        result.totals.MergeDisjoint(engine->counters());
      }
    }
    result.digests.push_back(sink.digest());
  }
  return result;
}

/// Time in the traced run's own measurements that an untraced replay
/// does not do (state snapshots, the extra capture before each
/// checkpoint), which the tracing overhead leaves out.
double MeasurementSeconds(const Tracer& t) {
  double total = 0.0;
  for (const char* name : {"bench.snapshot", "durable.capture"}) {
    for (double d : t.Durations(name)) total += d;
  }
  return total;
}

uint64_t ReceivedMatches(const Session& s) {
  uint64_t total = 0;
  for (const auto& sink : s.sinks) total += sink->received();
  return total;
}

/// A traced replay of the async-ingest workload through the ingest
/// pipeline's public API, handing each merged run to the service's
/// OnBatch under a span (the route / back-pressure hand-off at two
/// threads, the whole inline evaluation at one).
struct AsyncTrace {
  uint64_t processed = 0;
  uint64_t buffered_matches = 0;
  double cpu_us_per_event = 0.0;
  double events_per_s = 0.0;
  double state_bytes_peak = 0.0;
  MetricsSnapshot final_snapshot;
};

AsyncTrace TraceAsync(const WorkloadInput& w, Session& s, Tracer* t,
                      const char* hand_off_span, const char* finish_span) {
  AsyncTrace result;
  const double excluded_before = MeasurementSeconds(*t);
  std::vector<std::unique_ptr<StreamSource>> sources;
  sources.push_back(CsvSource(w, w.csv));
  IngestOptions options;
  options.num_ingest_threads = 1;
  options.chunk_size = w.batch_size;
  IngestPipeline pipeline(std::move(sources), options);
  Clock::time_point start = Clock::now();
  double cpu_start = ProcessCpuSeconds();
  StateSampler sampler;
  IngestResult ingest = [&] {
    ScopedSpan span(t, "parallel.ingest");
    return pipeline.Run([&](const EventPtr* run, size_t n) {
      {
        ScopedSpan hand_off(t, hand_off_span);
        s.service->OnBatch(run, n);
      }
      sampler.Maybe(*s.service, t, &result.state_bytes_peak);
    });
  }();
  uint64_t before_finish = ReceivedMatches(s);
  {
    ScopedSpan span(t, finish_span);
    s.service->Finish();
  }
  // Snapshots run on this thread: their time is both wall and CPU time.
  const double excluded = MeasurementSeconds(*t) - excluded_before;
  double seconds = SecondsSince(start) - excluded;
  result.cpu_us_per_event = (ProcessCpuSeconds() - cpu_start - excluded) *
                            1e6 / static_cast<double>(w.live_events);
  result.events_per_s = static_cast<double>(w.live_events) / seconds;
  result.buffered_matches = ReceivedMatches(s) - before_finish;
  if (!ingest.ok) std::printf("ingest error: %s\n", ingest.error.c_str());
  result.processed = ingest.events;
  result.final_snapshot = s.service->MetricsSnapshot();
  return result;
}

int RunTraced(const WorkloadInput& w, const Args& args) {
  Tracer tracer;
  Tracer* t = &tracer;
  std::map<std::string, double> out;
  for (const auto& [name, unit] : kLayerMetrics) out[name] = 0.0;
  const double n = static_cast<double>(w.live_events);
  const std::string ckpt_dir = args.work_dir + "/checkpoints";
  std::vector<PhaseCheck> checks;
  std::vector<Recovery> recoveries;

  EventStream parsed;
  const EventStream* stream = &w.live;
  if (w.feed != Feed::kOnBatch) {
    parsed = ParseCsvStream(w);
    stream = &parsed;
  }
  const PartitionedInput split = SplitByPartition(*stream);

  // Untraced baseline of the traced replay below, for the overhead.
  double untraced_events_per_s = 0.0;
  {
    std::unique_ptr<StreamSource> source = InputSource(w);
    Session s = OpenSession(w, w.num_threads);
    Replay r;
    Clock::time_point start = Clock::now();
    FeedAndFinish(w, s, r, std::move(source));
    untraced_events_per_s = n / SecondsSince(start);
  }

  // Statistics and optimizer, called directly.
  PlanningResult planning = TracePlanning(w, split, t);
  out["optimizer.plans"] = static_cast<double>(planning.plans);
  out["optimizer.model_cost"] = planning.model_cost;

  // The traced service replay, set-up included.
  std::vector<double> snapshot_bytes;
  EngineCounters service_totals;
  double traced_events_per_s = 0.0;
  Session traced = OpenSession(w, w.num_threads, t);
  if (w.feed == Feed::kAsyncSource) {
    AsyncTrace sharded =
        TraceAsync(w, traced, t, "parallel.route", "parallel.finish");
    traced_events_per_s = sharded.events_per_s;
    out["parallel.buffered_matches"] =
        static_cast<double>(sharded.buffered_matches);
    out["parallel.shard_skew"] = ShardSkew(sharded.final_snapshot);
    out["parallel.emit_latency_p99_ms"] =
        EmitLatencyP99Ms(sharded.final_snapshot);
    out["engine.state_bytes_peak"] = sharded.state_bytes_peak;
    checks.push_back({"traced sharded replay", w.live_events,
                      sharded.processed, CountersAgree(traced, "traced"),
                      DigestsOf(traced)});
    // The same job at one thread: the single-threaded baseline.
    Session inline_session = OpenSession(w, 1);
    AsyncTrace inline_run =
        TraceAsync(w, inline_session, t, "api.on_batch", "api.finish");
    out["parallel.cpu_ratio_vs_inline"] =
        sharded.cpu_us_per_event / inline_run.cpu_us_per_event;
    checks.push_back({"traced inline replay", w.live_events,
                      inline_run.processed,
                      CountersAgree(inline_session, "traced inline"),
                      DigestsOf(inline_session)});
  } else {
    std::unique_ptr<StreamSource> source = InputSource(w);
    Replay r;
    r.tracer = t;
    r.snapshot_bytes = &snapshot_bytes;
    r.state_bytes_peak = &out["engine.state_bytes_peak"];
    if (w.checkpoint_every > 0) {
      std::filesystem::remove_all(ckpt_dir);
      r.checkpoint_dir = ckpt_dir;
    }
    const double excluded_before = MeasurementSeconds(tracer);
    Clock::time_point start = Clock::now();
    PhaseCheck check{"traced replay", w.live_events, 0, false, {}};
    check.processed = FeedAndFinish(w, traced, r, std::move(source));
    traced_events_per_s =
        n / (SecondsSince(start) -
             (MeasurementSeconds(tracer) - excluded_before));
    check.counters_ok = CountersAgree(traced, "traced replay");
    check.digests = DigestsOf(traced);
    checks.push_back(check);
    if (w.checkpoint_every > 0) {
      Cut cut;
      cut.dir = ckpt_dir;
      cut.at_cut = r.digests_at_last_cut;
      cut.full = check.digests;
      recoveries.push_back(Recover(w, cut, t));
    }
  }
  for (const QueryHandle& h : traced.handles) {
    service_totals.MergeDisjoint(h.counters().value());
  }
  traced.service.reset();
  if (w.checkpoint_every == 0) {
    recoveries.push_back(
        Recover(w, ProbeCut(w, ckpt_dir, t, &snapshot_bytes), t));
  }
  std::filesystem::remove_all(ckpt_dir);

  // Engines alone.
  EngineResult engines = TraceEngines(w, OpenSession(w, 1), planning, split, t);

  // Source parse and the ingest merge alone.
  if (w.feed != Feed::kOnBatch) {
    std::unique_ptr<StreamSource> source = CsvSource(w, w.csv);
    Event e;
    ScopedSpan span(t, "event.parse");
    while (source->Next(&e)) {
    }
  }
  if (w.feed == Feed::kAsyncSource) {
    std::vector<std::unique_ptr<StreamSource>> sources;
    sources.push_back(CsvSource(w, w.csv));
    IngestOptions options;
    options.num_ingest_threads = 1;
    options.chunk_size = w.batch_size;
    IngestPipeline pipeline(std::move(sources), options);
    ScopedSpan span(t, "parallel.merge_only");
    IngestResult merged = pipeline.Run([](const EventPtr*, size_t) {});
    CEPJOIN_CHECK(merged.ok) << merged.error;
  }

  PacedResult paced = RunPaced(w, ckpt_dir, 1);
  checks.insert(checks.end(), paced.checks.begin(), paced.checks.end());
  std::filesystem::remove_all(ckpt_dir);

  // Per-layer figures from the spans.
  std::map<std::string, double> total = tracer.TotalSeconds();
  std::map<std::string, double> self = tracer.SelfSeconds();
  double nfa_s = total["engine.nfa"];
  double tree_s = total["engine.tree"];
  double engine_s = nfa_s + tree_s;
  double parse_s = total["event.parse"];
  out["stats.collect_s"] = total["stats.collect"];
  out["optimizer.plan_s"] = total["optimizer.plan"];
  out["api.register_s"] = total["api.register"];
  out["engine.busy_s"] = engine_s;
  out["engine.nfa_ns_per_event"] = nfa_s * 1e9 / n;
  out["engine.tree_ns_per_event"] = tree_s * 1e9 / n;
  out["engine.instances_created"] =
      static_cast<double>(engines.totals.instances_created);
  out["engine.predicate_evals"] =
      static_cast<double>(engines.totals.predicate_evals);
  out["engine.matches"] = static_cast<double>(engines.totals.matches_emitted);
  out["engine.match_yield"] =
      engines.totals.instances_created == 0
          ? 0.0
          : static_cast<double>(engines.totals.matches_emitted) /
                static_cast<double>(engines.totals.instances_created);
  out["engine.retractions"] =
      static_cast<double>(engines.totals.retractions_processed);
  // Service time on the inline host (OnBatch, or the pump minus its
  // parse) minus the engines' own time on the same events.
  double service_s = w.feed == Feed::kAttachedPump
                         ? total["api.pump"] - parse_s
                         : total["api.on_batch"];
  out["api.dispatch_ns_per_event"] = (service_s - engine_s) * 1e9 / n;
  if (w.feed != Feed::kOnBatch) {
    out["event.parse_ns_per_event"] = parse_s * 1e9 / n;
  }
  if (w.feed == Feed::kAsyncSource) {
    out["parallel.merge_ns_per_event"] =
        (total["parallel.merge_only"] - parse_s) * 1e9 / n;
    out["parallel.route_ns_per_event"] = total["parallel.route"] * 1e9 / n;
    out["parallel.finish_s"] = total["parallel.finish"];
  }
  std::vector<double> capture_ms = tracer.Durations("durable.capture");
  std::vector<double> publish_ms = tracer.Durations("durable.checkpoint_to");
  for (size_t i = 0; i < publish_ms.size(); ++i) {
    if (i < capture_ms.size()) publish_ms[i] -= capture_ms[i];
    publish_ms[i] *= 1e3;
  }
  for (double& c : capture_ms) c *= 1e3;
  out["durable.capture_ms_p50"] = Median(capture_ms);
  out["durable.capture_ms_max"] = Quantile(capture_ms, 1.0);
  out["durable.publish_ms_p50"] = Median(publish_ms);
  if (!snapshot_bytes.empty()) {
    out["durable.snapshot_bytes_first"] = snapshot_bytes.front();
    out["durable.snapshot_bytes_last"] = snapshot_bytes.back();
  }
  out["durable.restore_s"] = total["durable.restore"];
  out["durable.replay_events_per_s"] =
      static_cast<double>(w.recovery_tail) / total["durable.replay"];
  out["bench.generator_lag_p99_ms"] = paced.lag_ms.Quantile(0.99);
  out["bench.trace_overhead"] =
      untraced_events_per_s / traced_events_per_s - 1.0;
  ReportPacing(w, paced);

  // Correctness: every service run and the engines alone against the
  // single-threaded inline reference, and the engines' exact counts
  // against the service's.
  const Digests reference = ReferenceDigests(w);
  Gate gate;
  for (const PhaseCheck& c : checks) {
    bool ok = DigestsMatch(c.digests, reference, c.phase) && c.counters_ok;
    gate.Account(c.phase, c.offered, c.processed, ok);
  }
  for (const Recovery& rec : recoveries) {
    gate.Account("recovery", rec.tail_events, rec.tail_events, rec.verified);
  }
  bool engines_ok =
      DigestsMatch(engines.digests, reference, "engines alone") &&
      engines.totals.instances_created == service_totals.instances_created &&
      engines.totals.predicate_evals == service_totals.predicate_evals &&
      engines.totals.matches_emitted == service_totals.matches_emitted;
  if (!engines_ok) {
    std::printf("engines alone: exact counts differ from the service's\n");
  }
  gate.Account("engines alone", w.live_events, w.live_events, engines_ok);

  std::printf("%-26s %10s %12s %12s\n", "span", "count", "total_s", "self_s");
  for (const auto& [name, count] : tracer.Counts()) {
    std::printf("%-26s %10llu %12.6f %12.6f\n", name.c_str(),
                static_cast<unsigned long long>(count), total[name],
                self[name]);
  }
  std::string spans_path = args.work_dir + "/spans.tsv";
  if (!args.spans_out.empty()) spans_path = args.spans_out;
  if (!tracer.WriteTsv(spans_path)) {
    std::printf("cannot write spans to %s\n", spans_path.c_str());
    gate.correct = false;
  } else {
    std::printf("wrote %zu spans to %s\n", tracer.size(), spans_path.c_str());
  }

  std::vector<Metric> metrics;
  for (const auto& [name, unit] : kLayerMetrics) {
    metrics.push_back({name, out[name], unit});
    std::printf("  %-30s %16.6g %s\n", name, out[name], unit);
  }
  PrintResultLine(gate.correct, gate.attempted, gate.failed, metrics);
  return gate.correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace cepjoin

int main(int argc, char** argv) {
  using namespace cepjoin::e2e;
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <paper_mix|keyed_sharded|"
                 "delta_durable> --seed <n> --seconds <s> --trace <0|1> "
                 "[--work-dir <dir>] [--spans <path>] [--corrupt-match]\n",
                 argv[0]);
    return 2;
  }
  WorkloadInput w;
  if (args.workload == "paper_mix") {
    w = MakePaperMix(args.seed);
  } else if (args.workload == "keyed_sharded") {
    w = MakeKeyedSharded(args.seed);
  } else if (args.workload == "delta_durable") {
    w = MakeDeltaDurable(args.seed);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::printf("workload %s seed %llu: %zu live events, %zu history events, "
              "%zu queries, %zu service thread(s)\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              w.live_events, w.history.size(), w.queries.size(),
              w.num_threads);
  std::filesystem::create_directories(args.work_dir);
  return args.trace ? RunTraced(w, args) : RunUntraced(w, args);
}
