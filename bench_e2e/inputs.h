// The benchmark's three workloads: generated inputs, registered queries
// and the fixed settings each is run with. Inputs are a pure function of
// the seed; the query set, sizes and rates are part of the workload's
// definition and do not vary with it.
#ifndef CEPJOIN_BENCH_E2E_INPUTS_H_
#define CEPJOIN_BENCH_E2E_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "api/query_spec.h"
#include "event/event_type.h"
#include "event/stream.h"

namespace cepjoin {
namespace e2e {

/// How the workload hands its input to CepService.
enum class Feed {
  kOnBatch,       // CepService::OnBatch on the caller thread
  kAsyncSource,   // ProcessSourceAsync over a StreamingCsvSource
  kAttachedPump,  // AttachSource + PumpAttachedSources
};

struct WorkloadInput {
  std::string name;
  EventTypeRegistry registry;
  /// Input of the history statistics pass (ServiceOptions::history).
  EventStream history;
  /// paper_mix: the live events, serials 0..n-1.
  EventStream live;
  /// keyed workloads: the live input as CSV text (row i gets serial i).
  std::string csv;
  /// Events (CSV rows) offered per replay of the input.
  size_t live_events = 0;
  /// The registered queries, without sinks.
  std::vector<QuerySpec> queries;
  Feed feed = Feed::kOnBatch;
  size_t num_threads = 1;
  size_t batch_size = 256;
  /// Offered rate of the paced open-loop phase, events per second, and
  /// why it was chosen. Fixed per workload, never calibrated at run time.
  double paced_rate = 0.0;
  std::string paced_rate_reason;
  /// CheckpointTo every this many events (0: no checkpoints in the timed
  /// phases).
  size_t checkpoint_every = 0;
  /// Events replayed after RestoreFrom in the recovery measurement; the
  /// checkpoint restored from is cut this many events before the end.
  size_t recovery_tail = 0;
};

WorkloadInput MakePaperMix(uint64_t seed);
WorkloadInput MakeKeyedSharded(uint64_t seed);
WorkloadInput MakeDeltaDurable(uint64_t seed);

}  // namespace e2e
}  // namespace cepjoin

#endif  // CEPJOIN_BENCH_E2E_INPUTS_H_
