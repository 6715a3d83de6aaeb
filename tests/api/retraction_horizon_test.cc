// The service bounds its retraction ledgers by the horizon H = 2 x the
// largest registered delta window. Bounded ingest must be invisible in
// the output: through AttachSource + PumpAttachedSources (with a
// checkpoint cut and restore mid-stream) and through
// ProcessSourceAsync, the drained matches and revocations, with their
// emission positions, equal ProcessStream over the materialized stream,
// whose ledger is unbounded. Retractions come at lags 0.5W, 1.5W,
// 1.99W, 2.01W and 3W; the last two are late (behind H), and counted.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "api/cep_service.h"
#include "event/stream_source.h"
#include "obs/pipeline_metrics.h"
#include "workload/keyed_generator.h"

namespace cepjoin {
namespace {

constexpr double kWindow = 0.1;  // the keyed query's; the largest
constexpr double kLagsInWindows[] = {0.5, 1.5, 1.99, 2.01, 3.0};

struct HorizonWorkload {
  EventTypeRegistry registry;
  SimplePattern keyed;
  SimplePattern unkeyed;
  EventStream history;  // insert-only: statistics source
  EventStream delta;    // inserts + retractions at every lag
  uint64_t late = 0;    // retractions behind 2 * kWindow
};

/// SEQ(A, B, C) with a.v < c.v over the keyed workload's A/B/C types.
SimplePattern Seq(const KeyedWorkload& base, double window) {
  return SimplePattern(OperatorKind::kSeq, base.pattern.events(),
                       base.pattern.conditions(), window)
      .WithDeltaInput();
}

HorizonWorkload MakeWorkload(uint64_t seed) {
  KeyedWorkload base = MakeKeyedWorkload(/*num_partitions=*/4,
                                         /*duration=*/0.6, seed);
  HorizonWorkload out{std::move(base.registry), Seq(base, kWindow),
                      Seq(base, kWindow / 2), {}, {}, 0};

  // Every other event that is the last of its (type, partition, ts) key
  // (so LIFO resolution names it uniquely) is retracted, cycling
  // through the lags.
  using Key = std::tuple<TypeId, uint32_t, Timestamp>;
  const std::vector<EventPtr>& events = base.stream.events();
  std::map<Key, size_t> last_of_key;
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = *events[i];
    last_of_key[Key(e.type, e.partition, e.ts)] = i;
  }
  std::vector<Event> retractions;
  size_t eligible = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = *events[i];
    if (last_of_key.at(Key(e.type, e.partition, e.ts)) != i) continue;
    if (eligible++ % 2 != 0) continue;
    double lag = kLagsInWindows[retractions.size() % 5] * kWindow;
    Event r;
    r.type = e.type;
    r.partition = e.partition;
    r.polarity = -1;
    r.ts = e.ts + lag;
    r.target_ts = e.ts;
    if (r.target_ts < r.ts - 2 * kWindow) ++out.late;
    retractions.push_back(r);
  }
  std::stable_sort(
      retractions.begin(), retractions.end(),
      [](const Event& a, const Event& b) { return a.ts < b.ts; });

  out.delta.EnableRetractions();
  size_t j = 0;
  for (const EventPtr& e : events) {
    // Inserts go first at equal timestamps, as the ingest merge orders.
    while (j < retractions.size() && retractions[j].ts < e->ts) {
      out.delta.Append(retractions[j++]);
    }
    Event insert = *e;
    insert.serial = 0;
    insert.partition_seq = 0;
    out.delta.Append(insert);
    out.history.Append(insert);
  }
  while (j < retractions.size()) out.delta.Append(retractions[j++]);
  return out;
}

/// Polarity, serial fingerprint and emission position of every match,
/// in delivery order.
std::vector<std::string> Drain(const CollectingSink& sink) {
  std::vector<std::string> out;
  for (const Match& m : sink.matches) {
    out.push_back((m.IsRevocation() ? "-" : "+") + m.Fingerprint() + "@" +
                  std::to_string(m.emit_serial));
  }
  return out;
}

struct Drains {
  std::vector<std::string> keyed;
  std::vector<std::string> unkeyed;
  uint64_t late = 0;  // cep_ingest_late_retractions_total
};

struct Session {
  std::unique_ptr<CepService> service;
  CollectingSink keyed_sink;
  CollectingSink unkeyed_sink;

  Drains Collect() const {
    Counter* late = service->metrics_registry()->GetCounter(
        metric_names::kIngestLateRetractions);
    return {Drain(keyed_sink), Drain(unkeyed_sink), late->Value()};
  }
};

/// A keyed and an unkeyed delta query; with `attach`, the delta stream
/// is attached as a positional source BEFORE the queries register, so
/// the ledger's horizon is widened by Register.
std::unique_ptr<Session> MakeSession(const HorizonWorkload& w,
                                     size_t num_threads, bool attach) {
  auto s = std::make_unique<Session>();
  ServiceOptions options;
  options.history = &w.history;
  options.num_types = w.registry.size();
  options.num_threads = num_threads;
  s->service = CepService::Create(options).value();
  if (attach) {
    CEPJOIN_CHECK_OK(s->service->AttachSource(
        std::make_unique<EventStreamSource>(&w.delta)));
  }
  CEPJOIN_CHECK_OK(s->service
                       ->Register(QuerySpec::Simple(w.keyed)
                                      .Keyed()
                                      .WithSink(&s->keyed_sink))
                       .status());
  CEPJOIN_CHECK_OK(s->service
                       ->Register(QuerySpec::Simple(w.unkeyed)
                                      .WithSink(&s->unkeyed_sink))
                       .status());
  return s;
}

Drains Reference(const HorizonWorkload& w, size_t num_threads) {
  std::unique_ptr<Session> s = MakeSession(w, num_threads, false);
  s->service->ProcessStream(w.delta);
  s->service->Finish();
  return s->Collect();
}

Drains Async(const HorizonWorkload& w, size_t num_threads) {
  std::unique_ptr<Session> s = MakeSession(w, num_threads, false);
  IngestResult result = s->service->ProcessSourceAsync(
      std::make_unique<EventStreamSource>(&w.delta));
  EXPECT_TRUE(result.ok) << result.error;
  s->service->Finish();
  return s->Collect();
}

/// Pumps to `cut`, checkpoints, pumps a little further (work the crash
/// loses), then restores a fresh service and pumps the rest.
Drains PumpedWithRestore(const HorizonWorkload& w, size_t num_threads,
                         size_t cut, const std::string& dir) {
  std::filesystem::remove_all(dir);
  Drains prefix;
  {
    std::unique_ptr<Session> s1 = MakeSession(w, num_threads, true);
    StatusOr<size_t> fed = s1->service->PumpAttachedSources(cut);
    EXPECT_TRUE(fed.ok()) << fed.status().ToString();
    EXPECT_TRUE(s1->service->CheckpointTo(dir).ok());
    prefix = s1->Collect();
    EXPECT_TRUE(s1->service->PumpAttachedSources(50).ok());
  }
  std::unique_ptr<Session> s2 = MakeSession(w, num_threads, true);
  StatusOr<CepService::RestoreReport> report = s2->service->RestoreFrom(dir);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  StatusOr<size_t> fed = s2->service->PumpAttachedSources();
  EXPECT_TRUE(fed.ok()) << fed.status().ToString();
  s2->service->Finish();
  Drains tail = s2->Collect();
  Drains all = prefix;
  all.keyed.insert(all.keyed.end(), tail.keyed.begin(), tail.keyed.end());
  all.unkeyed.insert(all.unkeyed.end(), tail.unkeyed.begin(),
                     tail.unkeyed.end());
  all.late += tail.late;
  std::filesystem::remove_all(dir);
  return all;
}

size_t Revocations(const std::vector<std::string>& drain) {
  return static_cast<size_t>(std::count_if(
      drain.begin(), drain.end(),
      [](const std::string& tag) { return tag[0] == '-'; }));
}

TEST(RetractionHorizonTest, BoundedIngestEqualsUnboundedStream) {
  HorizonWorkload w = MakeWorkload(/*seed=*/3);
  ASSERT_GT(w.late, 0u);
  const size_t cut = w.delta.size() / 2;
  for (size_t num_threads : {1u, 2u}) {
    SCOPED_TRACE("threads=" + std::to_string(num_threads));
    Drains reference = Reference(w, num_threads);
    ASSERT_GT(Revocations(reference.keyed), 0u);
    ASSERT_GT(Revocations(reference.unkeyed), 0u);
    EXPECT_EQ(reference.late, 0u);  // a materialized stream never is

    Drains async = Async(w, num_threads);
    EXPECT_EQ(async.keyed, reference.keyed);
    EXPECT_EQ(async.unkeyed, reference.unkeyed);
    EXPECT_EQ(async.late, w.late);

    const std::string dir = ::testing::TempDir() + "/retraction_horizon_" +
                            std::to_string(num_threads);
    Drains pumped = PumpedWithRestore(w, num_threads, cut, dir);
    EXPECT_EQ(pumped.keyed, reference.keyed);
    EXPECT_EQ(pumped.unkeyed, reference.unkeyed);
    // Late retractions counted once each, before and after the restore;
    // the 50 events pumped after the checkpoint are replayed, so they
    // may count twice.
    EXPECT_GE(pumped.late, w.late);
  }
}

TEST(RetractionHorizonTest, TargetExactlyTwoWindowsBackIsRevoked) {
  // The engines keep an emitted match revocable while its max_ts >=
  // r.ts - W (Sweep's test). With H = 2W, the target at exactly r.ts - H
  // of a match ending at r.ts - W is the edge: the ledger must resolve
  // it. One ulp later it is late, and the engines revoke nothing either.
  constexpr double kW = 0.25;  // binary-exact edges
  EventTypeRegistry registry;
  TypeId a = registry.Register("A", {"v"});
  TypeId b = registry.Register("B", {"v"});
  SimplePattern pattern =
      SimplePattern(OperatorKind::kSeq,
                    {{a, "a", false, false}, {b, "b", false, false}}, {}, kW)
          .WithDeltaInput();
  auto make = [](TypeId type, Timestamp ts) {
    Event e;
    e.type = type;
    e.ts = ts;
    e.attrs = {0.0};
    return e;
  };
  EventStream history;
  for (int i = 0; i < 8; ++i) history.Append(make(i % 2 == 0 ? a : b, i));

  for (bool past_edge : {false, true}) {
    SCOPED_TRACE(past_edge ? "one ulp past the edge" : "at the edge");
    Event r = make(a, past_edge ? std::nextafter(2.0, 3.0) : 2.0);
    r.polarity = -1;
    r.target_ts = 1.5;
    EventStream delta;
    delta.EnableRetractions();
    delta.Append(make(a, 1.5));
    delta.Append(make(b, 1.75));
    delta.Append(r);
    delta.Append(make(b, 3.0));

    uint64_t revoked[2] = {0, 0};
    uint64_t late = 0;
    for (int bounded = 0; bounded < 2; ++bounded) {
      ServiceOptions options;
      options.history = &history;
      options.num_types = registry.size();
      auto service = CepService::Create(options).value();
      CollectingSink sink;
      ASSERT_TRUE(
          service->Register(QuerySpec::Simple(pattern).WithSink(&sink)).ok());
      if (bounded == 1) {
        ASSERT_TRUE(service
                        ->AttachSource(
                            std::make_unique<EventStreamSource>(&delta))
                        .ok());
        ASSERT_TRUE(service->PumpAttachedSources().ok());
        late = service->metrics_registry()
                   ->GetCounter(metric_names::kIngestLateRetractions)
                   ->Value();
      } else {
        service->ProcessStream(delta);
      }
      service->Finish();
      for (const Match& m : sink.matches) revoked[bounded] += m.IsRevocation();
    }
    EXPECT_EQ(revoked[0], past_edge ? 0u : 1u);
    EXPECT_EQ(revoked[1], revoked[0]);
    EXPECT_EQ(late, past_edge ? 1u : 0u);
  }
}

}  // namespace
}  // namespace cepjoin
