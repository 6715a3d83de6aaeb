// End-to-end durability of CepService: checkpoint at arbitrary cut
// points of a keyed delta workload (inserts + retractions), "crash" (the
// service is abandoned without Finish), restore into a fresh service,
// and replay the tail from the recorded source positions. The full
// drained match sequence — emissions AND revocations, in order, by
// fingerprint — must be byte-identical to a run that never crashed, at
// 1, 2, and 4 shard threads. Plus the recovery-surface contracts:
// NotFound on a missing directory, FailedPrecondition on a mismatched
// registration sequence, fell_back reporting when the newest snapshot is
// corrupt, and the write-behind CheckpointCoordinator's policy.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "api/cep_service.h"
#include "common/rng.h"
#include "durable/checkpoint_coordinator.h"
#include "durable/checkpoint_store.h"
#include "durable/fault_injector.h"
#include "durable/snapshot_io.h"
#include "event/stream_source.h"
#include "workload/keyed_generator.h"

namespace cepjoin {
namespace {

// ---------------------------------------------------------------------
// Workload: the keyed A/B/C join stream with every 3rd eligible event
// retracted shortly after it occurred (same construction as the engine
// retraction-equivalence suite).

struct DeltaWorkload {
  EventTypeRegistry registry;
  SimplePattern pattern;
  EventStream history;  // insert-only base: statistics source
  EventStream delta;    // inserts + interleaved retractions
};

DeltaWorkload MakeDeltaWorkload(uint64_t seed) {
  // Kept small on purpose: the unkeyed skip-till-any query is fed the
  // whole stream in one engine, and its match count grows superlinearly
  // with stream duration.
  KeyedWorkload base = MakeKeyedWorkload(/*num_partitions=*/4,
                                         /*duration=*/0.8, seed);
  DeltaWorkload out{std::move(base.registry),
                    base.pattern.WithDeltaInput(),
                    {},
                    {}};

  using Key = std::tuple<TypeId, uint32_t, Timestamp>;
  const std::vector<EventPtr>& events = base.stream.events();
  std::map<Key, size_t> last_of_key;
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = *events[i];
    last_of_key[Key(e.type, e.partition, e.ts)] = i;
  }
  std::vector<Event> retractions;
  int eligible = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = *events[i];
    // Only last occurrences of a (type, partition, ts) key are uniquely
    // addressable retraction targets (LIFO ledger resolution).
    if (last_of_key.at(Key(e.type, e.partition, e.ts)) != i) continue;
    if (eligible++ % 3 != 0) continue;
    Event r;
    r.type = e.type;
    r.partition = e.partition;
    r.polarity = -1;
    r.ts = e.ts + 0.3;
    r.target_ts = e.ts;
    retractions.push_back(r);
  }

  out.delta.EnableRetractions();
  size_t j = 0;
  for (const EventPtr& e : events) {
    while (j < retractions.size() && retractions[j].ts < e->ts) {
      out.delta.Append(retractions[j++]);
    }
    Event insert = *e;
    insert.serial = 0;
    insert.partition_seq = 0;
    out.delta.Append(insert);
    Event history_copy = insert;
    out.history.Append(history_copy);
  }
  while (j < retractions.size()) out.delta.Append(retractions[j++]);
  return out;
}

// Polarity-tagged fingerprint drain, in delivery order. Serials are
// preserved across restore (the merge state is checkpointed and the
// tail replays with identical serials), so Fingerprint comparison is
// exact.
std::vector<std::string> Drain(const CollectingSink& sink) {
  std::vector<std::string> out;
  out.reserve(sink.matches.size());
  for (const Match& m : sink.matches) {
    out.push_back((m.IsRevocation() ? "-" : "+") + m.Fingerprint());
  }
  return out;
}

struct Session {
  std::unique_ptr<CepService> service;
  CollectingSink keyed_sink;
  CollectingSink unkeyed_sink;
};

// One keyed query (partitioned or sharded by thread count) plus one
// unkeyed query, both fed from the same attached source.
Session MakeSession(const DeltaWorkload& workload, size_t num_threads) {
  Session s;
  ServiceOptions options;
  options.history = &workload.history;
  options.num_types = workload.registry.size();
  options.num_threads = num_threads;
  s.service = CepService::Create(options).value();
  CEPJOIN_CHECK_OK(s.service
                       ->Register(QuerySpec::Simple(workload.pattern)
                                      .WithName("keyed")
                                      .Keyed()
                                      .WithSink(&s.keyed_sink))
                       .status());
  CEPJOIN_CHECK_OK(s.service
                       ->Register(QuerySpec::Simple(workload.pattern)
                                      .WithName("unkeyed")
                                      .WithSink(&s.unkeyed_sink))
                       .status());
  CEPJOIN_CHECK_OK(s.service->AttachSource(
      std::make_unique<EventStreamSource>(&workload.delta)));
  return s;
}

struct RunResult {
  std::vector<std::string> keyed;
  std::vector<std::string> unkeyed;
};

RunResult RunUninterrupted(const DeltaWorkload& workload,
                           size_t num_threads) {
  Session s = MakeSession(workload, num_threads);
  auto fed = s.service->PumpAttachedSources();
  CEPJOIN_CHECK_OK(fed.status());
  s.service->Finish();
  return {Drain(s.keyed_sink), Drain(s.unkeyed_sink)};
}

class ServiceCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }

  std::string FreshDir(const std::string& tag) {
    std::string dir =
        ::testing::TempDir() + "/svc_ckpt_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
        tag;
    std::filesystem::remove_all(dir);  // stale state from a prior run
    return dir;
  }
};

TEST_F(ServiceCheckpointTest, CrashRecoveryIsEquivalentAtEveryThreadCount) {
  DeltaWorkload workload = MakeDeltaWorkload(/*seed=*/11);
  const size_t total = workload.delta.size();
  ASSERT_GT(total, 100u);

  for (size_t num_threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(num_threads));
    RunResult baseline = RunUninterrupted(workload, num_threads);
    ASSERT_FALSE(baseline.keyed.empty());
    ASSERT_FALSE(baseline.unkeyed.empty());

    // Kill points: a handful of random cuts plus the boundaries.
    Rng rng(91 + num_threads);
    std::vector<size_t> cuts = {0, total / 2, total - 1};
    for (int i = 0; i < 2; ++i) {
      cuts.push_back(static_cast<size_t>(
          rng.UniformInt(1, static_cast<int64_t>(total) - 2)));
    }

    for (size_t cut : cuts) {
      SCOPED_TRACE("cut=" + std::to_string(cut));
      const std::string dir =
          FreshDir(std::to_string(num_threads) + "_" + std::to_string(cut));

      // Run 1: pump to the cut, checkpoint, pump a little further (work
      // that the crash will lose), then abandon the service un-Finished.
      std::vector<std::string> keyed_prefix, unkeyed_prefix;
      {
        Session s1 = MakeSession(workload, num_threads);
        if (cut > 0) {
          auto fed = s1.service->PumpAttachedSources(cut);
          ASSERT_TRUE(fed.ok()) << fed.status().ToString();
          ASSERT_EQ(fed.value(), cut);
        }
        ASSERT_TRUE(s1.service->CheckpointTo(dir).ok());
        // Matches already delivered to the sinks at the cut are the
        // crash-surviving prefix (sharded queries deliver everything the
        // shards' watermark has passed before CheckpointTo returns; only
        // matches it has not passed live in the checkpoint).
        keyed_prefix = Drain(s1.keyed_sink);
        unkeyed_prefix = Drain(s1.unkeyed_sink);
        auto lost = s1.service->PumpAttachedSources(40);
        ASSERT_TRUE(lost.ok());
      }  // crash: no Finish, destructors only

      // Run 2: fresh service, same registration sequence, fresh source
      // over the same stream; restore + tail replay.
      Session s2 = MakeSession(workload, num_threads);
      auto report = s2.service->RestoreFrom(dir);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_FALSE(report->fell_back);
      EXPECT_GT(report->checkpoint_seq, 0u);
      auto fed = s2.service->PumpAttachedSources();
      ASSERT_TRUE(fed.ok()) << fed.status().ToString();
      s2.service->Finish();

      std::vector<std::string> keyed = keyed_prefix;
      for (std::string& tag : Drain(s2.keyed_sink)) {
        keyed.push_back(std::move(tag));
      }
      std::vector<std::string> unkeyed = unkeyed_prefix;
      for (std::string& tag : Drain(s2.unkeyed_sink)) {
        unkeyed.push_back(std::move(tag));
      }
      EXPECT_EQ(keyed, baseline.keyed);
      EXPECT_EQ(unkeyed, baseline.unkeyed);
    }
  }
}

TEST_F(ServiceCheckpointTest, RestoreFromMissingDirectoryIsNotFound) {
  DeltaWorkload workload = MakeDeltaWorkload(5);
  Session s = MakeSession(workload, 1);
  const std::string dir = FreshDir("absent") + "/nope";
  auto report = s.service->RestoreFrom(dir);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kNotFound);
  EXPECT_NE(report.status().message().find(dir), std::string::npos);
}

TEST_F(ServiceCheckpointTest, CheckpointToCreatesTheDirectory) {
  DeltaWorkload workload = MakeDeltaWorkload(5);
  Session s = MakeSession(workload, 1);
  const std::string dir = FreshDir("made") + "/a/b";
  ASSERT_FALSE(DirectoryExists(dir));
  ASSERT_TRUE(s.service->CheckpointTo(dir).ok());
  EXPECT_TRUE(DirectoryExists(dir));
}

TEST_F(ServiceCheckpointTest, MismatchedRegistrationIsFailedPrecondition) {
  DeltaWorkload workload = MakeDeltaWorkload(5);
  const std::string dir = FreshDir("mismatch");
  {
    Session s1 = MakeSession(workload, 1);
    ASSERT_TRUE(s1.service->PumpAttachedSources(50).ok());
    ASSERT_TRUE(s1.service->CheckpointTo(dir).ok());
  }
  // Same shape, different query name: the registration-replay contract
  // is violated and restore must say so instead of loading state into
  // the wrong query.
  ServiceOptions options;
  options.history = &workload.history;
  options.num_types = workload.registry.size();
  auto service = CepService::Create(options).value();
  CollectingSink sink_a, sink_b;
  ASSERT_TRUE(service
                  ->Register(QuerySpec::Simple(workload.pattern)
                                 .WithName("other")
                                 .Keyed()
                                 .WithSink(&sink_a))
                  .ok());
  ASSERT_TRUE(service
                  ->Register(QuerySpec::Simple(workload.pattern)
                                 .WithName("unkeyed")
                                 .WithSink(&sink_b))
                  .ok());
  ASSERT_TRUE(service
                  ->AttachSource(
                      std::make_unique<EventStreamSource>(&workload.delta))
                  .ok());
  auto report = service->RestoreFrom(dir);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServiceCheckpointTest, CorruptNewestCheckpointFallsBackAndReplays) {
  DeltaWorkload workload = MakeDeltaWorkload(7);
  const size_t total = workload.delta.size();
  const std::string dir = FreshDir("fallback");
  RunResult baseline = RunUninterrupted(workload, 1);

  {
    Session s1 = MakeSession(workload, 1);
    ASSERT_TRUE(s1.service->PumpAttachedSources(total / 3).ok());
    ASSERT_TRUE(s1.service->CheckpointTo(dir).ok());
    ASSERT_TRUE(s1.service->PumpAttachedSources(total / 3).ok());
    ASSERT_TRUE(s1.service->CheckpointTo(dir).ok());
  }
  // Rot the newest snapshot on disk; recovery must fall back to the
  // first checkpoint and the longer tail replay must still converge to
  // the baseline.
  const std::string newest = CheckpointStore::SnapshotPath(dir, 2);
  std::string bytes = ReadFileToString(newest).value();
  bytes[bytes.size() / 2] ^= 0x04;
  {
    std::ofstream out(newest, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  Session s2 = MakeSession(workload, 1);
  // The first run delivered matches up to the FIRST checkpoint before
  // we corrupted the second; replay re-delivers everything after it.
  // Reconstruct the prefix by running a fresh session to the same cut.
  std::vector<std::string> keyed_prefix, unkeyed_prefix;
  {
    Session ref = MakeSession(workload, 1);
    ASSERT_TRUE(ref.service->PumpAttachedSources(total / 3).ok());
    keyed_prefix = Drain(ref.keyed_sink);
    unkeyed_prefix = Drain(ref.unkeyed_sink);
  }
  auto report = s2.service->RestoreFrom(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->fell_back);
  EXPECT_EQ(report->checkpoint_seq, 1u);
  EXPECT_FALSE(report->detail.empty());
  ASSERT_TRUE(s2.service->PumpAttachedSources().ok());
  s2.service->Finish();

  std::vector<std::string> keyed = keyed_prefix;
  for (std::string& t : Drain(s2.keyed_sink)) keyed.push_back(std::move(t));
  std::vector<std::string> unkeyed = unkeyed_prefix;
  for (std::string& t : Drain(s2.unkeyed_sink)) {
    unkeyed.push_back(std::move(t));
  }
  EXPECT_EQ(keyed, baseline.keyed);
  EXPECT_EQ(unkeyed, baseline.unkeyed);
}

TEST_F(ServiceCheckpointTest, CoordinatorWritesBehindAndEnforcesPolicy) {
  DeltaWorkload workload = MakeDeltaWorkload(13);
  const std::string dir = FreshDir("coord");
  Session s = MakeSession(workload, 2);

  CheckpointOptions options;
  options.dir = dir;
  options.min_watermark_advance = 0.5;
  options.metrics = s.service->metrics_registry();
  CheckpointCoordinator coordinator(s.service.get(), options);
  ASSERT_TRUE(coordinator.Start().ok());

  double watermark = 0.0;
  uint64_t accepted = 0;
  while (true) {
    auto fed = s.service->PumpAttachedSources(64);
    ASSERT_TRUE(fed.ok()) << fed.status().ToString();
    if (fed.value() == 0) break;
    watermark += 0.1;  // ~6 policy-eligible cuts over the run
    auto cut = coordinator.MaybeCheckpoint(watermark);
    ASSERT_TRUE(cut.ok()) << cut.status().ToString();
    if (cut.value()) ++accepted;
  }
  ASSERT_TRUE(coordinator.CheckpointNow(watermark).ok());
  ASSERT_TRUE(coordinator.Stop().ok());
  // The 0.5 advance policy admits a fraction of the 0.1-step calls; the
  // final CheckpointNow bypasses it.
  EXPECT_GT(accepted, 0u);
  EXPECT_GE(coordinator.published(), accepted + 1);

  // The published chain is restorable mid-run state.
  Session s2 = MakeSession(workload, 2);
  auto report = s2.service->RestoreFrom(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(s2.service->PumpAttachedSources().ok());
  s2.service->Finish();

  // Second MaybeCheckpoint in a row without watermark movement: policy
  // skip, not an error.
  CheckpointCoordinator again(s.service.get(),
                              {dir, /*min_watermark_advance=*/10.0, nullptr});
  ASSERT_TRUE(again.Start().ok());
  auto first = again.MaybeCheckpoint(1.0);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.value());
  auto second = again.MaybeCheckpoint(1.5);  // advance 0.5 < 10.0
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.value());
  ASSERT_TRUE(again.Stop().ok());
}

TEST_F(ServiceCheckpointTest, InsertOnlyWorkloadRoundtrips) {
  // The ledger-free path: no retractions anywhere, checkpoint mid-way,
  // restore, replay — same equivalence contract.
  KeyedWorkload base = MakeKeyedWorkload(4, 1.0, 3);
  DeltaWorkload workload{std::move(base.registry), std::move(base.pattern), {},
                         {}};
  for (const EventPtr& e : base.stream.events()) {
    Event copy = *e;
    copy.serial = 0;
    copy.partition_seq = 0;
    workload.delta.Append(copy);
    Event history_copy = copy;
    workload.history.Append(history_copy);
  }
  RunResult baseline = RunUninterrupted(workload, 2);
  const std::string dir = FreshDir("insert_only");

  std::vector<std::string> keyed, unkeyed;
  {
    Session s1 = MakeSession(workload, 2);
    ASSERT_TRUE(s1.service->PumpAttachedSources(workload.delta.size() / 2)
                    .ok());
    ASSERT_TRUE(s1.service->CheckpointTo(dir).ok());
    // Inline-fed matches already delivered at the cut survive only in
    // the sink; sharded-query matches ride in the checkpoint instead.
    keyed = Drain(s1.keyed_sink);
    unkeyed = Drain(s1.unkeyed_sink);
  }
  Session s2 = MakeSession(workload, 2);
  auto report = s2.service->RestoreFrom(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(s2.service->PumpAttachedSources().ok());
  s2.service->Finish();
  for (std::string& tag : Drain(s2.keyed_sink)) keyed.push_back(std::move(tag));
  for (std::string& tag : Drain(s2.unkeyed_sink)) {
    unkeyed.push_back(std::move(tag));
  }
  EXPECT_EQ(keyed, baseline.keyed);
  EXPECT_EQ(unkeyed, baseline.unkeyed);
}

}  // namespace
}  // namespace cepjoin
