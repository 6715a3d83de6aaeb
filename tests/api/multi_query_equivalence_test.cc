// Multi-query equivalence: N queries registered on ONE CepService (one
// shared ingest path, one routing pass) must produce, per query, the
// byte-identical match fingerprint sequence and counters of N
// completely independent runtimes — at every worker thread count, with
// queries registered and deregistered mid-stream, and over async
// ingestion.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "adaptive/partitioned_runtime.h"
#include "api/cep_service.h"
#include "api/keyed_runtime.h"
#include "parallel/shard_router.h"
#include "pattern/pattern.h"
#include "workload/keyed_generator.h"

namespace cepjoin {
namespace {

struct Reference {
  std::vector<std::string> sequence;  // fingerprints in emission order
  EngineCounters counters;
  size_t num_partitions = 0;
};

std::vector<std::string> Sequence(const CollectingSink& sink) {
  std::vector<std::string> seq;
  seq.reserve(sink.matches.size());
  for (const Match& m : sink.matches) seq.push_back(m.Fingerprint());
  return seq;
}

void ExpectSameCounters(const EngineCounters& got, const EngineCounters& want,
                        const std::string& label) {
  EXPECT_EQ(got.events_processed, want.events_processed) << label;
  EXPECT_EQ(got.matches_emitted, want.matches_emitted) << label;
  EXPECT_EQ(got.instances_created, want.instances_created) << label;
  EXPECT_EQ(got.predicate_evals, want.predicate_evals) << label;
}

/// Runs one standalone keyed runtime over events [begin, end) of the
/// workload stream — the reference a service-registered query must
/// reproduce exactly.
Reference RunStandaloneKeyed(const KeyedWorkload& workload,
                             const std::string& algorithm, size_t begin,
                             size_t end) {
  CollectingSink sink;
  RuntimeOptions options;
  options.algorithm = algorithm;
  options.num_threads = 1;
  KeyedCepRuntime runtime(workload.pattern, workload.stream,
                          workload.registry.size(), options, &sink);
  runtime.OnBatch(workload.stream.events().data() + begin, end - begin);
  runtime.Finish();
  Reference ref;
  ref.sequence = Sequence(sink);
  ref.counters = runtime.TotalCounters();
  ref.num_partitions = runtime.num_partitions().value();
  return ref;
}

TEST(MultiQueryEquivalenceTest, NQueriesMatchNStandaloneRuntimes) {
  KeyedWorkload workload = MakeKeyedWorkload(8, 6.0, 11);
  const std::vector<std::string> algorithms = {"GREEDY", "TRIVIAL", "DP-LD"};

  std::vector<Reference> refs;
  for (const std::string& algorithm : algorithms) {
    refs.push_back(RunStandaloneKeyed(workload, algorithm, 0,
                                      workload.stream.size()));
    ASSERT_GT(refs.back().sequence.size(), 0u) << algorithm;
  }

  for (size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ServiceOptions options;
    options.history = &workload.stream;
    options.num_types = workload.registry.size();
    options.num_threads = threads;
    options.batch_size = 64;  // force multiple batches per shard
    auto service = CepService::Create(options).value();

    std::vector<CollectingSink> sinks(algorithms.size());
    std::vector<QueryHandle> handles;
    for (size_t q = 0; q < algorithms.size(); ++q) {
      auto handle = service->Register(QuerySpec::Simple(workload.pattern)
                                          .Keyed()
                                          .WithAlgorithm(algorithms[q])
                                          .WithSink(&sinks[q]));
      ASSERT_TRUE(handle.ok()) << handle.status().ToString();
      handles.push_back(*handle);
    }
    service->ProcessStream(workload.stream);
    service->Finish();

    for (size_t q = 0; q < algorithms.size(); ++q) {
      SCOPED_TRACE("query=" + algorithms[q]);
      EXPECT_EQ(Sequence(sinks[q]), refs[q].sequence);
      ExpectSameCounters(handles[q].counters().value(), refs[q].counters,
                         algorithms[q]);
      EXPECT_EQ(handles[q].num_partitions().value(), refs[q].num_partitions);
    }
  }
}

TEST(MultiQueryEquivalenceTest, MixedKeyedAndUnkeyedShareOneIngest) {
  // Short stream: the unkeyed query matches across partitions, which
  // grows combinatorially with duration.
  KeyedWorkload workload = MakeKeyedWorkload(6, 1.5, 19);

  // Standalone references: one keyed runtime, one unkeyed runtime.
  Reference keyed_ref =
      RunStandaloneKeyed(workload, "GREEDY", 0, workload.stream.size());

  CollectingSink unkeyed_ref_sink;
  StatsCollector collector(workload.stream, workload.registry.size());
  CepRuntime unkeyed_ref(workload.pattern,
                         collector.CollectForPattern(workload.pattern),
                         {.algorithm = "DP-LD"}, &unkeyed_ref_sink);
  unkeyed_ref.ProcessStream(workload.stream);
  unkeyed_ref.Finish();
  ASSERT_GT(keyed_ref.sequence.size(), 0u);
  ASSERT_GT(unkeyed_ref_sink.matches.size(), 0u);

  for (size_t threads : {1u, 2u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ServiceOptions options;
    options.history = &workload.stream;
    options.num_types = workload.registry.size();
    options.num_threads = threads;
    auto service = CepService::Create(options).value();

    CollectingSink keyed_sink;
    CollectingSink unkeyed_sink;
    auto keyed = service->Register(QuerySpec::Simple(workload.pattern)
                                       .Keyed()
                                       .WithSink(&keyed_sink));
    auto unkeyed = service->Register(QuerySpec::Simple(workload.pattern)
                                         .WithAlgorithm("DP-LD")
                                         .WithSink(&unkeyed_sink));
    ASSERT_TRUE(keyed.ok());
    ASSERT_TRUE(unkeyed.ok());
    service->ProcessStream(workload.stream);
    service->Finish();

    EXPECT_EQ(Sequence(keyed_sink), keyed_ref.sequence);
    ExpectSameCounters(keyed->counters().value(), keyed_ref.counters,
                       "keyed");
    EXPECT_EQ(Sequence(unkeyed_sink), Sequence(unkeyed_ref_sink));
    ExpectSameCounters(unkeyed->counters().value(), unkeyed_ref.counters(),
                       "unkeyed");
  }
}

TEST(MultiQueryEquivalenceTest, MidStreamRegisterSeesOnlyTheSuffix) {
  KeyedWorkload workload = MakeKeyedWorkload(8, 6.0, 23);
  const size_t cut = workload.stream.size() / 2;
  Reference full_ref =
      RunStandaloneKeyed(workload, "GREEDY", 0, workload.stream.size());
  Reference suffix_ref =
      RunStandaloneKeyed(workload, "TRIVIAL", cut, workload.stream.size());
  ASSERT_GT(suffix_ref.sequence.size(), 0u);

  for (size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ServiceOptions options;
    options.history = &workload.stream;
    options.num_types = workload.registry.size();
    options.num_threads = threads;
    options.batch_size = 32;
    auto service = CepService::Create(options).value();

    CollectingSink full_sink;
    auto full = service->Register(QuerySpec::Simple(workload.pattern)
                                      .Keyed()
                                      .WithAlgorithm("GREEDY")
                                      .WithSink(&full_sink));
    ASSERT_TRUE(full.ok());
    service->OnBatch(workload.stream.events().data(), cut);

    // Registered mid-stream: must see exactly events [cut, end).
    CollectingSink late_sink;
    auto late = service->Register(QuerySpec::Simple(workload.pattern)
                                      .Keyed()
                                      .WithAlgorithm("TRIVIAL")
                                      .WithSink(&late_sink));
    ASSERT_TRUE(late.ok());
    service->OnBatch(workload.stream.events().data() + cut,
                     workload.stream.size() - cut);
    service->Finish();

    EXPECT_EQ(Sequence(full_sink), full_ref.sequence);
    ExpectSameCounters(full->counters().value(), full_ref.counters, "full");
    EXPECT_EQ(Sequence(late_sink), suffix_ref.sequence);
    ExpectSameCounters(late->counters().value(), suffix_ref.counters,
                       "late");
    EXPECT_EQ(late->num_partitions().value(), suffix_ref.num_partitions);
  }
}

TEST(MultiQueryEquivalenceTest, MidStreamDeregisterSeesOnlyThePrefix) {
  KeyedWorkload workload = MakeKeyedWorkload(8, 6.0, 29);
  const size_t cut = workload.stream.size() / 2;
  Reference prefix_ref = RunStandaloneKeyed(workload, "GREEDY", 0, cut);
  Reference full_ref =
      RunStandaloneKeyed(workload, "TRIVIAL", 0, workload.stream.size());
  ASSERT_GT(prefix_ref.sequence.size(), 0u);

  for (size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ServiceOptions options;
    options.history = &workload.stream;
    options.num_types = workload.registry.size();
    options.num_threads = threads;
    options.batch_size = 32;
    auto service = CepService::Create(options).value();

    CollectingSink doomed_sink;
    auto doomed = service->Register(QuerySpec::Simple(workload.pattern)
                                        .Keyed()
                                        .WithAlgorithm("GREEDY")
                                        .WithSink(&doomed_sink));
    CollectingSink full_sink;
    auto full = service->Register(QuerySpec::Simple(workload.pattern)
                                      .Keyed()
                                      .WithAlgorithm("TRIVIAL")
                                      .WithSink(&full_sink));
    ASSERT_TRUE(doomed.ok());
    ASSERT_TRUE(full.ok());

    service->OnBatch(workload.stream.events().data(), cut);
    // Deregistered mid-stream: must see exactly events [0, cut),
    // including its Finish-time (trailing-window) matches.
    ASSERT_TRUE(doomed->Deregister().ok());
    service->OnBatch(workload.stream.events().data() + cut,
                     workload.stream.size() - cut);
    service->Finish();

    EXPECT_EQ(Sequence(doomed_sink), prefix_ref.sequence);
    ExpectSameCounters(doomed->counters().value(), prefix_ref.counters,
                       "doomed");
    EXPECT_EQ(doomed->num_partitions().value(), prefix_ref.num_partitions);
    EXPECT_EQ(Sequence(full_sink), full_ref.sequence);
    ExpectSameCounters(full->counters().value(), full_ref.counters, "full");
  }
}

/// The standalone single-threaded reference for a query fed exactly
/// `events`: one PartitionedRuntime, finished at the end.
std::vector<std::string> RunStandalonePartitioned(
    const KeyedWorkload& workload, const SimplePattern& pattern,
    const std::string& algorithm, const std::vector<EventPtr>& events) {
  CollectingSink sink;
  PartitionedRuntime runtime(pattern, workload.stream,
                             workload.registry.size(), algorithm, &sink);
  runtime.OnBatch(events.data(), events.size());
  runtime.Finish();
  return Sequence(sink);
}

TEST(MultiQueryEquivalenceTest, MidStreamDeregisterFlushesAtTheCut) {
  // Trailing negation: a deregistered query's engines emit matches when
  // they are finished at the cut. After the cut one shard — the owner of
  // the lowest partition with such a flush — gets no events, yet must
  // still pass the cut: its flush leads the query's final matches.
  // Each query's delivered sequence must equal its standalone run on its
  // own sub-stream, on every repetition.
  KeyedWorkload workload = MakeKeyedWorkload(16, 4.0, 43);
  SimplePattern pattern = PatternBuilder(OperatorKind::kSeq,
                                         workload.registry)
                              .Event("A", "a")
                              .Event("B", "b")
                              .NegatedEvent("C", "c")
                              .Within(0.2)
                              .Build();
  const std::vector<EventPtr>& events = workload.stream.events();
  const size_t cut = events.size() / 2;
  const std::vector<EventPtr> prefix(events.begin(), events.begin() + cut);

  // The deregistered query's reference, and the partitions its engines
  // flush matches from when finished at the cut.
  CollectingSink doomed_ref_sink;
  PartitionedRuntime doomed_ref_runtime(pattern, workload.stream,
                                        workload.registry.size(), "GREEDY",
                                        &doomed_ref_sink);
  doomed_ref_runtime.OnBatch(prefix.data(), prefix.size());
  const size_t before_flush = doomed_ref_sink.matches.size();
  doomed_ref_runtime.Finish();
  std::set<uint32_t> flushed_partitions;
  for (size_t i = before_flush; i < doomed_ref_sink.matches.size(); ++i) {
    flushed_partitions.insert(
        doomed_ref_sink.matches[i].slots[0][0]->partition);
  }
  ASSERT_FALSE(flushed_partitions.empty());
  const std::vector<std::string> doomed_ref = Sequence(doomed_ref_sink);

  for (size_t threads : {2u, 4u}) {
    ShardRouter shard_map(threads);
    const size_t idle_shard = shard_map.ShardOf(*flushed_partitions.begin());
    // Another shard flushes too, so the idle shard's flush order matters.
    bool other_shard_flushes = false;
    for (uint32_t partition : flushed_partitions) {
      other_shard_flushes |= shard_map.ShardOf(partition) != idle_shard;
    }
    ASSERT_TRUE(other_shard_flushes);
    // The events the surviving query sees: all of the prefix, then only
    // the suffix events whose partition the idle shard does not own.
    std::vector<EventPtr> suffix;
    for (size_t i = cut; i < events.size(); ++i) {
      if (shard_map.ShardOf(events[i]->partition) != idle_shard) {
        suffix.push_back(events[i]);
      }
    }
    std::vector<EventPtr> survivor_stream = prefix;
    survivor_stream.insert(survivor_stream.end(), suffix.begin(),
                           suffix.end());
    const std::vector<std::string> survivor_ref = RunStandalonePartitioned(
        workload, pattern, "TRIVIAL", survivor_stream);

    for (int repetition = 0; repetition < 3; ++repetition) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " repetition=" + std::to_string(repetition));
      ServiceOptions options;
      options.history = &workload.stream;
      options.num_types = workload.registry.size();
      options.num_threads = threads;
      options.batch_size = 16;
      auto service = CepService::Create(options).value();

      CollectingSink doomed_sink;
      auto doomed = service->Register(QuerySpec::Simple(pattern)
                                          .Keyed()
                                          .WithAlgorithm("GREEDY")
                                          .WithSink(&doomed_sink));
      CollectingSink survivor_sink;
      auto survivor = service->Register(QuerySpec::Simple(pattern)
                                            .Keyed()
                                            .WithAlgorithm("TRIVIAL")
                                            .WithSink(&survivor_sink));
      ASSERT_TRUE(doomed.ok());
      ASSERT_TRUE(survivor.ok());

      service->OnBatch(prefix.data(), prefix.size());
      ASSERT_TRUE(doomed->Deregister().ok());
      service->OnBatch(suffix.data(), suffix.size());
      service->Finish();

      EXPECT_EQ(Sequence(doomed_sink), doomed_ref);
      EXPECT_EQ(Sequence(survivor_sink), survivor_ref);
    }
  }
}

TEST(MultiQueryEquivalenceTest, AsyncIngestFansToEveryQuery) {
  // Two keyed queries over one async-ingested synthetic feed: each must
  // match its standalone ProcessStream reference (the KeyedEventSource
  // emits exactly the materialized workload sequence).
  KeyedWorkload workload = MakeKeyedWorkload(6, 5.0, 31);
  Reference greedy_ref =
      RunStandaloneKeyed(workload, "GREEDY", 0, workload.stream.size());
  Reference trivial_ref =
      RunStandaloneKeyed(workload, "TRIVIAL", 0, workload.stream.size());

  for (size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ServiceOptions options;
    options.history = &workload.stream;
    options.num_types = workload.registry.size();
    options.num_threads = threads;
    auto service = CepService::Create(options).value();

    CollectingSink greedy_sink;
    CollectingSink trivial_sink;
    auto greedy = service->Register(QuerySpec::Simple(workload.pattern)
                                        .Keyed()
                                        .WithAlgorithm("GREEDY")
                                        .WithSink(&greedy_sink));
    auto trivial = service->Register(QuerySpec::Simple(workload.pattern)
                                         .Keyed()
                                         .WithAlgorithm("TRIVIAL")
                                         .WithSink(&trivial_sink));
    ASSERT_TRUE(greedy.ok());
    ASSERT_TRUE(trivial.ok());

    IngestResult result = service->ProcessSourceAsync(
        std::make_unique<KeyedEventSource>(6, 5.0, 31));
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.events, workload.stream.size());
    service->Finish();

    EXPECT_EQ(Sequence(greedy_sink), greedy_ref.sequence);
    ExpectSameCounters(greedy->counters().value(), greedy_ref.counters,
                       "greedy");
    EXPECT_EQ(Sequence(trivial_sink), trivial_ref.sequence);
    ExpectSameCounters(trivial->counters().value(), trivial_ref.counters,
                       "trivial");
  }
}

TEST(MultiQueryEquivalenceTest, SixteenQueriesOneService) {
  // Scale check: 16 identical queries on one service all reproduce the
  // single-query reference — the fan-out is invisible in each query's
  // output.
  KeyedWorkload workload = MakeKeyedWorkload(6, 3.0, 37);
  Reference ref =
      RunStandaloneKeyed(workload, "GREEDY", 0, workload.stream.size());
  ASSERT_GT(ref.sequence.size(), 0u);

  ServiceOptions options;
  options.history = &workload.stream;
  options.num_types = workload.registry.size();
  options.num_threads = 4;
  auto service = CepService::Create(options).value();

  constexpr size_t kQueries = 16;
  std::vector<CollectingSink> sinks(kQueries);
  std::vector<QueryHandle> handles;
  for (size_t q = 0; q < kQueries; ++q) {
    auto handle = service->Register(QuerySpec::Simple(workload.pattern)
                                        .Keyed()
                                        .WithSink(&sinks[q]));
    ASSERT_TRUE(handle.ok());
    handles.push_back(*handle);
  }
  service->ProcessStream(workload.stream);
  service->Finish();

  for (size_t q = 0; q < kQueries; ++q) {
    SCOPED_TRACE("query=" + std::to_string(q));
    EXPECT_EQ(Sequence(sinks[q]), ref.sequence);
    ExpectSameCounters(handles[q].counters().value(), ref.counters,
                       "query " + std::to_string(q));
  }
}

}  // namespace
}  // namespace cepjoin
