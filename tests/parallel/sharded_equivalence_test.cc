// Sharded / single-threaded equivalence: the same keyed stream through
// PartitionedRuntime and ShardedRuntime at 1, 2, and 4 threads must
// yield identical match sets, identical per-partition plans, and
// identical summed counters — parallelism must be invisible in the
// output.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "adaptive/partitioned_runtime.h"
#include "api/keyed_runtime.h"
#include "durable/snapshot_codec.h"
#include "parallel/sharded_runtime.h"
#include "pattern/pattern.h"
#include "workload/keyed_generator.h"

namespace cepjoin {
namespace {

struct Reference {
  std::vector<std::string> sorted_fingerprints;
  std::vector<std::string> emission_order;  // fingerprints, arrival order
  std::vector<EventSerial> emit_serials;    // same order
  EngineCounters counters;
  size_t num_partitions = 0;
};

Reference RunPartitioned(const KeyedWorkload& workload,
                         const SimplePattern& pattern,
                         const std::string& algorithm) {
  CollectingSink sink;
  PartitionedRuntime runtime(pattern, workload.stream,
                             workload.registry.size(), algorithm, &sink);
  runtime.ProcessStream(workload.stream);
  runtime.Finish();
  Reference ref;
  ref.sorted_fingerprints = sink.Fingerprints();
  for (const Match& m : sink.matches) {
    ref.emission_order.push_back(m.Fingerprint());
    ref.emit_serials.push_back(m.emit_serial);
  }
  ref.counters = runtime.TotalCounters();
  ref.num_partitions = runtime.num_partitions();
  return ref;
}

Reference RunPartitioned(const KeyedWorkload& workload,
                         const std::string& algorithm) {
  return RunPartitioned(workload, workload.pattern, algorithm);
}

TEST(ShardedEquivalenceTest, MatchSetsAndCountersIdenticalAcrossThreads) {
  KeyedWorkload workload = MakeKeyedWorkload(8, 6.0, 11);
  Reference ref = RunPartitioned(workload, "GREEDY");
  ASSERT_GT(ref.sorted_fingerprints.size(), 0u);
  ASSERT_EQ(ref.num_partitions, 8u);

  std::vector<std::string> previous_drain;
  for (size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    CollectingSink sink;
    ShardedOptions options;
    options.num_threads = threads;
    options.batch_size = 64;  // force multiple batches per shard
    ShardedRuntime runtime(workload.pattern, workload.stream,
                           workload.registry.size(), "GREEDY",
                           &sink, options);
    EXPECT_EQ(runtime.num_threads(), threads);
    runtime.ProcessStream(workload.stream);
    runtime.Finish();

    // Identical sorted match sets.
    EXPECT_EQ(sink.Fingerprints(), ref.sorted_fingerprints);
    // Identical summed counters.
    EngineCounters total = runtime.TotalCounters();
    EXPECT_EQ(total.events_processed, ref.counters.events_processed);
    EXPECT_EQ(total.events_processed, workload.stream.size());
    EXPECT_EQ(total.matches_emitted, ref.counters.matches_emitted);
    EXPECT_EQ(total.matches_emitted, sink.matches.size());
    EXPECT_EQ(total.instances_created, ref.counters.instances_created);
    EXPECT_EQ(runtime.num_partitions(), ref.num_partitions);

    // The drained sequence is canonical: byte-identical at every thread
    // count.
    std::vector<std::string> drain;
    for (const Match& m : sink.matches) drain.push_back(m.Fingerprint());
    if (!previous_drain.empty()) {
      EXPECT_EQ(drain, previous_drain);
    }
    previous_drain = std::move(drain);
  }
}

TEST(ShardedEquivalenceTest, BatchSizeSweepIsInvisibleInOutput) {
  // Batched evaluation is an amortization, never a semantic: every
  // (batch size, thread count) combination drains the same canonical
  // match sequence and sums to the same counters as the single-threaded
  // per-event reference.
  KeyedWorkload workload = MakeKeyedWorkload(8, 5.0, 19);
  Reference ref = RunPartitioned(workload, "GREEDY");
  ASSERT_GT(ref.sorted_fingerprints.size(), 0u);

  for (size_t batch_size : {1u, 7u, 256u}) {
    for (size_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("batch_size=" + std::to_string(batch_size) +
                   " threads=" + std::to_string(threads));
      CollectingSink sink;
      ShardedOptions options;
      options.num_threads = threads;
      options.batch_size = batch_size;
      ShardedRuntime runtime(workload.pattern, workload.stream,
                             workload.registry.size(), "GREEDY", &sink,
                             options);
      runtime.ProcessStream(workload.stream);
      runtime.Finish();
      std::vector<std::string> drain;
      for (const Match& m : sink.matches) drain.push_back(m.Fingerprint());
      EXPECT_EQ(drain, ref.emission_order);
      EngineCounters total = runtime.TotalCounters();
      EXPECT_EQ(total.events_processed, ref.counters.events_processed);
      EXPECT_EQ(total.matches_emitted, ref.counters.matches_emitted);
      EXPECT_EQ(total.instances_created, ref.counters.instances_created);
      EXPECT_EQ(total.predicate_evals, ref.counters.predicate_evals);
    }
  }
}

TEST(ShardedEquivalenceTest, RuntimeOptionsBatchSizePlumbsToShards) {
  // The facade forwards RuntimeOptions::batch_size to the router; a
  // deliberately tiny batch size must not change the output.
  KeyedWorkload workload = MakeKeyedWorkload(6, 4.0, 29);
  Reference ref = RunPartitioned(workload, "GREEDY");

  RuntimeOptions options;
  options.algorithm = "GREEDY";
  options.num_threads = 3;
  options.batch_size = 2;
  CollectingSink sink;
  KeyedCepRuntime runtime(workload.pattern, workload.stream,
                          workload.registry.size(), options, &sink);
  runtime.ProcessStream(workload.stream);
  runtime.Finish();
  EXPECT_EQ(sink.Fingerprints(), ref.sorted_fingerprints);
  EXPECT_EQ(runtime.TotalCounters().predicate_evals,
            ref.counters.predicate_evals);
}

TEST(ShardedEquivalenceTest, DrainOrderMatchesSingleThreadedEmissionOrder) {
  // OnEvent-time matches are emitted in global arrival order by the
  // single-threaded runtime; the canonical drain reproduces exactly that
  // order.
  KeyedWorkload workload = MakeKeyedWorkload(6, 4.0, 23);
  Reference ref = RunPartitioned(workload, "GREEDY");
  ASSERT_GT(ref.emission_order.size(), 0u);

  CollectingSink sink;
  ShardedOptions options;
  options.num_threads = 3;
  options.batch_size = 32;
  ShardedRuntime runtime(workload.pattern, workload.stream,
                           workload.registry.size(), "GREEDY",
                         &sink, options);
  runtime.ProcessStream(workload.stream);
  runtime.Finish();
  std::vector<std::string> drain;
  for (const Match& m : sink.matches) drain.push_back(m.Fingerprint());
  // Sorted sets always agree; compare sequences on the emit_serial-sorted
  // reference (single-threaded emission is already emit_serial-ordered).
  EXPECT_EQ(drain, ref.emission_order);
}

TEST(ShardedEquivalenceTest, FinishTimeFlushesDrainInEmissionOrder) {
  // A trailing negation makes engines emit matches from Finish(), stamped
  // with their partition's LAST serial. PartitionedRuntime emits them
  // after every other match, in ascending partition order; the sharded
  // drain must too, instead of interleaving them at those old serials.
  KeyedWorkload workload = MakeKeyedWorkload(64, 6.0, 11);
  SimplePattern pattern = PatternBuilder(OperatorKind::kSeq,
                                         workload.registry)
                              .Event("A", "a")
                              .Event("B", "b")
                              .NegatedEvent("C", "c")
                              .Within(0.05)
                              .Build();
  Reference ref = RunPartitioned(workload, pattern, "GREEDY");
  ASSERT_GT(ref.emission_order.size(), 0u);

  // The case must really be exercised: some match is emitted after one
  // with a larger emit_serial (a Finish-time flush).
  size_t out_of_serial_order = 0;
  EventSerial max_serial = 0;
  for (EventSerial serial : ref.emit_serials) {
    if (serial < max_serial) ++out_of_serial_order;
    max_serial = std::max(max_serial, serial);
  }
  ASSERT_GT(out_of_serial_order, 0u);

  for (size_t batch_size : {1u, 7u, 256u}) {
    for (size_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("batch_size=" + std::to_string(batch_size) +
                   " threads=" + std::to_string(threads));
      CollectingSink sink;
      ShardedOptions options;
      options.num_threads = threads;
      options.batch_size = batch_size;
      ShardedRuntime runtime(pattern, workload.stream,
                             workload.registry.size(), "GREEDY", &sink,
                             options);
      runtime.ProcessStream(workload.stream);
      runtime.Finish();
      std::vector<std::string> drain;
      for (const Match& m : sink.matches) drain.push_back(m.Fingerprint());
      EXPECT_EQ(drain, ref.emission_order);
    }
  }
}

TEST(ShardedEquivalenceTest, CheckpointDeliversEverythingReleasable) {
  // Matches reach the sink as the shards' watermark passes them, not at
  // Finish(). CaptureCheckpoint quiesces every shard, so right after it
  // the sink must hold exactly what the single-threaded runtime had
  // emitted after the same events, and the snapshot no held entries.
  KeyedWorkload workload = MakeKeyedWorkload(8, 6.0, 47);
  SimplePattern negation = PatternBuilder(OperatorKind::kSeq,
                                          workload.registry)
                               .Event("A", "a")
                               .Event("B", "b")
                               .NegatedEvent("C", "c")
                               .Within(0.05)
                               .Build();
  const std::vector<EventPtr>& events = workload.stream.events();
  const size_t half = events.size() / 2;
  for (const SimplePattern* pattern : {&workload.pattern, &negation}) {
    SCOPED_TRACE(pattern->Describe(&workload.registry));
    CollectingSink single_sink;
    PartitionedRuntime single(*pattern, workload.stream,
                              workload.registry.size(), "GREEDY",
                              &single_sink);
    single.OnBatch(events.data(), half);
    ASSERT_GT(single_sink.matches.size(), 0u);

    CollectingSink sink;
    ShardedOptions options;
    options.num_threads = 2;
    options.batch_size = 32;
    ShardedRuntime runtime(*pattern, workload.stream,
                           workload.registry.size(), "GREEDY", &sink,
                           options);
    runtime.OnBatch(events.data(), half);
    ShardedCheckpoint checkpoint;
    ASSERT_TRUE(runtime.CaptureCheckpoint(&checkpoint).ok());

    std::vector<std::string> delivered, expected;
    for (const Match& m : sink.matches) delivered.push_back(m.Fingerprint());
    for (const Match& m : single_sink.matches) {
      expected.push_back(m.Fingerprint());
    }
    EXPECT_EQ(delivered, expected);
    ASSERT_EQ(checkpoint.sink_blobs.size(), 2u);
    for (const std::string& blob : checkpoint.sink_blobs) {
      EngineStateReader reader(blob);
      ASSERT_TRUE(reader.Init().ok());
      EXPECT_EQ(reader.payload().U64(), 0u);
      EXPECT_TRUE(reader.status().ok());
    }
    runtime.Finish();
  }
}

TEST(ShardedEquivalenceTest, PlansIdenticalToPartitionedRuntime) {
  KeyedWorkload workload = MakeKeyedWorkload(8, 6.0, 31);

  CollectingSink single_sink;
  PartitionedRuntime single(workload.pattern, workload.stream,
                            workload.registry.size(), "GREEDY",
                            &single_sink);
  single.ProcessStream(workload.stream);
  single.Finish();

  CollectingSink sharded_sink;
  ShardedOptions options;
  options.num_threads = 4;
  ShardedRuntime sharded(workload.pattern, workload.stream,
                         workload.registry.size(), "GREEDY", &sharded_sink,
                         options);
  sharded.ProcessStream(workload.stream);
  sharded.Finish();

  ASSERT_EQ(single.num_partitions(), 8u);
  ASSERT_EQ(sharded.num_partitions(), 8u);
  for (uint32_t partition = 0; partition < 8; ++partition) {
    EXPECT_EQ(sharded.PlanFor(partition).Describe(),
              single.PlanFor(partition).Describe())
        << "partition " << partition;
  }
}

TEST(ShardedEquivalenceTest, KeyedFacadeDispatchesOnNumThreads) {
  KeyedWorkload workload = MakeKeyedWorkload(4, 3.0, 41);

  RuntimeOptions single_options;
  single_options.algorithm = "GREEDY";
  single_options.num_threads = 1;
  CollectingSink single_sink;
  KeyedCepRuntime single(workload.pattern, workload.stream,
                         workload.registry.size(), single_options,
                         &single_sink);
  EXPECT_FALSE(single.sharded());
  single.ProcessStream(workload.stream);
  single.Finish();

  RuntimeOptions sharded_options;
  sharded_options.algorithm = "GREEDY";
  sharded_options.num_threads = 2;
  CollectingSink sharded_sink;
  KeyedCepRuntime sharded(workload.pattern, workload.stream,
                          workload.registry.size(), sharded_options,
                          &sharded_sink);
  EXPECT_TRUE(sharded.sharded());
  EXPECT_EQ(sharded.num_threads(), 2u);
  sharded.ProcessStream(workload.stream);
  sharded.Finish();

  EXPECT_EQ(sharded_sink.Fingerprints(), single_sink.Fingerprints());
  EXPECT_EQ(sharded.TotalCounters().events_processed,
            single.TotalCounters().events_processed);
}

TEST(ShardedEquivalenceTest, StreamingOnEventPathEquivalent) {
  // Event-at-a-time ingestion (partial trailing batch) drains the same
  // match set as whole-stream processing.
  KeyedWorkload workload = MakeKeyedWorkload(5, 3.0, 53);
  Reference ref = RunPartitioned(workload, "GREEDY");

  CollectingSink sink;
  ShardedOptions options;
  options.num_threads = 2;
  options.batch_size = 7;  // deliberately odd: exercises partial flushes
  ShardedRuntime runtime(workload.pattern, workload.stream,
                           workload.registry.size(), "GREEDY",
                         &sink, options);
  for (const EventPtr& e : workload.stream.events()) runtime.OnEvent(e);
  runtime.Finish();
  EXPECT_EQ(sink.Fingerprints(), ref.sorted_fingerprints);
}

}  // namespace
}  // namespace cepjoin
