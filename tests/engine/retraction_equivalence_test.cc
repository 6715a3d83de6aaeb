// Delta-processing equivalence: feeding (insert S; retract R ⊆ S) must
// yield the same NET match multiset as feeding S∖R, for both engine
// classes, every pattern family, any batch size, and any thread count —
// and retracting everything must leave an engine quiescent: zero net
// matches and every live-resource counter (instances, buffered events,
// all byte gauges) back at exactly zero.
//
// Matches are compared by canonical slot identity (type:timestamp per
// event) rather than Match::Fingerprint, because serials differ between
// the delta stream and the S∖R stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "adaptive/partitioned_runtime.h"
#include "engine/engine_factory.h"
#include "parallel/sharded_runtime.h"
#include "stats/collector.h"
#include "workload/keyed_generator.h"
#include "workload/pattern_generator.h"

namespace cepjoin {
namespace {

// ---------------------------------------------------------------------
// Canonical (serial-free) match identity.

std::string CanonicalEventId(const Event& e) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%u@%.17g", static_cast<unsigned>(e.type),
                e.ts);
  return buf;
}

std::string CanonicalMatchId(const Match& m) {
  std::string id;
  for (const auto& slot : m.slots) {
    std::vector<std::string> members;
    for (const EventPtr& e : slot) members.push_back(CanonicalEventId(*e));
    std::sort(members.begin(), members.end());
    for (const std::string& s : members) {
      id += s;
      id += ',';
    }
    id += '|';
  }
  return id;
}

// ---------------------------------------------------------------------
// Delta-stream construction: S with interleaved retractions, and S∖R.

struct DeltaStreams {
  EventStream delta;      // every insert of S + a retraction per R member
  EventStream reference;  // S ∖ R, inserts only
  size_t num_retractions = 0;
};

using RetractKey = std::tuple<TypeId, uint32_t, Timestamp>;

// Retracts every `retract_every`-th eligible event, `delay` seconds
// after its occurrence. Eligible events are the LAST occurrence of
// their (type, partition, ts) key — the ledger resolves LIFO, so only
// last occurrences identify a unique target — and not of an excluded
// (negated) type. retract_every == 1 retracts every eligible event.
DeltaStreams BuildDeltaStreams(const EventStream& base,
                               const std::vector<TypeId>& excluded_types,
                               int retract_every, double delay) {
  const std::vector<EventPtr>& events = base.events();
  std::map<RetractKey, size_t> last_of_key;
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = *events[i];
    last_of_key[RetractKey(e.type, e.partition, e.ts)] = i;
  }

  std::vector<uint8_t> retracted(events.size(), 0);
  std::vector<Event> retractions;
  int eligible_seen = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = *events[i];
    if (last_of_key.at(RetractKey(e.type, e.partition, e.ts)) != i) continue;
    bool excluded = false;
    for (TypeId t : excluded_types) excluded |= (e.type == t);
    if (excluded) continue;
    if (eligible_seen++ % retract_every != 0) continue;
    retracted[i] = 1;
    Event r;
    r.type = e.type;
    r.partition = e.partition;
    r.polarity = -1;
    r.ts = e.ts + delay;
    r.target_ts = e.ts;
    retractions.push_back(r);
  }

  DeltaStreams out;
  out.num_retractions = retractions.size();
  out.delta.EnableRetractions();
  size_t j = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    // Retractions strictly before the next insert; an insert landing on
    // the same timestamp as a pending retraction goes first, matching
    // the ingest merge's insert-before-retraction tie-break.
    while (j < retractions.size() && retractions[j].ts < events[i]->ts) {
      out.delta.Append(retractions[j++]);
    }
    Event copy = *events[i];
    copy.serial = 0;
    copy.partition_seq = 0;
    out.delta.Append(copy);
    if (!retracted[i]) {
      Event survivor = *events[i];
      survivor.serial = 0;
      survivor.partition_seq = 0;
      out.reference.Append(survivor);
    }
  }
  while (j < retractions.size()) out.delta.Append(retractions[j++]);
  return out;
}

// ---------------------------------------------------------------------
// Feeding + net-multiset accounting.

struct NetResult {
  /// Canonical id -> net count (emissions minus revocations), zero
  /// entries erased.
  std::map<std::string, int64_t> net;
  /// Emission-ordered, polarity-tagged canonical ids ("+id" / "-id").
  std::vector<std::string> drain;
  uint64_t gross = 0;
  uint64_t revoked = 0;
  EngineCounters counters;
  bool revocation_without_match = false;
};

NetResult Account(const std::vector<Match>& matches) {
  NetResult r;
  for (const Match& m : matches) {
    std::string id = CanonicalMatchId(m);
    if (m.IsRevocation()) {
      ++r.revoked;
      // A revocation must always land on an outstanding match: the
      // engines emit it only for a logged prior emission, and the
      // concurrent sink drains it after that emission.
      if (r.net[id] <= 0) r.revocation_without_match = true;
      r.net[id] -= 1;
      r.drain.push_back("-" + id);
    } else {
      ++r.gross;
      r.net[id] += 1;
      r.drain.push_back("+" + id);
    }
  }
  for (auto it = r.net.begin(); it != r.net.end();) {
    it = it->second == 0 ? r.net.erase(it) : std::next(it);
  }
  return r;
}

NetResult FeedEngine(const SimplePattern& pattern, const EnginePlan& plan,
                     const EventStream& stream, size_t batch_size) {
  CollectingSink sink;
  std::unique_ptr<Engine> engine = BuildEngine(pattern, plan, &sink);
  const std::vector<EventPtr>& events = stream.events();
  if (batch_size == 0) {
    for (const EventPtr& e : events) engine->OnEvent(e);
  } else {
    for (size_t i = 0; i < events.size(); i += batch_size) {
      engine->OnBatch(events.data() + i,
                      std::min(batch_size, events.size() - i));
    }
  }
  engine->Finish();
  NetResult r = Account(sink.matches);
  r.counters = engine->counters();
  return r;
}

void ExpectQuiescent(const EngineCounters& c) {
  EXPECT_EQ(c.live_instances, 0u);
  EXPECT_EQ(c.buffered_events, 0u);
  EXPECT_EQ(c.instance_bytes, 0u);
  EXPECT_EQ(c.buffered_bytes, 0u);
  EXPECT_EQ(c.store_bytes, 0u);
  EXPECT_EQ(c.CurrentBytes(), 0u);
  EXPECT_EQ(c.matches_emitted, c.matches_revoked);
}

// ---------------------------------------------------------------------
// Single-engine matrix.

class RetractionEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StockGeneratorConfig stock;
    stock.num_symbols = 10;
    stock.duration_seconds = 6.0;
    universe_ = new StockUniverse(GenerateStockStream(stock));
    collector_ =
        new StatsCollector(universe_->stream, universe_->registry.size());
  }
  static void TearDownTestSuite() {
    delete collector_;
    collector_ = nullptr;
    delete universe_;
    universe_ = nullptr;
  }

  static std::vector<TypeId> NegatedTypes(const SimplePattern& pattern) {
    std::vector<TypeId> types;
    for (int pos : pattern.negated_positions()) {
      types.push_back(pattern.events()[pos].type);
    }
    return types;
  }

  /// The full per-engine check: net(S + retract R) == matches(S∖R) at
  /// every batch size, deterministic delta emission order across batch
  /// sizes, counters balanced, and the delta machinery invisible to an
  /// insert-only stream.
  static void ExpectRetractionEquivalence(const std::string& algorithm,
                                          PatternFamily family, int size,
                                          uint64_t seed, double window = 1.0,
                                          int retract_every = 4) {
    PatternGenConfig pg;
    pg.family = family;
    pg.size = size;
    pg.window = window;
    pg.seed = seed;
    SimplePattern pattern = GeneratePattern(*universe_, pg)[0];
    SimplePattern delta_pattern = pattern.WithDeltaInput();
    CostFunction cost = MakeCostFunction(
        pattern, collector_->CollectForPattern(pattern), 0.0);
    EnginePlan plan = MakePlan(algorithm, cost).value();

    // Retracting a negated-type event could only ever *resurrect*
    // suppressed matches, which delta processing deliberately does not
    // do; keep R within positively-bound types.
    DeltaStreams streams = BuildDeltaStreams(
        universe_->stream, NegatedTypes(pattern), retract_every,
        window * 0.5);
    ASSERT_GT(streams.num_retractions, 0u);

    NetResult reference = FeedEngine(delta_pattern, plan, streams.reference, 0);
    ASSERT_GT(reference.gross, 0u);
    EXPECT_EQ(reference.revoked, 0u);

    std::vector<std::string> first_drain;
    for (size_t batch_size : {1u, 7u, 1024u}) {
      SCOPED_TRACE(algorithm + " batch_size=" + std::to_string(batch_size));
      NetResult delta = FeedEngine(delta_pattern, plan, streams.delta,
                                   batch_size);
      EXPECT_EQ(delta.net, reference.net);
      EXPECT_FALSE(delta.revocation_without_match);
      EXPECT_EQ(delta.counters.retractions_processed,
                streams.num_retractions);
      EXPECT_EQ(delta.counters.matches_emitted, delta.gross);
      EXPECT_EQ(delta.counters.matches_revoked, delta.revoked);
      EXPECT_EQ(delta.gross - delta.revoked, reference.gross);
      // Batching must not reorder the ± output either.
      if (first_drain.empty()) {
        first_drain = delta.drain;
      } else {
        EXPECT_EQ(delta.drain, first_drain);
      }
    }

    // Insert-only runs must not notice the delta refactor at all: the
    // same stream through the delta-enabled pattern reproduces the
    // plain pattern bit for bit — emission order and every counter.
    NetResult plain = FeedEngine(pattern, plan, universe_->stream, 0);
    NetResult tracked = FeedEngine(delta_pattern, plan, universe_->stream, 0);
    EXPECT_EQ(tracked.drain, plain.drain);
    EXPECT_EQ(tracked.counters.predicate_evals,
              plain.counters.predicate_evals);
    EXPECT_EQ(tracked.counters.instances_created,
              plain.counters.instances_created);
    EXPECT_EQ(tracked.counters.matches_emitted,
              plain.counters.matches_emitted);
    EXPECT_EQ(tracked.counters.buffered_bytes, plain.counters.buffered_bytes);
    EXPECT_EQ(tracked.counters.instance_bytes, plain.counters.instance_bytes);
    EXPECT_EQ(tracked.counters.store_bytes, plain.counters.store_bytes);
    EXPECT_EQ(tracked.counters.retractions_processed, 0u);
    EXPECT_EQ(tracked.counters.matches_revoked, 0u);
  }

  /// Retract every eligible event: the engine must end exactly where it
  /// started — no net matches and every live gauge at zero.
  static void ExpectFullRetractQuiescence(const std::string& algorithm,
                                          PatternFamily family, int size,
                                          uint64_t seed, double window = 1.0) {
    PatternGenConfig pg;
    pg.family = family;
    pg.size = size;
    pg.window = window;
    pg.seed = seed;
    SimplePattern pattern =
        GeneratePattern(*universe_, pg)[0].WithDeltaInput();
    CostFunction cost = MakeCostFunction(
        pattern, collector_->CollectForPattern(pattern), 0.0);
    EnginePlan plan = MakePlan(algorithm, cost).value();

    DeltaStreams streams = BuildDeltaStreams(universe_->stream,
                                             NegatedTypes(pattern),
                                             /*retract_every=*/1,
                                             window * 0.5);
    // Negated types stay inserted (excluded from R): their buffered
    // windows drain by sweep, so full quiescence needs a retract-all of
    // a pattern whose every type is positively bound — the families
    // below are chosen accordingly. Everything else must hit zero even
    // with negation present; assert per family on what must hold.
    NetResult delta = FeedEngine(pattern, plan, streams.delta, 7);
    EXPECT_EQ(delta.counters.retractions_processed, streams.num_retractions);
    EXPECT_TRUE(delta.net.empty());
    EXPECT_EQ(delta.gross, delta.revoked);
    if (NegatedTypes(pattern).empty()) {
      ASSERT_EQ(streams.num_retractions, universe_->stream.size());
      ExpectQuiescent(delta.counters);
    } else {
      EXPECT_EQ(delta.counters.live_instances, 0u);
      EXPECT_EQ(delta.counters.instance_bytes, 0u);
      EXPECT_EQ(delta.counters.store_bytes, 0u);
    }
  }

  static StockUniverse* universe_;
  static StatsCollector* collector_;
};

StockUniverse* RetractionEquivalenceTest::universe_ = nullptr;
StatsCollector* RetractionEquivalenceTest::collector_ = nullptr;

// --- NFA engine (order plans) ---

TEST_F(RetractionEquivalenceTest, NfaSequence) {
  ExpectRetractionEquivalence("GREEDY", PatternFamily::kSequence, 4, 71);
}

TEST_F(RetractionEquivalenceTest, NfaConjunction) {
  ExpectRetractionEquivalence("GREEDY", PatternFamily::kConjunction, 4, 89,
                              0.3);
}

TEST_F(RetractionEquivalenceTest, NfaNegation) {
  ExpectRetractionEquivalence("GREEDY", PatternFamily::kNegation, 4, 73);
}

TEST_F(RetractionEquivalenceTest, NfaKleene) {
  ExpectRetractionEquivalence("GREEDY", PatternFamily::kKleene, 3, 79, 0.5);
}

// --- Tree engine, ZSTREAM and DP-B plans ---

TEST_F(RetractionEquivalenceTest, TreeZstreamSequence) {
  ExpectRetractionEquivalence("ZSTREAM", PatternFamily::kSequence, 4, 83);
}

TEST_F(RetractionEquivalenceTest, TreeZstreamKleene) {
  ExpectRetractionEquivalence("ZSTREAM", PatternFamily::kKleene, 3, 101, 0.5);
}

TEST_F(RetractionEquivalenceTest, TreeDpbConjunction) {
  ExpectRetractionEquivalence("DP-B", PatternFamily::kConjunction, 4, 89,
                              0.3);
}

TEST_F(RetractionEquivalenceTest, TreeDpbNegation) {
  ExpectRetractionEquivalence("DP-B", PatternFamily::kNegation, 4, 97);
}

// --- Full-retract quiescence ---

TEST_F(RetractionEquivalenceTest, NfaFullRetractQuiescence) {
  ExpectFullRetractQuiescence("GREEDY", PatternFamily::kSequence, 4, 71);
}

TEST_F(RetractionEquivalenceTest, NfaKleeneFullRetractQuiescence) {
  ExpectFullRetractQuiescence("GREEDY", PatternFamily::kKleene, 3, 79, 0.5);
}

TEST_F(RetractionEquivalenceTest, NfaNegationFullRetract) {
  ExpectFullRetractQuiescence("GREEDY", PatternFamily::kNegation, 4, 73);
}

TEST_F(RetractionEquivalenceTest, TreeFullRetractQuiescence) {
  ExpectFullRetractQuiescence("ZSTREAM", PatternFamily::kSequence, 4, 83);
}

TEST_F(RetractionEquivalenceTest, TreeDpbFullRetractQuiescence) {
  ExpectFullRetractQuiescence("DP-B", PatternFamily::kConjunction, 4, 89,
                              0.3);
}

// ---------------------------------------------------------------------
// Sharded runtime: revocations drain deterministically at any thread
// count, and the net multiset matches the single-threaded S∖R feed.

TEST(RetractionShardedTest, NetEquivalenceAcrossThreadCounts) {
  KeyedWorkload workload = MakeKeyedWorkload(8, 4.0, 11);
  SimplePattern delta_pattern = workload.pattern.WithDeltaInput();
  DeltaStreams streams =
      BuildDeltaStreams(workload.stream, {}, /*retract_every=*/3,
                        workload.pattern.window() * 0.5);
  ASSERT_GT(streams.num_retractions, 0u);

  // Single-threaded S∖R reference (stats/plans from the full original
  // stream for every run, so all runs use identical plans).
  CollectingSink ref_sink;
  PartitionedRuntime reference(delta_pattern, workload.stream,
                               workload.registry.size(), "GREEDY", &ref_sink);
  reference.ProcessStream(streams.reference);
  reference.Finish();
  NetResult ref = Account(ref_sink.matches);
  ASSERT_GT(ref.gross, 0u);

  // Single-threaded delta feed: the emission-order baseline.
  CollectingSink single_sink;
  PartitionedRuntime single(delta_pattern, workload.stream,
                            workload.registry.size(), "GREEDY", &single_sink);
  single.ProcessStream(streams.delta);
  single.Finish();
  NetResult single_run = Account(single_sink.matches);
  EXPECT_EQ(single_run.net, ref.net);
  EXPECT_GT(single_run.revoked, 0u);
  EXPECT_FALSE(single_run.revocation_without_match);
  EXPECT_EQ(single.TotalCounters().retractions_processed,
            streams.num_retractions);

  std::vector<std::string> previous_drain;
  for (size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    CollectingSink sink;
    ShardedOptions options;
    options.num_threads = threads;
    options.batch_size = 64;
    ShardedRuntime runtime(delta_pattern, workload.stream,
                           workload.registry.size(), "GREEDY", &sink,
                           options);
    runtime.ProcessStream(streams.delta);
    runtime.Finish();
    NetResult run = Account(sink.matches);
    EXPECT_EQ(run.net, ref.net);
    // The canonical drain orders a revocation strictly after the match
    // it cancels (revocations carry the retraction's emit_serial), so
    // this holds at every thread count — and the sequence is
    // byte-identical across thread counts.
    EXPECT_FALSE(run.revocation_without_match);
    EngineCounters total = runtime.TotalCounters();
    EXPECT_EQ(total.retractions_processed, streams.num_retractions);
    EXPECT_EQ(total.matches_revoked, run.revoked);
    if (!previous_drain.empty()) {
      EXPECT_EQ(run.drain, previous_drain);
    }
    previous_drain = std::move(run.drain);
  }
}

TEST(RetractionShardedTest, FullRetractQuiescenceAcrossThreadCounts) {
  KeyedWorkload workload = MakeKeyedWorkload(6, 3.0, 23);
  SimplePattern delta_pattern = workload.pattern.WithDeltaInput();
  DeltaStreams streams =
      BuildDeltaStreams(workload.stream, {}, /*retract_every=*/1,
                        workload.pattern.window() * 0.5);
  ASSERT_EQ(streams.num_retractions, workload.stream.size());

  for (size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    CollectingSink sink;
    ShardedOptions options;
    options.num_threads = threads;
    options.batch_size = 32;
    ShardedRuntime runtime(delta_pattern, workload.stream,
                           workload.registry.size(), "GREEDY", &sink,
                           options);
    runtime.ProcessStream(streams.delta);
    runtime.Finish();
    NetResult run = Account(sink.matches);
    EXPECT_TRUE(run.net.empty());
    EXPECT_EQ(run.gross, run.revoked);
    ExpectQuiescent(runtime.TotalCounters());
  }
}

// ---------------------------------------------------------------------
// Whether a retraction revokes a logged match must not depend on how
// many matches the engine has logged. Sweep scans the revocation log
// only once it holds 64 entries, and forgets entries whose max_ts is
// behind now - window; ProcessRetraction must apply the same edge.
// Before it did, retracting A@0 at t = 10 below revoked all k = 63
// matches but none of k = 64.

struct LateRetractionRun {
  uint64_t emitted = 0;
  uint64_t revoked = 0;
};

// SEQ(A, B), window 1 s: A@0, k B's in [0.5, 0.57], 70 fillers of an
// unrelated type from t = 2, and a retraction of A@0 at `retract_at`
// (placed in timestamp order).
LateRetractionRun RunRetractionOfFirstEvent(const EnginePlan& plan, int k,
                                            Timestamp retract_at) {
  constexpr TypeId kA = 0, kB = 1, kFiller = 2;
  SimplePattern pattern =
      SimplePattern(OperatorKind::kSeq,
                    {{kA, "a", false, false}, {kB, "b", false, false}}, {},
                    1.0)
          .WithDeltaInput();
  auto make = [](TypeId type, Timestamp ts) {
    Event e;
    e.type = type;
    e.ts = ts;
    e.attrs = {0.0};
    return e;
  };
  Event retraction = make(kA, retract_at);
  retraction.polarity = -1;
  retraction.target_ts = 0.0;

  std::vector<Event> events = {make(kA, 0.0)};
  for (int i = 0; i < k; ++i) {
    events.push_back(make(kB, 0.5 + 0.07 * i / std::max(k - 1, 1)));
  }
  for (int i = 0; i < 70; ++i) events.push_back(make(kFiller, 2.0 + 0.01 * i));
  EventStream stream;
  stream.EnableRetractions();
  bool retracted = false;
  for (const Event& e : events) {
    if (!retracted && retract_at < e.ts) {
      stream.Append(retraction);
      retracted = true;
    }
    stream.Append(e);
  }
  if (!retracted) stream.Append(retraction);

  CollectingSink sink;
  std::unique_ptr<Engine> engine = BuildEngine(pattern, plan, &sink);
  for (const EventPtr& e : stream.events()) engine->OnEvent(e);
  engine->Finish();
  LateRetractionRun run;
  for (const Match& m : sink.matches) {
    ++(m.IsRevocation() ? run.revoked : run.emitted);
  }
  return run;
}

TEST(LateRetractionTest, RevocationDoesNotDependOnTheLogSize) {
  EnginePlan nfa;
  nfa.kind = EnginePlan::Kind::kOrder;
  nfa.order = OrderPlan::Identity(2);
  EnginePlan tree;
  tree.kind = EnginePlan::Kind::kTree;
  tree.tree = TreePlan::LeftDeep(OrderPlan::Identity(2));
  for (const EnginePlan* plan : {&nfa, &tree}) {
    for (int k : {1, 63, 64, 70}) {
      SCOPED_TRACE(std::string(plan == &nfa ? "nfa" : "tree") +
                   " k=" + std::to_string(k));
      // Behind the window: every match ended by 0.57 < 10 - 1.
      LateRetractionRun late = RunRetractionOfFirstEvent(*plan, k, 10.0);
      EXPECT_EQ(late.emitted, static_cast<uint64_t>(k));
      EXPECT_EQ(late.revoked, 0u);
      // Inside the window every match containing A@0 is revoked.
      LateRetractionRun live = RunRetractionOfFirstEvent(*plan, k, 1.5);
      EXPECT_EQ(live.emitted, static_cast<uint64_t>(k));
      EXPECT_EQ(live.revoked, static_cast<uint64_t>(k));
    }
  }
}

}  // namespace
}  // namespace cepjoin
