#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <queue>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "pattern/condition.h"
#include "pattern/nested.h"
#include "workload/pattern_generator.h"
#include "workload/stock_generator.h"

namespace cepjoin {
namespace e2e {

namespace {

// Seeds of the parts of a workload that define it rather than sample it:
// the stock symbol table and the keyed partition layout. Fixing them
// makes every --seed a fresh draw of the same workload, so run-to-run
// spread measures the program, not a different query mix.
constexpr uint64_t kSymbolTableSeed = 20180801;
constexpr uint64_t kPartitionLayoutSeed = 4099;

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ull + stream;
}

// ---- paper_mix: the stock stream and the paper's five families ----------

constexpr int kStockSymbols = 16;

struct StockSymbol {
  double rate;
  double drift;
  double price;
};

std::vector<StockSymbol> FixedSymbolTable() {
  Rng rng(kSymbolTableSeed);
  std::vector<StockSymbol> table;
  for (int i = 0; i < kStockSymbols; ++i) {
    StockSymbol s;
    s.rate = rng.UniformReal(1.0, 15.0);
    s.drift = rng.Normal(0.0, 1.2);
    s.price = rng.UniformReal(50.0, 150.0);
    table.push_back(s);
  }
  return table;
}

/// Random-walk prices over a fixed symbol table, the shape of
/// workload/stock_generator.h. Each symbol updates on a grid at its
/// rate with a seed-drawn phase and jitter of up to a quarter period,
/// rather than as a Poisson process: window contents then hold a steady
/// number of events per symbol, so match counts, and with them a
/// pattern's cost, vary less from seed to seed than with Poisson
/// arrivals, while values and interleavings still change with the seed.
void AppendStockStream(const std::vector<TypeId>& types,
                       std::vector<StockSymbol> symbols, uint64_t seed,
                       double duration, EventStream* out) {
  Rng rng(seed);
  using Arrival = std::pair<double, int>;
  std::priority_queue<Arrival, std::vector<Arrival>, std::greater<>> heap;
  std::vector<double> phase(kStockSymbols);
  std::vector<uint64_t> tick(kStockSymbols, 0);
  auto next_arrival = [&](int i) {
    double period = 1.0 / symbols[i].rate;
    return phase[i] + static_cast<double>(tick[i]++) * period +
           rng.UniformReal(-0.25, 0.25) * period;
  };
  for (int i = 0; i < kStockSymbols; ++i) {
    phase[i] = rng.UniformReal(0.5, 1.5) / symbols[i].rate;
    heap.emplace(next_arrival(i), i);
  }
  while (!heap.empty()) {
    auto [ts, i] = heap.top();
    heap.pop();
    if (ts > duration) continue;
    StockSymbol& s = symbols[i];
    double difference = s.drift + rng.Normal(0.0, 1.0);
    s.price += difference;
    Event e;
    e.type = types[i];
    e.partition = static_cast<uint32_t>(i % 4);
    e.ts = ts;
    e.attrs = {s.price, difference};
    out->Append(std::move(e));
    heap.emplace(next_arrival(i), i);
  }
}

/// OR of three SEQ alternatives as one nested pattern (evaluated by DNF
/// decomposition), each alternative with size/2 `difference` joins.
NestedPattern MakeDisjunction(const StockUniverse& universe, int size,
                              double window, uint64_t seed) {
  Rng rng(seed);
  NestedPattern nested;
  std::vector<std::shared_ptr<const PatternNode>> alternatives;
  for (int k = 0; k < 3; ++k) {
    std::vector<TypeId> pool = universe.symbols;
    rng.Shuffle(pool.begin(), pool.end());
    std::vector<std::shared_ptr<const PatternNode>> leaves;
    std::vector<std::string> names;
    for (int i = 0; i < size; ++i) {
      names.push_back("d" + std::to_string(k) + "_" + std::to_string(i));
      leaves.push_back(
          PatternNode::Leaf({pool[i], names.back(), false, false}));
    }
    for (int c = 0; c < size / 2; ++c) {
      int left = static_cast<int>(rng.UniformInt(0, size - 2));
      int right = static_cast<int>(rng.UniformInt(left + 1, size - 1));
      CmpOp op = rng.Bernoulli(0.5) ? CmpOp::kLt : CmpOp::kGt;
      nested.conditions.push_back(MakeNamedAttrCompare(
          universe.registry, pool[left], names[left], "difference", op,
          pool[right], names[right], "difference", rng.Normal(0.0, 1.0)));
    }
    alternatives.push_back(PatternNode::Op(OperatorKind::kSeq, leaves));
  }
  nested.root = PatternNode::Op(OperatorKind::kOr, alternatives);
  nested.window = window;
  return nested;
}

// ---- keyed workloads: Zipf-skewed partitions rendered as CSV ------------

const char* const kKeyedTypes[] = {"A", "B", "C", "D"};
constexpr int kKeyedTypeCount = 4;

struct KeyedConfig {
  int partitions = 1;
  /// Zipf exponent of the partition popularity.
  double zipf_s = 1.0;
  /// Mean stream-time gap between rows, seconds.
  double mean_gap = 0.001;
  /// Share of rows that retract a recent insert (delta streams).
  double retract_share = 0.0;
};

/// Draws partitions by Zipf rank; ranks map to partition ids through a
/// fixed permutation, so which shard the hot keys hash to is part of the
/// workload, not of the seed.
class ZipfPartitions {
 public:
  ZipfPartitions(int partitions, double s) {
    double total = 0.0;
    for (int k = 1; k <= partitions; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
    ids_.resize(static_cast<size_t>(partitions));
    for (int k = 0; k < partitions; ++k) ids_[k] = static_cast<uint32_t>(k);
    Rng layout(kPartitionLayoutSeed);
    layout.Shuffle(ids_.begin(), ids_.end());
  }

  uint32_t Draw(Rng& rng) const {
    double u = rng.UniformReal(0.0, 1.0);
    size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return ids_[std::min(rank, ids_.size() - 1)];
  }

 private:
  std::vector<double> cdf_;
  std::vector<uint32_t> ids_;
};

/// One generated keyed row. Each partition has a rare type (its id mod
/// 4, drawn with probability 0.1), so per-partition statistics, and the
/// plans built from them, differ between partitions.
struct KeyedRow {
  TypeId type;
  uint32_t partition;
  double ts;
  double v;
};

KeyedRow DrawKeyedRow(const ZipfPartitions& zipf, const KeyedConfig& config,
                      Rng& rng, double* ts) {
  // Microsecond timestamps print exactly with %.6f, so a retraction's
  // retract_ts cell names its target's timestamp bit for bit.
  *ts = std::round((*ts + rng.UniformReal(0.5, 1.5) * config.mean_gap) * 1e6) /
        1e6;
  KeyedRow row;
  row.partition = zipf.Draw(rng);
  TypeId rare = static_cast<TypeId>(row.partition % kKeyedTypeCount);
  row.type = rng.UniformReal(0.0, 1.0) < 0.1
                 ? rare
                 : static_cast<TypeId>(
                       (rare + 1 + rng.UniformInt(0, kKeyedTypeCount - 2)) %
                       kKeyedTypeCount);
  row.ts = *ts;
  row.v = std::round(rng.UniformReal(-1.0, 1.0) * 1e4) / 1e4;
  return row;
}

EventTypeRegistry KeyedRegistry() {
  EventTypeRegistry registry;
  for (const char* name : kKeyedTypes) registry.Register(name, {"v"});
  return registry;
}

void AppendKeyedHistory(const KeyedConfig& config, uint64_t seed, size_t rows,
                        EventStream* out) {
  ZipfPartitions zipf(config.partitions, config.zipf_s);
  Rng rng(seed);
  double ts = 0.0;
  for (size_t i = 0; i < rows; ++i) {
    KeyedRow row = DrawKeyedRow(zipf, config, rng, &ts);
    Event e;
    e.type = row.type;
    e.partition = row.partition;
    e.ts = row.ts;
    e.attrs = {row.v};
    out->Append(std::move(e));
  }
}

/// Renders `rows` rows as CSV. With retract_share > 0 the header adds
/// the polarity/retract_ts columns and that share of rows retracts one
/// of the last few live inserts, so retractions land inside the window
/// and cascade into engine state.
std::string RenderKeyedCsv(const KeyedConfig& config, uint64_t seed,
                           size_t rows) {
  ZipfPartitions zipf(config.partitions, config.zipf_s);
  Rng rng(seed);
  const bool delta = config.retract_share > 0.0;
  std::string csv = delta ? "type,ts,partition,v,polarity,retract_ts\n"
                          : "type,ts,partition,v\n";
  csv.reserve(rows * 40);
  constexpr size_t kRecentInserts = 64;
  std::vector<KeyedRow> recent;
  double ts = 0.0;
  char line[128];
  for (size_t i = 0; i < rows; ++i) {
    KeyedRow row = DrawKeyedRow(zipf, config, rng, &ts);
    if (delta && !recent.empty() &&
        rng.UniformReal(0.0, 1.0) < config.retract_share) {
      size_t pick =
          static_cast<size_t>(rng.UniformInt(0, recent.size() - 1));
      const KeyedRow target = recent[pick];
      recent[pick] = recent.back();
      recent.pop_back();
      std::snprintf(line, sizeof(line), "%s,%.6f,%u,0,-1,%.6f\n",
                    kKeyedTypes[target.type], row.ts, target.partition,
                    target.ts);
      csv += line;
      continue;
    }
    std::snprintf(line, sizeof(line), delta ? "%s,%.6f,%u,%.4f,1,\n"
                                            : "%s,%.6f,%u,%.4f\n",
                  kKeyedTypes[row.type], row.ts, row.partition, row.v);
    csv += line;
    if (delta) {
      if (recent.size() == kRecentInserts) recent.erase(recent.begin());
      recent.push_back(row);
    }
  }
  return csv;
}

/// A keyed pattern over the A..D registry: `types` names the slots'
/// types (e.g. "ABC"), with a `v` join between the first and last slot.
/// `delta` marks the pattern as fed by a stream with retractions.
QuerySpec KeyedQuery(OperatorKind op, const std::string& types, CmpOp cmp,
                     double window, const std::string& algorithm,
                     bool delta = false) {
  std::vector<EventSpec> events;
  for (size_t i = 0; i < types.size(); ++i) {
    events.push_back({static_cast<TypeId>(types[i] - 'A'),
                      std::string(1, static_cast<char>('a' + i)), false,
                      false});
  }
  int last = static_cast<int>(types.size()) - 1;
  std::vector<ConditionPtr> conditions = {
      std::make_shared<AttrCompare>(0, 0, cmp, last, 0)};
  SimplePattern pattern(op, std::move(events), std::move(conditions), window);
  if (delta) pattern = pattern.WithDeltaInput();
  return QuerySpec::Simple(std::move(pattern))
      .Keyed()
      .WithAlgorithm(algorithm)
      .WithName((op == OperatorKind::kSeq ? "seq_" : "and_") + types + "_" +
                algorithm);
}

}  // namespace

WorkloadInput MakePaperMix(uint64_t seed) {
  // 16 symbols at 1-15 events/s of stream time: ~140 events/s, so the
  // live stream's 200 s are ~29k events and the history's 1200 s ~170k.
  constexpr double kLiveSeconds = 200.0;
  constexpr double kHistorySeconds = 1200.0;

  StockUniverse universe;
  for (int i = 0; i < kStockSymbols; ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "STK%03d", i);
    universe.symbols.push_back(
        universe.registry.Register(name, {"price", "difference"}));
  }
  const std::vector<StockSymbol> table = FixedSymbolTable();

  WorkloadInput w;
  w.name = "paper_mix";
  AppendStockStream(universe.symbols, table, SubSeed(seed, 1), kHistorySeconds,
                    &w.history);
  AppendStockStream(universe.symbols, table, SubSeed(seed, 2), kLiveSeconds,
                    &w.live);
  w.live_events = w.live.size();

  struct Family {
    PatternFamily family;
    int size;
    const char* algorithm;
    uint64_t pattern_seed;
  };
  // Every family at sizes 4-6, planned by order-based (GREEDY, DP-LD)
  // and tree-based (ZSTREAM-ORD, DP-B) optimizers.
  const Family families[] = {
      {PatternFamily::kSequence, 4, "GREEDY", 101},
      {PatternFamily::kSequence, 6, "DP-B", 102},
      {PatternFamily::kNegation, 5, "DP-LD", 103},
      {PatternFamily::kConjunction, 4, "ZSTREAM-ORD", 104},
      {PatternFamily::kConjunction, 5, "DP-LD", 105},
      {PatternFamily::kKleene, 4, "GREEDY", 201},
      {PatternFamily::kKleene, 5, "DP-B", 207},
      {PatternFamily::kDisjunction, 4, "ZSTREAM-ORD", 108},
      {PatternFamily::kSequence, 5, "ZSTREAM-ORD", 109},
      {PatternFamily::kNegation, 4, "GREEDY", 110},
      {PatternFamily::kDisjunction, 5, "DP-LD", 111},
  };
  for (const Family& f : families) {
    const uint64_t pattern_seed = f.pattern_seed;
    double window = f.family == PatternFamily::kConjunction ? 0.8 : 1.0;
    std::string name = std::string(FamilyName(f.family)) + "_" +
                       std::to_string(f.size) + "_" + f.algorithm + "_" +
                       std::to_string(pattern_seed);
    if (f.family == PatternFamily::kDisjunction) {
      w.queries.push_back(
          QuerySpec::Nested(MakeDisjunction(universe, f.size, window,
                                            pattern_seed))
              .WithAlgorithm(f.algorithm)
              .WithName(name));
      continue;
    }
    PatternGenConfig pg;
    pg.family = f.family;
    pg.size = f.size;
    pg.window = window;
    pg.seed = pattern_seed;
    std::vector<SimplePattern> dnf = GeneratePattern(universe, pg);
    CEPJOIN_CHECK_EQ(dnf.size(), 1u);
    w.queries.push_back(QuerySpec::Simple(std::move(dnf[0]))
                            .WithAlgorithm(f.algorithm)
                            .WithName(name));
  }
  w.registry = std::move(universe.registry);
  w.feed = Feed::kOnBatch;
  w.num_threads = 1;
  w.paced_rate = 14000.0;
  w.paced_rate_reason =
      "about half the closed-loop events_per_s measured when the benchmark "
      "was defined (~28k/s on a 4-vCPU VM), so the service idles half the "
      "time and latency reflects per-event work, not a backlog";
  w.recovery_tail = 20000;
  return w;
}

WorkloadInput MakeKeyedSharded(uint64_t seed) {
  KeyedConfig config;
  config.partitions = 4000;
  config.zipf_s = 1.0;
  config.mean_gap = 0.0005;
  constexpr size_t kHistoryRows = 100000;
  constexpr size_t kLiveRows = 250000;

  WorkloadInput w;
  w.name = "keyed_sharded";
  w.registry = KeyedRegistry();
  AppendKeyedHistory(config, SubSeed(seed, 1), kHistoryRows, &w.history);
  w.csv = RenderKeyedCsv(config, SubSeed(seed, 2), kLiveRows);
  w.live_events = kLiveRows;
  w.queries = {
      KeyedQuery(OperatorKind::kSeq, "ABC", CmpOp::kLt, 0.05, "GREEDY"),
      KeyedQuery(OperatorKind::kSeq, "BCD", CmpOp::kGt, 0.05, "DP-LD"),
      KeyedQuery(OperatorKind::kAnd, "ABD", CmpOp::kLt, 0.03, "DP-B"),
      KeyedQuery(OperatorKind::kSeq, "DCA", CmpOp::kLt, 0.05, "ZSTREAM-ORD"),
  };
  w.feed = Feed::kAsyncSource;
  w.num_threads = 2;
  w.paced_rate = 85000.0;
  w.paced_rate_reason =
      "about half the closed-loop events_per_s measured when the benchmark "
      "was defined (~175k/s on a 4-vCPU VM); sharded matches reach the "
      "sink only at Finish(), which the latency figures show";
  w.recovery_tail = 25000;
  return w;
}

WorkloadInput MakeDeltaDurable(uint64_t seed) {
  KeyedConfig config;
  config.partitions = 256;
  config.zipf_s = 0.8;
  config.mean_gap = 0.0005;
  config.retract_share = 0.05;
  constexpr size_t kHistoryRows = 100000;
  constexpr size_t kLiveRows = 160000;

  WorkloadInput w;
  w.name = "delta_durable";
  w.registry = KeyedRegistry();
  AppendKeyedHistory(config, SubSeed(seed, 1), kHistoryRows, &w.history);
  w.csv = RenderKeyedCsv(config, SubSeed(seed, 2), kLiveRows);
  w.live_events = kLiveRows;
  w.queries = {
      KeyedQuery(OperatorKind::kSeq, "ABC", CmpOp::kLt, 0.2, "GREEDY", true),
      KeyedQuery(OperatorKind::kAnd, "BCD", CmpOp::kGt, 0.1, "DP-LD", true),
  };
  w.feed = Feed::kAttachedPump;
  w.num_threads = 1;
  w.paced_rate = 50000.0;
  w.paced_rate_reason =
      "about half the closed-loop events_per_s measured when the benchmark "
      "was defined (~110k/s on a 4-vCPU VM, checkpoints included)";
  w.checkpoint_every = 40000;
  w.recovery_tail = 40000;
  return w;
}

}  // namespace e2e
}  // namespace cepjoin
