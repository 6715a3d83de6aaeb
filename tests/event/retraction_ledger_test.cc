// RetractionLedger: LIFO resolution, timestamp-ordered forgetting behind
// the horizon, late retractions versus never-inserted targets, bounded
// live size over a long stream, and the checkpoint encoding.

#include "event/retraction_ledger.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "common/rng.h"

namespace cepjoin {
namespace {

Event Insert(EventSerial serial, Timestamp ts, uint32_t partition = 0,
             TypeId type = 0) {
  Event e;
  e.type = type;
  e.partition = partition;
  e.ts = ts;
  e.serial = serial;
  return e;
}

Event Retract(EventSerial serial, Timestamp ts, Timestamp target_ts,
              uint32_t partition = 0, TypeId type = 0) {
  Event r = Insert(serial, ts, partition, type);
  r.polarity = -1;
  r.target_ts = target_ts;
  return r;
}

using Resolution = RetractionLedger::Resolution;

/// Resolves `r` and returns its target serial; fails the test unless the
/// resolution is `expected`.
EventSerial ResolveAs(RetractionLedger* ledger, Event r, Resolution expected) {
  StatusOr<Resolution> resolved = ledger->Resolve(&r);
  EXPECT_TRUE(resolved.ok()) << resolved.status().message();
  if (resolved.ok()) EXPECT_EQ(*resolved, expected);
  return r.target_serial;
}

TEST(RetractionLedgerTest, UnboundedByDefault) {
  RetractionLedger ledger;
  ledger.RecordInsert(Insert(0, 1.0));
  ledger.RecordInsert(Insert(1, 1e9));
  EXPECT_EQ(ResolveAs(&ledger, Retract(2, 2e9, 1.0), Resolution::kLive), 0u);
  EXPECT_EQ(ledger.size(), 1u);
}

TEST(RetractionLedgerTest, ForgetsInTimestampOrder) {
  RetractionLedger ledger;
  ledger.set_horizon(1.0);
  ledger.RecordInsert(Insert(0, 0.0));
  ledger.RecordInsert(Insert(1, 0.5, /*partition=*/1));
  ledger.RecordInsert(Insert(2, 1.0, /*partition=*/2));
  EXPECT_EQ(ledger.size(), 3u);
  // Time 1.25: only the insert at 0.0 is behind 1.25 - 1.
  ledger.RecordInsert(Insert(3, 1.25, /*partition=*/3));
  EXPECT_EQ(ledger.size(), 3u);
  EXPECT_EQ(ResolveAs(&ledger, Retract(4, 1.25, 0.0), Resolution::kLate), 4u);
  EXPECT_EQ(ResolveAs(&ledger, Retract(5, 1.25, 0.5, 1), Resolution::kLive),
            1u);
  EXPECT_EQ(ledger.size(), 2u);
  // Time 2.1 forgets the insert at 1.0 but keeps the one at 1.25.
  ledger.RecordInsert(Insert(6, 2.1, /*partition=*/4));
  EXPECT_EQ(ledger.size(), 2u);
  EXPECT_EQ(ResolveAs(&ledger, Retract(7, 2.1, 1.0, 2), Resolution::kLate), 7u);
  EXPECT_EQ(ResolveAs(&ledger, Retract(8, 2.1, 1.25, 3), Resolution::kLive),
            3u);
  EXPECT_EQ(ledger.size(), 1u);
}

TEST(RetractionLedgerTest, DuplicateKeysResolveLifoInsideTheHorizon) {
  RetractionLedger ledger;
  ledger.set_horizon(10.0);
  ledger.RecordInsert(Insert(0, 1.0));
  ledger.RecordInsert(Insert(1, 1.0, /*partition=*/1));
  ledger.RecordInsert(Insert(2, 1.0));
  ledger.RecordInsert(Insert(3, 2.0));
  ledger.RecordInsert(Insert(4, 2.0, 0, /*type=*/1));
  EXPECT_EQ(ResolveAs(&ledger, Retract(5, 3.0, 1.0), Resolution::kLive), 2u);
  EXPECT_EQ(ResolveAs(&ledger, Retract(6, 3.0, 1.0), Resolution::kLive), 0u);
  Event again = Retract(7, 3.0, 1.0);
  StatusOr<Resolution> third = ledger.Resolve(&again);
  ASSERT_FALSE(third.ok());
  EXPECT_NE(third.status().message().find("already retracted"),
            std::string::npos);
  // Neighbouring keys are untouched.
  EXPECT_EQ(ResolveAs(&ledger, Retract(8, 3.0, 1.0, 1), Resolution::kLive),
            1u);
  EXPECT_EQ(ResolveAs(&ledger, Retract(9, 3.0, 2.0, 0, 1), Resolution::kLive),
            4u);
  EXPECT_EQ(ledger.size(), 1u);
}

TEST(RetractionLedgerTest, DuplicatesAreForgottenTogether) {
  RetractionLedger ledger;
  ledger.set_horizon(1.0);
  ledger.RecordInsert(Insert(0, 1.0));
  ledger.RecordInsert(Insert(1, 1.0));
  ledger.RecordInsert(Insert(2, 2.5));
  EXPECT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ResolveAs(&ledger, Retract(3, 2.5, 1.0), Resolution::kLate), 3u);
  // The index is clean afterwards: a new key resolves normally.
  ledger.RecordInsert(Insert(4, 2.5, 0, 1));
  EXPECT_EQ(ResolveAs(&ledger, Retract(5, 2.5, 2.5, 0, 1), Resolution::kLive),
            4u);
}

TEST(RetractionLedgerTest, LateRetractionVersusNeverInsertedKey) {
  RetractionLedger ledger;
  ledger.set_horizon(1.0);
  ledger.RecordInsert(Insert(0, 3.0));
  ledger.RecordInsert(Insert(1, 5.0));
  // Behind the horizon: a late no-op targeting its own serial, whether
  // or not the key was ever inserted.
  EXPECT_EQ(ResolveAs(&ledger, Retract(2, 5.0, 3.0), Resolution::kLate), 2u);
  EXPECT_EQ(ResolveAs(&ledger, Retract(3, 5.0, 3.5), Resolution::kLate), 3u);
  // Inside the horizon, an unknown key is still an error.
  Event unknown = Retract(4, 5.0, 4.5);
  StatusOr<Resolution> resolved = ledger.Resolve(&unknown);
  ASSERT_FALSE(resolved.ok());
  EXPECT_EQ(resolved.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(resolved.status().message().find("never inserted"),
            std::string::npos);
  EXPECT_EQ(ledger.size(), 1u);
}

TEST(RetractionLedgerTest, TargetExactlyOneHorizonBackIsStillLive) {
  // The edge mirrors the engines' sweep, which keeps a logged match
  // while max_ts >= now - window: with H = 2W, a target at exactly
  // r.ts - H can sit in a match ending at r.ts - W, which is still
  // revocable, so the ledger must resolve it. Binary-exact values.
  RetractionLedger ledger;
  ledger.set_horizon(0.5);
  ledger.RecordInsert(Insert(0, 1.5));
  ledger.RecordInsert(Insert(1, 1.5, /*partition=*/1));
  EXPECT_EQ(ResolveAs(&ledger, Retract(2, 2.0, 1.5), Resolution::kLive), 0u);
  const Timestamp just_after = std::nextafter(2.0, 3.0);
  EXPECT_EQ(ResolveAs(&ledger, Retract(3, just_after, 1.5, 1),
                      Resolution::kLate),
            3u);
}

TEST(RetractionLedgerTest, GrowingTheHorizonKeepsForgottenTargetsLate) {
  RetractionLedger ledger;
  ledger.set_horizon(0.0);
  ledger.RecordInsert(Insert(0, 1.0));
  ledger.RecordInsert(Insert(1, 2.0));  // forgets the insert at 1.0
  ledger.set_horizon(10.0);
  // 1.0 is within the new horizon of 2.0 but already forgotten: late,
  // never a "never inserted" error.
  EXPECT_EQ(ResolveAs(&ledger, Retract(2, 2.0, 1.0), Resolution::kLate), 2u);
  ledger.RecordInsert(Insert(3, 3.0));
  EXPECT_EQ(ResolveAs(&ledger, Retract(4, 4.0, 2.0), Resolution::kLive), 1u);
}

TEST(RetractionLedgerTest, LiveSizeStaysWithinTheHorizonOverALongStream) {
  constexpr double kHorizon = 0.05;
  constexpr size_t kInserts = 1000000;
  RetractionLedger ledger;
  ledger.set_horizon(kHorizon);
  Rng rng(17);
  struct Live {
    Timestamp ts;
    uint32_t partition;
    EventSerial serial;
  };
  std::deque<Timestamp> window;  // insert timestamps within the horizon
  std::vector<Live> recent;      // retractable inserts, newest last
  EventSerial serial = 0;
  Timestamp ts = 0.0;
  size_t inserts = 0;
  size_t resolved = 0;
  while (inserts < kInserts) {
    ts += rng.UniformReal(0.0, 1e-4);  // ~1000 inserts per horizon
    if (!recent.empty() && rng.UniformReal(0.0, 1.0) < 0.1) {
      size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(recent.size()) - 1));
      Live target = recent[pick];
      recent.erase(recent.begin() + static_cast<std::ptrdiff_t>(pick));
      Event r = Retract(serial++, ts, target.ts, target.partition);
      StatusOr<Resolution> res = ledger.Resolve(&r);
      ASSERT_TRUE(res.ok()) << res.status().message();
      ASSERT_EQ(*res, target.ts < ts - kHorizon ? Resolution::kLate
                                                : Resolution::kLive);
      if (*res == Resolution::kLive) {
        ASSERT_EQ(r.target_serial, target.serial);
        ++resolved;
      }
    } else {
      uint32_t partition = static_cast<uint32_t>(rng.UniformInt(0, 63));
      ledger.RecordInsert(Insert(serial, ts, partition));
      recent.push_back({ts, partition, serial});
      if (recent.size() > 256) recent.erase(recent.begin());
      ++serial;
      ++inserts;
      window.push_back(ts);
    }
    while (!window.empty() && window.front() < ts - kHorizon) {
      window.pop_front();
    }
    ASSERT_LE(ledger.size(), window.size()) << "after " << inserts
                                            << " inserts";
  }
  EXPECT_GT(resolved, 50000u);
  EXPECT_GT(ledger.size(), 0u);
}

TEST(RetractionLedgerTest, MatchesANaiveModelUnderChurn) {
  // Coarse timestamps and few partitions make duplicate keys and index
  // collisions common; the model is a plain scan over every record.
  struct ModelRecord {
    Timestamp ts;
    uint32_t partition;
    EventSerial serial;
    bool live;
  };
  for (double horizon : {0.0, 0.03, 0.2}) {
    SCOPED_TRACE("horizon=" + std::to_string(horizon));
    RetractionLedger ledger;
    ledger.set_horizon(horizon);
    std::vector<ModelRecord> model;
    Rng rng(5);
    int64_t tick = 0;
    EventSerial serial = 0;
    size_t hits = 0;
    for (int step = 0; step < 20000; ++step) {
      if (rng.UniformReal(0.0, 1.0) < 0.3) ++tick;
      const Timestamp ts = 0.01 * static_cast<double>(tick);
      uint32_t partition = static_cast<uint32_t>(rng.UniformInt(0, 3));
      const Timestamp floor = ts - horizon;
      if (rng.UniformReal(0.0, 1.0) < 0.4) {
        Timestamp target_ts =
            0.01 * static_cast<double>(tick - rng.UniformInt(0, 30));
        Event r = Retract(serial++, ts, target_ts, partition);
        StatusOr<Resolution> got = ledger.Resolve(&r);
        if (target_ts < floor) {
          ASSERT_TRUE(got.ok());
          EXPECT_EQ(*got, Resolution::kLate);
          EXPECT_EQ(r.target_serial, r.serial);
          continue;
        }
        ModelRecord* newest = nullptr;
        for (ModelRecord& m : model) {
          if (m.live && m.ts >= floor && m.ts == target_ts &&
              m.partition == partition) {
            newest = &m;
          }
        }
        ASSERT_EQ(got.ok(), newest != nullptr) << "step " << step;
        if (newest != nullptr) {
          EXPECT_EQ(*got, Resolution::kLive);
          EXPECT_EQ(r.target_serial, newest->serial) << "step " << step;
          newest->live = false;
          ++hits;
        }
      } else {
        ledger.RecordInsert(Insert(serial, ts, partition));
        model.push_back({ts, partition, serial, true});
        ++serial;
      }
      size_t live = 0;
      for (const ModelRecord& m : model) live += m.live && m.ts >= floor;
      ASSERT_EQ(ledger.size(), live) << "step " << step;
    }
    EXPECT_GT(hits, 50u);
  }
}

TEST(RetractionLedgerTest, SaveLoadRoundTripIsByteIdentical) {
  RetractionLedger ledger;
  ledger.set_horizon(1.0);
  EventSerial serial = 0;
  for (int i = 0; i < 200; ++i) {
    ledger.RecordInsert(Insert(serial++, 0.01 * i, i % 7, i % 3));
    if (i % 5 == 4) {
      ledger.RecordInsert(Insert(serial++, 0.01 * i, i % 7, i % 3));
    }
    if (i % 4 == 3) {
      Event r = Retract(serial++, 0.01 * i, 0.01 * (i - 2), (i - 2) % 7,
                        (i - 2) % 3);
      ASSERT_TRUE(ledger.Resolve(&r).ok());
    }
  }
  SnapshotWriter first;
  ledger.SaveTo(&first);

  RetractionLedger restored;
  restored.set_horizon(1.0);
  SnapshotReader reader(first.bytes());
  restored.LoadFrom(&reader);
  ASSERT_TRUE(reader.ok()) << reader.status().message();
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(restored.size(), ledger.size());
  SnapshotWriter second;
  restored.SaveTo(&second);
  EXPECT_EQ(second.bytes(), first.bytes());

  // Both resolve the same way afterwards, duplicates LIFO included.
  for (int i = 190; i < 200; ++i) {
    Event a = Retract(serial, 2.0, 0.01 * i, i % 7, i % 3);
    Event b = a;
    StatusOr<Resolution> ra = ledger.Resolve(&a);
    StatusOr<Resolution> rb = restored.Resolve(&b);
    ASSERT_EQ(ra.ok(), rb.ok());
    if (ra.ok()) {
      EXPECT_EQ(*ra, *rb);
      EXPECT_EQ(a.target_serial, b.target_serial);
    }
  }
}

TEST(RetractionLedgerTest, TruncatedBytesAreDataLoss) {
  RetractionLedger ledger;
  ledger.set_horizon(5.0);
  for (int i = 0; i < 20; ++i) ledger.RecordInsert(Insert(i, 0.1 * i, i % 3));
  SnapshotWriter w;
  ledger.SaveTo(&w);
  const std::string& bytes = w.bytes();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    RetractionLedger loaded;
    SnapshotReader reader(bytes.data(), cut);
    loaded.LoadFrom(&reader);
    ASSERT_FALSE(reader.ok()) << "cut at " << cut;
    EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
  }
  // Records out of timestamp order are rejected too.
  SnapshotWriter bad;
  bad.F64(0.0);
  bad.U64(2);
  for (double ts : {2.0, 1.0}) {
    bad.U32(0);
    bad.U32(0);
    uint64_t bits = 0;
    std::memcpy(&bits, &ts, sizeof(bits));
    bad.U64(bits);
    bad.U64(0);
  }
  RetractionLedger loaded;
  SnapshotReader reader(bad.bytes());
  loaded.LoadFrom(&reader);
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace cepjoin
