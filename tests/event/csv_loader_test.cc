#include "event/csv_loader.h"

#include <gtest/gtest.h>

namespace cepjoin {
namespace {

TEST(CsvLoaderTest, LoadsWellFormedStream) {
  EventTypeRegistry registry;
  CsvLoadResult result = LoadCsvStreamFromString(
      "type,ts,partition,price,difference\n"
      "MSFT,0.125,0,101.5,0.25\n"
      "GOOG,0.250,1,730.0,-1.10\n"
      "MSFT,0.500,0,101.0,-0.5\n",
      &registry);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.stream.size(), 3u);
  EXPECT_EQ(registry.size(), 2u);
  const Event& first = *result.stream[0];
  EXPECT_EQ(first.type, registry.Require("MSFT"));
  EXPECT_DOUBLE_EQ(first.ts, 0.125);
  EXPECT_EQ(first.partition, 0u);
  EXPECT_DOUBLE_EQ(first.attrs[0], 101.5);
  EXPECT_DOUBLE_EQ(first.attrs[1], 0.25);
  // Attribute schema comes from the header.
  EXPECT_EQ(registry.RequireAttr(first.type, "difference"), 1u);
}

TEST(CsvLoaderTest, SkipsBlankLines) {
  EventTypeRegistry registry;
  CsvLoadResult result = LoadCsvStreamFromString(
      "type,ts,partition,v\nA,1,0,1.0\n\nA,2,0,2.0\n", &registry);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.stream.size(), 2u);
}

TEST(CsvLoaderTest, AssignsSerialsAndPartitionSeqs) {
  EventTypeRegistry registry;
  CsvLoadResult result = LoadCsvStreamFromString(
      "type,ts,partition,v\nA,1,3,1\nB,2,3,2\nA,3,5,3\n", &registry);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.stream[1]->serial, 1u);
  EXPECT_EQ(result.stream[1]->partition_seq, 1u);  // second in partition 3
  EXPECT_EQ(result.stream[2]->partition_seq, 0u);  // first in partition 5
}

TEST(CsvLoaderTest, RejectsMissingHeader) {
  EventTypeRegistry registry;
  CsvLoadResult result = LoadCsvStreamFromString("", &registry);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("header"), std::string::npos);
}

TEST(CsvLoaderTest, RejectsShortRows) {
  EventTypeRegistry registry;
  CsvLoadResult result = LoadCsvStreamFromString(
      "type,ts,partition,v\nA,1,0\n", &registry);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error_line, 2u);
}

TEST(CsvLoaderTest, RejectsOutOfOrderTimestamps) {
  EventTypeRegistry registry;
  CsvLoadResult result = LoadCsvStreamFromString(
      "type,ts,partition,v\nA,2,0,1\nA,1,0,1\n", &registry);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("non-decreasing"), std::string::npos);
  EXPECT_EQ(result.error_line, 3u);
}

TEST(CsvLoaderTest, RejectsNonNumericValues) {
  EventTypeRegistry registry;
  CsvLoadResult result = LoadCsvStreamFromString(
      "type,ts,partition,v\nA,1,0,abc\n", &registry);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("attribute value"), std::string::npos);
}

TEST(CsvLoaderTest, RejectsBadTimestamp) {
  EventTypeRegistry registry;
  CsvLoadResult result = LoadCsvStreamFromString(
      "type,ts,partition,v\nA,noon,0,1\n", &registry);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("timestamp"), std::string::npos);
}

TEST(CsvLoaderTest, RejectsNonFiniteTimestamps) {
  // strtod happily parses "nan" and "inf"; NaN in particular would pass
  // the `ts < previous` ordering check (false for NaN) and then abort
  // the process inside EventStream::Append. All must be parse errors.
  for (const char* bad : {"nan", "NaN", "-nan", "inf", "Inf", "-inf"}) {
    EventTypeRegistry registry;
    CsvLoadResult result = LoadCsvStreamFromString(
        std::string("type,ts,partition,v\nA,") + bad + ",0,1\n", &registry);
    EXPECT_FALSE(result.ok) << "timestamp '" << bad << "' accepted";
    EXPECT_NE(result.error.find("timestamp"), std::string::npos) << bad;
    EXPECT_EQ(result.error_line, 2u) << bad;
  }
}

TEST(CsvLoaderTest, RejectsFractionalPartition) {
  EventTypeRegistry registry;
  CsvLoadResult result = LoadCsvStreamFromString(
      "type,ts,partition,v\nA,1,2.5,1\n", &registry);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("partition"), std::string::npos);
  EXPECT_EQ(result.error_line, 2u);
}

TEST(CsvLoaderTest, RejectsPartitionOverflow) {
  // 2^32 and anything larger silently truncated before the fix.
  for (const char* bad : {"4294967296", "1e12", "nan", "-1"}) {
    EventTypeRegistry registry;
    CsvLoadResult result = LoadCsvStreamFromString(
        std::string("type,ts,partition,v\nA,1,") + bad + ",1\n", &registry);
    EXPECT_FALSE(result.ok) << "partition '" << bad << "' accepted";
    EXPECT_NE(result.error.find("partition"), std::string::npos) << bad;
  }
}

TEST(CsvLoaderTest, AcceptsMaximalPartitionId) {
  EventTypeRegistry registry;
  CsvLoadResult result = LoadCsvStreamFromString(
      "type,ts,partition,v\nA,1,4294967295,1\n", &registry);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.stream[0]->partition, 4294967295u);
}

TEST(CsvLoaderTest, HandlesTrailingCarriageReturns) {
  // Windows-style \r\n line endings: \r must not leak into the last
  // cell's numeric parse (or the type name).
  EventTypeRegistry registry;
  CsvLoadResult result = LoadCsvStreamFromString(
      "type,ts,partition,v\r\nA,1,0,1.5\r\nB,2,1,2.5\r\n", &registry);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.stream.size(), 2u);
  EXPECT_EQ(registry.Find("A"), result.stream[0]->type);
  EXPECT_DOUBLE_EQ(result.stream[0]->attrs[0], 1.5);
  EXPECT_DOUBLE_EQ(result.stream[1]->attrs[0], 2.5);
}

TEST(CsvLoaderTest, RejectsEmptyAttributeCells) {
  EventTypeRegistry registry;
  CsvLoadResult result = LoadCsvStreamFromString(
      "type,ts,partition,v,w\nA,1,0,1.0,\n", &registry);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("attribute value"), std::string::npos);
  EXPECT_EQ(result.error_line, 2u);
}

TEST(CsvLoaderTest, PolarityColumnLoadsDeltaStream) {
  // A trailing `polarity` header column opts the file into ± semantics:
  // the loader enables retractions on the stream and Append resolves
  // each retraction to the serial of the insertion it cancels.
  EventTypeRegistry registry;
  // Without a retract_ts column a retraction targets the insertion at
  // its OWN timestamp, so it must share ts with its target.
  CsvLoadResult result = LoadCsvStreamFromString(
      "type,ts,partition,price,polarity\n"
      "MSFT,1.0,0,101.5,1\n"
      "GOOG,1.5,1,730.0,+1\n"
      "MSFT,1.75,0,99.0,1\n"
      "MSFT,1.75,0,0,-1\n",
      &registry);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.stream.size(), 4u);
  EXPECT_TRUE(result.stream.retractions_enabled());
  // `polarity` is reserved, never an attribute.
  EXPECT_EQ(registry.Info(result.stream[0]->type).attribute_names.size(), 1u);
  const Event& retraction = *result.stream[3];
  ASSERT_TRUE(retraction.IsRetraction());
  EXPECT_DOUBLE_EQ(retraction.target_ts, 1.75);
  EXPECT_EQ(retraction.target_serial, result.stream[2]->serial);
  // Inserts count into type rates; retractions must not.
  EXPECT_EQ(result.stream.type_counts()[result.stream[0]->type], 2u);
}

TEST(CsvLoaderTest, RetractTsResolvesTargetSerial) {
  EventTypeRegistry registry;
  CsvLoadResult result = LoadCsvStreamFromString(
      "type,ts,partition,price,polarity,retract_ts\n"
      "MSFT,1.0,0,101.5,1,\n"
      "MSFT,1.5,0,99.0,1,\n"
      "MSFT,2.0,0,0,-1,1.0\n",
      &registry);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.stream.size(), 3u);
  const Event& retraction = *result.stream[2];
  ASSERT_TRUE(retraction.IsRetraction());
  EXPECT_DOUBLE_EQ(retraction.target_ts, 1.0);
  EXPECT_EQ(retraction.target_serial, result.stream[0]->serial);
  // Retractions hold a stream serial but no partition sequence slot.
  EXPECT_EQ(retraction.serial, 2u);
  EXPECT_EQ(retraction.partition_seq, 0u);
  EXPECT_EQ(result.stream[1]->partition_seq, 1u);
}

TEST(CsvLoaderTest, DuplicateKeyRetractionResolvesLifo) {
  // Two live insertions with an identical (type, partition, ts) key:
  // the retraction cancels the most recent one.
  EventTypeRegistry registry;
  CsvLoadResult result = LoadCsvStreamFromString(
      "type,ts,partition,price,polarity,retract_ts\n"
      "A,1.0,0,1,1,\n"
      "A,1.0,0,2,1,\n"
      "A,2.0,0,0,-1,1.0\n",
      &registry);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.stream[2]->target_serial, result.stream[1]->serial);
}

TEST(CsvLoaderTest, RejectsBadPolarityValues) {
  for (const char* bad : {"0", "2", "-2", "+", "retract", "", "1.0"}) {
    EventTypeRegistry registry;
    CsvLoadResult result = LoadCsvStreamFromString(
        std::string("type,ts,partition,v,polarity\nA,1,0,1,") + bad + "\n",
        &registry);
    EXPECT_FALSE(result.ok) << "polarity '" << bad << "' accepted";
    EXPECT_NE(result.error.find("polarity"), std::string::npos) << bad;
    EXPECT_EQ(result.error_line, 2u) << bad;
  }
}

TEST(CsvLoaderTest, RejectsRetractionOfNeverInsertedKey) {
  // The loader rejects a retraction whose (type, partition, ts) key was
  // never inserted with a line-numbered Status (EventStream::TryAppend)
  // instead of aborting in EventStream::Append.
  EventTypeRegistry registry;
  CsvLoadResult result = LoadCsvStreamFromString(
      "type,ts,partition,v,polarity,retract_ts\n"
      "A,1.0,0,1,1,\n"
      "A,2.0,1,0,-1,1.0\n",  // wrong partition: key never inserted
      &registry);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("no live insertion"), std::string::npos);
  EXPECT_EQ(result.error_line, 3u);
  EXPECT_EQ(result.stream.size(), 1u);  // valid prefix kept
}

TEST(CsvLoaderTest, RejectsDoubleRetraction) {
  EventTypeRegistry registry;
  CsvLoadResult result = LoadCsvStreamFromString(
      "type,ts,partition,v,polarity,retract_ts\n"
      "A,1.0,0,1,1,\n"
      "A,2.0,0,0,-1,1.0\n"
      "A,3.0,0,0,-1,1.0\n",  // already retracted
      &registry);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("already retracted"), std::string::npos);
  EXPECT_EQ(result.error_line, 4u);
}

TEST(CsvLoaderTest, RejectsRetractTsAfterRowTs) {
  EventTypeRegistry registry;
  CsvLoadResult result = LoadCsvStreamFromString(
      "type,ts,partition,v,polarity,retract_ts\n"
      "A,1.0,0,1,1,\n"
      "A,2.0,0,0,-1,3.0\n",
      &registry);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("retract_ts"), std::string::npos);
}

TEST(CsvLoaderTest, RejectsNonFiniteRetractTs) {
  for (const char* bad : {"nan", "inf", "-inf", "noon"}) {
    EventTypeRegistry registry;
    CsvLoadResult result = LoadCsvStreamFromString(
        std::string("type,ts,partition,v,polarity,retract_ts\n"
                    "A,1.0,0,1,1,\n"
                    "A,2.0,0,0,-1,") +
            bad + "\n",
        &registry);
    EXPECT_FALSE(result.ok) << "retract_ts '" << bad << "' accepted";
    EXPECT_NE(result.error.find("retract_ts"), std::string::npos) << bad;
  }
}

TEST(CsvLoaderTest, RejectsRetractTsOnInsertRow) {
  EventTypeRegistry registry;
  CsvLoadResult result = LoadCsvStreamFromString(
      "type,ts,partition,v,polarity,retract_ts\n"
      "A,1.0,0,1,1,1.0\n",
      &registry);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("insert rows must leave retract_ts empty"),
            std::string::npos);
}

TEST(CsvLoaderTest, RejectsRetractTsWithoutPolarity) {
  EventTypeRegistry registry;
  CsvLoadResult result = LoadCsvStreamFromString(
      "type,ts,partition,v,retract_ts\nA,1.0,0,1,\n", &registry);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("polarity"), std::string::npos);
}

TEST(CsvLoaderTest, RejectsNonTrailingPolarityColumn) {
  EventTypeRegistry registry;
  CsvLoadResult result = LoadCsvStreamFromString(
      "type,ts,partition,polarity,v\nA,1.0,0,1,2.0\n", &registry);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("last header column"), std::string::npos);
}

TEST(CsvLoaderTest, InsertOnlyFileWithoutPolarityColumnUnchanged) {
  // No polarity column: no delta semantics, no ledger, identical to the
  // pre-delta loader.
  EventTypeRegistry registry;
  CsvLoadResult result = LoadCsvStreamFromString(
      "type,ts,partition,v\nA,1,0,1.0\n", &registry);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_FALSE(result.stream.retractions_enabled());
  EXPECT_EQ(result.stream[0]->polarity, 1);
}

TEST(CsvLoaderTest, KeepsValidPrefixOnError) {
  // The loader reports the failing line and leaves the events parsed
  // before it in the stream — mirroring the async source semantics.
  EventTypeRegistry registry;
  CsvLoadResult result = LoadCsvStreamFromString(
      "type,ts,partition,v\nA,1,0,1\nA,2,0,2\nA,bad,0,3\n", &registry);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error_line, 4u);
  EXPECT_EQ(result.stream.size(), 2u);
}

}  // namespace
}  // namespace cepjoin
