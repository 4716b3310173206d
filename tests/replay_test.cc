// Tests for consolidate/replay: applying persisted transformations to new
// data, log serialization round trips, and the end-to-end "approve once,
// replay on the next batch" flow through the real pipeline.
#include <gtest/gtest.h>

#include "consolidate/framework.h"
#include "consolidate/oracle.h"
#include "consolidate/replay.h"
#include "datagen/generators.h"
#include "dsl/parser.h"
#include "eval/metrics.h"
#include "pipeline/oracle_broker.h"

namespace ustl {
namespace {

// "Keep the digits" — consistent with 9th -> 9, 22nd -> 22, ...
Program KeepDigits() {
  Term td = Term::Regex(CharClass::kDigit);
  return Program({StringFn::SubStr(PosFn::MatchPos(td, 1, Dir::kBegin),
                                   PosFn::MatchPos(td, 1, Dir::kEnd))});
}

TEST(ApplyTransformationTest, RewritesConsistentPairs) {
  Column column = {{"9th", "9", "9th"}, {"22nd", "22"}, {"5th", "7"}};
  ApprovedTransformation transformation;
  transformation.program = KeepDigits();
  transformation.direction = ReplaceDirection::kLhsToRhs;
  size_t edits = ApplyTransformation(&column, transformation);
  EXPECT_EQ(edits, 3u);  // two 9th cells + one 22nd cell
  EXPECT_EQ(column[0], (std::vector<std::string>{"9", "9", "9"}));
  EXPECT_EQ(column[1], (std::vector<std::string>{"22", "22"}));
  // 5th -> 7 is NOT consistent (digits differ): untouched.
  EXPECT_EQ(column[2], (std::vector<std::string>{"5th", "7"}));
}

TEST(ApplyTransformationTest, ReverseDirectionRewritesTheOtherSide) {
  Column column = {{"9th", "9"}};
  ApprovedTransformation transformation;
  transformation.program = KeepDigits();
  transformation.direction = ReplaceDirection::kRhsToLhs;
  EXPECT_EQ(ApplyTransformation(&column, transformation), 1u);
  EXPECT_EQ(column[0], (std::vector<std::string>{"9th", "9th"}));
}

TEST(ApplyTransformationTest, NoCrossClusterRewrites) {
  // "9" exists in cluster 1 but no "9th" does: nothing to do there.
  Column column = {{"9th", "9"}, {"9", "10"}};
  ApprovedTransformation transformation;
  transformation.program = KeepDigits();
  EXPECT_EQ(ApplyTransformation(&column, transformation), 1u);
  EXPECT_EQ(column[1], (std::vector<std::string>{"9", "10"}));
}

TEST(ReplayTransformationsTest, RespectsColumnAttribution) {
  Table table({"ordinal", "name"});
  size_t c = table.AddCluster();
  table.AddRecord(c, {"9th", "9th"});
  table.AddRecord(c, {"9", "9"});
  ApprovedTransformation transformation;
  transformation.column = "ordinal";
  transformation.program = KeepDigits();
  EXPECT_EQ(ReplayTransformations(&table, {transformation}), 1u);
  EXPECT_EQ(table.cluster(c)[0][0], "9");   // ordinal column rewritten
  EXPECT_EQ(table.cluster(c)[0][1], "9th");  // name column untouched
}

TEST(ReplayTransformationsTest, UnnamedTransformationAppliesEverywhere) {
  Table table({"a", "b"});
  size_t c = table.AddCluster();
  table.AddRecord(c, {"9th", "22nd"});
  table.AddRecord(c, {"9", "22"});
  ApprovedTransformation transformation;
  transformation.program = KeepDigits();
  EXPECT_EQ(ReplayTransformations(&table, {transformation}), 2u);
}

TEST(TransformationLogTest, RoundTrips) {
  ApprovedTransformation a;
  a.column = "Address";
  a.program = KeepDigits();
  a.direction = ReplaceDirection::kRhsToLhs;
  ApprovedTransformation b;
  b.program = Program({StringFn::ConstantStr("x (+) \"y\"")});
  b.direction = ReplaceDirection::kLhsToRhs;

  std::string log = SerializeTransformationLog({a, b});
  Result<std::vector<ApprovedTransformation>> parsed =
      ParseTransformationLog(log);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].column, "Address");
  EXPECT_EQ((*parsed)[0].direction, ReplaceDirection::kRhsToLhs);
  EXPECT_EQ((*parsed)[0].program.functions(), a.program.functions());
  EXPECT_EQ((*parsed)[1].column, "");
  EXPECT_EQ((*parsed)[1].program.functions(), b.program.functions());
}

TEST(TransformationLogTest, IgnoresUnknownKeysAndCrLf) {
  Result<std::vector<ApprovedTransformation>> parsed =
      ParseTransformationLog(
          "column: a\r\n"
          "size: 12\r\n"
          "direction: lhs->rhs\r\n"
          "program: ConstantStr(\"x\")\r\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0].column, "a");
  // A block of only unknown keys is skipped, not an error.
  parsed = ParseTransformationLog("size: 12\n\nprogram: ConstantStr(\"x\")\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0].column, "");
}

TEST(TransformationLogTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseTransformationLog("not a log line\n").ok());
  EXPECT_FALSE(
      ParseTransformationLog("direction: sideways\nprogram: x\n").ok());
  EXPECT_FALSE(ParseTransformationLog("program: Bogus(1)\n").ok());
  // A block without a program is malformed: its column, direction and
  // pairs must not leak into the next block's program.
  Result<std::vector<ApprovedTransformation>> no_program =
      ParseTransformationLog(
          "column: Address\ndirection: rhs->lhs\n"
          "pair: \"9 Street\" -> \"9 St\"\n\nprogram: ConstantStr(\"x\")\n");
  ASSERT_FALSE(no_program.ok());
  EXPECT_NE(no_program.status().ToString().find("line 1"), std::string::npos)
      << no_program.status().ToString();
}

TEST(TransformationLogTest, EmptyLogIsEmpty) {
  Result<std::vector<ApprovedTransformation>> parsed =
      ParseTransformationLog("");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
}

TEST(TransformationLogTest, PairLinesRoundTripWithEscapes) {
  ApprovedTransformation a;
  a.column = "authors";
  a.program = KeepDigits();
  a.pairs.push_back({"smith, \"chris\"", "s. smith"});
  a.pairs.push_back({"line\nbreak \\ slash", "clean"});
  std::string log = SerializeTransformationLog({a});
  Result<std::vector<ApprovedTransformation>> parsed =
      ParseTransformationLog(log);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 1u);
  ASSERT_EQ((*parsed)[0].pairs.size(), 2u);
  EXPECT_EQ((*parsed)[0].pairs[0], a.pairs[0]);
  EXPECT_EQ((*parsed)[0].pairs[1], a.pairs[1]);
  EXPECT_FALSE(ParseTransformationLog("pair: no quotes\n"
                                      "program: ConstantStr(\"x\")\n")
                   .ok());
  EXPECT_FALSE(ParseTransformationLog("pair: \"a\" -> \"unterminated\n"
                                      "program: ConstantStr(\"x\")\n")
                   .ok());
}

TEST(ApplyTransformationTest, RecordedPairsApplyOnlyThoseMembers) {
  // Both clusters hold a pair consistent with KeepDigits, but the session
  // only approved the first one: replay with recorded members must leave
  // the other cluster untouched (the over-application that used to break
  // the authorlist round trip).
  Column column = {{"9th", "9"}, {"22nd", "22"}};
  ApprovedTransformation transformation;
  transformation.program = KeepDigits();
  transformation.pairs.push_back({"9th", "9"});
  EXPECT_EQ(ApplyTransformation(&column, transformation), 1u);
  EXPECT_EQ(column[0], (std::vector<std::string>{"9", "9"}));
  EXPECT_EQ(column[1], (std::vector<std::string>{"22nd", "22"}));
}

// The live session and a replay of its approved log must agree byte for
// byte on every generated dataset — the replay-fidelity contract behind
// `ustl-consolidate --log/--replay`. Mirrors the CLI defaults (broker in
// front of an approve-all backend, default budget and candidate options).
class ReplayRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(ReplayRoundTrip, LogReplaysByteIdentically) {
  GeneratedDataset dataset;
  AllDatasets all = GenerateAllDatasets(0.05, 7);
  std::string which = GetParam();
  if (which == "address") dataset = std::move(all.address);
  if (which == "authorlist") dataset = std::move(all.author_list);
  if (which == "journaltitle") dataset = std::move(all.journal_title);
  ASSERT_FALSE(dataset.column.empty());

  Column live = dataset.column;
  ApproveAllOracle approve_all;
  OracleBroker broker(&approve_all);
  FrameworkOptions options;
  options.column_name = "value";
  ColumnRunResult result = StandardizeColumn(&live, &broker, options);
  ASSERT_GT(result.groups_approved, 0u);

  Result<std::vector<ApprovedTransformation>> parsed =
      ParseTransformationLog(broker.SerializeApprovedLog());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Column replayed = dataset.column;
  for (const ApprovedTransformation& transformation : *parsed) {
    ApplyTransformation(&replayed, transformation);
  }
  EXPECT_EQ(replayed, live) << which << " replay diverged from the session";
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, ReplayRoundTrip,
                         ::testing::Values("address", "authorlist",
                                           "journaltitle"));

TEST(ReplayEndToEndTest, ApproveOnceReplayOnSecondBatch) {
  // Batch 1 goes through real verification; the approved groups are
  // serialized and replayed on batch 2, which must come out standardized
  // without any oracle involvement.
  Column batch1 = {
      {"9th", "9"},       {"3rd", "3"},   {"22nd", "22"},
      {"101st", "101"},   {"47th", "47"},
  };
  Column batch2 = {{"8th", "8"}, {"33rd", "33", "33rd"}};

  ApproveAllOracle oracle;
  FrameworkOptions options;
  options.budget_per_column = 10;
  ColumnRunResult result = StandardizeColumn(&batch1, &oracle, options);
  ASSERT_GT(result.groups_approved, 0u);

  std::vector<ApprovedTransformation> approved;
  for (const GroupTrace& trace : result.trace) {
    if (!trace.approved) continue;
    Result<Program> program = ParseProgram(trace.program);
    ASSERT_TRUE(program.ok()) << trace.program;
    ApprovedTransformation transformation;
    transformation.program = std::move(program).value();
    transformation.direction = trace.direction;
    approved.push_back(std::move(transformation));
  }
  std::string log = SerializeTransformationLog(approved);
  Result<std::vector<ApprovedTransformation>> parsed =
      ParseTransformationLog(log);
  ASSERT_TRUE(parsed.ok());

  size_t edits = 0;
  for (const ApprovedTransformation& transformation : *parsed) {
    edits += ApplyTransformation(&batch2, transformation);
  }
  EXPECT_GT(edits, 0u);
  // Both batch-2 clusters are fully standardized.
  EXPECT_EQ(batch2[0][0], batch2[0][1]);
  EXPECT_EQ(batch2[1][0], batch2[1][1]);
  EXPECT_EQ(batch2[1][1], batch2[1][2]);
}

}  // namespace
}  // namespace ustl
