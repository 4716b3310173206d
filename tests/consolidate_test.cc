// Tests for src/consolidate: the table model, the simulated oracle, the
// majority-consensus truth discovery (Section 8.3), and the Algorithm-1
// framework including the Single baseline.
#include <gtest/gtest.h>

#include "consolidate/cluster.h"
#include "consolidate/framework.h"
#include "consolidate/oracle.h"
#include "consolidate/truth_discovery.h"

namespace ustl {
namespace {

TEST(TableTest, RoundTripColumns) {
  Table table({"Name", "Address"});
  size_t c0 = table.AddCluster();
  table.AddRecord(c0, {"Mary Lee", "9 St"});
  table.AddRecord(c0, {"M. Lee", "9th St"});
  size_t c1 = table.AddCluster();
  table.AddRecord(c1, {"J. Smith", "3 Ave"});
  EXPECT_EQ(table.num_clusters(), 2u);
  EXPECT_EQ(table.num_records(), 3u);

  Column names = table.ExtractColumn(0);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], (std::vector<std::string>{"Mary Lee", "M. Lee"}));
  names[0][1] = "Mary Lee";
  table.StoreColumn(0, names);
  EXPECT_EQ(table.cluster(0)[1][0], "Mary Lee");
  EXPECT_EQ(table.cluster(0)[1][1], "9th St");  // other column untouched
}

TEST(MajorityValueTest, PicksMostFrequent) {
  EXPECT_EQ(MajorityValue({"a", "b", "a"}), "a");
  EXPECT_EQ(MajorityValue({"x"}), "x");
}

TEST(MajorityValueTest, TieYieldsNothing) {
  // Section 8.3: "if there are two values with the same frequency, MC
  // could not produce a golden value".
  EXPECT_FALSE(MajorityValue({"a", "b"}).has_value());
  EXPECT_FALSE(MajorityValue({"a", "a", "b", "b"}).has_value());
  EXPECT_FALSE(MajorityValue({}).has_value());
}

TEST(MajorityConsensusTest, PerClusterPerColumn) {
  Table table({"Name"});
  size_t c0 = table.AddCluster();
  table.AddRecord(c0, {"Mary Lee"});
  table.AddRecord(c0, {"Mary Lee"});
  table.AddRecord(c0, {"M. Lee"});
  size_t c1 = table.AddCluster();
  table.AddRecord(c1, {"a"});
  table.AddRecord(c1, {"b"});
  auto golden = MajorityConsensus(table);
  ASSERT_EQ(golden.size(), 2u);
  EXPECT_EQ(golden[0][0], "Mary Lee");
  EXPECT_FALSE(golden[1][0].has_value());
}

TEST(SimulatedOracleTest, ApprovesGenuineGroups) {
  SimulatedOracle oracle(
      [](const StringPair& pair) { return pair.rhs.size() > pair.lhs.size(); },
      [](const StringPair&) { return 1; }, SimulatedOracle::Options{});
  Verdict verdict =
      oracle.Verify({{"St", "Street"}, {"Ave", "Avenue"}, {"Rd", "Road"}});
  EXPECT_TRUE(verdict.approved);
  EXPECT_EQ(verdict.direction, ReplaceDirection::kLhsToRhs);
  EXPECT_EQ(oracle.questions_asked(), 1u);
}

TEST(SimulatedOracleTest, RejectsMixedGroups) {
  // Below the 80% threshold: 1 genuine of 3.
  SimulatedOracle oracle(
      [](const StringPair& pair) { return pair.lhs == "good"; },
      nullptr, SimulatedOracle::Options{});
  Verdict verdict =
      oracle.Verify({{"good", "x"}, {"bad", "y"}, {"bad", "z"}});
  EXPECT_FALSE(verdict.approved);
}

TEST(SimulatedOracleTest, DirectionFollowsVotes) {
  SimulatedOracle oracle(
      [](const StringPair&) { return true; },
      [](const StringPair&) { return -1; }, SimulatedOracle::Options{});
  Verdict verdict = oracle.Verify({{"a", "b"}, {"c", "d"}});
  EXPECT_TRUE(verdict.approved);
  EXPECT_EQ(verdict.direction, ReplaceDirection::kRhsToLhs);
}

TEST(SimulatedOracleTest, ErrorInjectionFlipsSomeVerdicts) {
  SimulatedOracle::Options options;
  options.error_rate = 1.0;  // always wrong
  SimulatedOracle oracle([](const StringPair&) { return true; }, nullptr,
                         options);
  Verdict verdict = oracle.Verify({{"a", "b"}});
  EXPECT_FALSE(verdict.approved);
}

TEST(SimulatedOracleTest, InspectsBoundedSample) {
  // A group with 1000 pairs, 90% genuine: with max_inspected = 10 the
  // verdict is computed on a sample, and stays deterministic per seed.
  std::vector<StringPair> pairs;
  for (int i = 0; i < 1000; ++i) {
    pairs.push_back({"good" + std::to_string(i), "x"});
  }
  SimulatedOracle::Options options;
  options.max_inspected = 10;
  SimulatedOracle a([](const StringPair&) { return true; }, nullptr, options);
  SimulatedOracle b([](const StringPair&) { return true; }, nullptr, options);
  EXPECT_EQ(a.Verify(pairs).approved, b.Verify(pairs).approved);
}

TEST(ApproveAllOracleTest, ApprovesEverything) {
  ApproveAllOracle oracle;
  EXPECT_TRUE(oracle.Verify({{"a", "b"}}).approved);
}

// --- Framework (Algorithm 1). ---

Column VariantColumn() {
  return {{"9 Street", "9 St"},
          {"3 Street", "3 St"},
          {"7 Street", "7 St"},
          {"Oak Street", "Oak St"}};
}

TEST(FrameworkTest, StandardizeColumnConvergesVariants) {
  Column column = VariantColumn();
  ApproveAllOracle oracle;
  FrameworkOptions options;
  options.budget_per_column = 20;
  ColumnRunResult result = StandardizeColumn(&column, &oracle, options);
  EXPECT_GT(result.groups_presented, 0u);
  EXPECT_GT(result.edits, 0u);
  // The St <-> Street family must have converged in every cluster.
  for (const auto& cluster : column) {
    EXPECT_EQ(cluster[0], cluster[1]) << cluster[0] << " vs " << cluster[1];
  }
}

TEST(FrameworkTest, BudgetLimitsPresentedGroups) {
  Column column = VariantColumn();
  ApproveAllOracle oracle;
  FrameworkOptions options;
  options.budget_per_column = 1;
  ColumnRunResult result = StandardizeColumn(&column, &oracle, options);
  EXPECT_EQ(result.groups_presented, 1u);
  ASSERT_EQ(result.trace.size(), 1u);
  EXPECT_GE(result.trace[0].size, 1u);
}

TEST(FrameworkTest, RejectionAppliesNothing) {
  Column column = VariantColumn();
  Column before = column;
  SimulatedOracle oracle([](const StringPair&) { return false; }, nullptr,
                         SimulatedOracle::Options{});
  FrameworkOptions options;
  options.budget_per_column = 10;
  ColumnRunResult result = StandardizeColumn(&column, &oracle, options);
  EXPECT_EQ(result.groups_approved, 0u);
  EXPECT_EQ(result.edits, 0u);
  EXPECT_EQ(column, before);
}

TEST(FrameworkTest, ProgressCallbackFiresPerGroup) {
  Column column = VariantColumn();
  ApproveAllOracle oracle;
  FrameworkOptions options;
  options.budget_per_column = 5;
  size_t calls = 0;
  options.progress_callback = [&](size_t presented, const Column& current) {
    ++calls;
    EXPECT_EQ(presented, calls);
    EXPECT_EQ(current.size(), 4u);
  };
  ColumnRunResult result = StandardizeColumn(&column, &oracle, options);
  EXPECT_EQ(calls, result.groups_presented);
}

TEST(FrameworkTest, SingleBaselinePresentsOnePairAtATime) {
  Column column = VariantColumn();
  ApproveAllOracle oracle;
  FrameworkOptions options;
  options.budget_per_column = 3;
  options.skip_dead_groups = false;  // pin the strict budget semantics
  ColumnRunResult result = StandardizeColumnSingle(&column, &oracle, options);
  EXPECT_EQ(result.groups_presented, 3u);
  for (const GroupTrace& trace : result.trace) {
    EXPECT_EQ(trace.size, 1u);
  }
}

TEST(FrameworkTest, SingleSkipsDeadPairs) {
  // With dead-group skipping (Section 7.1), applying a replacement kills
  // its mirror and the column can converge in fewer questions than the
  // budget allows.
  Column column = VariantColumn();
  ApproveAllOracle oracle;
  FrameworkOptions options;
  options.budget_per_column = 50;
  ColumnRunResult result = StandardizeColumnSingle(&column, &oracle, options);
  EXPECT_LT(result.groups_presented, 50u);
  for (const auto& cluster : column) {
    EXPECT_EQ(cluster[0], cluster[1]);
  }
}

TEST(FrameworkTest, GroupBeatsSingleAtEqualBudget) {
  // The motivating claim: batched verification standardizes more data per
  // question (Figure 7). With full-value candidates only (so Single cannot
  // piggyback on shared token replacements) and 3 questions for 6
  // clusters, Group converges everything, Single at most 3 clusters.
  Column column;
  for (int i = 1; i <= 6; ++i) {
    std::string n = std::to_string(i);
    column.push_back({n + " Street", n + " St"});
  }
  FrameworkOptions options;
  options.budget_per_column = 3;
  options.candidates.token_level = false;
  ApproveAllOracle group_oracle, single_oracle;
  Column grouped = column;
  StandardizeColumn(&grouped, &group_oracle, options);
  Column single = column;
  StandardizeColumnSingle(&single, &single_oracle, options);
  auto converged = [](const Column& c) {
    size_t count = 0;
    for (const auto& cluster : c) count += cluster[0] == cluster[1];
    return count;
  };
  EXPECT_EQ(converged(grouped), 6u);
  EXPECT_LE(converged(single), 3u);
}

TEST(FrameworkTest, GoldenRecordCreationEndToEnd) {
  Table table({"Address"});
  size_t c0 = table.AddCluster();
  table.AddRecord(c0, {"9 Street"});
  table.AddRecord(c0, {"9 St"});
  table.AddRecord(c0, {"9 St"});
  size_t c1 = table.AddCluster();
  table.AddRecord(c1, {"3 Street"});
  table.AddRecord(c1, {"3 St"});
  ApproveAllOracle oracle;
  FrameworkOptions options;
  options.budget_per_column = 10;
  GoldenRecordRun run = GoldenRecordCreation(&table, &oracle, options);
  ASSERT_EQ(run.per_column.size(), 1u);
  ASSERT_EQ(run.golden_records.size(), 2u);
  // After standardization both clusters are unanimous, so MC resolves
  // both (the c1 tie resolves because the variants converged).
  EXPECT_TRUE(run.golden_records[0][0].has_value());
  EXPECT_TRUE(run.golden_records[1][0].has_value());
}

TEST(FrameworkTest, GoldenRecordCreationHonorsTheCallersCancelToken) {
  Table table({"Address"});
  size_t c0 = table.AddCluster();
  table.AddRecord(c0, {"9 Street"});
  table.AddRecord(c0, {"9 St"});
  table.AddRecord(c0, {"9 St"});
  ApproveAllOracle oracle;
  CancelState state;
  state.Cancel();
  FrameworkOptions options;
  options.budget_per_column = 10;
  options.cancel = CancelToken(&state);
  EXPECT_THROW(GoldenRecordCreation(&table, &oracle, options), CancelledError);
  EXPECT_EQ(table.cluster(c0)[0][0], "9 Street");
  EXPECT_EQ(table.cluster(c0)[1][0], "9 St");
  EXPECT_EQ(table.cluster(c0)[2][0], "9 St");
}

}  // namespace
}  // namespace ustl
