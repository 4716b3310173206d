// Tests for src/replace: candidate generation (Section 3 step 1,
// Appendix A) and the replacement store with its Section 7.1 update
// semantics.
#include <gtest/gtest.h>

#include <algorithm>

#include "replace/candidate_gen.h"
#include "replace/replacement_store.h"

namespace ustl {
namespace {

Column Table1NameColumn() {
  // The Name column of Table 1, lowercased clusters {r1,r2,r3}, {r4,r5,r6}.
  return {{"Mary Lee", "M. Lee", "Lee, Mary"},
          {"Smith, James", "James Smith", "J. Smith"}};
}

TEST(CandidateGenTest, FullValuePairsBothDirections) {
  CandidateGenOptions options;
  options.token_level = false;
  CandidateSet set = GenerateCandidates(Table1NameColumn(), options);
  // 3 values per cluster -> 6 ordered pairs per cluster -> 12 total
  // (Section 3: "12 candidate replacements from the two clusters").
  EXPECT_EQ(set.pairs.size(), 12u);
  EXPECT_NE(set.Find("Mary Lee", "M. Lee"), static_cast<size_t>(-1));
  EXPECT_NE(set.Find("M. Lee", "Mary Lee"), static_cast<size_t>(-1));
  EXPECT_EQ(set.Find("Mary Lee", "J. Smith"), static_cast<size_t>(-1))
      << "cross-cluster pairs must not be generated";
}

TEST(CandidateGenTest, OccurrencesPointAtLhsCells) {
  CandidateGenOptions options;
  options.token_level = false;
  CandidateSet set = GenerateCandidates(Table1NameColumn(), options);
  size_t index = set.Find("Mary Lee", "M. Lee");
  ASSERT_NE(index, static_cast<size_t>(-1));
  ASSERT_EQ(set.occurrences[index].size(), 1u);
  const Occurrence& occ = set.occurrences[index][0];
  EXPECT_EQ(occ.cluster, 0u);
  EXPECT_EQ(occ.row, 0u);  // the cell holding "Mary Lee"
  EXPECT_TRUE(occ.whole_value);
}

TEST(CandidateGenTest, TokenLevelExampleA1) {
  // Appendix A: "9 St, 02141 Wisconsin" ~ "9th St, 02141 WI" produces the
  // four segment replacements 9->9th, 9th->9, Wisconsin->WI, WI->Wisconsin.
  Column column = {{"9 St, 02141 Wisconsin", "9th St, 02141 WI"}};
  CandidateGenOptions options;
  options.full_value_pairs = false;
  CandidateSet set = GenerateCandidates(column, options);
  EXPECT_EQ(set.pairs.size(), 4u);
  EXPECT_NE(set.Find("9", "9th"), static_cast<size_t>(-1));
  EXPECT_NE(set.Find("9th", "9"), static_cast<size_t>(-1));
  EXPECT_NE(set.Find("Wisconsin", "WI"), static_cast<size_t>(-1));
  EXPECT_NE(set.Find("WI", "Wisconsin"), static_cast<size_t>(-1));
}

TEST(CandidateGenTest, TokenOccurrenceOffsets) {
  Column column = {{"9 St, 02141 Wisconsin", "9th St, 02141 WI"}};
  CandidateGenOptions options;
  options.full_value_pairs = false;
  CandidateSet set = GenerateCandidates(column, options);
  size_t index = set.Find("Wisconsin", "WI");
  ASSERT_NE(index, static_cast<size_t>(-1));
  ASSERT_EQ(set.occurrences[index].size(), 1u);
  EXPECT_EQ(set.occurrences[index][0].begin, 13);  // 1-based offset
  EXPECT_FALSE(set.occurrences[index][0].whole_value);
}

TEST(CandidateGenTest, LongValuesSkipped) {
  CandidateGenOptions options;
  options.max_value_len = 4;
  Column column = {{"aaaaaaaa", "b"}};
  CandidateSet set = GenerateCandidates(column, options);
  EXPECT_TRUE(set.pairs.empty());
}

TEST(CandidateGenTest, DuplicateValuesProduceSharedPair) {
  // Two cells with "9" and one with "9th": the pair 9 -> 9th has two
  // occurrences (one per "9" cell).
  Column column = {{"9", "9", "9th"}};
  CandidateGenOptions options;
  options.token_level = false;
  CandidateSet set = GenerateCandidates(column, options);
  size_t index = set.Find("9", "9th");
  ASSERT_NE(index, static_cast<size_t>(-1));
  EXPECT_EQ(set.occurrences[index].size(), 2u);
}

// --- Replacement store (Section 7.1). ---

TEST(ReplacementStoreTest, ApplyWholeValue) {
  ReplacementStore store(Table1NameColumn(), CandidateGenOptions{});
  size_t index = store.pairs().size();
  for (size_t i = 0; i < store.num_pairs(); ++i) {
    if (store.pair(i).lhs == "Lee, Mary" && store.pair(i).rhs == "Mary Lee") {
      index = i;
    }
  }
  ASSERT_LT(index, store.num_pairs());
  size_t edits = store.Apply(index);
  EXPECT_EQ(edits, 1u);
  EXPECT_EQ(store.column()[0][2], "Mary Lee");
}

TEST(ReplacementStoreTest, Section71EntryMigration) {
  // Section 7.1's example: after v1 -> v2 is applied, the replacement
  // v1 -> v3 becomes v2 -> v3 (its occurrence migrates) and v2 -> v1 no
  // longer exists anywhere.
  Column column = {{"v1x", "v2x", "v3x"}};
  CandidateGenOptions options;
  options.token_level = false;
  ReplacementStore store(column, options);
  size_t v1v2 = store.pairs().size();
  for (size_t i = 0; i < store.num_pairs(); ++i) {
    if (store.pair(i).lhs == "v1x" && store.pair(i).rhs == "v2x") v1v2 = i;
  }
  ASSERT_LT(v1v2, store.num_pairs());
  EXPECT_EQ(store.Apply(v1v2), 1u);
  EXPECT_EQ(store.column()[0][0], "v2x");

  for (size_t i = 0; i < store.num_pairs(); ++i) {
    const StringPair& pair = store.pair(i);
    if (pair.lhs == "v1x" || pair.rhs == "v1x") {
      EXPECT_TRUE(store.occurrences(i).empty())
          << pair.lhs << " -> " << pair.rhs << " should be dead";
    }
    if (pair.lhs == "v2x" && pair.rhs == "v3x") {
      // Both v2x cells now pair with v3x.
      EXPECT_EQ(store.occurrences(i).size(), 2u);
    }
  }
}

TEST(ReplacementStoreTest, ApplyReverseUsesMirrorOccurrences) {
  Column column = {{"Street", "St"}};
  CandidateGenOptions options;
  options.token_level = false;
  ReplacementStore store(column, options);
  size_t index = store.pairs().size();
  for (size_t i = 0; i < store.num_pairs(); ++i) {
    if (store.pair(i).lhs == "St" && store.pair(i).rhs == "Street") index = i;
  }
  ASSERT_LT(index, store.num_pairs());
  // Reverse of St -> Street replaces Street cells by St.
  EXPECT_EQ(store.ApplyReverse(index), 1u);
  EXPECT_EQ(store.column()[0][0], "St");
  EXPECT_EQ(store.column()[0][1], "St");
}

TEST(ReplacementStoreTest, TokenLevelApplyEditsInPlace) {
  Column column = {{"9 St, 02141 Wisconsin", "9th St, 02141 WI"}};
  CandidateGenOptions options;
  options.full_value_pairs = false;
  ReplacementStore store(column, options);
  size_t index = store.pairs().size();
  for (size_t i = 0; i < store.num_pairs(); ++i) {
    if (store.pair(i).lhs == "Wisconsin" && store.pair(i).rhs == "WI") {
      index = i;
    }
  }
  ASSERT_LT(index, store.num_pairs());
  EXPECT_EQ(store.Apply(index), 1u);
  EXPECT_EQ(store.column()[0][0], "9 St, 02141 WI");
}

TEST(ReplacementStoreTest, StaleOccurrencesSkipped) {
  // Applying the same whole-value replacement twice edits nothing new.
  Column column = {{"a1", "b2"}};
  CandidateGenOptions options;
  options.token_level = false;
  ReplacementStore store(column, options);
  size_t index = store.pairs().size();
  for (size_t i = 0; i < store.num_pairs(); ++i) {
    if (store.pair(i).lhs == "a1") index = i;
  }
  ASSERT_LT(index, store.num_pairs());
  EXPECT_EQ(store.Apply(index), 1u);
  EXPECT_EQ(store.Apply(index), 0u);
  EXPECT_EQ(store.column()[0][0], "b2");
}

TEST(ReplacementStoreTest, ConvergenceMakesClusterIdentical) {
  // Applying the right replacements makes all variants identical — the TP
  // condition of the evaluation protocol.
  Column column = {{"9 St, 02141 Wisconsin", "9th St, 02141 WI",
                    "9th Street, 02141 WI"}};
  ReplacementStore store(column, CandidateGenOptions{});
  // Apply whole-value replacements toward "9th Street, 02141 WI".
  for (size_t i = 0; i < store.num_pairs(); ++i) {
    if (store.pair(i).rhs == "9th Street, 02141 WI" &&
        !store.occurrences(i).empty() &&
        store.occurrences(i)[0].whole_value) {
      store.Apply(i);
    }
  }
  EXPECT_EQ(store.column()[0][0], store.column()[0][1]);
  EXPECT_EQ(store.column()[0][1], store.column()[0][2]);
}

TEST(ReplacementStoreTest, WholeValueRewriteSubsumesTokenOccurrence) {
  // Regression: the pair 9 -> 9th carries both a whole-value occurrence
  // and a token occurrence on the same cell. One Apply must rewrite the
  // cell exactly once — the token occurrence firing after the whole-value
  // rewrite produced "9thth".
  Column column = {{"9th", "9"}};
  ReplacementStore store(column, CandidateGenOptions{});
  size_t index = store.pairs().size();
  for (size_t i = 0; i < store.num_pairs(); ++i) {
    if (store.pair(i).lhs == "9" && store.pair(i).rhs == "9th") index = i;
  }
  ASSERT_LT(index, store.num_pairs());
  EXPECT_EQ(store.Apply(index), 1u);
  EXPECT_EQ(store.column()[0], (std::vector<std::string>{"9th", "9th"}));
}

TEST(ReplacementStoreTest, MultipleTokenOccurrencesInOneCellAllApply) {
  // "St" appears twice in one cell; the token-level pair St -> Street
  // must rewrite both spans (right-to-left so offsets stay valid), not
  // just the first.
  Column column = {{"St Mary St Boston", "Street Mary Street Boston"}};
  ReplacementStore store(column, CandidateGenOptions{});
  size_t index = store.pairs().size();
  for (size_t i = 0; i < store.num_pairs(); ++i) {
    if (store.pair(i).lhs == "St" && store.pair(i).rhs == "Street") {
      index = i;
    }
  }
  ASSERT_LT(index, store.num_pairs());
  EXPECT_EQ(store.Apply(index), 2u);
  EXPECT_EQ(store.column()[0][0], "Street Mary Street Boston");
}

}  // namespace
}  // namespace ustl
