// Tests for the extensions layered on the paper's pseudocode: target
// splitting / constant coverage of programs, the pure-constant and
// constant-coverage group annotations, the framework's budget-preserving
// filters, and a configuration sweep of the graph builder.
#include <gtest/gtest.h>

#include "consolidate/framework.h"
#include "consolidate/oracle.h"
#include "dsl/program.h"
#include "graph/graph_builder.h"
#include "grouping/grouping.h"

namespace ustl {
namespace {

// --- Program::SplitTarget / ConstantCoverage. ---

TEST(SplitTargetTest, RecoversPieces) {
  Term tc = Term::Regex(CharClass::kUpper);
  Term tl = Term::Regex(CharClass::kLower);
  Term tb = Term::Regex(CharClass::kSpace);
  Program rho({StringFn::SubStr(PosFn::MatchPos(tb, 1, Dir::kEnd),
                                PosFn::MatchPos(tc, -1, Dir::kEnd)),
               StringFn::ConstantStr(". "),
               StringFn::SubStr(PosFn::MatchPos(tc, 1, Dir::kBegin),
                                PosFn::MatchPos(tl, 1, Dir::kEnd))});
  auto pieces = rho.SplitTarget("Lee, Mary", "M. Lee");
  ASSERT_TRUE(pieces.has_value());
  EXPECT_EQ(*pieces, (std::vector<std::string>{"M", ". ", "Lee"}));
}

TEST(SplitTargetTest, InconsistentYieldsNullopt) {
  Program rho({StringFn::ConstantStr("xyz")});
  EXPECT_FALSE(rho.SplitTarget("a", "abc").has_value());
  EXPECT_FALSE(Program().SplitTarget("a", "b").has_value());
}

TEST(ConstantCoverageTest, Extremes) {
  Program all_constant({StringFn::ConstantStr("M. Lee")});
  EXPECT_DOUBLE_EQ(all_constant.ConstantCoverage("Lee, Mary", "M. Lee"), 1.0);

  Term tl = Term::Regex(CharClass::kLower);
  Term tc = Term::Regex(CharClass::kUpper);
  Program no_constant({StringFn::SubStr(PosFn::MatchPos(tc, 1, Dir::kBegin),
                                        PosFn::MatchPos(tc, 1, Dir::kEnd)),
                       StringFn::Prefix(tl, 1)});
  EXPECT_DOUBLE_EQ(no_constant.ConstantCoverage("Street", "St"), 0.0);
  // Inconsistent program covers nothing.
  EXPECT_DOUBLE_EQ(all_constant.ConstantCoverage("x", "nope"), 0.0);
}

TEST(ConstantCoverageTest, MixedProgram) {
  // "9" -> "9th": SubStr("9") + Constant("th") covers 2 of 3 chars.
  Term td = Term::Regex(CharClass::kDigit);
  Program rho({StringFn::SubStr(PosFn::MatchPos(td, 1, Dir::kBegin),
                                PosFn::MatchPos(td, 1, Dir::kEnd)),
               StringFn::ConstantStr("th")});
  EXPECT_NEAR(rho.ConstantCoverage("9", "9th"), 2.0 / 3.0, 1e-12);
}

// --- Group annotations from the drivers. ---

TEST(GroupAnnotationTest, PureConstantAndCoverage) {
  // "alpha" -> "omega1" and "beta" -> "omega1" share only the full
  // constant path: pure constant group with coverage 1. Street/Avenue
  // share the affix program: coverage 0.
  std::vector<StringPair> pairs = {
      {"alpha", "omega1"}, {"betaa", "omega1"},
      {"Street", "St"},    {"Avenue", "Ave"},
  };
  GroupingEngine engine(pairs, GroupingOptions{});
  bool saw_constant = false, saw_affix = false;
  while (auto group = engine.Next()) {
    if (group->size() == 2 && group->pure_constant) {
      saw_constant = true;
      EXPECT_DOUBLE_EQ(group->constant_coverage, 1.0);
    }
    if (group->size() == 2 && !group->pure_constant) {
      saw_affix = true;
      EXPECT_LT(group->constant_coverage, 0.5);
    }
  }
  EXPECT_TRUE(saw_constant);
  EXPECT_TRUE(saw_affix);
}

TEST(GroupAnnotationTest, UpfrontDriverAgrees) {
  std::vector<StringPair> pairs = {
      {"alpha", "omega1"}, {"betaa", "omega1"}, {"Street", "St"},
      {"Avenue", "Ave"}};
  auto groups = GroupAllUpfront(pairs, GroupingOptions{}, true, nullptr);
  for (const Group& group : groups) {
    if (group.pure_constant) {
      EXPECT_DOUBLE_EQ(group.constant_coverage, 1.0);
    }
  }
}

// --- Framework filters. ---

TEST(FrameworkFilterTest, ConstantPivotGroupsAreSkipped) {
  // A cluster with two distinct values and one shared target generates a
  // pure-constant group; with the filter on it never reaches the oracle.
  Column column = {{"alpha", "betaa", "omega1"}};
  FrameworkOptions options;
  options.budget_per_column = 50;
  options.candidates.token_level = false;
  class CountingOracle : public VerificationOracle {
   public:
    Verdict Verify(const std::vector<StringPair>& pairs) override {
      for (const StringPair& pair : pairs) {
        EXPECT_NE(pair.rhs, "omega1") << "constant group reached the oracle";
      }
      ++count;
      return Verdict{};
    }
    int count = 0;
  } oracle;
  StandardizeColumn(&column, &oracle, options);
}

TEST(FrameworkFilterTest, DeadMirrorGroupsDoNotBurnBudget) {
  // Six clusters of the Street/St family: after the first group is
  // applied, its mirror is dead and must be skipped without consuming
  // budget, so the total presented count stays small.
  Column column;
  for (int i = 1; i <= 6; ++i) {
    std::string n = std::to_string(i);
    column.push_back({n + " Street", n + " St"});
  }
  ApproveAllOracle oracle;
  FrameworkOptions options;
  options.budget_per_column = 100;
  ColumnRunResult result = StandardizeColumn(&column, &oracle, options);
  EXPECT_LT(result.groups_presented, 20u);
  for (const auto& cluster : column) {
    EXPECT_EQ(cluster[0], cluster[1]);
  }
}

TEST(FrameworkFilterTest, CoverageFilterCanBeDisabled) {
  Column column = {{"alpha", "betaa", "omega1"}};
  FrameworkOptions options;
  options.budget_per_column = 50;
  options.candidates.token_level = false;
  options.skip_constant_pivot_groups = false;
  options.max_constant_coverage = 1.0;
  ApproveAllOracle oracle;
  ColumnRunResult result = StandardizeColumn(&column, &oracle, options);
  // Without the filters the constant groups are presented.
  EXPECT_GT(result.groups_presented, 0u);
}

// --- Graph builder configuration sweep (property-style). ---

class BuilderConfigTest : public ::testing::TestWithParam<int> {};

TEST_P(BuilderConfigTest, PathsStayConsistentUnderAnyConfig) {
  int mask = GetParam();
  GraphBuilderOptions options;
  options.enable_affix = mask & 1;
  LabelInterner interner;
  GraphBuilder builder(options, &interner);
  for (auto [s, t] : std::vector<std::pair<const char*, const char*>>{
           {"Lee, Mary", "M. Lee"},
           {"Street", "St"},
           {"9", "9th"},
           {"3 E Avenue, 33990 CA", "3rd E Ave, 33990 California"}}) {
    auto graph = builder.Build(s, t);
    ASSERT_TRUE(graph.ok());
    auto paths = graph->EnumeratePaths(100);
    ASSERT_FALSE(paths.empty());
    for (const LabelPath& path : paths) {
      EXPECT_TRUE(Program::FromPath(path, interner).ConsistentWith(s, t))
          << "config " << mask << ": " << s << " -> " << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, BuilderConfigTest,
                         ::testing::Range(0, 2));

}  // namespace
}  // namespace ustl
