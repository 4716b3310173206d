// Tests for src/graph: transformation graphs (Definition 2, Example 4.1),
// the builder (Appendix C), the affix labels (Appendix D, Example D.1),
// static orders (Appendix E) and the term scorer.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dsl/program.h"
#include "graph/graph_builder.h"
#include "graph/term_scorer.h"
#include "graph/transformation_graph.h"
#include "text/terms.h"

namespace ustl {
namespace {

TEST(TransformationGraphTest, NodeCountIsTargetPlusOne) {
  TransformationGraph g("abc", "xy");
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.last_node(), 3);
}

TEST(TransformationGraphTest, AddLabelKeepsSortedUnique) {
  TransformationGraph g("abc", "xy");
  g.AddLabel(1, 3, 5);
  g.AddLabel(1, 2, 7);
  g.AddLabel(1, 3, 5);
  g.AddLabel(1, 3, 2);
  const auto& edges = g.edges_from(1);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].to, 2);
  EXPECT_EQ(edges[1].to, 3);
  EXPECT_EQ(edges[1].labels, (std::vector<LabelId>{2, 5}));
  EXPECT_EQ(g.TotalLabelCount(), 3u);
  EXPECT_EQ(g.EdgeCount(), 2u);
}

TEST(TransformationGraphTest, ContainsPathFollowsAdjacency) {
  TransformationGraph g("s", "xy");
  g.AddLabel(1, 2, 0);
  g.AddLabel(2, 3, 1);
  g.AddLabel(1, 3, 2);
  EXPECT_TRUE(g.ContainsPath({0, 1}));
  EXPECT_TRUE(g.ContainsPath({2}));
  EXPECT_FALSE(g.ContainsPath({1, 0}));
  EXPECT_FALSE(g.ContainsPath({0}));  // stops before the last node
  EXPECT_FALSE(g.ContainsPath({}));
}

class GraphBuilderTest : public ::testing::Test {
 protected:
  LabelInterner interner_;
};

TEST_F(GraphBuilderTest, RejectsDegenerateInput) {
  GraphBuilder builder(GraphBuilderOptions{}, &interner_);
  EXPECT_FALSE(builder.Build("abc", "").ok());
  EXPECT_FALSE(builder.Build("abc", "abc").ok());
}

TEST_F(GraphBuilderTest, FullConstantPathAlwaysPresent) {
  // Definition 2 line 15 guarantees ConstantStr(t) on the full edge, so
  // every replacement has at least one transformation path.
  GraphBuilder builder(GraphBuilderOptions{}, &interner_);
  auto g = builder.Build("Lee, Mary", "M. Lee");
  ASSERT_TRUE(g.ok());
  LabelId full;
  ASSERT_TRUE(interner_.Lookup(StringFn::ConstantStr("M. Lee"), &full));
  EXPECT_TRUE(g->ContainsPath({full}));
}

TEST_F(GraphBuilderTest, Example41EdgeLabels) {
  // Example 4.1: e4,7 of "Lee, Mary" -> "M. Lee" carries f1 =
  // SubStr(MatchPos(TC,1,B), MatchPos(Tl,1,E)), and e1,2 carries f2.
  GraphBuilder builder(GraphBuilderOptions{}, &interner_);
  auto g = builder.Build("Lee, Mary", "M. Lee");
  ASSERT_TRUE(g.ok());
  Term tc = Term::Regex(CharClass::kUpper);
  Term tl = Term::Regex(CharClass::kLower);
  StringFn f1 = StringFn::SubStr(PosFn::MatchPos(tc, 1, Dir::kBegin),
                                 PosFn::MatchPos(tl, 1, Dir::kEnd));
  LabelId f1_id;
  ASSERT_TRUE(interner_.Lookup(f1, &f1_id));
  bool found_on_e47 = false;
  for (const GraphEdge& edge : g->edges_from(4)) {
    if (edge.to == 7) {
      found_on_e47 = std::binary_search(edge.labels.begin(),
                                        edge.labels.end(), f1_id);
    }
  }
  EXPECT_TRUE(found_on_e47);
}

TEST_F(GraphBuilderTest, PaperProgramIsAPath) {
  // The Figure 3 program f2 (+) f3 (+) f1 must be a transformation path of
  // the "Lee, Mary" -> "M. Lee" graph (Theorem 4.2 direction: consistent
  // program => path).
  GraphBuilder builder(GraphBuilderOptions{}, &interner_);
  auto g = builder.Build("Lee, Mary", "M. Lee");
  ASSERT_TRUE(g.ok());
  Term tc = Term::Regex(CharClass::kUpper);
  Term tl = Term::Regex(CharClass::kLower);
  Term tb = Term::Regex(CharClass::kSpace);
  StringFn f2 = StringFn::SubStr(PosFn::MatchPos(tb, 1, Dir::kEnd),
                                 PosFn::MatchPos(tc, -1, Dir::kEnd));
  StringFn f3 = StringFn::ConstantStr(". ");
  StringFn f1 = StringFn::SubStr(PosFn::MatchPos(tc, 1, Dir::kBegin),
                                 PosFn::MatchPos(tl, 1, Dir::kEnd));
  LabelId i1, i2, i3;
  ASSERT_TRUE(interner_.Lookup(f2, &i2));
  ASSERT_TRUE(interner_.Lookup(f3, &i3));
  ASSERT_TRUE(interner_.Lookup(f1, &i1));
  EXPECT_TRUE(g->ContainsPath({i2, i3, i1}));
}

TEST_F(GraphBuilderTest, AllPathsAreConsistentPrograms) {
  // Theorem 4.2, the other direction: every root-to-sink path is a program
  // consistent with the replacement.
  GraphBuilder builder(GraphBuilderOptions{}, &interner_);
  for (auto [s, t] : std::vector<std::pair<const char*, const char*>>{
           {"Lee, Mary", "M. Lee"},
           {"Street", "St"},
           {"9", "9th"},
           {"Wisconsin", "WI"},
           {"a1 b2", "b2 a1"}}) {
    auto g = builder.Build(s, t);
    ASSERT_TRUE(g.ok()) << s;
    auto paths = g->EnumeratePaths(500);
    ASSERT_FALSE(paths.empty()) << s;
    for (const LabelPath& path : paths) {
      Program program = Program::FromPath(path, interner_);
      EXPECT_TRUE(program.ConsistentWith(s, t))
          << "inconsistent path for " << s << " -> " << t << ": "
          << program.ToString();
    }
  }
}

TEST_F(GraphBuilderTest, ExampleD1AffixLabels) {
  // Example D.1: e2,3 of Street -> St has Prefix(Tl, 1); e2,4 of
  // Avenue -> Ave has it too.
  GraphBuilder builder(GraphBuilderOptions{}, &interner_);
  auto street = builder.Build("Street", "St");
  auto avenue = builder.Build("Avenue", "Ave");
  ASSERT_TRUE(street.ok());
  ASSERT_TRUE(avenue.ok());
  LabelId prefix_id;
  ASSERT_TRUE(interner_.Lookup(
      StringFn::Prefix(Term::Regex(CharClass::kLower), 1), &prefix_id));
  auto has_label = [&](const TransformationGraph& g, int from, int to) {
    for (const GraphEdge& edge : g.edges_from(from)) {
      if (edge.to == to) {
        return std::binary_search(edge.labels.begin(), edge.labels.end(),
                                  prefix_id);
      }
    }
    return false;
  };
  EXPECT_TRUE(has_label(*street, 2, 3));
  EXPECT_TRUE(has_label(*avenue, 2, 4));
}

TEST_F(GraphBuilderTest, AffixOnlyOnLongestPrefix) {
  // Appendix E: with t = "Str" from s = "Street", Prefix(Tl, 1) goes on
  // the longest prefix edge (2,4) for "tr", not on (2,3) for "t".
  GraphBuilder builder(GraphBuilderOptions{}, &interner_);
  auto g = builder.Build("Street", "Str");
  ASSERT_TRUE(g.ok());
  LabelId prefix_id;
  ASSERT_TRUE(interner_.Lookup(
      StringFn::Prefix(Term::Regex(CharClass::kLower), 1), &prefix_id));
  auto labels_on = [&](int from, int to) {
    for (const GraphEdge& edge : g->edges_from(from)) {
      if (edge.to == to) {
        return std::binary_search(edge.labels.begin(), edge.labels.end(),
                                  prefix_id);
      }
    }
    return false;
  };
  EXPECT_TRUE(labels_on(2, 4));
  EXPECT_FALSE(labels_on(2, 3));
}

TEST_F(GraphBuilderTest, NoAffixWhenDisabled) {
  GraphBuilderOptions options;
  options.enable_affix = false;
  GraphBuilder builder(options, &interner_);
  auto g = builder.Build("Street", "St");
  ASSERT_TRUE(g.ok());
  for (int node = 1; node <= g->num_nodes(); ++node) {
    for (const GraphEdge& edge : g->edges_from(node)) {
      for (LabelId label : edge.labels) {
        StringFn fn = interner_.Get(label);
        EXPECT_NE(fn.kind(), StringFn::Kind::kPrefix);
        EXPECT_NE(fn.kind(), StringFn::Kind::kSuffix);
      }
    }
  }
}

TEST_F(GraphBuilderTest, OversizedValuesGetTrivialGraph) {
  GraphBuilderOptions options;
  options.max_output_len = 4;
  GraphBuilder builder(options, &interner_);
  auto g = builder.Build("abcdef", "abcde");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->TotalLabelCount(), 1u);
  auto paths = g->EnumeratePaths(10);
  ASSERT_EQ(paths.size(), 1u);
  Program program = Program::FromPath(paths[0], interner_);
  EXPECT_TRUE(program.ConsistentWith("abcdef", "abcde"));
}

TEST_F(GraphBuilderTest, TokenAlignedLabelsRestrictConstEdges) {
  // "9th" has a token boundary between "9" and "th"; the unaligned edge
  // inside "th" carries no ConstantStr label.
  GraphBuilder builder(GraphBuilderOptions{}, &interner_);
  auto g = builder.Build("9", "9th");
  ASSERT_TRUE(g.ok());
  // Edge (2,3) = "t" starts at a token boundary (token "th" begins at 2)
  // but ends mid-token; only non-Const/SubStr labels may appear.
  for (const GraphEdge& edge : g->edges_from(2)) {
    if (edge.to != 3) continue;
    for (LabelId label : edge.labels) {
      StringFn fn = interner_.Get(label);
      EXPECT_NE(fn.kind(), StringFn::Kind::kConstantStr);
    }
  }
}

// --- Term scorer (Appendix E). ---

TEST(TermScorerTest, GroupFrequentTokensScoreHigh) {
  // Class tokens are maximal single-class runs, so lowercase words.
  CorpusFrequency global;
  for (int i = 0; i < 100; ++i) global.Add("mr lee");
  for (int i = 0; i < 900; ++i) global.Add("something else entirely");
  FrequencyTermScorer scorer(&global);
  for (int i = 0; i < 100; ++i) scorer.AddStructureString("mr lee");
  // "mr" appears in all structure strings and 100 times globally:
  // 100/sqrt(100) = 10.
  EXPECT_DOUBLE_EQ(scorer.Score("mr"), 10.0);
  // Unknown tokens score zero.
  EXPECT_DOUBLE_EQ(scorer.Score("nothere"), 0.0);
  // Tokens outside the structure group score zero even if global.
  EXPECT_DOUBLE_EQ(scorer.Score("entirely"), 0.0);
}

TEST(TermScorerTest, GloballyCommonTokensAreDamped) {
  CorpusFrequency global;
  for (int i = 0; i < 10000; ++i) global.Add("a");
  for (int i = 0; i < 100; ++i) global.Add("rare");
  FrequencyTermScorer scorer(&global);
  for (int i = 0; i < 100; ++i) {
    scorer.AddStructureString("a");
    scorer.AddStructureString("rare");
  }
  // Same structure frequency, but "a" is globally ubiquitous:
  // 100/sqrt(10100) < 100/sqrt(200).
  EXPECT_LT(scorer.Score("a"), scorer.Score("rare"));
}

// Constants inside a higher-scoring token never appear: ConstantStr labels
// sit only on edges aligned with t's class tokens, so the fragments
// "stree" and "treet" of the scoring token "street" get no edge, while
// "street" and "main" do. Appendix E's pruning of dominated constants
// has nothing left to drop.
TEST(TermScorerTest, AlignedLabelsKeepConstantsToWholeTokens) {
  CorpusFrequency global;
  FrequencyTermScorer scorer(&global);
  for (int i = 0; i < 10; ++i) {
    global.Add("main street");
    scorer.AddStructureString("main street");
  }
  GraphBuilderOptions options;
  options.scorer = &scorer;
  LabelInterner interner;
  GraphBuilder builder(options, &interner);
  ASSERT_TRUE(builder.Build("x", "main street").ok());
  LabelId id = 0;
  EXPECT_TRUE(interner.Lookup(StringFn::ConstantStr("street"), &id));
  EXPECT_TRUE(interner.Lookup(StringFn::ConstantStr("main"), &id));
  EXPECT_FALSE(interner.Lookup(StringFn::ConstantStr("stree"), &id));
  EXPECT_FALSE(interner.Lookup(StringFn::ConstantStr("treet"), &id));
}

// Remembers every string the builder asks about; every token scores 1.
class RecordingScorer : public TermScorer {
 public:
  double Score(std::string_view token) const override {
    asked.emplace_back(token);
    return 1.0;
  }
  mutable std::vector<std::string> asked;
};

// The scorer only picks constant-term positions of s, so the builder asks
// it about the class tokens of s and never about a substring of t.
TEST(TermScorerTest, BuilderAsksOnlyAboutSourceTokens) {
  RecordingScorer scorer;
  GraphBuilderOptions options;
  options.scorer = &scorer;
  LabelInterner interner;
  GraphBuilder builder(options, &interner);
  for (auto [s, t] : std::vector<std::pair<std::string, std::string>>{
           {"Lee, Mary", "M. Lee"}, {"Street", "St"}}) {
    scorer.asked.clear();
    ASSERT_TRUE(builder.Build(s, t).ok());
    std::set<std::string> source_tokens;
    for (const Token& token : ClassTokens(s)) source_tokens.insert(token.text);
    EXPECT_FALSE(scorer.asked.empty());
    for (const std::string& token : scorer.asked) {
      EXPECT_EQ(source_tokens.count(token), 1u)
          << s << " -> " << t << ": asked about \"" << token << "\"";
    }
  }
}

TEST(CorpusFrequencyTest, CountsClassTokens) {
  CorpusFrequency corpus;
  corpus.Add("9th St");
  EXPECT_EQ(corpus.Get("9"), 1);
  EXPECT_EQ(corpus.Get("th"), 1);
  EXPECT_EQ(corpus.Get("St"), 0);  // "S" and "t" are separate class tokens
  EXPECT_EQ(corpus.Get("S"), 1);
  EXPECT_EQ(corpus.Get("t"), 1);
}

}  // namespace
}  // namespace ustl
