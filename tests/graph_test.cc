// Tests for src/graph: transformation graphs (Definition 2, Example 4.1),
// the builder (Appendix C), the affix labels (Appendix D, Example D.1),
// static orders (Appendix E) and the term scorer.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dsl/program.h"
#include "graph/graph_builder.h"
#include "graph/term_scorer.h"
#include "graph/transformation_graph.h"
#include "new_counter.h"
#include "text/terms.h"

namespace ustl {
namespace {

// Each node's out-edges as plain values: (to, labels) per edge.
using NodeEdges = std::vector<std::pair<int, std::vector<LabelId>>>;

std::vector<NodeEdges> EdgesByNode(const TransformationGraph& g) {
  std::vector<NodeEdges> out;
  for (int node = 1; node <= g.num_nodes(); ++node) {
    NodeEdges edges;
    for (const GraphEdge& edge : g.edges_from(node)) {
      edges.emplace_back(edge.to, std::vector<LabelId>(edge.labels.begin(),
                                                       edge.labels.end()));
    }
    out.push_back(std::move(edges));
  }
  return out;
}

TEST(TransformationGraphTest, NodeCountIsTargetPlusOne) {
  std::vector<EdgeLabel> none;
  TransformationGraph g("abc", "xy", &none);
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.last_node(), 3);
  EXPECT_EQ(g.EdgeCount(), 0u);
  EXPECT_TRUE(g.edges_from(1).empty());
}

// The one-pass fill takes the (edge, label) pairs in any order and with
// repeats; each edge ends up with its labels sorted and unique.
TEST(TransformationGraphTest, FillKeepsSortedUnique) {
  std::vector<EdgeLabel> labels = {
      {2, 3, 4}, {1, 3, 5}, {1, 2, 7}, {1, 3, 5}, {1, 3, 2}, {2, 3, 4}};
  TransformationGraph g("abc", "xy", &labels);
  const auto& edges = g.edges_from(1);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].to, 2);
  EXPECT_EQ(edges[1].to, 3);
  EXPECT_EQ(std::vector<LabelId>(edges[1].labels.begin(),
                                 edges[1].labels.end()),
            (std::vector<LabelId>{2, 5}));
  ASSERT_EQ(g.edges_from(2).size(), 1u);
  EXPECT_EQ(g.edges_from(2)[0].labels.size(), 1u);
  EXPECT_TRUE(g.edges_from(3).empty());
  EXPECT_EQ(g.TotalLabelCount(), 4u);
  EXPECT_EQ(g.EdgeCount(), 3u);
}

TEST(TransformationGraphTest, ContainsPathFollowsAdjacency) {
  std::vector<EdgeLabel> labels = {{1, 2, 0}, {2, 3, 1}, {1, 3, 2}};
  TransformationGraph g("s", "xy", &labels);
  EXPECT_TRUE(g.ContainsPath({0, 1}));
  EXPECT_TRUE(g.ContainsPath({2}));
  EXPECT_FALSE(g.ContainsPath({1, 0}));
  EXPECT_FALSE(g.ContainsPath({0}));  // stops before the last node
  EXPECT_FALSE(g.ContainsPath({}));

  // Label 5 sits on two out-edges of node 1, and only the second, 1->3,
  // leads on to the sink.
  std::vector<EdgeLabel> twin = {{1, 2, 5}, {1, 3, 5}, {3, 4, 6}};
  TransformationGraph h("s", "xyz", &twin);
  EXPECT_TRUE(h.ContainsPath({5, 6}));
}

// Copies and moves carry the three arrays: every view of the new graph
// points into its own arrays, never into the original's (an ASan build
// catches a view left pointing into the destroyed original).
TEST(TransformationGraphTest, CopiesAndMovesOwnTheirArrays) {
  LabelInterner interner;
  GraphBuilder builder(GraphBuilderOptions{}, &interner);
  auto original = std::make_unique<TransformationGraph>(
      builder.Build("Lee, Mary", "M. Lee").value());
  const std::vector<NodeEdges> reference = EdgesByNode(*original);
  ASSERT_GT(original->EdgeCount(), 1u);

  TransformationGraph copied(*original);
  TransformationGraph assigned = builder.Build("Street", "St").value();
  assigned = *original;
  TransformationGraph moved_from(*original);
  TransformationGraph moved(std::move(moved_from));
  TransformationGraph move_assigned = builder.Build("9", "9th").value();
  TransformationGraph move_source(*original);
  move_assigned = std::move(move_source);
  original.reset();
  // Reuses the builder's scratch, which no graph may view either.
  ASSERT_TRUE(builder.Build("123 West 42nd Street", "123 W 42nd St").ok());

  for (const TransformationGraph* g :
       {&copied, &assigned, &moved, &move_assigned}) {
    EXPECT_EQ(g->source(), "Lee, Mary");
    EXPECT_EQ(g->target(), "M. Lee");
    EXPECT_EQ(EdgesByNode(*g), reference);
  }
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

// A second Build of a pair on a warm builder (its interner already holds
// every label, its per-thread scratch has grown) allocates only the
// returned graph: the three arrays, plus s and t where they outgrow the
// small-string buffer. The count does not depend on the hardware.
TEST(GraphBuilderAllocationTest, WarmBuildAllocatesOnlyTheGraph) {
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"123 West 42nd Street, New York, NY", "123 W 42nd St, New York, NY"},
      {"Lee, Mary", "M. Lee"},
      {"Street", "St"}};
  CorpusFrequency global;
  FrequencyTermScorer scorer(&global);
  for (const auto& [s, t] : pairs) {
    global.Add(s);
    scorer.AddStructureString(s);
  }
  const size_t small_string = std::string().capacity();
  for (const TermScorer* maybe_scorer :
       {static_cast<const TermScorer*>(nullptr),
        static_cast<const TermScorer*>(&scorer)}) {
    GraphBuilderOptions options;
    options.scorer = maybe_scorer;
    LabelInterner interner;
    GraphBuilder builder(options, &interner);
    for (const auto& [s, t] : pairs) {
      ASSERT_TRUE(builder.Build(s, t).ok());
      // Constructed inside the counted scope, destroyed outside it.
      std::optional<Result<TransformationGraph>> graph;
      const size_t news =
          CountNews([&] { graph.emplace(builder.Build(s, t)); });
      ASSERT_TRUE(graph->ok());
      const size_t expected = 3 + (s.size() > small_string ? 1 : 0) +
                              (t.size() > small_string ? 1 : 0);
      EXPECT_EQ(news, expected)
          << s << " -> " << t << (maybe_scorer ? " with" : " without")
          << " a scorer";
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
