// Tests for src/index: packed postings, posting lists, the adjacency-join
// intersection (Section 5.1, Example 5.1) with its fused ExtendInto stats,
// and the index build.
#include <gtest/gtest.h>

#include <random>
#include <tuple>

#include "graph/graph_builder.h"
#include "grouping/group.h"
#include "index/inverted_index.h"

namespace ustl {
namespace {

TEST(PostingTest, PackedRoundTripAtFieldWidthLimits) {
  const Posting zero(0, 0, 0);
  EXPECT_EQ(zero.graph(), 0u);
  EXPECT_EQ(zero.start(), 0);
  EXPECT_EQ(zero.end(), 0);
  EXPECT_EQ(zero.bits(), 0u);

  const Posting max(Posting::kMaxGraph, Posting::kMaxNode, Posting::kMaxNode);
  EXPECT_EQ(max.graph(), Posting::kMaxGraph);
  EXPECT_EQ(max.start(), Posting::kMaxNode);
  EXPECT_EQ(max.end(), Posting::kMaxNode);
  EXPECT_EQ(max.bits(), ~uint64_t{0});

  // Each field at its limit with the others at a small value: no field
  // bleeds into its neighbors.
  const Posting graph_max(Posting::kMaxGraph, 1, 2);
  EXPECT_EQ(graph_max.graph(), Posting::kMaxGraph);
  EXPECT_EQ(graph_max.start(), 1);
  EXPECT_EQ(graph_max.end(), 2);
  const Posting start_max(3, Posting::kMaxNode, 4);
  EXPECT_EQ(start_max.graph(), 3u);
  EXPECT_EQ(start_max.start(), Posting::kMaxNode);
  EXPECT_EQ(start_max.end(), 4);
  const Posting end_max(5, 6, Posting::kMaxNode);
  EXPECT_EQ(end_max.graph(), 5u);
  EXPECT_EQ(end_max.start(), 6);
  EXPECT_EQ(end_max.end(), Posting::kMaxNode);
}

TEST(PostingTest, PackedOrderMatchesTupleOrder) {
  // The packed-word order must equal lexicographic (graph, start, end)
  // order — including across field boundaries (graph dominates a maxed
  // start/end, start dominates a maxed end).
  const GraphId graphs[] = {0, 1, 7, Posting::kMaxGraph};
  const int nodes[] = {0, 1, 9, Posting::kMaxNode};
  std::vector<Posting> postings;
  std::vector<std::tuple<GraphId, int, int>> tuples;
  for (GraphId g : graphs) {
    for (int s : nodes) {
      for (int e : nodes) {
        postings.emplace_back(g, s, e);
        tuples.emplace_back(g, s, e);
      }
    }
  }
  for (size_t a = 0; a < postings.size(); ++a) {
    for (size_t b = 0; b < postings.size(); ++b) {
      EXPECT_EQ(postings[a] < postings[b], tuples[a] < tuples[b])
          << "a=" << a << " b=" << b;
      EXPECT_EQ(postings[a] == postings[b], tuples[a] == tuples[b]);
    }
  }
}

TEST(PostingTest, JoinKeepsGraphAndStartTakesEnd) {
  const Posting a(42, 3, 7);
  const Posting b(42, 7, 11);
  EXPECT_EQ(Posting::Join(a, b), Posting(42, 3, 11));
  const Posting al(Posting::kMaxGraph, Posting::kMaxNode, 1);
  const Posting bl(Posting::kMaxGraph, 1, Posting::kMaxNode);
  EXPECT_EQ(Posting::Join(al, bl),
            Posting(Posting::kMaxGraph, Posting::kMaxNode, Posting::kMaxNode));
}

TEST(InvertedIndexTest, BuildIndexesEveryLabel) {
  std::vector<EdgeLabel> a = {{1, 2, 0}, {2, 3, 1}};
  std::vector<EdgeLabel> b = {{1, 3, 0}};
  std::vector<TransformationGraph> graphs = {
      TransformationGraph("s1", "xy", &a), TransformationGraph("s2", "pq", &b)};
  InvertedIndex index = InvertedIndex::Build(graphs);
  EXPECT_EQ(index.ListLength(0), 2u);
  EXPECT_EQ(index.ListLength(1), 1u);
  EXPECT_EQ(index.ListLength(99), 0u);
  EXPECT_EQ(index.NumLabels(), 2u);
  EXPECT_EQ(index.Find(0)[0], (Posting{0, 1, 2}));
  EXPECT_EQ(index.Find(0)[1], (Posting{1, 1, 3}));
}

TEST(InvertedIndexTest, ExtendJoinsAdjacentSpans) {
  // (G, a, b) x (G, b, c) -> (G, a, c); non-adjacent spans don't join.
  PostingList current = {{0, 1, 3}, {1, 1, 2}};
  PostingList label = {{0, 3, 5}, {0, 4, 5}, {1, 3, 4}};
  PostingList joined = InvertedIndex::Extend(current, label, nullptr);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0], (Posting{0, 1, 5}));
}

TEST(InvertedIndexTest, ExtendFiltersDeadGraphs) {
  PostingList current = {{0, 1, 2}, {1, 1, 2}};
  PostingList label = {{0, 2, 3}, {1, 2, 3}};
  std::vector<char> alive = {1, 0};
  PostingList joined = InvertedIndex::Extend(current, label, &alive);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0].graph(), 0u);
}

TEST(InvertedIndexTest, ExtendDeduplicates) {
  // Two ways to reach the same span collapse to one posting.
  PostingList current = {{0, 1, 2}, {0, 1, 2}};
  PostingList label = {{0, 2, 4}};
  PostingList joined = InvertedIndex::Extend(current, label, nullptr);
  EXPECT_EQ(joined.size(), 1u);
}

TEST(InvertedIndexTest, ExtendEmptyAndSingleElementLists) {
  const PostingList empty;
  const PostingList one = {{3, 1, 2}};
  const PostingList adjacent = {{3, 2, 5}};
  const PostingList not_adjacent = {{3, 4, 5}};
  const PostingList other_graph = {{4, 2, 5}};

  EXPECT_TRUE(InvertedIndex::Extend(empty, empty, nullptr).empty());
  EXPECT_TRUE(InvertedIndex::Extend(empty, one, nullptr).empty());
  EXPECT_TRUE(InvertedIndex::Extend(one, empty, nullptr).empty());

  PostingList joined = InvertedIndex::Extend(one, adjacent, nullptr);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0], (Posting{3, 1, 5}));
  EXPECT_TRUE(InvertedIndex::Extend(one, not_adjacent, nullptr).empty());
  EXPECT_TRUE(InvertedIndex::Extend(one, other_graph, nullptr).empty());
}

TEST(InvertedIndexTest, ExtendAliveFilterDropsWholeRun) {
  // Graph 1's whole run (several postings on both sides) is dropped by
  // the alive filter; the join must resynchronize on graph 2 afterwards.
  PostingList current = {{0, 1, 2}, {1, 1, 2}, {1, 1, 3}, {1, 2, 3}, {2, 1, 2}};
  PostingList label = {{1, 2, 4}, {1, 3, 4}, {2, 2, 4}};
  std::vector<char> alive = {1, 0, 1};
  PostingList out;
  ExtendStats stats = InvertedIndex::ExtendInto(current, label, &alive, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (Posting{2, 1, 4}));
  EXPECT_EQ(stats.distinct_graphs, 1u);
  // Killing graph 2 as well empties the result entirely.
  alive[2] = 0;
  stats = InvertedIndex::ExtendInto(current, label, &alive, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.distinct_graphs, 0u);
  EXPECT_EQ(stats.hash, kPostingHashSeed);
}

TEST(InvertedIndexTest, ExtendIntoFusedStatsMatchSeparatePasses) {
  std::mt19937_64 rng(99);
  auto random_list = [&](size_t n) {
    PostingList list;
    for (size_t i = 0; i < n; ++i) {
      GraphId g = static_cast<GraphId>(rng() % 16);
      int start = 1 + static_cast<int>(rng() % 6);
      int end = start + 1 + static_cast<int>(rng() % 4);
      list.push_back(Posting{g, start, end});
    }
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    return list;
  };
  PostingList out;
  for (int round = 0; round < 30; ++round) {
    PostingList current = random_list(40);
    PostingList label = random_list(40);
    ExtendStats stats =
        InvertedIndex::ExtendInto(current, label, nullptr, &out);
    // The fused distinct count equals a separate scan of the output.
    EXPECT_EQ(stats.distinct_graphs, InvertedIndex::DistinctGraphs(out));
    // The fused hash is a pure function of the output content: recompute
    // it the definitional way and from a second identical join.
    uint64_t h = kPostingHashSeed;
    for (const Posting& p : out) {
      h ^= p.bits();
      h *= kPostingHashPrime;
    }
    EXPECT_EQ(stats.hash, h);
    PostingList out2;
    EXPECT_EQ(InvertedIndex::ExtendInto(current, label, nullptr, &out2).hash,
              stats.hash);
    EXPECT_EQ(out, out2);
  }
}

TEST(InvertedIndexTest, ExtendIntoReusesTheScratchBuffer) {
  PostingList scratch;
  PostingList current, label;
  for (GraphId g = 0; g < 64; ++g) {
    current.push_back(Posting{g, 1, 2});
    label.push_back(Posting{g, 2, 3});
  }
  InvertedIndex::ExtendInto(current, label, nullptr, &scratch);
  ASSERT_EQ(scratch.size(), 64u);
  const size_t capacity = scratch.capacity();
  const Posting* data = scratch.data();
  // A smaller follow-up join overwrites in place: same storage, no growth.
  PostingList small_current = {{0, 1, 2}};
  InvertedIndex::ExtendInto(small_current, label, nullptr, &scratch);
  ASSERT_EQ(scratch.size(), 1u);
  EXPECT_EQ(scratch.capacity(), capacity);
  EXPECT_EQ(scratch.data(), data);
}

TEST(InvertedIndexTest, DistinctGraphs) {
  PostingList list = {{0, 1, 2}, {0, 2, 3}, {2, 1, 2}, {5, 1, 2}, {5, 1, 3}};
  EXPECT_EQ(InvertedIndex::DistinctGraphs(list), 3u);
  EXPECT_EQ(InvertedIndex::DistinctGraphs({}), 0u);
}

TEST(InvertedIndexTest, Example51Intersection) {
  // Example 5.1: phi1 = "Lee, Mary" -> "M. Lee", phi2 = "Smith, James" ->
  // "J. Smith", phi3 = "Lee, Mary" -> "Mary Lee". The path f2 (+) f3 (+) f1
  // is contained by G1 and G2 with spans (1,7) and (1,9).
  LabelInterner interner;
  GraphBuilder builder(GraphBuilderOptions{}, &interner);
  std::vector<TransformationGraph> graphs;
  graphs.push_back(std::move(builder.Build("Lee, Mary", "M. Lee")).value());
  graphs.push_back(
      std::move(builder.Build("Smith, James", "J. Smith")).value());
  graphs.push_back(std::move(builder.Build("Lee, Mary", "Mary Lee")).value());
  InvertedIndex index = InvertedIndex::Build(graphs);

  Term tc = Term::Regex(CharClass::kUpper);
  Term tl = Term::Regex(CharClass::kLower);
  Term tb = Term::Regex(CharClass::kSpace);
  LabelId f2, f3, f1;
  ASSERT_TRUE(interner.Lookup(
      StringFn::SubStr(PosFn::MatchPos(tb, 1, Dir::kEnd),
                       PosFn::MatchPos(tc, -1, Dir::kEnd)),
      &f2));
  ASSERT_TRUE(interner.Lookup(StringFn::ConstantStr(". "), &f3));
  ASSERT_TRUE(interner.Lookup(
      StringFn::SubStr(PosFn::MatchPos(tc, 1, Dir::kBegin),
                       PosFn::MatchPos(tl, 1, Dir::kEnd)),
      &f1));

  PostingList root = {{0, 1, 1}, {1, 1, 1}, {2, 1, 1}};
  PostingList after_f2 = InvertedIndex::Extend(root, index.Find(f2), nullptr);
  PostingList after_f3 =
      InvertedIndex::Extend(after_f2, index.Find(f3), nullptr);
  PostingList after_f1 =
      InvertedIndex::Extend(after_f3, index.Find(f1), nullptr);

  // Contained by G1 (span 1..7) and G2 (span 1..9), not by G3.
  ASSERT_EQ(after_f1.size(), 2u);
  EXPECT_EQ(after_f1[0], (Posting{0, 1, 7}));
  EXPECT_EQ(after_f1[1], (Posting{1, 1, 9}));
}

// Quadratic reference join for differential testing of the galloping
// merge in Extend.
PostingList NaiveExtend(const PostingList& current,
                        const PostingList& label_list,
                        const std::vector<char>* alive) {
  PostingList out;
  for (const Posting& a : current) {
    if (alive != nullptr && !(*alive)[a.graph()]) continue;
    for (const Posting& b : label_list) {
      if (a.graph() == b.graph() && a.end() == b.start()) {
        out.push_back(Posting{a.graph(), a.start(), b.end()});
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

class ExtendDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExtendDifferentialTest, MatchesNaiveJoinOnRandomLists) {
  std::mt19937_64 rng(GetParam());
  auto random_list = [&](size_t n, GraphId max_graph) {
    PostingList list;
    for (size_t i = 0; i < n; ++i) {
      GraphId g = static_cast<GraphId>(rng() % max_graph);
      int start = 1 + static_cast<int>(rng() % 6);
      int end = start + 1 + static_cast<int>(rng() % 4);
      list.push_back(Posting{g, start, end});
    }
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    return list;
  };
  for (int round = 0; round < 50; ++round) {
    // Skewed sizes on alternating sides to force the galloping paths.
    const bool skew_current = (round % 2) == 0;
    PostingList current = random_list(skew_current ? 3 : 200, 64);
    PostingList label = random_list(skew_current ? 200 : 3, 64);
    std::vector<char> alive(64, 1);
    for (size_t g = 0; g < alive.size(); ++g) alive[g] = (rng() % 4) != 0;
    EXPECT_EQ(InvertedIndex::Extend(current, label, &alive),
              NaiveExtend(current, label, &alive));
    EXPECT_EQ(InvertedIndex::Extend(current, label, nullptr),
              NaiveExtend(current, label, nullptr));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtendDifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

// ---------------------------------------------------------------------
// Index build.

std::vector<TransformationGraph> RealisticGraphs(LabelInterner* interner) {
  GraphBuilder builder(GraphBuilderOptions{}, interner);
  const std::vector<StringPair> pairs = {
      {"Lee, Mary", "M. Lee"},       {"Smith, James", "J. Smith"},
      {"Brown, Anna", "A. Brown"},   {"Clark, Susan", "S. Clark"},
      {"Walker, John", "J. Walker"}, {"Turner, Ruth", "R. Turner"},
      {"Street", "St"},              {"Avenue", "Ave"},
      {"Boulevard", "Blvd"},         {"Wisconsin", "WI"},
      {"9th", "9"},                  {"3rd", "3"},
  };
  std::vector<TransformationGraph> graphs;
  for (const StringPair& pair : pairs) {
    graphs.push_back(std::move(builder.Build(pair.lhs, pair.rhs)).value());
  }
  return graphs;
}

void ExpectSameIndex(const InvertedIndex& a, const InvertedIndex& b,
                     size_t label_bound) {
  ASSERT_EQ(a.NumLabels(), b.NumLabels());
  for (LabelId label = 0; label < label_bound; ++label) {
    const PostingList& la = a.Find(label);
    const PostingList& lb = b.Find(label);
    ASSERT_EQ(la.size(), lb.size()) << "label " << label;
    // Byte-identical contents: the packed words must match exactly.
    for (size_t k = 0; k < la.size(); ++k) {
      ASSERT_EQ(la[k].bits(), lb[k].bits()) << "label " << label << " #" << k;
    }
  }
}

TEST(InvertedIndexBuildTest, LabelCountHintMatchesScannedBuild) {
  LabelInterner interner;
  std::vector<TransformationGraph> graphs = RealisticGraphs(&interner);
  InvertedIndex scanned = InvertedIndex::Build(graphs);
  ASSERT_GT(scanned.NumLabels(), 10u);
  const size_t label_bound = interner.size() + 4;
  // Exact hint and generous over-estimate: identical layout (trailing
  // empties are trimmed either way).
  ExpectSameIndex(scanned,
                  InvertedIndex::Build(graphs, nullptr, 0, interner.size()),
                  label_bound);
  ExpectSameIndex(
      scanned,
      InvertedIndex::Build(graphs, nullptr, 0, interner.size() + 1000),
      label_bound);
}

TEST(InvertedIndexBuildTest, EmptyAndLabelFreeInputs) {
  EXPECT_EQ(InvertedIndex::Build({}).NumLabels(), 0u);
  // A graph with no labels at all: nothing to index, scanned or hinted.
  std::vector<TransformationGraph> graphs;
  std::vector<EdgeLabel> none;
  graphs.emplace_back("src", "tgt", &none);
  EXPECT_EQ(InvertedIndex::Build(graphs).NumLabels(), 0u);
  EXPECT_EQ(InvertedIndex::Build(graphs).ListLength(0), 0u);
  EXPECT_EQ(InvertedIndex::Build(graphs, nullptr, 0, 8).NumLabels(), 0u);
  EXPECT_EQ(InvertedIndex::Build(graphs, nullptr, 0, 8).MemoryBytes(), 0u);
}

}  // namespace
}  // namespace ustl
