// Property-based suites (parameterized sweeps): invariants of graph
// construction (Theorem 4.2), pivot search, and grouping over randomized
// replacement pairs drawn from the dataset vocabularies.
#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "datagen/vocab.h"
#include "dsl/program.h"
#include "dsl/program.h"
#include "grouping/grouping.h"
#include "grouping/oneshot.h"
#include "grouping/pivot_search.h"
#include "text/terms.h"

namespace ustl {
namespace {

// Draws a random plausible replacement pair from the shared vocabularies
// (dictionary swaps, ordinals, transposition, plus random-noise conflict
// pairs), so the sweeps exercise realistic shapes.
StringPair RandomPair(Rng* rng) {
  switch (rng->Uniform(0, 5)) {
    case 0: {
      const auto& entry = StreetSuffixes().entries()[static_cast<size_t>(
          rng->Uniform(0,
                       static_cast<int64_t>(
                           StreetSuffixes().entries().size()) - 1))];
      return {entry.first, entry.second};
    }
    case 1: {
      int n = static_cast<int>(rng->Uniform(1, 99));
      return {std::to_string(n), OrdinalOf(n)};
    }
    case 2: {
      std::string first = rng->Choice(FirstNames());
      std::string last = rng->Choice(LastNames());
      return {last + ", " + first, first + " " + last};
    }
    case 3: {
      std::string first = rng->Choice(FirstNames());
      std::string last = rng->Choice(LastNames());
      return {first + " " + last,
              std::string(1, first[0]) + ". " + last};
    }
    case 4: {
      const auto& entry = States().entries()[static_cast<size_t>(rng->Uniform(
          0, static_cast<int64_t>(States().entries().size()) - 1))];
      return {entry.first, entry.second};
    }
    default: {
      // Unrelated strings (conflict-style pair).
      std::string a = rng->Choice(StreetNames());
      std::string b = rng->Choice(Fields());
      if (a == b) b += "x";
      return {a + " " + std::to_string(rng->Uniform(0, 999)), b};
    }
  }
}

class GraphPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GraphPropertyTest, AllEnumeratedPathsAreConsistent) {
  Rng rng(GetParam());
  LabelInterner interner;
  GraphBuilder builder(GraphBuilderOptions{}, &interner);
  for (int i = 0; i < 12; ++i) {
    StringPair pair = RandomPair(&rng);
    if (pair.lhs == pair.rhs) continue;
    auto graph = builder.Build(pair.lhs, pair.rhs);
    ASSERT_TRUE(graph.ok());
    auto paths = graph->EnumeratePaths(200);
    ASSERT_FALSE(paths.empty());
    for (const LabelPath& path : paths) {
      Program program = Program::FromPath(path, interner);
      EXPECT_TRUE(program.ConsistentWith(pair.lhs, pair.rhs))
          << pair.lhs << " -> " << pair.rhs << " via " << program.ToString();
      EXPECT_TRUE(graph->ContainsPath(path));
    }
  }
}

TEST_P(GraphPropertyTest, GraphIsAcyclicForwardOnly) {
  Rng rng(GetParam() + 1000);
  LabelInterner interner;
  GraphBuilder builder(GraphBuilderOptions{}, &interner);
  StringPair pair = RandomPair(&rng);
  if (pair.lhs == pair.rhs) return;
  auto graph = builder.Build(pair.lhs, pair.rhs);
  ASSERT_TRUE(graph.ok());
  // ConstantStr and SubStr labels sit only on edges between class-token
  // boundaries of t, or on the full-width edge.
  std::set<int> boundaries = {graph->last_node()};
  for (const Token& token : ClassTokens(pair.rhs)) {
    boundaries.insert(token.begin);
  }
  for (int node = 1; node <= graph->num_nodes(); ++node) {
    for (const GraphEdge& edge : graph->edges_from(node)) {
      EXPECT_GT(edge.to, node);
      EXPECT_LE(edge.to, graph->num_nodes());
      EXPECT_FALSE(edge.labels.empty());
      EXPECT_TRUE(std::is_sorted(edge.labels.begin(), edge.labels.end()));
      const bool aligned =
          (node == 1 && edge.to == graph->last_node()) ||
          (boundaries.count(node) == 1 && boundaries.count(edge.to) == 1);
      for (LabelId label : edge.labels) {
        const StringFn::Kind kind = interner.Get(label).kind();
        if (kind == StringFn::Kind::kConstantStr ||
            kind == StringFn::Kind::kSubStr) {
          EXPECT_TRUE(aligned) << pair.lhs << " -> " << pair.rhs << " edge "
                               << node << "->" << edge.to;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

class GroupingPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GroupingPropertyTest, GroupsPartitionAndShareTheirPivot) {
  Rng rng(GetParam());
  std::vector<StringPair> pairs;
  std::set<StringPair> seen;
  for (int i = 0; i < 24; ++i) {
    StringPair pair = RandomPair(&rng);
    if (pair.lhs != pair.rhs && seen.insert(pair).second) {
      pairs.push_back(pair);
    }
  }
  LabelInterner interner;
  GraphBuilder builder(GraphBuilderOptions{}, &interner);
  GraphSet set = std::move(GraphSet::Build(pairs, builder)).value();
  auto groups = UnsupervisedGrouping(set, OneShotOptions{}, nullptr);

  std::set<GraphId> covered;
  for (const ReplacementGroup& group : groups) {
    EXPECT_FALSE(group.pivot.empty());
    for (GraphId g : group.members) {
      EXPECT_TRUE(covered.insert(g).second);
      // Every member graph contains the pivot and the pivot program maps
      // the member's source to its target.
      EXPECT_TRUE(set.graph(g).ContainsPath(group.pivot));
      Program program = Program::FromPath(group.pivot, interner);
      EXPECT_TRUE(program.ConsistentWith(pairs[g].lhs, pairs[g].rhs));
    }
  }
  EXPECT_EQ(covered.size(), pairs.size());
}

TEST_P(GroupingPropertyTest, IncrementalSizesAreNonIncreasing) {
  Rng rng(GetParam() + 77);
  std::vector<StringPair> pairs;
  std::set<StringPair> seen;
  for (int i = 0; i < 24; ++i) {
    StringPair pair = RandomPair(&rng);
    if (pair.lhs != pair.rhs && seen.insert(pair).second) {
      pairs.push_back(pair);
    }
  }
  GroupingEngine engine(pairs, GroupingOptions{});
  size_t total = 0;
  size_t previous = SIZE_MAX;
  while (auto group = engine.Next()) {
    EXPECT_LE(group->size(), previous);
    previous = group->size();
    total += group->size();
  }
  EXPECT_EQ(total, pairs.size());
}

TEST_P(GroupingPropertyTest, FirstIncrementalGroupIsLargestUpfrontGroup) {
  Rng rng(GetParam() + 555);
  std::vector<StringPair> pairs;
  std::set<StringPair> seen;
  for (int i = 0; i < 20; ++i) {
    StringPair pair = RandomPair(&rng);
    if (pair.lhs != pair.rhs && seen.insert(pair).second) {
      pairs.push_back(pair);
    }
  }
  auto upfront = GroupAllUpfront(pairs, GroupingOptions{}, true, nullptr);
  GroupingEngine engine(pairs, GroupingOptions{});
  auto first = engine.Next();
  ASSERT_TRUE(first.has_value());
  ASSERT_FALSE(upfront.empty());
  EXPECT_EQ(first->size(), upfront[0].size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupingPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

class PivotSearchPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PivotSearchPropertyTest, PivotMembersAllContainThePath) {
  Rng rng(GetParam());
  std::vector<StringPair> pairs;
  std::set<StringPair> seen;
  for (int i = 0; i < 16; ++i) {
    StringPair pair = RandomPair(&rng);
    if (pair.lhs != pair.rhs && seen.insert(pair).second) {
      pairs.push_back(pair);
    }
  }
  LabelInterner interner;
  GraphBuilder builder(GraphBuilderOptions{}, &interner);
  GraphSet set = std::move(GraphSet::Build(pairs, builder)).value();
  PivotSearcher searcher(&set, PivotSearcher::Options{});
  std::vector<int> lower_bounds(set.size(), 1);
  for (GraphId g = 0; g < set.size(); ++g) {
    auto result = searcher.Search(g, 0, &lower_bounds);
    ASSERT_TRUE(result.found);
    EXPECT_EQ(result.count, static_cast<int>(result.members.size()));
    EXPECT_GE(result.count, 1);
    // The searched graph itself is always a member.
    EXPECT_TRUE(std::find(result.members.begin(), result.members.end(), g) !=
                result.members.end());
    for (GraphId member : result.members) {
      EXPECT_TRUE(set.graph(member).ContainsPath(result.path));
    }
    // Lower bounds never exceed the member count they were set from.
    EXPECT_LE(lower_bounds[g], static_cast<int>(set.size()));
  }
}

// Brute force for the cap-bounded maximum: walks every label path of
// `graph` from `node` to its sink with at most `labels_left` more labels
// and keeps the largest number of alive graphs containing one.
void BestCountWithin(const GraphSet& set, const TransformationGraph& graph,
                     int node, int labels_left, LabelPath* path, int* best) {
  if (node == graph.last_node()) {
    int count = 0;
    for (GraphId h = 0; h < set.size(); ++h) {
      if (set.alive(h) && set.graph(h).ContainsPath(*path)) ++count;
    }
    *best = std::max(*best, count);
    return;
  }
  if (labels_left == 0) return;
  for (const GraphEdge& edge : graph.edges_from(node)) {
    for (LabelId label : edge.labels) {
      path->push_back(label);
      BestCountWithin(set, graph, edge.to, labels_left - 1, path, best);
      path->pop_back();
    }
  }
}

// Skipping moves that cannot reach the sink within the path cap must not
// change the answer: the count is the exact maximum over every path of
// at most max_path_len labels.
TEST_P(PivotSearchPropertyTest, CountIsTheMaximumWithinThePathCap) {
  Rng rng(GetParam());
  std::vector<StringPair> pairs;
  std::set<StringPair> seen;
  for (int i = 0; i < 16; ++i) {
    StringPair pair = RandomPair(&rng);
    if (pair.lhs != pair.rhs && seen.insert(pair).second) {
      pairs.push_back(pair);
    }
  }
  LabelInterner interner;
  GraphBuilder builder(GraphBuilderOptions{}, &interner);
  GraphSet set = std::move(GraphSet::Build(pairs, builder)).value();
  for (int cap : {1, 2, 3}) {
    SCOPED_TRACE(cap);
    PivotSearcher::Options options;
    options.max_path_len = cap;
    PivotSearcher searcher(&set, options);
    std::vector<int> lower_bounds(set.size(), 1);
    for (GraphId g = 0; g < set.size(); ++g) {
      auto result = searcher.Search(g, 0, &lower_bounds);
      ASSERT_TRUE(result.found) << "graph " << g;
      EXPECT_LE(result.path.size(), static_cast<size_t>(cap));
      LabelPath path;
      int best = 0;
      BestCountWithin(set, set.graph(g), 1, cap, &path, &best);
      EXPECT_EQ(result.count, best) << "graph " << g;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PivotSearchPropertyTest,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace ustl
