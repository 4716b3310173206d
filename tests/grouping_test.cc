// Tests for src/grouping: pivot search (Algorithm 3, Table 5 trace,
// Example 5.2/5.3), one-shot grouping (Algorithm 2) with and without early
// termination (Algorithm 4), the incremental engine (Algorithms 5-7,
// Theorem 6.4), the structure-aware driver, and the exact optimal
// partition (Definition 3).
#include <gtest/gtest.h>

#include <set>

#include "common/cancel.h"
#include "dsl/program.h"
#include "grouping/grouping.h"
#include "grouping/incremental.h"
#include "grouping/oneshot.h"
#include "grouping/optimal.h"
#include "grouping/pivot_search.h"

namespace ustl {
namespace {

// The Example 5.1 replacement set.
std::vector<StringPair> Example51Pairs() {
  return {{"Lee, Mary", "M. Lee"},
          {"Smith, James", "J. Smith"},
          {"Lee, Mary", "Mary Lee"}};
}

GraphSet BuildSet(const std::vector<StringPair>& pairs,
                  LabelInterner* interner,
                  GraphBuilderOptions options = GraphBuilderOptions{}) {
  GraphBuilder builder(options, interner);
  Result<GraphSet> set = GraphSet::Build(pairs, builder);
  EXPECT_TRUE(set.ok());
  return std::move(set).value();
}

TEST(GraphSetTest, BuildAndKill) {
  LabelInterner interner;
  GraphSet set = BuildSet(Example51Pairs(), &interner);
  EXPECT_EQ(set.size(), 3u);
  EXPECT_EQ(set.AliveCount(), 3u);
  set.Kill(1);
  EXPECT_EQ(set.AliveCount(), 2u);
  EXPECT_FALSE(set.alive(1));
  EXPECT_TRUE(set.alive(0));
}

TEST(GraphSetTest, KillEpochCountsAliveToDeadTransitions) {
  LabelInterner interner;
  GraphSet set = BuildSet(Example51Pairs(), &interner);
  EXPECT_EQ(set.kill_epoch(), 0u);
  set.Kill(1);
  EXPECT_EQ(set.kill_epoch(), 1u);
  set.Kill(1);  // already dead: cached results over the alive set stay valid
  EXPECT_EQ(set.kill_epoch(), 1u);
  set.Kill(0);
  EXPECT_EQ(set.kill_epoch(), 2u);
}

TEST(PivotSearchTest, Example52PivotSharedByTwoGraphs) {
  // The pivot path of G1 ("Lee, Mary" -> "M. Lee") is shared by G1 and G2
  // (Example 5.2 finds f2 (+) f3 (+) f1 with |l| = 2).
  LabelInterner interner;
  GraphSet set = BuildSet(Example51Pairs(), &interner);
  PivotSearcher searcher(&set, PivotSearcher::Options{});
  std::vector<int> lower_bounds(set.size(), 1);
  auto result = searcher.Search(0, 0, &lower_bounds);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.count, 2);
  EXPECT_EQ(result.members, (std::vector<GraphId>{0, 1}));
  // The found program is consistent with both replacements.
  Program program = Program::FromPath(result.path, interner);
  EXPECT_TRUE(program.ConsistentWith("Lee, Mary", "M. Lee"));
  EXPECT_TRUE(program.ConsistentWith("Smith, James", "J. Smith"));
}

TEST(PivotSearchTest, GlobalLowerBoundsAreUpdated) {
  // Example 5.3: after the pivot of G1 is found, the global threshold of
  // G2 has been raised to 2.
  LabelInterner interner;
  GraphSet set = BuildSet(Example51Pairs(), &interner);
  PivotSearcher searcher(&set, PivotSearcher::Options{});
  std::vector<int> lower_bounds(set.size(), 1);
  searcher.Search(0, 0, &lower_bounds);
  EXPECT_EQ(lower_bounds[1], 2);
  EXPECT_EQ(lower_bounds[0], 2);
}

TEST(PivotSearchTest, ThresholdSuppressesSmallPivots) {
  LabelInterner interner;
  GraphSet set = BuildSet(Example51Pairs(), &interner);
  PivotSearcher searcher(&set, PivotSearcher::Options{});
  std::vector<int> lower_bounds(set.size(), 1);
  // G1's pivot is shared by 2 graphs; a threshold of 2 demands > 2.
  auto result = searcher.Search(0, 2, &lower_bounds);
  EXPECT_FALSE(result.found);
}

TEST(PivotSearchTest, VanillaAndEarlyTermAgree) {
  // Algorithm 4 is a pure optimization: same pivot, same members.
  LabelInterner interner;
  GraphSet set = BuildSet(
      {{"Street", "St"}, {"Avenue", "Ave"}, {"Lee, Mary", "M. Lee"},
       {"Smith, James", "J. Smith"}, {"9", "9th"}, {"3", "3rd"}},
      &interner);
  PivotSearcher::Options vanilla;
  vanilla.local_early_term = false;
  vanilla.global_early_term = false;
  PivotSearcher::Options fast;
  PivotSearcher slow_searcher(&set, vanilla);
  PivotSearcher fast_searcher(&set, fast);
  for (GraphId g = 0; g < set.size(); ++g) {
    std::vector<int> lb(set.size(), 1);
    auto slow = slow_searcher.Search(g, 0, nullptr);
    auto fast_result = fast_searcher.Search(g, 0, &lb);
    ASSERT_TRUE(slow.found);
    ASSERT_TRUE(fast_result.found);
    EXPECT_EQ(slow.path, fast_result.path) << "graph " << g;
    EXPECT_EQ(slow.members, fast_result.members);
    // Early termination can only reduce work.
    EXPECT_LE(fast_result.expansions, slow.expansions);
  }
}

TEST(PivotSearchTest, MaxPathLengthRestrictsSearch) {
  LabelInterner interner;
  GraphSet set = BuildSet(Example51Pairs(), &interner);
  PivotSearcher::Options options;
  options.max_path_len = 1;
  PivotSearcher searcher(&set, options);
  for (GraphId g = 0; g < set.size(); ++g) {
    std::vector<int> lb(set.size(), 1);
    auto result = searcher.Search(g, 0, &lb);
    ASSERT_TRUE(result.found) << "graph " << g;
    EXPECT_EQ(result.path.size(), 1u);
    // Only the one-label root->sink move can reach the sink within the
    // cap, so the search expands the root and that leaf, and joins once.
    EXPECT_EQ(result.expansions, 2u);
    EXPECT_EQ(result.joins, 1u);
  }
}

TEST(PivotSearchTest, ExpansionCapTruncates) {
  LabelInterner interner;
  GraphSet set = BuildSet(Example51Pairs(), &interner);
  PivotSearcher::Options options;
  options.local_early_term = false;
  options.global_early_term = false;
  options.max_expansions = 3;
  PivotSearcher searcher(&set, options);
  auto result = searcher.Search(0, 0, nullptr);
  EXPECT_TRUE(result.truncated);
}

TEST(PivotSearchTest, TrippedCancelTokenUnwindsTheSearch) {
  LabelInterner interner;
  GraphSet set = BuildSet(Example51Pairs(), &interner);
  CancelState cancel;
  cancel.Cancel();
  PivotSearcher::Options options;
  options.cancel = CancelToken(&cancel);
  PivotSearcher searcher(&set, options);
  std::vector<int> lb(set.size(), 1);
  EXPECT_THROW(searcher.Search(0, 0, &lb), CancelledError);
}

TEST(PivotSearchTest, UntrippedCancelTokenChangesNothing) {
  LabelInterner interner;
  GraphSet set = BuildSet(
      {{"Lee, Mary Ann", "M. A. Lee"},
       {"Smith, James Earl", "J. E. Smith"},
       {"Doe, John Paul", "J. P. Doe"},
       {"Lee, Mary Ann Beth", "M. A. B. Lee"},
       {"Smith, James Earl Roy", "J. E. R. Smith"},
       {"Doe, John Paul Tom", "J. P. T. Doe"}},
      &interner);
  CancelState cancel;
  PivotSearcher::Options options;
  options.local_early_term = false;
  options.global_early_term = false;
  PivotSearcher plain(&set, options);
  options.cancel = CancelToken(&cancel);
  PivotSearcher cancellable(&set, options);
  uint64_t most_expansions = 0;
  for (GraphId g = 0; g < set.size(); ++g) {
    auto expected = plain.Search(g, 0, nullptr);
    auto actual = cancellable.Search(g, 0, nullptr);
    ASSERT_TRUE(actual.found) << "graph " << g;
    EXPECT_EQ(actual.path, expected.path);
    EXPECT_EQ(actual.members, expected.members);
    EXPECT_EQ(actual.expansions, expected.expansions);
    EXPECT_EQ(actual.joins, expected.joins);
    most_expansions = std::max(most_expansions, actual.expansions);
  }
  // Some search runs past the first periodic checkpoint, not just the
  // one on its first expansion.
  EXPECT_GT(most_expansions, 4096u);
}

TEST(PivotSearchTest, DeadGraphsDoNotCount) {
  LabelInterner interner;
  GraphSet set = BuildSet(Example51Pairs(), &interner);
  set.Kill(1);  // remove "Smith, James" -> "J. Smith"
  PivotSearcher searcher(&set, PivotSearcher::Options{});
  std::vector<int> lb(set.size(), 1);
  auto result = searcher.Search(0, 0, &lb);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.count, 1);
  EXPECT_EQ(result.members, (std::vector<GraphId>{0}));
}

// --- One-shot grouping (Algorithm 2). ---

TEST(OneShotTest, GroupsPartitionTheInput) {
  LabelInterner interner;
  GraphSet set = BuildSet(
      {{"Street", "St"}, {"Avenue", "Ave"}, {"Wisconsin", "WI"},
       {"Lee, Mary", "M. Lee"}, {"Smith, James", "J. Smith"}},
      &interner);
  auto groups = UnsupervisedGrouping(set, OneShotOptions{}, nullptr);
  std::set<GraphId> seen;
  for (const auto& group : groups) {
    EXPECT_FALSE(group.members.empty());
    for (GraphId g : group.members) {
      EXPECT_TRUE(seen.insert(g).second) << "graph in two groups";
    }
    // Every member's graph contains the pivot path.
    for (GraphId g : group.members) {
      EXPECT_TRUE(set.graph(g).ContainsPath(group.pivot));
    }
  }
  EXPECT_EQ(seen.size(), set.size());
}

TEST(OneShotTest, SearchTruncatedBeforeItsFirstLeafStillGroups) {
  // Two expansions reach no leaf of any Example 5.1 graph, so no search
  // finds a pivot; each graph falls back to its full-width constant.
  LabelInterner interner;
  GraphSet set = BuildSet(Example51Pairs(), &interner);
  OneShotOptions options;
  options.early_termination = false;
  options.max_expansions = 2;
  OneShotStats stats;
  auto groups = UnsupervisedGrouping(set, options, &stats);
  EXPECT_TRUE(stats.truncated);
  ASSERT_EQ(groups.size(), set.size());
  std::set<GraphId> seen;
  for (const auto& group : groups) {
    ASSERT_EQ(group.pivot.size(), 1u);
    EXPECT_EQ(interner.Get(group.pivot[0]).kind(),
              StringFn::Kind::kConstantStr);
    for (GraphId g : group.members) {
      EXPECT_TRUE(seen.insert(g).second) << "graph in two groups";
      EXPECT_TRUE(set.graph(g).ContainsPath(group.pivot));
    }
  }
  EXPECT_EQ(seen.size(), set.size());
}

TEST(OneShotTest, SortedBySizeDescending) {
  LabelInterner interner;
  GraphSet set = BuildSet(
      {{"Street", "St"}, {"Avenue", "Ave"}, {"Wisconsin", "WI"},
       {"Lee, Mary", "M. Lee"}, {"Smith, James", "J. Smith"}},
      &interner);
  auto groups = UnsupervisedGrouping(set, OneShotOptions{}, nullptr);
  for (size_t i = 1; i < groups.size(); ++i) {
    EXPECT_GE(groups[i - 1].members.size(), groups[i].members.size());
  }
}

TEST(OneShotTest, EarlyTerminationProducesIdenticalGroups) {
  LabelInterner interner;
  std::vector<StringPair> pairs = {
      {"Street", "St"},       {"Avenue", "Ave"},    {"Boulevard", "Blvd"},
      {"Lee, Mary", "M. Lee"}, {"Smith, James", "J. Smith"},
      {"9", "9th"},           {"3", "3rd"},         {"Wisconsin", "WI"},
  };
  GraphSet set1 = BuildSet(pairs, &interner);
  OneShotOptions vanilla;
  vanilla.early_termination = false;
  OneShotStats slow_stats, fast_stats;
  auto slow = UnsupervisedGrouping(set1, vanilla, &slow_stats);
  auto fast = UnsupervisedGrouping(set1, OneShotOptions{}, &fast_stats);
  ASSERT_EQ(slow.size(), fast.size());
  for (size_t i = 0; i < slow.size(); ++i) {
    EXPECT_EQ(slow[i].pivot, fast[i].pivot);
    EXPECT_EQ(slow[i].members, fast[i].members);
  }
  EXPECT_LE(fast_stats.expansions, slow_stats.expansions);
}

TEST(OneShotTest, StreetAvenueGroupTogether) {
  LabelInterner interner;
  GraphSet set = BuildSet(
      {{"Street", "St"}, {"Avenue", "Ave"}, {"Wisconsin", "WI"}},
      &interner);
  auto groups = UnsupervisedGrouping(set, OneShotOptions{}, nullptr);
  // Street->St and Avenue->Ave share the affix program; Wisconsin->WI has
  // no lowercase prefix of "isconsin" equal to "I", so it stands alone.
  ASSERT_GE(groups.size(), 2u);
  EXPECT_EQ(groups[0].members.size(), 2u);
  EXPECT_EQ(groups[0].members, (std::vector<GraphId>{0, 1}));
}

// --- Incremental engine (Algorithms 5-7). ---

TEST(IncrementalTest, ProducesGroupsLargestFirst) {
  LabelInterner interner;
  GraphSet set = BuildSet(
      {{"Street", "St"}, {"Avenue", "Ave"}, {"Boulevard", "Blvd"},
       {"Lee, Mary", "M. Lee"}, {"Smith, James", "J. Smith"},
       {"Wisconsin", "WI"}},
      &interner);
  IncrementalEngine engine(std::move(set), IncrementalOptions{});
  std::vector<size_t> sizes;
  while (auto group = engine.Next()) sizes.push_back(group->members.size());
  ASSERT_FALSE(sizes.empty());
  for (size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_GE(sizes[i - 1], sizes[i]);
  }
  size_t total = 0;
  for (size_t s : sizes) total += s;
  EXPECT_EQ(total, 6u);
}

TEST(IncrementalTest, MatchesOneShotGroups) {
  // Theorem 6.4: the incremental algorithm returns the one-shot groups in
  // decreasing size order.
  std::vector<StringPair> pairs = {
      {"Street", "St"},        {"Avenue", "Ave"},
      {"Lee, Mary", "M. Lee"}, {"Smith, James", "J. Smith"},
      {"9", "9th"},            {"3", "3rd"},
  };
  LabelInterner oneshot_interner;
  GraphSet oneshot_set = BuildSet(pairs, &oneshot_interner);
  auto upfront = UnsupervisedGrouping(oneshot_set, OneShotOptions{}, nullptr);

  LabelInterner inc_interner;
  GraphSet inc_set = BuildSet(pairs, &inc_interner);
  IncrementalEngine engine(std::move(inc_set), IncrementalOptions{});
  std::vector<ReplacementGroup> incremental;
  while (auto group = engine.Next()) incremental.push_back(std::move(*group));

  ASSERT_EQ(upfront.size(), incremental.size());
  for (size_t i = 0; i < upfront.size(); ++i) {
    EXPECT_EQ(upfront[i].members, incremental[i].members) << "group " << i;
  }
}

TEST(IncrementalTest, PeekIsIdempotentUntilConsumed) {
  LabelInterner interner;
  GraphSet set = BuildSet({{"Street", "St"}, {"Avenue", "Ave"}}, &interner);
  IncrementalEngine engine(std::move(set), IncrementalOptions{});
  const auto& first = engine.Peek();
  ASSERT_TRUE(first.has_value());
  size_t size = first->members.size();
  EXPECT_TRUE(engine.HasPeeked());
  const auto& again = engine.Peek();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->members.size(), size);
  engine.ConsumePeeked();
  EXPECT_FALSE(engine.HasPeeked());
  EXPECT_EQ(engine.AliveCount(), 2u - size);
}

TEST(IncrementalTest, UpperHintBoundsNextGroup) {
  LabelInterner interner;
  GraphSet set = BuildSet(
      {{"Street", "St"}, {"Avenue", "Ave"}, {"Wisconsin", "WI"}},
      &interner);
  IncrementalEngine engine(std::move(set), IncrementalOptions{});
  while (true) {
    int hint = engine.UpperHint();
    auto group = engine.Next();
    if (!group.has_value()) break;
    EXPECT_LE(static_cast<int>(group->members.size()), hint);
  }
}

TEST(IncrementalTest, SearchCacheReusesAcrossRoundsWithIdenticalGroups) {
  // Round 1's wave speculatively searches the name family alongside the
  // winning ordinal family; its result (members untouched by the consume)
  // stays exact, so round 2 resolves it from the cache — with the same
  // group sequence the serial cache-off engine produces.
  std::vector<StringPair> pairs = {
      {"Lee, Mary", "M. Lee"}, {"Smith, James", "J. Smith"},
      {"9th", "9"},            {"3rd", "3"},
      {"22nd", "22"}};
  auto drain = [&](ThreadPool* pool, bool reuse, IncrementalStats* stats) {
    LabelInterner interner;
    GraphSet set = BuildSet(pairs, &interner);
    IncrementalOptions options;
    options.reuse_search_results = reuse;
    IncrementalEngine engine(std::move(set), options, pool);
    std::vector<ReplacementGroup> groups;
    while (auto group = engine.Next()) groups.push_back(std::move(*group));
    if (stats != nullptr) *stats = engine.stats();
    return groups;
  };
  IncrementalStats cached_stats;
  ThreadPool pool(4);
  std::vector<ReplacementGroup> cached = drain(&pool, true, &cached_stats);
  std::vector<ReplacementGroup> plain = drain(nullptr, false, nullptr);
  ASSERT_EQ(cached.size(), plain.size());
  ASSERT_GT(cached.size(), 1u);
  for (size_t i = 0; i < cached.size(); ++i) {
    EXPECT_EQ(cached[i].pivot, plain[i].pivot) << i;
    EXPECT_EQ(cached[i].members, plain[i].members) << i;
  }
  // The wave ran past the serial stop point at least once, and what it
  // speculated came back as avoided searches in a later round.
  EXPECT_GT(cached_stats.speculative_searches, 0u);
  EXPECT_GT(cached_stats.cache_hits, 0u);
}

TEST(IncrementalTest, CacheEntriesWithKilledMembersAreInvalidated) {
  // Example 5.1: G0 and G2 both replace "Lee, Mary"; G0's pivot groups it
  // with G1, G2's round-1 search counts paths shared with G0. After round
  // 1 kills {G0, G1}, any cached result of G2 whose members include G0 is
  // stale and must be recomputed — the round-2 group may only contain
  // alive graphs, and its pivot must still be consistent with them.
  auto drain = [&](bool reuse) {
    LabelInterner interner;
    GraphSet set = BuildSet(Example51Pairs(), &interner);
    IncrementalOptions options;
    options.reuse_search_results = reuse;
    IncrementalEngine engine(std::move(set), options);
    std::vector<ReplacementGroup> groups;
    while (auto group = engine.Next()) groups.push_back(std::move(*group));
    return groups;
  };
  std::vector<ReplacementGroup> cached = drain(true);
  std::vector<ReplacementGroup> plain = drain(false);
  ASSERT_EQ(cached.size(), plain.size());
  std::set<GraphId> seen;
  for (size_t i = 0; i < cached.size(); ++i) {
    EXPECT_EQ(cached[i].pivot, plain[i].pivot) << i;
    EXPECT_EQ(cached[i].members, plain[i].members) << i;
    for (GraphId g : cached[i].members) {
      EXPECT_TRUE(seen.insert(g).second) << "graph in two groups";
    }
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(IncrementalTest, UpperHintIsStableBetweenMutations) {
  LabelInterner interner;
  GraphSet set = BuildSet(
      {{"Street", "St"}, {"Avenue", "Ave"}, {"Wisconsin", "WI"},
       {"9th", "9"}, {"3rd", "3"}},
      &interner);
  IncrementalEngine engine(std::move(set), IncrementalOptions{});
  while (engine.AliveCount() > 0) {
    // The memoized scan must be idempotent...
    const int hint = engine.UpperHint();
    EXPECT_EQ(engine.UpperHint(), hint);
    auto& peek = engine.Peek();
    if (!peek.has_value()) break;
    // ...and sound against the group it precedes.
    EXPECT_LE(static_cast<int>(peek->members.size()), hint);
    engine.ConsumePeeked();
    // Consuming invalidates the memo: the hint may shrink, never grow.
    EXPECT_LE(engine.UpperHint(), hint);
  }
  EXPECT_EQ(engine.UpperHint(), 0);
}

TEST(IncrementalTest, ExhaustionReturnsNullopt) {
  LabelInterner interner;
  GraphSet set = BuildSet({{"a", "b"}}, &interner);
  IncrementalEngine engine(std::move(set), IncrementalOptions{});
  EXPECT_TRUE(engine.Next().has_value());
  EXPECT_FALSE(engine.Next().has_value());
  EXPECT_FALSE(engine.Next().has_value());
}

// --- Structure-aware driver. ---

TEST(PartitionByStructureTest, GroupsByReplacementStructure) {
  std::vector<StringPair> pairs = {
      {"9", "9th"}, {"3", "3rd"}, {"Street", "St"}, {"12", "12th"}};
  auto partition = PartitionByStructure(pairs, true);
  // d=>dl {0,1,3} and ul=>ul {2}.
  ASSERT_EQ(partition.size(), 2u);
  std::map<std::string, std::vector<size_t>> by_key(partition.begin(),
                                                    partition.end());
  EXPECT_EQ(by_key["d=>dl"], (std::vector<size_t>{0, 1, 3}));
  EXPECT_EQ(by_key["ul=>ul"], (std::vector<size_t>{2}));
  // Refinement off: single partition.
  auto single = PartitionByStructure(pairs, false);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0].second.size(), 4u);
}

TEST(GroupingEngineTest, Figure2Groups) {
  // The running example: the 12 candidate replacements of Figure 2 form 6
  // two-element groups (plus state abbreviations that stand alone here
  // because only structure differs -- Wisconsin/CA pairs in the figure are
  // singletons in our DSL without a shared affix).
  std::vector<StringPair> pairs = {
      {"Lee, Mary", "M. Lee"},     {"Smith, James", "J. Smith"},
      {"Lee, Mary", "Mary Lee"},   {"Smith, James", "James Smith"},
      {"Mary Lee", "M. Lee"},      {"James Smith", "J. Smith"},
      {"Street", "St"},            {"Avenue", "Ave"},
      {"9th", "9"},                {"3rd", "3"},
  };
  GroupingEngine engine(pairs, GroupingOptions{});
  std::vector<Group> groups;
  while (auto group = engine.Next()) groups.push_back(std::move(*group));
  ASSERT_EQ(groups.size(), 5u);
  for (const Group& group : groups) {
    EXPECT_EQ(group.size(), 2u) << group.program;
  }
  // All pairs grouped exactly once.
  std::set<size_t> seen;
  for (const Group& group : groups) {
    for (size_t i : group.member_pair_indices) {
      EXPECT_TRUE(seen.insert(i).second);
    }
  }
  EXPECT_EQ(seen.size(), pairs.size());
}

TEST(GroupingEngineTest, MatchesUpfrontDriver) {
  std::vector<StringPair> pairs = {
      {"Lee, Mary", "M. Lee"},   {"Smith, James", "J. Smith"},
      {"Street", "St"},          {"Avenue", "Ave"},
      {"9th", "9"},              {"3rd", "3"},
      {"Wisconsin", "WI"},       {"California", "CA"},
  };
  UpfrontStats stats;
  auto upfront = GroupAllUpfront(pairs, GroupingOptions{}, true, &stats);
  GroupingEngine engine(pairs, GroupingOptions{});
  std::vector<Group> incremental;
  while (auto group = engine.Next()) incremental.push_back(std::move(*group));
  ASSERT_EQ(upfront.size(), incremental.size());
  for (size_t i = 0; i < upfront.size(); ++i) {
    std::set<size_t> a(upfront[i].member_pair_indices.begin(),
                       upfront[i].member_pair_indices.end());
    std::set<size_t> b(incremental[i].member_pair_indices.begin(),
                       incremental[i].member_pair_indices.end());
    EXPECT_EQ(a, b) << "group " << i;
  }
  EXPECT_EQ(stats.num_groups, upfront.size());
  EXPECT_GT(stats.expansions, 0u);
}

TEST(GroupingEngineTest, RemainingCountDecreases) {
  std::vector<StringPair> pairs = {
      {"Street", "St"}, {"Avenue", "Ave"}, {"9th", "9"}, {"3rd", "3"}};
  GroupingEngine engine(pairs, GroupingOptions{});
  EXPECT_EQ(engine.RemainingCount(), 4u);
  auto group = engine.Next();
  ASSERT_TRUE(group.has_value());
  EXPECT_EQ(engine.RemainingCount(), 4u - group->size());
}

// --- Exact optimal partition (Definition 3). ---

TEST(OptimalPartitionTest, MatchesGreedyOnEasyInstances) {
  // Families with disjoint obvious programs: greedy achieves the optimum.
  // (Note the abbreviation direction: 9th -> 9 and 3rd -> 3 share a
  // program; the expansion direction would need different constants.)
  LabelInterner interner;
  GraphSet set = BuildSet(
      {{"Street", "St"}, {"Avenue", "Ave"}, {"9th", "9"}, {"3rd", "3"}},
      &interner);
  auto optimal = OptimalPartitionSize(set, OptimalPartitionOptions{});
  ASSERT_TRUE(optimal.ok());
  auto groups = UnsupervisedGrouping(set, OneShotOptions{}, nullptr);
  EXPECT_EQ(*optimal, groups.size());
  EXPECT_EQ(*optimal, 2u);
}

TEST(OptimalPartitionTest, ExpansionDirectionCannotShareConstants) {
  // 9 -> 9th and 3 -> 3rd need ConstantStr("th") vs ConstantStr("rd"):
  // no shared program exists, so both greedy and the optimum use 2 groups
  // for them.
  LabelInterner interner;
  GraphSet set = BuildSet({{"9", "9th"}, {"3", "3rd"}}, &interner);
  auto optimal = OptimalPartitionSize(set, OptimalPartitionOptions{});
  ASSERT_TRUE(optimal.ok());
  EXPECT_EQ(*optimal, 2u);
  auto groups = UnsupervisedGrouping(set, OneShotOptions{}, nullptr);
  EXPECT_EQ(groups.size(), 2u);
}

TEST(OptimalPartitionTest, GreedyNeverBeatsOptimal) {
  LabelInterner interner;
  GraphSet set = BuildSet(
      {{"Street", "St"}, {"Avenue", "Ave"}, {"Wisconsin", "WI"},
       {"9th", "9"}, {"3rd", "3"}, {"22nd", "22"}},
      &interner);
  OptimalPartitionOptions options;
  options.max_paths_per_graph = 100000;
  auto optimal = OptimalPartitionSize(set, options);
  ASSERT_TRUE(optimal.ok());
  auto groups = UnsupervisedGrouping(set, OneShotOptions{}, nullptr);
  EXPECT_GE(groups.size(), *optimal);
}

TEST(OptimalPartitionTest, LimitsAreEnforced) {
  LabelInterner interner;
  GraphSet set = BuildSet({{"Street", "St"}, {"Avenue", "Ave"}}, &interner);
  OptimalPartitionOptions options;
  options.max_graphs = 1;
  EXPECT_FALSE(OptimalPartitionSize(set, options).ok());
}

TEST(OptimalPartitionTest, EmptySetIsZero) {
  LabelInterner interner;
  GraphSet set = BuildSet({{"a", "b"}}, &interner);
  set.Kill(0);
  auto optimal = OptimalPartitionSize(set, OptimalPartitionOptions{});
  ASSERT_TRUE(optimal.ok());
  EXPECT_EQ(*optimal, 0u);
}

// --- Appendix-E sampling acceleration. ---

std::vector<StringPair> OrdinalAbbrevPairs() {
  // One structure group (dl => d), all sharing the "keep the digits"
  // program.
  return {{"9th", "9"},     {"3rd", "3"},   {"22nd", "22"},
          {"101st", "101"}, {"47th", "47"}, {"8th", "8"}};
}

TEST(SamplingTest, LargeSampleMatchesExactEngine) {
  LabelInterner exact_interner;
  GraphSet exact_set = BuildSet(OrdinalAbbrevPairs(), &exact_interner);
  IncrementalEngine exact(std::move(exact_set), IncrementalOptions{});

  LabelInterner sampled_interner;
  GraphSet sampled_set = BuildSet(OrdinalAbbrevPairs(), &sampled_interner);
  IncrementalOptions sampled_options;
  sampled_options.sample_size = 100;  // bigger than the input: exact mode
  IncrementalEngine sampled(std::move(sampled_set), sampled_options);

  while (true) {
    auto a = exact.Next();
    auto b = sampled.Next();
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a.has_value()) break;
    std::set<GraphId> ma(a->members.begin(), a->members.end());
    std::set<GraphId> mb(b->members.begin(), b->members.end());
    EXPECT_EQ(ma, mb);
  }
}

TEST(SamplingTest, SmallSampleStillRecoversTheFullGroup) {
  // Pivot counting over 2 sampled graphs must still rehydrate the winning
  // path against all 6, so the family comes back as one complete group.
  LabelInterner interner;
  GraphSet set = BuildSet(OrdinalAbbrevPairs(), &interner);
  IncrementalOptions options;
  options.sample_size = 2;
  IncrementalEngine engine(std::move(set), options);
  auto group = engine.Next();
  ASSERT_TRUE(group.has_value());
  EXPECT_EQ(group->members.size(), 6u);
}

TEST(SamplingTest, GroupsPartitionTheInputAndStayConsistent) {
  std::vector<StringPair> pairs = {
      {"Lee, Mary", "M. Lee"},   {"Smith, James", "J. Smith"},
      {"Lee, Mary", "Mary Lee"}, {"Smith, James", "James Smith"},
      {"Street", "St"},          {"Avenue", "Ave"},
      {"9th", "9"},              {"3rd", "3"},
      {"Wisconsin", "WI"},       {"California", "CA"},
  };
  GroupingOptions options;
  options.pivot_sample_size = 3;
  GroupingEngine engine(pairs, options);
  std::set<size_t> seen;
  while (auto group = engine.Next()) {
    EXPECT_FALSE(group->member_pair_indices.empty());
    for (size_t i : group->member_pair_indices) {
      EXPECT_TRUE(seen.insert(i).second) << "pair grouped twice: " << i;
    }
  }
  EXPECT_EQ(seen.size(), pairs.size());
}

TEST(SamplingTest, SampledGroupMembersShareThePivotProgram) {
  LabelInterner interner;
  GraphSet set = BuildSet(OrdinalAbbrevPairs(), &interner);
  IncrementalOptions options;
  options.sample_size = 3;
  IncrementalEngine engine(std::move(set), options);
  std::vector<StringPair> pairs = OrdinalAbbrevPairs();
  while (auto group = engine.Next()) {
    Program program = Program::FromPath(group->pivot, interner);
    for (GraphId g : group->members) {
      EXPECT_TRUE(program.ConsistentWith(pairs[g].lhs, pairs[g].rhs))
          << "member " << g << " inconsistent with pivot";
    }
  }
}

TEST(SamplingTest, DeterministicUnderFixedSeed) {
  auto run = [](uint64_t seed) {
    std::vector<std::vector<GraphId>> groups;
    LabelInterner interner;
    GraphSet set = BuildSet(OrdinalAbbrevPairs(), &interner);
    IncrementalOptions options;
    options.sample_size = 2;
    options.sample_seed = seed;
    IncrementalEngine engine(std::move(set), options);
    while (auto group = engine.Next()) groups.push_back(group->members);
    return groups;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_EQ(run(13), run(13));
}

}  // namespace
}  // namespace ustl
