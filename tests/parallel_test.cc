// Tests for src/common/parallel.h (ThreadPool, ParallelFor)
// and the determinism contract of the parallel pipeline: the label ids a
// structure group's graph build assigns are pinned, and grouping must be
// bit-identical for any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "datagen/generators.h"
#include "graph/graph_builder.h"
#include "grouping/grouping.h"
#include "index/inverted_index.h"
#include "obs/trace.h"
#include "replace/replacement_store.h"

namespace ustl {
namespace {

TEST(ResolveThreadCountTest, ZeroMeansHardwareConcurrency) {
  EXPECT_GE(ResolveThreadCount(0), 1);
  EXPECT_EQ(ResolveThreadCount(1), 1);
  EXPECT_EQ(ResolveThreadCount(5), 5);
  EXPECT_EQ(ResolveThreadCount(-3), ResolveThreadCount(0));
}

TEST(ThreadPoolTest, ReportsThreadCountAndRunsTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  EXPECT_FALSE(pool.InWorkerThread());
}

TEST(ParallelForTest, EmptyRangeIsANoOp) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  ParallelFor(&pool, 0, [&](size_t) { ++calls; });
  ParallelFor(nullptr, 0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, NullPoolRunsSerially) {
  std::vector<int> out(100, 0);
  ParallelFor(nullptr, out.size(), [&](size_t i) { out[i] = static_cast<int>(i); });
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], static_cast<int>(i));
}

TEST(ParallelForTest, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> counts(kN);
  ParallelFor(&pool, kN, [&](size_t i) { ++counts[i]; });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(counts[i].load(), 1) << i;
}

TEST(ParallelForTest, WorkersAreMarkedAsPoolThreads) {
  ThreadPool pool(4);
  // With far more indices than threads, at least one chunk runs on a
  // worker thread (the caller can't drain 32 chunks alone while workers
  // are awake) — but that is timing-dependent, so only assert consistency:
  // an index either ran inline (caller: not a worker) or on a worker.
  std::atomic<int> on_worker{0}, on_caller{0};
  ParallelFor(&pool, 1000, [&](size_t) {
    pool.InWorkerThread() ? ++on_worker : ++on_caller;
  });
  EXPECT_EQ(on_worker.load() + on_caller.load(), 1000);
}

TEST(ParallelForTest, NestedUseRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  constexpr size_t kOuter = 16;
  constexpr size_t kInner = 64;
  std::vector<std::vector<int>> out(kOuter, std::vector<int>(kInner, 0));
  ParallelFor(&pool, kOuter, [&](size_t i) {
    ParallelFor(&pool, kInner, [&](size_t j) { out[i][j] = 1; });
  });
  for (const auto& row : out) {
    EXPECT_EQ(std::accumulate(row.begin(), row.end(), 0),
              static_cast<int>(kInner));
  }
}

TEST(ParallelForTest, PropagatesTheLowestIndexedException) {
  ThreadPool pool(4);
  // Several chunks throw; the caller must observe the failure of the
  // lowest-indexed chunk, like a serial loop surfacing its first error.
  try {
    ParallelFor(&pool, 1000, [&](size_t i) {
      if (i % 250 == 100) {
        throw std::runtime_error("boom at " + std::to_string(i));
      }
    });
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 100");
  }
}

TEST(ParallelForTest, ExceptionStillRunsIndependentChunks) {
  ThreadPool pool(2);
  std::atomic<size_t> ran{0};
  EXPECT_THROW(ParallelFor(&pool, 100,
                           [&](size_t i) {
                             if (i == 99) throw std::runtime_error("tail");
                             ++ran;
                           }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 99u);
}

// ---------------------------------------------------------------------
// Determinism of the parallel pipeline.

std::vector<StringPair> DatasetPairs(GeneratedDataset* data,
                                     uint64_t seed = 23) {
  AddressGenOptions gen;
  gen.scale = 0.05;
  gen.seed = seed;
  *data = GenerateAddressDataset(gen);
  ReplacementStore store(data->column, CandidateGenOptions{});
  return store.pairs();
}

// FNV-1a over every label's ToString() in id order, then over every
// graph's edges: per node the edge count, per edge its target and label
// ids, each list prefixed by its length.
uint64_t GraphBuildFingerprint(const LabelInterner& interner,
                               const std::vector<TransformationGraph>& graphs) {
  uint64_t hash = kPostingHashSeed;
  const auto mix = [&hash](uint64_t value) {
    hash ^= value;
    hash *= kPostingHashPrime;
  };
  mix(interner.size());
  for (LabelId id = 0; id < interner.size(); ++id) {
    const std::string text = interner.Get(id).ToString();
    mix(text.size());
    for (char c : text) mix(static_cast<unsigned char>(c));
  }
  mix(graphs.size());
  for (const TransformationGraph& graph : graphs) {
    mix(static_cast<uint64_t>(graph.num_nodes()));
    for (int node = 1; node <= graph.num_nodes(); ++node) {
      mix(graph.edges_from(node).size());
      for (const GraphEdge& edge : graph.edges_from(node)) {
        mix(static_cast<uint64_t>(edge.to));
        mix(edge.labels.size());
        for (LabelId label : edge.labels) mix(label);
      }
    }
  }
  return hash;
}

// Label ids are handed out in first-sight order and break ties in the
// canonical move order of pivot search, so the ids a structure group's
// build assigns are part of the output contract. The values were recorded
// with the string-keyed interner; a moved value means different ids or
// graphs, a behaviour change to explain. The second build adds the
// Appendix-E scorer, which prunes constant labels.
TEST(ParallelDeterminismTest, BuildBatchLabelIdsArePinned) {
  GeneratedDataset data;
  std::vector<StringPair> pairs = DatasetPairs(&data);
  ASSERT_GT(pairs.size(), 50u);

  std::vector<GraphBuilder::BuildRequest> requests;
  for (const StringPair& pair : pairs) requests.push_back({pair.lhs, pair.rhs});
  ThreadPool pool(4);
  auto build = [&](const GraphBuilderOptions& options, size_t* labels) {
    LabelInterner interner;
    GraphBuilder builder(options, &interner);
    Result<std::vector<TransformationGraph>> graphs =
        builder.BuildBatch(requests, &pool);
    EXPECT_TRUE(graphs.ok());
    EXPECT_EQ(graphs->size(), pairs.size());
    *labels = interner.size();
    return GraphBuildFingerprint(interner, *graphs);
  };
  size_t labels = 0;
  EXPECT_EQ(build(GraphBuilderOptions{}, &labels), 2070645458201349199ull);
  EXPECT_EQ(labels, 5046u);

  CorpusFrequency global;
  FrequencyTermScorer scorer(&global);
  for (const StringPair& pair : pairs) {
    for (const std::string* side : {&pair.lhs, &pair.rhs}) {
      global.Add(*side);
      scorer.AddStructureString(*side);
    }
  }
  GraphBuilderOptions scored;
  scored.scorer = &scorer;
  EXPECT_EQ(build(scored, &labels), 4648536730361482071ull);
  EXPECT_EQ(labels, 5053u);
}

// Drains a GroupingEngine configured with `threads` into a comparable
// serialized form.
std::vector<Group> DrainEngine(const std::vector<StringPair>& pairs,
                               int threads, bool search_cache = true,
                               IncrementalStats* stats = nullptr,
                               TraceContext* trace = nullptr) {
  GroupingOptions options;
  options.num_threads = threads;
  options.reuse_search_results = search_cache;
  options.trace = trace;
  GroupingEngine engine(pairs, options);
  std::vector<Group> groups;
  while (std::optional<Group> group = engine.Next()) {
    groups.push_back(std::move(*group));
  }
  if (stats != nullptr) *stats = engine.stats();
  return groups;
}

void ExpectSameGroups(const std::vector<Group>& a,
                      const std::vector<Group>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].pivot, b[i].pivot) << i;
    EXPECT_EQ(a[i].structure, b[i].structure) << i;
    EXPECT_EQ(a[i].program, b[i].program) << i;
    EXPECT_EQ(a[i].member_pair_indices, b[i].member_pair_indices) << i;
    EXPECT_EQ(a[i].pure_constant, b[i].pure_constant) << i;
    EXPECT_EQ(a[i].constant_coverage, b[i].constant_coverage) << i;
  }
}

TEST(ParallelDeterminismTest, GroupingEngineIsIdenticalAcrossThreadCounts) {
  GeneratedDataset data;
  std::vector<StringPair> pairs = DatasetPairs(&data);
  std::vector<Group> one = DrainEngine(pairs, 1);
  ASSERT_GT(one.size(), 5u);
  ExpectSameGroups(one, DrainEngine(pairs, 2));
  ExpectSameGroups(one, DrainEngine(pairs, 8));
}

// ISSUE 4 acceptance: grouped output (groups, members, order) must be
// byte-identical across thread counts x search-cache settings in the
// incremental driver. The 1-thread cache-on run must also see cross-round
// reuse actually firing.
TEST(ParallelDeterminismTest, GroupingEngineThreadAndSearchCacheMatrix) {
  GeneratedDataset data;
  std::vector<StringPair> pairs = DatasetPairs(&data);
  IncrementalStats baseline_stats;
  std::vector<Group> baseline =
      DrainEngine(pairs, 1, /*search_cache=*/true, &baseline_stats);
  ASSERT_GT(baseline.size(), 5u);
  EXPECT_GT(baseline_stats.cache_hits, 0u);
  for (int threads : {1, 2, 4}) {
    for (bool cache : {true, false}) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " cache=" << cache);
      ExpectSameGroups(baseline, DrainEngine(pairs, threads, cache));
    }
  }
}

// Serial work is exact: one thread, no sampling and no budget make every
// search, expansion and group a pure function of the input. The constants
// guard the canonical move order of the DFS (the first-found maximum must
// not move): a change that keeps every group but moves a counter changed
// which paths the search visits, a behaviour change to explain, not noise.
TEST(ParallelDeterminismTest, SerialWorkCountersArePinned) {
  GeneratedDataset data;
  std::vector<StringPair> pairs = DatasetPairs(&data);
  IncrementalStats stats;
  const std::vector<Group> groups =
      DrainEngine(pairs, 1, /*search_cache=*/true, &stats);
  EXPECT_EQ(groups.size(), 292u);
  EXPECT_EQ(stats.searches, 341u);
  EXPECT_EQ(stats.expansions, 22612u);

  GroupingOptions options;
  options.num_threads = 1;
  UpfrontStats upfront;
  GroupAllUpfront(pairs, options, /*early_termination=*/true, &upfront);
  EXPECT_EQ(upfront.expansions, 32575u);
}

// FNV-1a over a drained group sequence: per group, the pivot's labels
// and the member pair indices, each list prefixed by its length.
uint64_t GroupSequenceFingerprint(const std::vector<Group>& groups) {
  uint64_t hash = kPostingHashSeed;
  const auto mix = [&hash](uint64_t value) {
    hash ^= value;
    hash *= kPostingHashPrime;
  };
  for (const Group& group : groups) {
    mix(group.pivot.size());
    for (LabelId label : group.pivot) mix(label);
    mix(group.member_pair_indices.size());
    for (size_t index : group.member_pair_indices) mix(index);
  }
  return hash;
}

// Sums the `joins` attrs of search_wave spans (single-threaded emitter).
class WaveJoinsSink : public TraceSink {
 public:
  void Emit(const TraceSpan& span) override {
    if (span.name != "search_wave") return;
    for (const auto& [key, value] : span.attrs) {
      if (key == "joins") joins += value;
    }
  }
  int64_t joins = 0;
};

// Seed 7 has nodes where one label sits on two outgoing edges, so two
// moves tie under the move order and std::sort's unstable tie order
// decides which is searched first. Dropping twin-list labels before that
// sort instead of after it changes its input, and with it the expansions
// and the group sequence, on this table (seed 23 above happens not to
// show it). Groups, searches and the fingerprint were recorded before the
// label-class filter existed; expansions and joins count the DFS that also
// skips moves which cannot reach the sink within the path cap, and the
// search_wave spans must account for all of the joins.
TEST(ParallelDeterminismTest, TiedMoveOrderIsPinned) {
  GeneratedDataset data;
  std::vector<StringPair> pairs = DatasetPairs(&data, /*seed=*/7);
  WaveJoinsSink sink;
  TraceContext trace(&sink, "pinned", SteadyNow());
  IncrementalStats stats;
  const std::vector<Group> groups =
      DrainEngine(pairs, 1, /*search_cache=*/true, &stats, &trace);
  EXPECT_EQ(groups.size(), 493u);
  EXPECT_EQ(stats.searches, 530u);
  EXPECT_EQ(stats.expansions, 35970u);
  EXPECT_EQ(stats.joins, 70240u);
  EXPECT_EQ(sink.joins, 70240);
  EXPECT_EQ(GroupSequenceFingerprint(groups), 15250879794990503729ull);
}

// The non-exact modes — a per-search expansion cap and Appendix-E
// sampling — scan in waves of one search without reuse, in the lazy
// serial order. Like the exact counters above, a moved value means the
// scan visits different searches: a behaviour change to explain.
TEST(ParallelDeterminismTest, NonExactSerialWorkIsPinned) {
  GeneratedDataset data;
  std::vector<StringPair> pairs = DatasetPairs(&data);
  auto drain = [&](const GroupingOptions& options, IncrementalStats* stats) {
    GroupingEngine engine(pairs, options);
    std::vector<Group> groups;
    while (std::optional<Group> group = engine.Next()) {
      groups.push_back(std::move(*group));
    }
    *stats = engine.stats();
    return groups;
  };
  {
    GroupingOptions options;
    options.max_expansions_per_search = 200;
    IncrementalStats stats;
    const std::vector<Group> groups = drain(options, &stats);
    EXPECT_EQ(groups.size(), 292u);
    EXPECT_EQ(stats.searches, 350u);
    EXPECT_EQ(stats.expansions, 10887u);
    EXPECT_TRUE(stats.truncated);
    EXPECT_EQ(GroupSequenceFingerprint(groups), 10251136328232780714ull);
  }
  {
    GroupingOptions options;
    options.pivot_sample_size = 5;
    IncrementalStats stats;
    const std::vector<Group> groups = drain(options, &stats);
    EXPECT_EQ(groups.size(), 291u);
    EXPECT_EQ(stats.searches, 348u);
    EXPECT_EQ(stats.expansions, 16964u);
    EXPECT_EQ(GroupSequenceFingerprint(groups), 7982453118952110185ull);
  }
}

// GroupAllUpfront is a serial loop whatever num_threads says, so its
// groups and its work are both exact: every thread count must spend the
// pinned serial expansions.
TEST(ParallelDeterminismTest, GroupAllUpfrontIsIdenticalAcrossThreadCounts) {
  GeneratedDataset data;
  std::vector<StringPair> pairs = DatasetPairs(&data);
  std::vector<std::vector<Group>> runs;
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    GroupingOptions options;
    options.num_threads = threads;
    UpfrontStats stats;
    runs.push_back(GroupAllUpfront(pairs, options, true, &stats));
    EXPECT_EQ(stats.expansions, 32575u);
  }
  ASSERT_GT(runs[0].size(), 5u);
  ExpectSameGroups(runs[0], runs[1]);
  ExpectSameGroups(runs[0], runs[2]);
}

// The wave scan of one structure group, exercised directly on an
// IncrementalEngine sharing a pool: group sequence and membership must be
// byte-identical to the serial engine, cache on or off.
TEST(ParallelDeterminismTest, IncrementalWavesMatchTheSerialEngine) {
  GeneratedDataset data;
  std::vector<StringPair> all_pairs = DatasetPairs(&data);
  // The engine serves one structure group at a time in production; take
  // the largest one (heterogeneous sets make pivot search explode).
  std::vector<StringPair> pairs;
  for (const auto& [structure, indices] :
       PartitionByStructure(all_pairs, true)) {
    if (indices.size() > pairs.size()) {
      pairs.clear();
      for (size_t i : indices) pairs.push_back(all_pairs[i]);
    }
  }
  ASSERT_GT(pairs.size(), 10u);
  auto drain = [&](ThreadPool* pool, bool cache) {
    LabelInterner interner;
    GraphBuilder builder(GraphBuilderOptions{}, &interner);
    Result<GraphSet> set = GraphSet::Build(pairs, builder);
    EXPECT_TRUE(set.ok());
    IncrementalOptions options;
    options.reuse_search_results = cache;
    IncrementalEngine engine(std::move(set).value(), options, pool);
    std::vector<ReplacementGroup> groups;
    while (auto group = engine.Next()) groups.push_back(std::move(*group));
    return groups;
  };
  std::vector<ReplacementGroup> serial = drain(nullptr, false);
  ASSERT_GT(serial.size(), 1u);
  ThreadPool pool(4);
  for (bool cache : {true, false}) {
    SCOPED_TRACE(cache);
    std::vector<ReplacementGroup> waved = drain(&pool, cache);
    ASSERT_EQ(waved.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].pivot, waved[i].pivot) << i;
      EXPECT_EQ(serial[i].members, waved[i].members) << i;
    }
  }
}

// A finite total expansion budget must keep the engine on the documented
// lazy serial order whatever the thread count: identical groups AND
// identical search statistics (the budget makes spend order-dependent, so
// the engine may not speculate).
TEST(ParallelDeterminismTest, FiniteBudgetKeepsTheLazySerialOrder) {
  GeneratedDataset data;
  std::vector<StringPair> pairs = DatasetPairs(&data);
  auto run = [&](int threads) {
    GroupingOptions options;
    options.num_threads = threads;
    options.max_total_expansions = 20000;  // enough for a few groups
    GroupingEngine engine(pairs, options);
    std::vector<Group> groups;
    while (std::optional<Group> group = engine.Next()) {
      groups.push_back(std::move(*group));
    }
    return std::make_pair(std::move(groups), engine.stats());
  };
  auto [one, one_stats] = run(1);
  ASSERT_FALSE(one.empty());
  for (int threads : {2, 4}) {
    SCOPED_TRACE(threads);
    auto [many, many_stats] = run(threads);
    ExpectSameGroups(one, many);
    EXPECT_EQ(one_stats.searches, many_stats.searches);
    EXPECT_EQ(one_stats.expansions, many_stats.expansions);
    EXPECT_EQ(many_stats.speculative_searches, 0u);
    EXPECT_EQ(many_stats.cache_hits, 0u);
  }
}

// max_total_expansions is one budget across structure groups: an engine
// preprocessed early must not keep spending the larger remainder it saw
// when it was created. The DFS counts the expansion that trips the cap,
// so the drain may overshoot by exactly one.
TEST(ParallelDeterminismTest, TotalBudgetIsSharedAcrossStructureGroups) {
  GeneratedDataset data;
  std::vector<StringPair> pairs = DatasetPairs(&data);
  GroupingOptions options;
  options.num_threads = 1;
  options.max_total_expansions = 20000;
  GroupingEngine engine(pairs, options);
  size_t groups = 0;
  while (engine.Next().has_value()) ++groups;
  EXPECT_GT(groups, 0u);
  EXPECT_LE(engine.stats().expansions, 20001u);
  EXPECT_TRUE(engine.stats().truncated);
}

// ISSUE 5: the cross-engine search cache warm-starts an identical-content
// engine — fewer searches, some warm hits — without changing one byte of
// the group sequence, for any thread count on either side.
TEST(ParallelDeterminismTest, SharedSearchCacheWarmStartIsByteIdentical) {
  GeneratedDataset data;
  std::vector<StringPair> pairs = DatasetPairs(&data);
  auto run = [&](int threads, SearchResultCache* cache,
                 IncrementalStats* stats) {
    GroupingOptions options;
    options.num_threads = threads;
    options.shared_search_cache = cache;
    GroupingEngine engine(pairs, options);
    std::vector<Group> groups;
    while (std::optional<Group> group = engine.Next()) {
      groups.push_back(std::move(*group));
    }
    if (stats != nullptr) *stats = engine.stats();
    return groups;
  };
  IncrementalStats cold_stats;
  std::vector<Group> baseline = run(1, nullptr, &cold_stats);
  ASSERT_GT(baseline.size(), 5u);

  SearchResultCache cache;
  IncrementalStats publish_stats;
  ExpectSameGroups(baseline, run(1, &cache, &publish_stats));
  EXPECT_EQ(publish_stats.warm_hits, 0u);  // nothing published yet
  EXPECT_GT(cache.stats().publishes, 0u);
  EXPECT_GT(cache.stats().entries, 0u);

  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    IncrementalStats warm_stats;
    ExpectSameGroups(baseline, run(threads, &cache, &warm_stats));
    EXPECT_GT(warm_stats.warm_hits, 0u);
    EXPECT_LT(warm_stats.searches, cold_stats.searches);
  }
}

}  // namespace
}  // namespace ustl
