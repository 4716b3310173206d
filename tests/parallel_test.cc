// Tests for src/common/parallel.h (ThreadPool, ParallelFor, ParallelMap)
// and the determinism contract of the parallel pipeline: batch graph
// construction and grouping must be bit-identical for any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/parallel.h"
#include "datagen/generators.h"
#include "graph/graph_builder.h"
#include "grouping/grouping.h"
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

TEST(ParallelMapTest, PreservesIndexOrder) {
  ThreadPool pool(8);
  std::vector<int> squares =
      ParallelMap<int>(&pool, 500, [](size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(squares.size(), 500u);
  for (size_t i = 0; i < squares.size(); ++i) {
    EXPECT_EQ(squares[i], static_cast<int>(i * i));
  }
}

// ---------------------------------------------------------------------
// Determinism of the parallel pipeline.

std::vector<StringPair> DatasetPairs(GeneratedDataset* data) {
  AddressGenOptions gen;
  gen.scale = 0.05;
  gen.seed = 23;
  *data = GenerateAddressDataset(gen);
  ReplacementStore store(data->column, CandidateGenOptions{});
  return store.pairs();
}

TEST(ParallelDeterminismTest, BuildBatchMatchesSerialBuildBitForBit) {
  GeneratedDataset data;
  std::vector<StringPair> pairs = DatasetPairs(&data);
  ASSERT_GT(pairs.size(), 50u);

  std::vector<GraphBuilder::BuildRequest> requests;
  for (const StringPair& pair : pairs) requests.push_back({pair.lhs, pair.rhs});

  LabelInterner serial_interner;
  GraphBuilder serial_builder(GraphBuilderOptions{}, &serial_interner);
  std::vector<TransformationGraph> serial_graphs;
  for (const StringPair& pair : pairs) {
    Result<TransformationGraph> graph = serial_builder.Build(pair.lhs, pair.rhs);
    ASSERT_TRUE(graph.ok());
    serial_graphs.push_back(std::move(graph).value());
  }

  ThreadPool pool(4);
  LabelInterner batch_interner;
  GraphBuilder batch_builder(GraphBuilderOptions{}, &batch_interner);
  Result<std::vector<TransformationGraph>> batch =
      batch_builder.BuildBatch(requests, &pool);
  ASSERT_TRUE(batch.ok());

  // The shared interners must assign identical ids in identical order...
  ASSERT_EQ(batch_interner.size(), serial_interner.size());
  for (LabelId id = 0; id < serial_interner.size(); ++id) {
    EXPECT_TRUE(serial_interner.Get(id) == batch_interner.Get(id)) << id;
  }
  // ...and every graph must carry identical edges and label ids.
  ASSERT_EQ(batch->size(), serial_graphs.size());
  for (size_t g = 0; g < serial_graphs.size(); ++g) {
    const TransformationGraph& a = serial_graphs[g];
    const TransformationGraph& b = (*batch)[g];
    ASSERT_EQ(a.num_nodes(), b.num_nodes());
    for (int node = 1; node <= a.num_nodes(); ++node) {
      const auto& ea = a.edges_from(node);
      const auto& eb = b.edges_from(node);
      ASSERT_EQ(ea.size(), eb.size());
      for (size_t e = 0; e < ea.size(); ++e) {
        EXPECT_EQ(ea[e].to, eb[e].to);
        EXPECT_EQ(ea[e].labels, eb[e].labels);
      }
    }
  }
}

TEST(ParallelDeterminismTest, ShardedIndexBuildMatchesSerialBitForBit) {
  GeneratedDataset data;
  std::vector<StringPair> pairs = DatasetPairs(&data);
  ASSERT_GT(pairs.size(), 50u);
  LabelInterner interner;
  GraphBuilder builder(GraphBuilderOptions{}, &interner);
  std::vector<TransformationGraph> graphs;
  for (const StringPair& pair : pairs) {
    graphs.push_back(std::move(builder.Build(pair.lhs, pair.rhs)).value());
  }

  InvertedIndex serial = InvertedIndex::Build(graphs);
  ASSERT_GT(serial.NumLabels(), 100u);
  ThreadPool pool(4);
  for (size_t shards : {size_t{0}, size_t{2}, size_t{3}, size_t{8},
                        size_t{64}}) {
    SCOPED_TRACE(shards);
    InvertedIndex sharded =
        InvertedIndex::Build(graphs, &pool, shards, interner.size());
    ASSERT_EQ(sharded.NumLabels(), serial.NumLabels());
    for (LabelId label = 0; label < interner.size() + 2; ++label) {
      const PostingList& a = serial.Find(label);
      const PostingList& b = sharded.Find(label);
      ASSERT_EQ(a.size(), b.size()) << "label " << label;
      for (size_t k = 0; k < a.size(); ++k) {
        ASSERT_EQ(a[k].bits(), b[k].bits()) << "label " << label << " #" << k;
      }
    }
  }
}

// Drains a GroupingEngine configured with `threads` into a comparable
// serialized form.
std::vector<Group> DrainEngine(const std::vector<StringPair>& pairs,
                               int threads, bool search_cache = true,
                               IncrementalStats* stats = nullptr) {
  GroupingOptions options;
  options.num_threads = threads;
  options.reuse_search_results = search_cache;
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
  EXPECT_EQ(stats.expansions, 34138u);

  GroupingOptions options;
  options.num_threads = 1;
  UpfrontStats upfront;
  GroupAllUpfront(pairs, options, /*early_termination=*/true, &upfront);
  EXPECT_EQ(upfront.expansions, 52162u);
}

TEST(ParallelDeterminismTest, GroupAllUpfrontIsIdenticalAcrossThreadCounts) {
  GeneratedDataset data;
  std::vector<StringPair> pairs = DatasetPairs(&data);
  std::vector<std::vector<Group>> runs;
  std::vector<uint64_t> expansions;
  for (int threads : {1, 2, 8}) {
    GroupingOptions options;
    options.num_threads = threads;
    UpfrontStats stats;
    runs.push_back(GroupAllUpfront(pairs, options, true, &stats));
    expansions.push_back(stats.expansions);
    EXPECT_GT(stats.expansions, 0u);
  }
  ASSERT_GT(runs[0].size(), 5u);
  ExpectSameGroups(runs[0], runs[1]);
  ExpectSameGroups(runs[0], runs[2]);
  // The wave scan searches against the Glo snapshot its wave started
  // with, so multi-threaded runs may spend pruning expansions the serial
  // scan avoids — groups must match, the counters need not (see
  // GroupingOptions::num_threads).
}

// The wave scan of one structure group, exercised directly on an
// IncrementalEngine sharing a pool: group sequence and membership must be
// byte-identical to the serial engine, cache on or off.
TEST(ParallelDeterminismTest, IncrementalWaveScanMatchesSerialScan) {
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
    Result<GraphSet> set = GraphSet::Build(pairs, builder, pool);
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

// ISSUE 5: adaptive wave sizing moves speculation statistics only — the
// group sequence stays byte-identical to the serial baseline for any
// thread count, with sizing on or off.
TEST(ParallelDeterminismTest, AdaptiveWaveSizingKeepsGroupsIdentical) {
  GeneratedDataset data;
  std::vector<StringPair> pairs = DatasetPairs(&data);
  auto run = [&](int threads, bool adaptive) {
    GroupingOptions options;
    options.num_threads = threads;
    options.adaptive_wave_sizing = adaptive;
    GroupingEngine engine(pairs, options);
    std::vector<Group> groups;
    while (std::optional<Group> group = engine.Next()) {
      groups.push_back(std::move(*group));
    }
    return groups;
  };
  std::vector<Group> baseline = run(1, true);
  ASSERT_GT(baseline.size(), 5u);
  for (int threads : {1, 2, 4}) {
    for (bool adaptive : {true, false}) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " adaptive=" << adaptive);
      ExpectSameGroups(baseline, run(threads, adaptive));
    }
  }
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
