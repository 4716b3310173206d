#include "grouping/oneshot.h"

#include <algorithm>
#include <map>
#include <utility>

namespace ustl {

std::vector<ReplacementGroup> UnsupervisedGrouping(
    const GraphSet& set, const OneShotOptions& options, OneShotStats* stats,
    ThreadPool* pool) {
  PivotSearcher::Options searcher_options;
  searcher_options.local_early_term = options.early_termination;
  searcher_options.global_early_term = options.early_termination;
  searcher_options.max_path_len = options.max_path_len;
  searcher_options.max_expansions = options.max_expansions;
  PivotSearcher searcher(&set, searcher_options);

  std::vector<int> lower_bounds(set.size(), 1);  // Algorithm 4 line 2

  std::vector<GraphId> order;
  order.reserve(set.size());
  for (GraphId g = 0; g < set.size(); ++g) {
    if (set.alive(g)) order.push_back(g);
  }

  // Only what grouping needs outlives a search: the pivot path and the
  // stats. Member lists are rebuilt from the per-graph pivots below, so
  // holding every SearchResult (members included) across the whole scan
  // would waste memory for nothing.
  struct Pivot {
    LabelPath path;
    uint64_t expansions = 0;
    bool truncated = false;
    bool found = false;
  };
  std::vector<Pivot> pivots(order.size());
  const auto keep = [](PivotSearcher::SearchResult result, Pivot* out) {
    out->path = std::move(result.path);
    out->expansions = result.expansions;
    out->truncated = result.truncated;
    out->found = result.found;
  };

  const bool unbounded =
      options.max_expansions == std::numeric_limits<uint64_t>::max();
  const bool parallel = pool != nullptr && pool->num_threads() > 1 &&
                        !pool->InWorkerThread() && unbounded &&
                        order.size() > 1;
  if (!parallel) {
    for (size_t i = 0; i < order.size(); ++i) {
      keep(searcher.Search(order[i], /*threshold=*/0,
                           options.early_termination ? &lower_bounds
                                                     : nullptr),
           &pivots[i]);
    }
  } else {
    // Deterministic waves over the shared pool. Every search in a wave
    // reads the Glo state its wave started with (a private copy each, so
    // the concurrent DFS updates never race); between waves the copies
    // are max-merged back — Glo entries only ever rise, so the merged
    // state is exactly the strongest bound any search established, and
    // later waves prune against it like the serial scan does against its
    // running state.
    const size_t wave = static_cast<size_t>(pool->num_threads());
    std::vector<std::vector<int>> wave_bounds(std::min(wave, order.size()));
    for (size_t pos = 0; pos < order.size(); pos += wave) {
      const size_t count = std::min(wave, order.size() - pos);
      ParallelFor(pool, count, [&](size_t i) {
        std::vector<int>* bounds = nullptr;
        if (options.early_termination) {
          wave_bounds[i] = lower_bounds;
          bounds = &wave_bounds[i];
        }
        keep(searcher.Search(order[pos + i], /*threshold=*/0, bounds),
             &pivots[pos + i]);
      });
      if (options.early_termination) {
        for (size_t i = 0; i < count; ++i) {
          for (size_t k = 0; k < lower_bounds.size(); ++k) {
            lower_bounds[k] = std::max(lower_bounds[k], wave_bounds[i][k]);
          }
        }
      }
    }
  }

  std::map<LabelPath, ReplacementGroup> by_pivot;
  for (size_t i = 0; i < order.size(); ++i) {
    const Pivot& pivot = pivots[i];
    if (stats != nullptr) {
      stats->expansions += pivot.expansions;
      stats->truncated = stats->truncated || pivot.truncated;
    }
    // Every graph contains at least its full-width ConstantStr path, so a
    // pivot is always found at threshold 0 (unless truncated mid-search,
    // in which case the best found so far still serves).
    USTL_CHECK(pivot.found);
    ReplacementGroup& group = by_pivot[pivot.path];
    group.pivot = pivot.path;
    group.members.push_back(order[i]);
  }

  std::vector<ReplacementGroup> groups;
  groups.reserve(by_pivot.size());
  for (auto& [path, group] : by_pivot) groups.push_back(std::move(group));
  std::stable_sort(groups.begin(), groups.end(),
                   [](const ReplacementGroup& a, const ReplacementGroup& b) {
                     if (a.members.size() != b.members.size()) {
                       return a.members.size() > b.members.size();
                     }
                     return a.pivot < b.pivot;
                   });
  return groups;
}

}  // namespace ustl
