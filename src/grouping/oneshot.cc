#include "grouping/oneshot.h"

#include <algorithm>
#include <map>
#include <utility>

namespace ustl {

std::vector<ReplacementGroup> UnsupervisedGrouping(
    const GraphSet& set, const OneShotOptions& options, OneShotStats* stats) {
  PivotSearcher::Options searcher_options;
  searcher_options.local_early_term = options.early_termination;
  searcher_options.global_early_term = options.early_termination;
  searcher_options.max_path_len = options.max_path_len;
  searcher_options.max_expansions = options.max_expansions;
  PivotSearcher searcher(&set, searcher_options);

  std::vector<int> lower_bounds(set.size(), 1);  // Algorithm 4 line 2

  std::map<LabelPath, ReplacementGroup> by_pivot;
  for (GraphId g = 0; g < set.size(); ++g) {
    if (!set.alive(g)) continue;
    const PivotSearcher::SearchResult pivot = searcher.Search(
        g, /*threshold=*/0,
        options.early_termination ? &lower_bounds : nullptr);
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
    group.members.push_back(g);
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
