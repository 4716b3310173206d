#include "grouping/oneshot.h"

#include <algorithm>
#include <map>
#include <utility>

namespace ustl {
namespace {

// The root->sink ConstantStr(t) label the graph builder gives every graph.
LabelPath FullWidthConstantPath(const GraphSet& set, GraphId g) {
  const TransformationGraph& graph = set.graph(g);
  for (const GraphEdge& edge : graph.edges_from(1)) {
    if (edge.to != graph.last_node()) continue;
    for (LabelId label : edge.labels) {
      if (set.interner()->kind(label) == StringFn::Kind::kConstantStr) {
        return {label};
      }
    }
  }
  USTL_CHECK(false && "graph without its full-width ConstantStr edge");
  return {};
}

}  // namespace

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
    // pivot is always found at threshold 0. A search truncated after its
    // first leaf still serves its best so far; one truncated before any
    // leaf falls back to that constant path, which g surely contains.
    const LabelPath path =
        pivot.found ? pivot.path : FullWidthConstantPath(set, g);
    ReplacementGroup& group = by_pivot[path];
    group.pivot = path;
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
