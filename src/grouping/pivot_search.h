// SearchPivot (Algorithm 3) with the local and global threshold-based
// early terminations of Algorithm 4. The DFS maintains the current path
// rho, the posting list of spans where rho matches, and the node reached
// in the searched graph; outgoing (label, edge) pairs are visited in
// ascending LabelId order, so paths are enumerated lexicographically and
// the first-found maximum is the lexicographically smallest pivot path —
// this canonical choice makes all grouping variants agree under count
// ties (see DESIGN.md).
#ifndef USTL_GROUPING_PIVOT_SEARCH_H_
#define USTL_GROUPING_PIVOT_SEARCH_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "grouping/graph_set.h"

namespace ustl {

/// One pivot-path search over the alive graphs of a GraphSet.
class PivotSearcher {
 public:
  struct Options {
    /// Local threshold-based early termination (Section 5.2): prune
    /// prefixes whose graph count cannot strictly beat the best found.
    bool local_early_term = true;
    /// Global threshold-based early termination (Section 5.2): prune
    /// prefixes whose graph count is below the searched graph's known
    /// lower bound.
    bool global_early_term = true;
    /// Maximum path length theta (Section 8.2 uses 6).
    int max_path_len = 6;
    /// Safety valve for the vanilla search: stop after this many DFS
    /// expansions and return the best found so far. Unlimited by default.
    uint64_t max_expansions = std::numeric_limits<uint64_t>::max();
  };

  struct SearchResult {
    bool found = false;
    LabelPath path;                 // the pivot path when found
    std::vector<GraphId> members;   // alive graphs containing `path` as a
                                    // transformation path (complete spans)
    int count = 0;                  // members.size()
    uint64_t expansions = 0;        // DFS nodes visited (for Figure 9)
    bool truncated = false;         // hit max_expansions
  };

  PivotSearcher(const GraphSet* set, Options options)
      : set_(set), options_(options) {}

  /// Finds the pivot path of graph `g`: the transformation path of `g`
  /// shared by the largest number of alive graphs, provided that number is
  /// strictly greater than `threshold`. `lower_bounds` (one entry per
  /// graph, may be null) carries the global thresholds Glo across calls:
  /// it is read for pruning and updated whenever a complete path is found.
  /// `expansion_budget` caps this call's DFS expansions on top of the
  /// constructed max_expansions (the smaller of the two applies).
  ///
  /// `count_mask` (indexed by GraphId, may be null) activates the
  /// Appendix-E sampling acceleration: path containment is counted over
  /// the masked alive graphs only, which keeps every posting list short.
  /// The returned members are then re-resolved over ALL alive graphs
  /// (one extra walk of the winning path), so groups stay complete; only
  /// the "largest" choice becomes approximate, relative to the sample.
  /// result.count stays in sample units (it is what thresholds compare
  /// against); result.members.size() is the full-set group size.
  SearchResult Search(GraphId g, int threshold,
                      std::vector<int>* lower_bounds,
                      uint64_t expansion_budget =
                          std::numeric_limits<uint64_t>::max(),
                      const std::vector<char>* count_mask = nullptr) const;

 private:
  struct DfsState;
  /// One DFS expansion. `list` is the posting list of the current path
  /// rho (living in the caller's scratch level), `list_distinct` its
  /// distinct-graph count (fused out of the join that produced it, so it
  /// is never recomputed), and `depth` == |rho| indexes the scratch
  /// arena level this call's extensions are written into.
  void Dfs(GraphId g, int node, const PostingList& list, size_t list_distinct,
           size_t depth, DfsState* state, std::vector<int>* lower_bounds,
           uint64_t max_expansions) const;

  const GraphSet* set_;
  Options options_;
};

}  // namespace ustl

#endif  // USTL_GROUPING_PIVOT_SEARCH_H_
