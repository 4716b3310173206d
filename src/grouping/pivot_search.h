// SearchPivot (Algorithm 3) with the local and global threshold-based
// early terminations of Algorithm 4. The DFS maintains the current path
// rho, the posting list of spans where rho matches, and the node reached
// in the searched graph. A node's outgoing (label, edge) moves are visited
// in descending inverted-list length, then non-constant labels before
// constant ones, then ascending LabelId. List lengths and label kinds are
// fixed for the lifetime of the index, so this is one run-wide order and
// the first-found maximum is the same canonical pivot for every grouping
// variant (one-shot, incremental, wave scan, any thread count).
//
// Labels whose inverted lists are identical extend every path to
// identical lists, so the DFS explores only the first label of each such
// class in move order; the others would only ever produce sibling
// duplicates or be pruned exactly like their twin. Twins are dropped only
// after a node's full move list is sorted: one label can sit on two
// outgoing edges of a node, those two moves tie, and std::sort orders
// ties by its input, so dropping first would change which tied move is
// searched first — and with it the first-found pivot.
//
// Dead ends at the path cap: each Search first computes dist[v], the
// fewest edges from node v of the searched graph to its sink (one reverse
// pass: edges only go forward). A move at path length depth is skipped,
// before its bound checks and its join, when depth + 1 + dist[move.to] >
// max_path_len. The output cannot change: only leaves change the best
// path, its members and Glo, and a skipped subtree has no leaf within the
// cap. The sibling-dedup key includes the target node, so a skipped move
// never decides a dedup for a kept one (a kept move with the same target
// has the same dist). The root always survives a cap of at least 1: every
// graph has the full-width ConstantStr edge from root to sink.
#ifndef USTL_GROUPING_PIVOT_SEARCH_H_
#define USTL_GROUPING_PIVOT_SEARCH_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/cancel.h"
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
    /// Moves that cannot reach the sink within max_path_len are never
    /// expanded, so they spend none of it.
    uint64_t max_expansions = std::numeric_limits<uint64_t>::max();
    /// Cooperative cancellation (common/cancel.h): the DFS calls Check()
    /// on its first expansion and every 4,096th after it, so a tripped
    /// token unwinds one search via CancelledError. Inert by default.
    CancelToken cancel;
  };

  struct SearchResult {
    bool found = false;
    LabelPath path;                 // the pivot path when found
    std::vector<GraphId> members;   // alive graphs containing `path` as a
                                    // transformation path (complete spans)
    int count = 0;                  // members.size()
    uint64_t expansions = 0;        // DFS nodes visited (for Figure 9)
    uint64_t joins = 0;             // posting-list joins (ExtendInto calls)
    bool truncated = false;         // hit max_expansions
  };

  /// Flags, once per searcher, the one label per class of identical
  /// inverted lists that the DFS explores. `set`'s index is immutable, so
  /// concurrent Search calls share the table read-only.
  PivotSearcher(const GraphSet* set, Options options);

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
  /// Indexed by LabelId: nonzero for the label the move order reaches
  /// first among all labels with an identical inverted list.
  std::vector<char> explore_;
};

}  // namespace ustl

#endif  // USTL_GROUPING_PIVOT_SEARCH_H_
