// UnsupervisedGrouping (Algorithm 2): compute every graph's pivot path
// upfront and group graphs by pivot. The `early_termination` switch turns
// Algorithm 4's optimizations on (the paper's EarlyTerm method) or off
// (the paper's OneShot method); both produce identical groups, only the
// upfront cost differs (Figure 9).
#ifndef USTL_GROUPING_ONESHOT_H_
#define USTL_GROUPING_ONESHOT_H_

#include <vector>

#include "grouping/graph_set.h"
#include "grouping/pivot_search.h"

namespace ustl {

struct OneShotOptions {
  bool early_termination = true;
  int max_path_len = 6;
  /// Safety valve for the vanilla search on large inputs; see
  /// PivotSearcher::Options::max_expansions.
  uint64_t max_expansions = std::numeric_limits<uint64_t>::max();
};

struct OneShotStats {
  uint64_t expansions = 0;
  bool truncated = false;
};

/// Partitions the alive graphs of `set` into pivot-path groups, largest
/// first (ties broken by lexicographic pivot path), searching each graph's
/// pivot in GraphId order. Does not modify `set`. Adds its work to a
/// non-null `stats`.
std::vector<ReplacementGroup> UnsupervisedGrouping(
    const GraphSet& set, const OneShotOptions& options, OneShotStats* stats);

}  // namespace ustl

#endif  // USTL_GROUPING_ONESHOT_H_
