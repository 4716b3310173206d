// UnsupervisedGrouping (Algorithm 2): compute every graph's pivot path
// upfront and group graphs by pivot. The `early_termination` switch turns
// Algorithm 4's optimizations on (the paper's EarlyTerm method) or off
// (the paper's OneShot method); both produce identical groups, only the
// upfront cost differs (Figure 9).
//
// With a thread pool the per-graph searches run in deterministic waves:
// a pivot is the searched graph's canonical first-found maximal path,
// which does not depend on the global thresholds Glo (valid lower bounds
// only prune subtrees that cannot contain a maximal path — see
// pivot_search.h), so every wave can search against the Glo snapshot its
// wave started with and the groups stay byte-identical to the serial
// scan. Glo is max-merged between waves, which is what keeps Algorithm
// 4's global early termination firing; only the pruning power — the
// expansion statistics — depends on the wave size.
#ifndef USTL_GROUPING_ONESHOT_H_
#define USTL_GROUPING_ONESHOT_H_

#include <vector>

#include "common/parallel.h"
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
/// first (ties broken by lexicographic pivot path). Does not modify `set`.
/// A non-null `pool` fans the per-graph pivot searches out in waves as
/// described above; groups are byte-identical for any thread count. When
/// `max_expansions` is finite the scan stays serial regardless of the
/// pool — a truncated search's result depends on the Glo state it ran
/// under, and the documented truncation behavior is the serial one.
std::vector<ReplacementGroup> UnsupervisedGrouping(const GraphSet& set,
                                                   const OneShotOptions& options,
                                                   OneShotStats* stats,
                                                   ThreadPool* pool = nullptr);

}  // namespace ustl

#endif  // USTL_GROUPING_ONESHOT_H_
