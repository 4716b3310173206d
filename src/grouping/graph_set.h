// A GraphSet bundles the transformation graphs of a collection of
// replacements with their shared label interner, inverted index, and
// liveness flags. One GraphSet corresponds to one structure group when
// structure refinement (Section 7.2) is on, or to the whole candidate set
// otherwise.
#ifndef USTL_GROUPING_GRAPH_SET_H_
#define USTL_GROUPING_GRAPH_SET_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "graph/graph_builder.h"
#include "graph/transformation_graph.h"
#include "grouping/group.h"
#include "index/inverted_index.h"

namespace ustl {

/// Owns graphs + index + liveness for one grouping run.
class GraphSet {
 public:
  /// Builds graphs for all pairs with `builder`, serially and in pair
  /// order (GraphBuilder::BuildBatch), and indexes them
  /// (InvertedIndex::Build). GraphId i corresponds to pairs[i].
  static Result<GraphSet> Build(const std::vector<StringPair>& pairs,
                                const GraphBuilder& builder);

  const std::vector<TransformationGraph>& graphs() const { return graphs_; }
  /// The interner the graphs were built against (borrowed; must outlive
  /// the set). Lets searchers consult label kinds for canonical ordering.
  const LabelInterner* interner() const { return interner_; }
  const TransformationGraph& graph(GraphId g) const { return graphs_[g]; }
  const InvertedIndex& index() const { return index_; }

  size_t size() const { return graphs_.size(); }

  bool alive(GraphId g) const { return alive_[g] != 0; }
  const std::vector<char>& alive_vector() const { return alive_; }
  void Kill(GraphId g) {
    if (alive_[g] == 0) return;
    alive_[g] = 0;
    ++kill_epoch_;
  }
  size_t AliveCount() const;

  /// Monotone counter bumped on every alive -> dead transition. Kills are
  /// permanent, so anything computed over the alive set (a cached pivot
  /// search, say) stays valid while the epoch is unchanged and needs
  /// revalidation only against graphs killed since — the incremental
  /// engine's cross-round search cache keys its invalidation on this.
  uint64_t kill_epoch() const { return kill_epoch_; }

 private:
  GraphSet() = default;

  std::vector<TransformationGraph> graphs_;
  InvertedIndex index_;
  std::vector<char> alive_;
  uint64_t kill_epoch_ = 0;
  const LabelInterner* interner_ = nullptr;
};

}  // namespace ustl

#endif  // USTL_GROUPING_GRAPH_SET_H_
