// Transformation graphs (Definition 2). Given a replacement s -> t, the
// graph has |t|+1 nodes; the edge e(i,j) represents the target substring
// t[i, j) and carries every string function label that produces t[i, j)
// when applied to s. A transformation path is a root-to-sink path (node 1
// to node |t|+1); by Theorem 4.2 the paths are exactly the programs
// consistent with the replacement.
#ifndef USTL_GRAPH_TRANSFORMATION_GRAPH_H_
#define USTL_GRAPH_TRANSFORMATION_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dsl/interner.h"

namespace ustl {

/// Index of a graph within a grouping run; doubles as the replacement id.
using GraphId = uint32_t;

/// One outgoing edge of a node: target node and its sorted label set.
struct GraphEdge {
  int to = 0;                   // 1-based node index, to > from
  std::vector<LabelId> labels;  // sorted ascending, unique
};

/// The DAG for one replacement s -> t. Nodes are numbered 1 .. |t|+1.
class TransformationGraph {
 public:
  TransformationGraph(std::string source, std::string target);

  const std::string& source() const { return source_; }
  const std::string& target() const { return target_; }

  /// |t| + 1; node ids are 1 .. num_nodes().
  int num_nodes() const { return static_cast<int>(target_.size()) + 1; }
  /// The sink node id, |t| + 1.
  int last_node() const { return num_nodes(); }

  /// Outgoing edges of node `from` (1-based), ordered by target node.
  const std::vector<GraphEdge>& edges_from(int from) const;

  /// Adds `label` to edge (from, to), creating the edge if needed.
  /// Labels within an edge are kept sorted and unique.
  void AddLabel(int from, int to, LabelId label);

  /// Total number of (edge, label) pairs; used for stats and bounds.
  size_t TotalLabelCount() const;
  /// Number of edges with at least one label.
  size_t EdgeCount() const;

  /// True iff `path` is a root-to-sink label path of this graph (each
  /// consecutive label sits on an adjacent edge). Used by tests and by the
  /// optimal-partition checker.
  bool ContainsPath(const LabelPath& path) const;

  /// Enumerates up to `limit` root-to-sink label paths (DFS order). For
  /// tests and the exact optimal-partition solver only; exponential in
  /// general.
  std::vector<LabelPath> EnumeratePaths(size_t limit) const;

 private:
  std::string source_;
  std::string target_;
  // adjacency_[i] holds edges out of node i+1, ordered by `to`.
  std::vector<std::vector<GraphEdge>> adjacency_;
};

}  // namespace ustl

#endif  // USTL_GRAPH_TRANSFORMATION_GRAPH_H_
