// Transformation graphs (Definition 2). Given a replacement s -> t, the
// graph has |t|+1 nodes; the edge e(i,j) represents the target substring
// t[i, j) and carries every string function label that produces t[i, j)
// when applied to s. A transformation path is a root-to-sink path (node 1
// to node |t|+1); by Theorem 4.2 the paths are exactly the programs
// consistent with the replacement.
//
// A graph is three flat arrays, filled once from its (from, to, label)
// list and immutable after: per-node edge offsets, the edges
// {to, first label} ordered by (from, to), and one array of every edge's
// labels, sorted and unique within each edge. edges_from views a node's
// edges in place; a copy or move carries the arrays, and each view is
// built from the graph it came from, so no view points into another
// graph.
#ifndef USTL_GRAPH_TRANSFORMATION_GRAPH_H_
#define USTL_GRAPH_TRANSFORMATION_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dsl/interner.h"

namespace ustl {

/// Index of a graph within a grouping run; doubles as the replacement id.
using GraphId = uint32_t;

/// One label of edge (from, to) of a graph under construction. Packed as
/// from (16 bits) | to (16) | label (32), most-significant first, so that
/// integer order is (from, to, label) order.
class EdgeLabel {
 public:
  /// Node ids fit 16 bits here and in the index's postings, so a graph has
  /// at most kMaxNode nodes (its target at most kMaxNode - 1 characters).
  static constexpr int kMaxNode = 0xffff;

  EdgeLabel(int from, int to, LabelId label)
      : bits_((static_cast<uint64_t>(from) << 48) |
              (static_cast<uint64_t>(to) << 32) | label) {
    USTL_DCHECK(from >= 1 && to > from && to <= kMaxNode);
  }

  int from() const { return static_cast<int>(bits_ >> 48); }
  int to() const { return static_cast<int>((bits_ >> 32) & 0xffff); }
  LabelId label() const { return static_cast<LabelId>(bits_); }

  bool operator==(const EdgeLabel& o) const { return bits_ == o.bits_; }
  bool operator<(const EdgeLabel& o) const { return bits_ < o.bits_; }

 private:
  uint64_t bits_;
};

/// The labels of one edge, sorted ascending and unique: a view into the
/// graph's label array, valid while the graph lives.
class LabelSpan {
 public:
  LabelSpan(const LabelId* begin, const LabelId* end)
      : begin_(begin), end_(end) {}

  const LabelId* begin() const { return begin_; }
  const LabelId* end() const { return end_; }
  size_t size() const { return static_cast<size_t>(end_ - begin_); }
  bool empty() const { return begin_ == end_; }

 private:
  const LabelId* begin_;
  const LabelId* end_;
};

/// One outgoing edge of a node: target node and its label set.
struct GraphEdge {
  int to = 0;        // 1-based node index, to > from
  LabelSpan labels;  // never empty
};

/// The DAG for one replacement s -> t. Nodes are numbered 1 .. |t|+1.
class TransformationGraph {
  struct Edge {
    int to;
    uint32_t first_label;  // the edge's labels end where the next's begin
  };

 public:
  /// The graph of s -> t with the given (edge, label) pairs, in any order
  /// and with repeats. Sorts and deduplicates `labels` in place (it is the
  /// builder's scratch), then fills the three arrays once. `target` has at
  /// most EdgeLabel::kMaxNode - 1 characters.
  TransformationGraph(std::string source, std::string target,
                      std::vector<EdgeLabel>* labels);

  const std::string& source() const { return source_; }
  const std::string& target() const { return target_; }

  /// |t| + 1; node ids are 1 .. num_nodes().
  int num_nodes() const { return static_cast<int>(target_.size()) + 1; }
  /// The sink node id, |t| + 1.
  int last_node() const { return num_nodes(); }

  /// The contiguous out-edges of one node, ordered by target node.
  class EdgeRange {
   public:
    class Iterator {
     public:
      Iterator(const Edge* edge, const LabelId* labels)
          : edge_(edge), labels_(labels) {}
      GraphEdge operator*() const {
        return GraphEdge{edge_->to,
                         LabelSpan(labels_ + edge_[0].first_label,
                                   labels_ + edge_[1].first_label)};
      }
      Iterator& operator++() {
        ++edge_;
        return *this;
      }
      bool operator==(const Iterator& o) const { return edge_ == o.edge_; }
      bool operator!=(const Iterator& o) const { return edge_ != o.edge_; }

     private:
      const Edge* edge_;
      const LabelId* labels_;
    };

    EdgeRange(const Edge* begin, const Edge* end, const LabelId* labels)
        : begin_(begin), end_(end), labels_(labels) {}
    Iterator begin() const { return Iterator(begin_, labels_); }
    Iterator end() const { return Iterator(end_, labels_); }
    size_t size() const { return static_cast<size_t>(end_ - begin_); }
    bool empty() const { return begin_ == end_; }
    GraphEdge operator[](size_t i) const {
      return *Iterator(begin_ + i, labels_);
    }

   private:
    const Edge* begin_;
    const Edge* end_;
    const LabelId* labels_;
  };

  /// Outgoing edges of node `from` (1-based), ordered by target node.
  EdgeRange edges_from(int from) const {
    // Per-access bounds check on the hottest accessor in the codebase
    // (every DFS move gather and index scan goes through here), so
    // debug-only.
    USTL_DCHECK(from >= 1 && from <= num_nodes());
    const Edge* edges = edges_.data();
    return EdgeRange(edges + edge_begin_[from - 1], edges + edge_begin_[from],
                     labels_.data());
  }

  /// Total number of (edge, label) pairs; used for stats and bounds.
  size_t TotalLabelCount() const { return labels_.size(); }
  /// Number of edges with at least one label.
  size_t EdgeCount() const { return edges_.size() - 1; }

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
  // Node v's edges are edges_[edge_begin_[v - 1], edge_begin_[v]); edge
  // e's labels are labels_[edges_[e].first_label, edges_[e + 1].first_label).
  // edges_ ends with a sentinel whose first_label is labels_.size().
  std::vector<uint32_t> edge_begin_;  // num_nodes() + 1 entries
  std::vector<Edge> edges_;
  std::vector<LabelId> labels_;
};

}  // namespace ustl

#endif  // USTL_GRAPH_TRANSFORMATION_GRAPH_H_
