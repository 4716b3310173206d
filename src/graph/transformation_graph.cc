#include "graph/transformation_graph.h"

#include <algorithm>

#include "common/status.h"

namespace ustl {

TransformationGraph::TransformationGraph(std::string source,
                                         std::string target,
                                         std::vector<EdgeLabel>* labels)
    : source_(std::move(source)), target_(std::move(target)) {
  USTL_CHECK(num_nodes() <= EdgeLabel::kMaxNode);
  std::sort(labels->begin(), labels->end());
  labels->erase(std::unique(labels->begin(), labels->end()), labels->end());
  const auto same_edge = [](EdgeLabel a, EdgeLabel b) {
    return a.from() == b.from() && a.to() == b.to();
  };
  // Each array is sized exactly before it is filled: one allocation each.
  size_t num_edges = 0;
  for (size_t i = 0; i < labels->size(); ++i) {
    if (i == 0 || !same_edge((*labels)[i - 1], (*labels)[i])) ++num_edges;
  }
  edge_begin_.assign(static_cast<size_t>(num_nodes()) + 1, 0);
  edges_.reserve(num_edges + 1);
  labels_.reserve(labels->size());
  for (size_t i = 0; i < labels->size(); ++i) {
    const EdgeLabel label = (*labels)[i];
    USTL_DCHECK(label.to() <= num_nodes());
    if (i == 0 || !same_edge((*labels)[i - 1], label)) {
      edges_.push_back(
          Edge{label.to(), static_cast<uint32_t>(labels_.size())});
      ++edge_begin_[label.from()];
    }
    labels_.push_back(label.label());
  }
  edges_.push_back(Edge{0, static_cast<uint32_t>(labels_.size())});
  // Edge counts per node to offsets: node v's edges end at edge_begin_[v].
  for (size_t v = 1; v < edge_begin_.size(); ++v) {
    edge_begin_[v] += edge_begin_[v - 1];
  }
}

bool TransformationGraph::ContainsPath(const LabelPath& path) const {
  if (path.empty()) return false;
  // DFS over (node, path index). One label can sit on several out-edges of
  // a node (a journaltitle graph has the same label on 2->4 and 2->12), so
  // every edge carrying the next label is pushed, not just the first.
  struct Frame {
    int node;
    size_t index;
  };
  std::vector<Frame> stack = {{1, 0}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    if (f.index == path.size()) {
      if (f.node == last_node()) return true;
      continue;
    }
    for (const GraphEdge& edge : edges_from(f.node)) {
      if (std::binary_search(edge.labels.begin(), edge.labels.end(),
                             path[f.index])) {
        stack.push_back(Frame{edge.to, f.index + 1});
      }
    }
  }
  return false;
}

std::vector<LabelPath> TransformationGraph::EnumeratePaths(
    size_t limit) const {
  std::vector<LabelPath> out;
  LabelPath current;
  // Recursive DFS with an explicit lambda.
  auto dfs = [&](auto&& self, int node) -> void {
    if (out.size() >= limit) return;
    if (node == last_node()) {
      if (!current.empty()) out.push_back(current);
      return;
    }
    for (const GraphEdge& edge : edges_from(node)) {
      for (LabelId label : edge.labels) {
        if (out.size() >= limit) return;
        current.push_back(label);
        self(self, edge.to);
        current.pop_back();
      }
    }
  };
  dfs(dfs, 1);
  return out;
}

}  // namespace ustl
