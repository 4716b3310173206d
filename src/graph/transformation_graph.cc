#include "graph/transformation_graph.h"

#include <algorithm>

#include "common/status.h"

namespace ustl {

TransformationGraph::TransformationGraph(std::string source,
                                         std::string target)
    : source_(std::move(source)), target_(std::move(target)) {
  adjacency_.resize(target_.size() + 1);
}

const std::vector<GraphEdge>& TransformationGraph::edges_from(int from) const {
  // Per-access bounds check on the hottest accessor in the codebase
  // (every DFS move gather and index scan goes through here) — debug-only.
  USTL_DCHECK(from >= 1 && from <= num_nodes());
  return adjacency_[from - 1];
}

void TransformationGraph::AddLabel(int from, int to, LabelId label) {
  USTL_DCHECK(from >= 1 && to > from && to <= num_nodes());
  auto& edges = adjacency_[from - 1];
  auto it = std::lower_bound(
      edges.begin(), edges.end(), to,
      [](const GraphEdge& e, int target_node) { return e.to < target_node; });
  if (it == edges.end() || it->to != to) {
    it = edges.insert(it, GraphEdge{to, {}});
  }
  auto& labels = it->labels;
  auto lit = std::lower_bound(labels.begin(), labels.end(), label);
  if (lit == labels.end() || *lit != label) labels.insert(lit, label);
}

size_t TransformationGraph::TotalLabelCount() const {
  size_t count = 0;
  for (const auto& edges : adjacency_) {
    for (const auto& edge : edges) count += edge.labels.size();
  }
  return count;
}

size_t TransformationGraph::EdgeCount() const {
  size_t count = 0;
  for (const auto& edges : adjacency_) count += edges.size();
  return count;
}

bool TransformationGraph::ContainsPath(const LabelPath& path) const {
  if (path.empty()) return false;
  // DFS over (node, path index); multiple edges may carry the same label
  // only from different nodes, so at most one edge matches per step.
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
