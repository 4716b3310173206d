#include "grouping/graph_set.h"

namespace ustl {

Result<GraphSet> GraphSet::Build(const std::vector<StringPair>& pairs,
                                 const GraphBuilder& builder) {
  GraphSet set;
  std::vector<GraphBuilder::BuildRequest> requests;
  requests.reserve(pairs.size());
  for (const StringPair& pair : pairs) {
    requests.push_back({pair.lhs, pair.rhs});
  }
  Result<std::vector<TransformationGraph>> graphs =
      builder.BuildBatch(requests, /*pool=*/nullptr);
  if (!graphs.ok()) return graphs.status();
  set.graphs_ = std::move(graphs).value();
  // The interner bounds every label id, so indexing skips its pre-sizing
  // scan.
  set.index_ = InvertedIndex::Build(
      set.graphs_, /*pool=*/nullptr, /*num_shards=*/0,
      builder.interner() != nullptr ? builder.interner()->size() : 0);
  set.alive_.assign(set.graphs_.size(), 1);
  set.interner_ = builder.interner();
  return set;
}

size_t GraphSet::AliveCount() const {
  size_t count = 0;
  for (char a : alive_) count += a != 0;
  return count;
}

}  // namespace ustl
