#include "grouping/pivot_search.h"

#include <algorithm>

namespace ustl {
namespace {

// One candidate DFS move: an outgoing (label, edge) pair annotated with
// the label's inverted-list length and constant-ness for ordering.
struct Move {
  size_t list_length;
  bool constant;
  LabelId label;
  int to;
};

}  // namespace

/// Scratch arena of the DFS. Level d owns every buffer Dfs needs at path
/// length d: the extension list the join writes into (and the d+1
/// recursion reads), the gathered moves, and the sibling-dedup store.
/// Levels are allocated once per Search (max_path_len + 1 of them) and
/// reused across all DFS moves at that depth, so after the first visit of
/// each depth the inner loop performs no heap allocation — extensions
/// overwrite the level's list in place, and dedup entries assign into
/// retained capacity.
struct PivotSearcher::DfsState {
  struct Level {
    PostingList extended;     // ExtendInto target for this depth
    std::vector<Move> moves;  // outgoing moves of the current node
    // Sibling-dedup store for the current node: target node + content
    // hash as the cheap key, materialized list for the collision-proof
    // compare. seen_size is the logical length; entries past it are
    // retained capacity from nodes visited earlier at this depth.
    std::vector<int> seen_tos;
    std::vector<uint64_t> seen_hashes;
    std::vector<PostingList> seen_lists;
    size_t seen_size = 0;
  };
  struct PostingScratch {
    std::vector<Level> levels;  // indexed by depth; sized once in Search
  };

  LabelPath current;
  LabelPath best_path;
  std::vector<GraphId> best_members;
  std::vector<GraphId> leaf_members;  // CompleteMembers buffer, reused
  int best_count = 0;  // starts at the acceptance threshold
  uint64_t expansions = 0;
  bool truncated = false;
  PostingScratch scratch;
};

namespace {

// Distinct alive graphs whose posting spans a full transformation path
// (start == 1 by construction, end == that graph's last node).
void CompleteMembers(const GraphSet& set, const PostingList& list,
                     std::vector<GraphId>* members) {
  members->clear();
  for (const Posting& p : list) {
    if (!set.alive(p.graph())) continue;
    if (p.end() != set.graph(p.graph()).last_node()) continue;
    if (!members->empty() && members->back() == p.graph()) continue;
    members->push_back(p.graph());
  }
}

}  // namespace

void PivotSearcher::Dfs(GraphId g, int node, const PostingList& list,
                        size_t list_distinct, size_t depth, DfsState* state,
                        std::vector<int>* lower_bounds,
                        uint64_t max_expansions) const {
  if (state->truncated) return;
  if (++state->expansions > max_expansions) {
    state->truncated = true;
    return;
  }
  const TransformationGraph& graph = set_->graph(g);
  if (node == graph.last_node()) {
    // rho is a transformation path of g (Algorithm 3 lines 2-5).
    CompleteMembers(*set_, list, &state->leaf_members);
    const int count = static_cast<int>(state->leaf_members.size());
    if (lower_bounds != nullptr && options_.global_early_term) {
      // Algorithm 4: raise Glo of every graph that contains this
      // transformation path.
      for (GraphId member : state->leaf_members) {
        int& lb = (*lower_bounds)[member];
        if (lb < count) lb = count;
      }
    }
    if (count > state->best_count) {
      state->best_count = count;
      state->best_path = state->current;
      state->best_members = state->leaf_members;
    }
    return;
  }
  if (static_cast<int>(state->current.size()) >= options_.max_path_len) {
    return;
  }

  // Every buffer below lives in this depth's scratch level; the recursion
  // only touches deeper levels, so the references stay valid across it.
  DfsState::Level& level = state->scratch.levels[depth];

  // Gather outgoing (label, edge, |I[label]|) moves. A label can sit on at
  // most one outgoing edge of a node (labels determine their output string,
  // and sibling edges have different target substrings). Moves are visited
  // in descending posting-list length (ties by ascending LabelId): big
  // lists raise best_count early, which makes the early terminations bite.
  // The order is a global total order on labels (list lengths are shared
  // run-wide), so the first-found maximum is still canonical across all
  // grouping variants.
  std::vector<Move>& moves = level.moves;
  moves.clear();
  for (const GraphEdge& edge : graph.edges_from(node)) {
    for (LabelId label : edge.labels) {
      const bool constant =
          set_->interner() != nullptr &&
          set_->interner()->Get(label).kind() ==
              StringFn::Kind::kConstantStr;
      moves.push_back(
          Move{set_->index().ListLength(label), constant, label, edge.to});
    }
  }
  // Ties between equally long lists break toward non-constant labels:
  // for singleton structure groups every path has count 1 and the
  // first-found path wins, so this bias is what keeps their pivots from
  // degenerating into pure "emit this literal" programs (which the
  // framework rightly filters out). The key is still a run-wide total
  // order on labels, so the canonical choice stays consistent across all
  // grouping variants.
  std::sort(moves.begin(), moves.end(), [](const Move& a, const Move& b) {
    if (a.list_length != b.list_length) return a.list_length > b.list_length;
    if (a.constant != b.constant) return !a.constant;
    return a.label < b.label;
  });

  // Sibling deduplication: labels on the same edge frequently extend to
  // identical posting lists (all P[x] x P[y] SubStr variants of one
  // occurrence, for instance). Exploring each would multiply the subtree
  // by the label multiplicity; one representative (the first in the global
  // move order) suffices for finding a maximal path, and taking the first
  // keeps the choice canonical across grouping variants. The dedup key is
  // the content hash ExtendInto computes during emission — nothing is
  // re-hashed here.
  level.seen_size = 0;

  for (const Move& move : moves) {
    // Cheap pre-check before the join: the extension's distinct-graph
    // count is at most min(|list| distinct, |I[label]|) — intersections
    // never grow (Section 5.2).
    const size_t upper = std::min(move.list_length, list_distinct);
    if (options_.local_early_term &&
        static_cast<int>(upper) <= state->best_count) {
      continue;
    }
    if (options_.global_early_term && lower_bounds != nullptr &&
        static_cast<int>(upper) < (*lower_bounds)[g]) {
      continue;
    }
    const ExtendStats stats =
        InvertedIndex::ExtendInto(list, set_->index().Find(move.label),
                                  &set_->alive_vector(), &level.extended);
    if (level.extended.empty()) continue;
    if (options_.local_early_term &&
        static_cast<int>(stats.distinct_graphs) <= state->best_count) {
      continue;  // cannot strictly beat the best found so far
    }
    if (options_.global_early_term && lower_bounds != nullptr &&
        static_cast<int>(stats.distinct_graphs) < (*lower_bounds)[g]) {
      continue;  // cannot reach g's known lower bound
    }
    bool duplicate = false;
    for (size_t s = 0; s < level.seen_size; ++s) {
      if (level.seen_tos[s] == move.to && level.seen_hashes[s] == stats.hash &&
          level.seen_lists[s] == level.extended) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    if (level.seen_size == level.seen_lists.size()) {
      level.seen_tos.push_back(move.to);
      level.seen_hashes.push_back(stats.hash);
      level.seen_lists.push_back(level.extended);
    } else {
      level.seen_tos[level.seen_size] = move.to;
      level.seen_hashes[level.seen_size] = stats.hash;
      level.seen_lists[level.seen_size] = level.extended;
    }
    ++level.seen_size;
    state->current.push_back(move.label);
    Dfs(g, move.to, level.extended, stats.distinct_graphs, depth + 1, state,
        lower_bounds, max_expansions);
    state->current.pop_back();
    if (state->truncated) return;
  }
}

PivotSearcher::SearchResult PivotSearcher::Search(
    GraphId g, int threshold, std::vector<int>* lower_bounds,
    uint64_t expansion_budget, const std::vector<char>* count_mask) const {
  USTL_CHECK(g < set_->size());
  DfsState state;
  state.best_count = threshold;
  // Size the scratch arena once: depth can reach max_path_len, where Dfs
  // returns before touching its level, so max_path_len + 1 levels cover
  // every access and the vector never reallocates mid-recursion (levels
  // are referenced across recursive calls).
  state.scratch.levels.resize(
      static_cast<size_t>(std::max(options_.max_path_len, 0)) + 1);
  const uint64_t max_expansions =
      std::min(options_.max_expansions, expansion_budget);

  // The empty path matches every alive graph at the root (Algorithm 2
  // line 5 / Algorithm 7 line 8 initialize ell with all graphs). With a
  // count mask (Appendix-E sampling) only the sampled graphs enter, so
  // every downstream intersection works on short lists.
  PostingList root;
  root.reserve(set_->size());
  for (GraphId other = 0; other < set_->size(); ++other) {
    if (!set_->alive(other)) continue;
    if (count_mask != nullptr && (*count_mask)[other] == 0) continue;
    root.push_back(Posting(other, 1, 1));
  }

  // Global lower bounds are exact-count state; with sampled counting the
  // units would not match, so bounds are neither read nor written. The
  // root list holds one posting per graph, so its distinct count is its
  // size.
  Dfs(g, 1, root, root.size(), 0, &state,
      count_mask == nullptr ? lower_bounds : nullptr, max_expansions);

  SearchResult result;
  result.expansions = state.expansions;
  result.truncated = state.truncated;
  if (!state.best_path.empty()) {
    result.found = true;
    result.path = std::move(state.best_path);
    result.members = std::move(state.best_members);
    result.count = state.best_count;
    if (count_mask != nullptr) {
      // Rehydrate: resolve the winning path's members over all alive
      // graphs so the returned group is complete. Cold path (once per
      // sampled search), so the allocating Extend wrapper is fine.
      PostingList full;
      full.reserve(set_->size());
      for (GraphId other = 0; other < set_->size(); ++other) {
        if (set_->alive(other)) full.push_back(Posting(other, 1, 1));
      }
      for (LabelId label : result.path) {
        full = InvertedIndex::Extend(full, set_->index().Find(label),
                                     &set_->alive_vector());
      }
      CompleteMembers(*set_, full, &result.members);
    }
  }
  return result;
}

}  // namespace ustl
