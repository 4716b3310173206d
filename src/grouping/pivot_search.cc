#include "grouping/pivot_search.h"

#include <algorithm>
#include <limits>
#include <utility>

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

// The canonical move order (see the header). Long lists go first: they
// raise best_count early, which makes the early terminations bite. Ties
// between equally long lists break toward non-constant labels: for
// singleton structure groups every path has count 1 and the first-found
// path wins, so this bias is what keeps their pivots from degenerating
// into pure "emit this literal" programs (which the framework rightly
// filters out).
bool MoveBefore(const Move& a, const Move& b) {
  if (a.list_length != b.list_length) return a.list_length > b.list_length;
  if (a.constant != b.constant) return !a.constant;
  return a.label < b.label;
}

bool IsConstant(const GraphSet& set, LabelId label) {
  return set.interner()->kind(label) == StringFn::Kind::kConstantStr;
}

}  // namespace

/// Scratch arena of the DFS. Level d owns the buffers Dfs needs at path
/// length d: the extension list the join writes into (and the d+1
/// recursion reads) and the sibling-dedup store. Levels are allocated once
/// per Search (max_path_len + 1 of them) and reused across all DFS moves
/// at that depth, so after the first visit of each depth the inner loop
/// performs no heap allocation — extensions overwrite the level's list in
/// place, and dedup entries assign into retained capacity.
///
/// A node's moves depend only on the node (the searched graph is fixed
/// per Search and list lengths per index), never on the path that reached
/// it, so each node's move list is built on its first visit and appended
/// to `moves`; node_moves[node] is its [begin, end) range there.
struct PivotSearcher::DfsState {
  struct Level {
    PostingList extended;     // ExtendInto target for this depth
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
  static constexpr size_t kUnbuilt = std::numeric_limits<size_t>::max();
  // Far above any path cap, and depth + 1 + kNoPath cannot overflow.
  static constexpr int kNoPath = std::numeric_limits<int>::max() / 2;

  LabelPath current;
  LabelPath best_path;
  std::vector<GraphId> best_members;
  std::vector<GraphId> leaf_members;  // CompleteMembers buffer, reused
  int best_count = 0;  // starts at the acceptance threshold
  uint64_t expansions = 0;
  uint64_t joins = 0;
  bool truncated = false;
  PostingScratch scratch;
  std::vector<Move> moves;
  std::vector<std::pair<size_t, size_t>> node_moves;  // indexed by node
  // Fewest edges from a node to the sink (indexed by node), kNoPath when
  // the sink cannot be reached at all.
  std::vector<int> dist;
};

PivotSearcher::PivotSearcher(const GraphSet* set, Options options)
    : set_(set), options_(options), explore_(set->interner()->size(), 0) {
  // Identical lists hash equal, so hashing (with the ExtendInto content
  // hash) and sorting groups every class of identical lists into one run.
  // Within a run, labels are sorted in move order — all share one list
  // length, so that is constant-ness then id — and each label is compared
  // by content against the run's representatives so far: a match is the
  // later twin of an explored label, a miss (a hash collision) starts a
  // new class.
  struct Entry {
    uint64_t hash;
    bool constant;
    LabelId label;
  };
  const InvertedIndex& index = set_->index();
  std::vector<Entry> entries;
  entries.reserve(explore_.size());
  for (LabelId label = 0; label < explore_.size(); ++label) {
    uint64_t hash = kPostingHashSeed;
    for (const Posting& p : index.Find(label)) {
      hash ^= p.bits();
      hash *= kPostingHashPrime;
    }
    entries.push_back(Entry{hash, IsConstant(*set_, label), label});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              if (a.hash != b.hash) return a.hash < b.hash;
              if (a.constant != b.constant) return !a.constant;
              return a.label < b.label;
            });
  std::vector<LabelId> representatives;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i == 0 || entries[i].hash != entries[i - 1].hash) {
      representatives.clear();
    }
    const PostingList& list = index.Find(entries[i].label);
    const bool twin = std::any_of(
        representatives.begin(), representatives.end(),
        [&](LabelId rep) { return index.Find(rep) == list; });
    if (twin) continue;
    representatives.push_back(entries[i].label);
    explore_[entries[i].label] = 1;
  }
}

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
  // Cancellation checkpoint on the first expansion and every 4,096th
  // after it (about 2 ms of search). An unwound search returns nothing,
  // and the Glo raises it already made come from real leaves, so they
  // stay valid bounds.
  if ((state->expansions & 4095) == 1) options_.cancel.Check();
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

  // The dedup store lives in this depth's scratch level; the recursion
  // only touches deeper levels, so the reference stays valid across it.
  DfsState::Level& level = state->scratch.levels[depth];

  // Build this node's moves on its first visit: gather every outgoing
  // (label, edge, |I[label]|) move, sort the full list into the canonical
  // move order, then drop the labels that are not their class's explored
  // representative. One label can sit on several outgoing edges of a node
  // (a journaltitle graph has the same label on 2->4 and 2->12); those
  // moves tie, and std::sort orders them by its input. So the drop must
  // follow the sort: dropping first changes that input, the tie order and
  // the first-found pivots. After the sort, each dropped move's twin on
  // the same edge comes earlier (same length, representative first), and
  // its join produces the same list: a sibling duplicate when the twin
  // was explored, or pruned like the twin since best_count and Glo only
  // rise.
  std::pair<size_t, size_t>& range = state->node_moves[node];
  if (range.first == DfsState::kUnbuilt) {
    std::vector<Move>& moves = state->moves;
    const size_t begin = moves.size();
    for (const GraphEdge& edge : graph.edges_from(node)) {
      for (LabelId label : edge.labels) {
        moves.push_back(Move{set_->index().ListLength(label),
                             IsConstant(*set_, label), label, edge.to});
      }
    }
    std::sort(moves.begin() + begin, moves.end(), MoveBefore);
    moves.erase(std::remove_if(moves.begin() + begin, moves.end(),
                               [this](const Move& move) {
                                 return explore_[move.label] == 0;
                               }),
                moves.end());
    range = {begin, moves.size()};
  }

  // Sibling deduplication: labels on the same edge frequently extend to
  // identical posting lists (all P[x] x P[y] SubStr variants of one
  // occurrence, for instance). Exploring each would multiply the subtree
  // by the label multiplicity; one representative (the first in the global
  // move order) suffices for finding a maximal path, and taking the first
  // keeps the choice canonical across grouping variants. The dedup key is
  // the content hash ExtendInto computes during emission — nothing is
  // re-hashed here.
  level.seen_size = 0;

  const auto [moves_begin, moves_end] = range;
  for (size_t i = moves_begin; i < moves_end; ++i) {
    // A copy: the recursion appends deeper nodes' moves to state->moves.
    const Move move = state->moves[i];
    // Dead end at the path cap: no leaf lies within the labels left below
    // move.to, so its subtree cannot change the best path, the members or
    // Glo (see the header).
    if (static_cast<int>(depth) + 1 + state->dist[move.to] >
        options_.max_path_len) {
      continue;
    }
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
    ++state->joins;
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
  // Size the scratch arena once: the cap skip in Dfs lets depth reach
  // max_path_len only at the sink, where Dfs returns before touching its
  // level, so max_path_len + 1 levels cover every access and the vector
  // never reallocates mid-recursion (levels are referenced across
  // recursive calls).
  state.scratch.levels.resize(
      static_cast<size_t>(std::max(options_.max_path_len, 0)) + 1);
  const TransformationGraph& graph = set_->graph(g);
  state.node_moves.assign(static_cast<size_t>(graph.num_nodes()) + 1,
                          {DfsState::kUnbuilt, DfsState::kUnbuilt});
  // Edges only go forward and every edge carries a label, so one reverse
  // pass over the nodes yields each node's fewest moves to the sink. Nodes
  // without out-edges (mid-token nodes only affix labels reach) keep
  // kNoPath.
  state.dist.assign(static_cast<size_t>(graph.num_nodes()) + 1,
                    DfsState::kNoPath);
  state.dist[graph.last_node()] = 0;
  for (int node = graph.last_node() - 1; node >= 1; --node) {
    for (const GraphEdge& edge : graph.edges_from(node)) {
      state.dist[node] = std::min(state.dist[node], state.dist[edge.to] + 1);
    }
  }
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
  result.joins = state.joins;
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
