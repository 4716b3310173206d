#include "grouping/incremental.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/random.h"
#include "obs/trace.h"

namespace ustl {
namespace {

PivotSearcher::Options SearcherOptions(const IncrementalOptions& options) {
  PivotSearcher::Options out;
  out.local_early_term = true;
  out.global_early_term = true;
  out.max_path_len = options.max_path_len;
  out.max_expansions = options.max_expansions_per_search;
  out.cancel = options.cancel;
  return out;
}

constexpr uint64_t kUnlimited = std::numeric_limits<uint64_t>::max();

bool ExactModeConfigured(const IncrementalOptions& options) {
  return options.sample_size == 0 &&
         options.max_expansions_per_search == kUnlimited &&
         options.max_total_expansions == kUnlimited;
}

}  // namespace

IncrementalEngine::IncrementalEngine(GraphSet set, IncrementalOptions options,
                                     ThreadPool* pool)
    : set_(std::move(set)),
      options_(options),
      pool_(pool),
      searcher_(&set_, SearcherOptions(options)),
      lower_bounds_(set_.size(), 1),
      upper_bounds_(set_.size(), 0),
      search_cache_(set_.size()) {
  InitUpperBounds();
  if (options_.sample_size > 0) {
    sample_order_.resize(set_.size());
    std::iota(sample_order_.begin(), sample_order_.end(), GraphId{0});
    Rng rng(options_.sample_seed);
    rng.Shuffle(&sample_order_);
  }
  // Cross-engine warmth piggybacks on the reuse cache, so it is gated
  // exactly like reuse: exact mode only.
  if (options_.shared_cache != nullptr && options_.shared_cache_key.valid() &&
      options_.reuse_search_results && ExactModeConfigured(options_)) {
    shared_cache_ = options_.shared_cache;
    WarmStartFromSharedCache();
  }
}

void IncrementalEngine::WarmStartFromSharedCache() {
  for (auto& [g, pivot] :
       shared_cache_->WarmStart(options_.shared_cache_key)) {
    if (g >= set_.size()) continue;  // foreign entry; key collision guard
    CachedSearch entry;
    entry.path = std::move(pivot.path);
    entry.members = std::move(pivot.members);
    entry.count = pivot.count;
    // Published entries were computed against an identical-content,
    // untouched alive set — exactly this engine's state at its own kill
    // epoch 0 (the GraphSet starts with zero kills).
    entry.validated_epoch = set_.kill_epoch();
    entry.warm = true;
    search_cache_[g] = std::move(entry);
  }
}

bool IncrementalEngine::RefreshSampleMask() {
  if (options_.sample_size == 0) return false;
  if (set_.AliveCount() <= options_.sample_size) return false;
  sample_mask_.assign(set_.size(), 0);
  size_t taken = 0;
  for (GraphId g : sample_order_) {
    if (!set_.alive(g)) continue;
    sample_mask_[g] = 1;
    if (++taken == options_.sample_size) break;
  }
  return true;
}

void IncrementalEngine::InitUpperBounds() {
  // Lemma 6.2: every transformation path covers each position k of t, so
  // ub[k] = max inverted-list length among labels of edges covering k is an
  // upper bound, and Gup = min_k ub[k]. Computed in O(|t|^2) per graph via
  // per-start-node suffix maxima, in one flat row-major buffer reused
  // across graphs (a vector-of-vectors here would allocate |t| rows per
  // graph).
  std::vector<int64_t> suffix;  // (m + 2) x (m + 3), row-major
  for (GraphId g = 0; g < set_.size(); ++g) {
    const TransformationGraph& graph = set_.graph(g);
    const int m = graph.num_nodes() - 1;  // |t|
    const size_t stride = static_cast<size_t>(m) + 3;
    suffix.assign(static_cast<size_t>(m + 2) * stride, 0);
    const auto at = [&](int i, int j) -> int64_t& {
      return suffix[static_cast<size_t>(i) * stride + j];
    };
    for (int from = 1; from <= m; ++from) {
      for (const GraphEdge& edge : graph.edges_from(from)) {
        int64_t edge_max = 0;
        for (LabelId label : edge.labels) {
          edge_max = std::max(
              edge_max, static_cast<int64_t>(set_.index().ListLength(label)));
        }
        at(from, edge.to) = std::max(at(from, edge.to), edge_max);
      }
      for (int j = m; j >= from + 1; --j) {
        at(from, j) = std::max(at(from, j), at(from, j + 1));
      }
    }
    int64_t gup = std::numeric_limits<int64_t>::max();
    for (int k = 1; k <= m; ++k) {
      int64_t ubk = 0;
      for (int i = 1; i <= k; ++i) {
        ubk = std::max(ubk, at(i, k + 1));
      }
      gup = std::min(gup, ubk);
    }
    // A list length counts postings, not graphs, so it is a valid (possibly
    // loose) bound; cap by the number of graphs.
    gup = std::min(gup, static_cast<int64_t>(set_.size()));
    upper_bounds_[g] = static_cast<int>(gup);
  }
}

bool IncrementalEngine::CacheLookup(GraphId g,
                                    PivotSearcher::SearchResult* out,
                                    bool* warm) {
  std::optional<CachedSearch>& entry = search_cache_[g];
  if (!entry.has_value()) return false;
  if (entry->validated_epoch != set_.kill_epoch()) {
    // Kills happened since the last validation: the pivot stays exact iff
    // every member survived (counts can only shrink, and only a member
    // kill shrinks THIS path's count below every earlier-enumerated
    // alternative's old ceiling — see the header).
    for (GraphId member : entry->members) {
      if (!set_.alive(member)) {
        entry.reset();
        return false;
      }
    }
    entry->validated_epoch = set_.kill_epoch();
  }
  out->found = true;
  out->path = entry->path;
  out->members = entry->members;
  out->count = entry->count;
  out->expansions = 0;
  out->joins = 0;
  out->truncated = false;
  *warm = entry->warm;
  return true;
}

void IncrementalEngine::CacheStore(GraphId g,
                                   const PivotSearcher::SearchResult& result) {
  CachedSearch entry;
  entry.path = result.path;
  entry.members = result.members;
  entry.count = result.count;
  entry.validated_epoch = set_.kill_epoch();
  search_cache_[g] = std::move(entry);
  // Epoch-0 results are the transferable ones: computed against the
  // untouched alive set, so an identical-content engine can start from
  // them (see search_cache.h). Later epochs saw kills and stay private.
  if (shared_cache_ != nullptr && set_.kill_epoch() == 0) {
    CachedPivot pivot;
    pivot.path = result.path;
    pivot.members = result.members;
    pivot.count = result.count;
    shared_cache_->Publish(options_.shared_cache_key, g, std::move(pivot));
  }
}

void IncrementalEngine::Scan(const std::vector<GraphId>& order, bool exact,
                             bool sampling, int best_count,
                             PivotSearcher::SearchResult* best) {
  const bool reuse = exact && options_.reuse_search_results;
  // Non-exact modes run waves of one search: sampling re-counts against
  // this round's mask and budgets make outcomes spend-dependent, so
  // nothing may be searched ahead of the lazy serial order.
  const size_t max_wave =
      exact && pool_ != nullptr && !pool_->InWorkerThread()
          ? static_cast<size_t>(pool_->num_threads())
          : 1;

  struct Slot {
    GraphId g = 0;
    bool cached = false;
    bool warm = false;  // cached entry came from the shared cache
    PivotSearcher::SearchResult result;
    std::vector<int> bounds;  // private Glo copy of a concurrent search
  };
  std::vector<Slot> slots;

  // Applies one resolved slot under the serial update rules: "found" is
  // re-decided against the evolved running best (every resolved count is
  // the graph's true, threshold-independent pivot count), the Gup/Glo
  // writes match the one-at-a-time scan's, and a false return is the
  // serial stop point — the order is descending in the Gups it was
  // sorted under, so no later graph can win once one fails the guard.
  // Nothing of a slot that failed the guard lands (no statistics, no
  // bound updates).
  const auto apply = [&](Slot* slot) {
    const GraphId g = slot->g;
    if (upper_bounds_[g] <= best_count) return false;
    if (slot->cached) {
      ++stats_.cache_hits;
      if (slot->warm) ++stats_.warm_hits;
    } else {
      ++stats_.searches;
      stats_.expansions += slot->result.expansions;
      stats_.joins += slot->result.joins;
      stats_.truncated |= slot->result.truncated;
      // Merge the private Glo raises back (entries only ever rise, so
      // an element-wise max reproduces the in-place writes).
      if (!slot->bounds.empty()) {
        for (size_t k = 0; k < lower_bounds_.size(); ++k) {
          lower_bounds_[k] = std::max(lower_bounds_[k], slot->bounds[k]);
        }
      }
      if (reuse && slot->result.found) CacheStore(g, slot->result);
    }
    if (slot->result.found && slot->result.count > best_count) {
      // Under sampling these bounds are in sample units (under-estimates
      // of full counts); the ordering they induce is approximate, which
      // is the deal Appendix E's sampling makes.
      lower_bounds_[g] = std::max(lower_bounds_[g], slot->result.count);
      if (slot->cached) {
        // The DFS that produced this result raised the Glo of every
        // graph sharing the pivot; replay the raises that matter.
        for (GraphId member : slot->result.members) {
          lower_bounds_[member] =
              std::max(lower_bounds_[member], slot->result.count);
        }
      }
      upper_bounds_[g] = slot->result.count;
      best_count = slot->result.count;
      *best = std::move(slot->result);
    } else {
      // The pivot of g cannot be shared by more than best_count graphs
      // (of the sample, when sampling).
      upper_bounds_[g] = best_count;
    }
    return true;
  };

  size_t pos = 0;
  // Sampled counts never exceed full counts, so the full-unit upper
  // bounds remain sound against a sample-unit best_count.
  while (pos < order.size() && upper_bounds_[order[pos]] > best_count) {
    // Cancellation checkpoint between waves: a tripped request unwinds
    // after at most one wave of searches (bounded by the pool width).
    options_.cancel.Check();
    if (stats_.expansions >= options_.max_total_expansions) {
      stats_.truncated = true;
      break;
    }
    // A cached result at the head of the remaining order applies
    // immediately: it costs no DFS, keeps the scan exactly as lazy as a
    // serial scan with the same cache (no search is dispatched that the
    // raised best would have skipped), and leaves the wave's search
    // slots for real work instead of starving the pool right after a
    // consume, when most entries are still valid.
    if (reuse) {
      Slot head;
      head.g = order[pos];
      if (CacheLookup(head.g, &head.result, &head.warm)) {
        head.cached = true;
        apply(&head);  // guard holds: the outer condition just checked it
        ++pos;
        continue;
      }
    }

    // Form the next search wave: up to max_wave cache misses; cached
    // results interleaved past the first miss ride along for free and
    // replay in order. Membership only affects how much gets speculated —
    // the replay makes every wave composition land on the same state.
    slots.clear();
    size_t wave_end = pos;
    size_t searches_needed = 0;
    while (wave_end < order.size() &&
           upper_bounds_[order[wave_end]] > best_count) {
      Slot slot;
      slot.g = order[wave_end];
      // The head slot was already looked up (a miss) above.
      if (reuse && wave_end != pos) {
        slot.cached = CacheLookup(slot.g, &slot.result, &slot.warm);
      }
      if (!slot.cached) {
        if (searches_needed == max_wave) break;
        ++searches_needed;
      }
      slots.push_back(std::move(slot));
      ++wave_end;
    }

    // One trace span per wave (inert on a null context). Width/search
    // counts are recorded, never read — wave composition stays a pure
    // function of the bounds and the cache.
    ScopedSpan wave_span(options_.trace, options_.trace_parent,
                         "search_wave");
    wave_span.AddAttr("slots", static_cast<int64_t>(slots.size()));
    wave_span.AddAttr("searches", static_cast<int64_t>(searches_needed));

    // Resolve the cache misses. A lone search runs in place on the live
    // Glo under the budget left (and, when sampling, the mask with the
    // searched graph counting itself). Wider waves search against the
    // wave-start threshold and private snapshots of the wave-start Glo;
    // both choices leave the per-graph outcome unchanged (see the
    // header), so resolution order never matters.
    if (slots.size() == 1) {
      const GraphId g = slots[0].g;
      char restore_mask = 0;
      if (sampling) {
        restore_mask = sample_mask_[g];
        sample_mask_[g] = 1;
      }
      slots[0].result = searcher_.Search(
          g, best_count, &lower_bounds_,
          options_.max_total_expansions - stats_.expansions,
          sampling ? &sample_mask_ : nullptr);
      if (sampling) sample_mask_[g] = restore_mask;
    } else {
      ParallelFor(pool_, slots.size(), [&, best_count](size_t i) {
        Slot& slot = slots[i];
        if (slot.cached) return;
        slot.bounds = lower_bounds_;
        slot.result = searcher_.Search(slot.g, best_count, &slot.bounds);
      });
    }

    uint64_t wave_joins = 0;
    for (const Slot& slot : slots) {
      if (!slot.cached) wave_joins += slot.result.joins;
    }
    wave_span.AddAttr("joins", static_cast<int64_t>(wave_joins));

    // Replay the wave in scan order.
    size_t applied = slots.size();
    for (size_t i = 0; i < slots.size(); ++i) {
      if (!apply(&slots[i])) {
        applied = i;
        break;
      }
    }
    wave_span.AddAttr("applied", static_cast<int64_t>(applied));
    if (applied < slots.size()) {
      // Everything past the serial stop point was speculative; none of
      // its bound updates land, but found results still warm the cache
      // for later rounds.
      for (size_t i = applied; i < slots.size(); ++i) {
        Slot& slot = slots[i];
        if (slot.cached) continue;
        ++stats_.searches;
        ++stats_.speculative_searches;
        stats_.expansions += slot.result.expansions;
        stats_.joins += slot.result.joins;
        if (reuse && slot.result.found) CacheStore(slot.g, slot.result);
      }
      break;
    }
    pos = wave_end;
  }
}

void IncrementalEngine::FillPeek() {
  if (peeked_) return;
  peeked_ = true;
  peek_.reset();
  upper_hint_.reset();  // the scan below rewrites upper bounds

  std::vector<GraphId> order;
  order.reserve(set_.size());
  int tau = 0;  // largest lower bound among alive graphs (Algorithm 7 line 2)
  for (GraphId g = 0; g < set_.size(); ++g) {
    if (!set_.alive(g)) continue;
    order.push_back(g);
    tau = std::max(tau, lower_bounds_[g]);
  }
  if (order.empty()) return;

  std::stable_sort(order.begin(), order.end(), [&](GraphId a, GraphId b) {
    if (upper_bounds_[a] != upper_bounds_[b]) {
      return upper_bounds_[a] > upper_bounds_[b];
    }
    return a < b;
  });

  // Accept only groups of size >= tau, i.e. strictly greater than tau - 1
  // (the off-by-one fix described in the header).
  const bool sampling = RefreshSampleMask();
  const bool exact = !sampling &&
                     options_.max_expansions_per_search == kUnlimited &&
                     options_.max_total_expansions == kUnlimited;
  PivotSearcher::SearchResult best;
  Scan(order, exact, sampling, /*best_count=*/tau - 1, &best);
  if (best.found) {
    peek_ = ReplacementGroup{std::move(best.path), std::move(best.members)};
  }
}

const std::optional<ReplacementGroup>& IncrementalEngine::Peek() {
  FillPeek();
  return peek_;
}

void IncrementalEngine::ConsumePeeked() {
  USTL_CHECK(peeked_);
  if (peek_.has_value()) {
    for (GraphId member : peek_->members) {
      set_.Kill(member);
      // Dead graphs never re-enter the scan order, so their cached
      // results would otherwise sit unreachable until engine teardown.
      search_cache_[member].reset();
    }
    // Removals invalidate lower bounds (the counted containers may be
    // gone); upper bounds only ever over-estimate and stay valid. Cached
    // search results revalidate themselves against the kill epoch.
    std::fill(lower_bounds_.begin(), lower_bounds_.end(), 1);
    upper_hint_.reset();
  }
  peeked_ = false;
  peek_.reset();
}

std::optional<ReplacementGroup> IncrementalEngine::Next() {
  FillPeek();
  std::optional<ReplacementGroup> out = peek_;
  ConsumePeeked();
  return out;
}

void IncrementalEngine::LimitExpansions(uint64_t remaining) {
  // The cap stays finite, so the engine stays non-exact.
  USTL_CHECK(options_.max_total_expansions != kUnlimited &&
             remaining < kUnlimited - stats_.expansions);
  options_.max_total_expansions = stats_.expansions + remaining;
}

int IncrementalEngine::UpperHint() const {
  if (peeked_) {
    return peek_.has_value() ? static_cast<int>(peek_->members.size()) : 0;
  }
  if (!upper_hint_.has_value()) {
    int alive = 0;
    int max_ub = 0;
    for (GraphId g = 0; g < set_.size(); ++g) {
      if (!set_.alive(g)) continue;
      ++alive;
      max_ub = std::max(max_ub, upper_bounds_[g]);
    }
    upper_hint_ = std::min(max_ub, alive);
  }
  return *upper_hint_;
}

}  // namespace ustl
