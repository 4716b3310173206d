// Incremental (top-k) grouping over one GraphSet (Algorithms 5-7). Each
// Next()/Peek() produces the largest remaining group without partitioning
// everything upfront: graphs carry lower bounds Glo (count of a known
// transformation path through them) and upper bounds Gup (Lemma 6.2, from
// inverted-list lengths of covering edges); graphs are visited in
// descending upper-bound order and the scan stops as soon as no unvisited
// graph can beat the best group found.
//
// One scan loop, in waves: a pivot search's outcome — the canonical
// first-found maximal path, its count and members — does not depend on
// the threshold it was asked to beat or the Glo state it pruned under
// (valid bounds only skip subtrees that cannot contain a maximal path;
// see pivot_search.h). FillPeek exploits that: it resolves the
// descending-Gup order in waves on the thread pool, every wave searching
// against the wave-start threshold and a private Glo snapshot, then
// REPLAYS the results in scan order with the serial update rules — found
// iff the count beats the evolved running best, the same Gup/Glo writes,
// the same stop point. Results past the stop point are discarded (their
// bound updates never land), so the engine's cross-round state is
// byte-identical for every wave width and thread count; the speculative
// searches cost only expansion statistics — and warm the result cache
// below. A wave of one search runs in place on the live Glo.
//
// Cross-round search-result reuse: ConsumePeeked only ever KILLS graphs,
// and shrinking the alive set can only lower path counts. A cached pivot
// of g therefore stays the exact canonical pivot — same path, count and
// members — until one of its members is killed (its own count would drop;
// every enumeration-earlier path had a strictly smaller count and cannot
// catch up). Entries are revalidated lazily against GraphSet::kill_epoch,
// so later rounds re-search only the graphs the last consume dirtied.
// Reuse changes which searches run, never what they return: output is
// byte-identical with the cache on or off. The cache can additionally be
// warm-started across engines: epoch-0 results (computed against the
// untouched alive set) are published to / seeded from a shared
// SearchResultCache keyed by engine content, so an engine whose graphs
// repeat an earlier engine's never re-runs its round-one searches
// (IncrementalOptions::shared_cache, grouping/search_cache.h).
//
// Exactness gates: waves wider than one and result reuse apply in exact
// mode only. Sampling (Appendix E) re-counts against a fresh mask every
// round, and finite expansion budgets make results depend on how much the
// previous searches spent, so those modes scan in waves of one search,
// without reuse — the lazy serial order.
//
// Deviation from the paper: Algorithm 7 initializes the pruning threshold
// to tau (the largest lower bound), which misses a largest group of size
// exactly tau; we use tau - 1.
#ifndef USTL_GROUPING_INCREMENTAL_H_
#define USTL_GROUPING_INCREMENTAL_H_

#include <cstdint>
#include <limits>
#include <optional>

#include "common/cancel.h"
#include "common/parallel.h"
#include "grouping/graph_set.h"
#include "grouping/pivot_search.h"
#include "grouping/search_cache.h"

namespace ustl {

class TraceContext;  // obs/trace.h

struct IncrementalOptions {
  int max_path_len = 6;
  /// Safety valve (Section 8.2 suggests bounding the search when grouping
  /// is too slow): each pivot search stops after this many DFS expansions
  /// and keeps the best path found so far. When a search truncates, the
  /// engine's results may no longer be the exact global maximum; the
  /// groups returned are still valid (every member shares the pivot).
  uint64_t max_expansions_per_search = std::numeric_limits<uint64_t>::max();
  /// Total DFS expansion budget for the whole engine lifetime. Once
  /// exhausted, Peek() stops scanning (keeping whatever best group it
  /// already found) and later calls drain to nullopt quickly. Groups
  /// returned after exhaustion are valid but not necessarily largest.
  uint64_t max_total_expansions = std::numeric_limits<uint64_t>::max();
  /// Appendix-E sampling: when more than this many graphs are alive, pivot
  /// counts are taken over a seeded sample of this size (plus the searched
  /// graph), and the winning path's group is re-resolved over the full
  /// set. 0 disables sampling (exact counting). With sampling on, groups
  /// are valid and complete but "largest first" holds only relative to
  /// the sample.
  size_t sample_size = 0;
  uint64_t sample_seed = 0x5eed;
  /// Cross-round search-result reuse (see the file comment). Output is
  /// byte-identical either way; off only costs repeated searches. Ignored
  /// (always off) under sampling or finite expansion budgets.
  bool reuse_search_results = true;
  /// Cross-engine warm start (see grouping/search_cache.h): a borrowed
  /// shared cache plus this engine's content key. When the key is valid
  /// and exact mode applies (reuse on, no sampling, unlimited budgets),
  /// the engine seeds its per-graph search cache from previously
  /// published epoch-0 results of an identical-content engine and
  /// publishes its own epoch-0 results back. Byte-identical warm or
  /// cold; the cache must outlive the engine.
  SearchResultCache* shared_cache = nullptr;
  SearchCacheKey shared_cache_key;
  /// Cooperative cancellation (common/cancel.h): the scan loop calls
  /// Check() at its head, between waves, and the engine's searcher calls
  /// it inside each search every 4,096 DFS expansions (see
  /// PivotSearcher::Options::cancel), so a tripped token unwinds within
  /// a few milliseconds of search. An unwound engine is abandoned by its
  /// request; nothing partial is published to the shared cache (only
  /// complete per-graph results ever are).
  CancelToken cancel;
  /// Per-request trace (obs/trace.h; null = untraced): the scan opens
  /// one search_wave span per wave under `trace_parent` carrying the
  /// wave's width/hit counters. Statistics only — waves, replay and reuse
  /// never read the trace, so output is byte-identical traced or not.
  TraceContext* trace = nullptr;
  uint64_t trace_parent = 0;
};

struct IncrementalStats {
  uint64_t expansions = 0;
  /// Posting-list joins the searches ran (PivotSearcher::SearchResult::
  /// joins), speculative searches included, like expansions.
  uint64_t joins = 0;
  uint64_t searches = 0;
  /// Searches avoided by cross-round result reuse: rounds that resolved a
  /// graph from a still-valid cached pivot instead of running its DFS.
  uint64_t cache_hits = 0;
  /// Wave searches the lazy serial scan would have skipped (they ran past
  /// the point the replay stopped at). Pure speculation cost — their
  /// results still land in the reuse cache.
  uint64_t speculative_searches = 0;
  /// The subset of cache_hits served from a cross-engine warm-start entry
  /// (IncrementalOptions::shared_cache): DFS work another engine already
  /// paid for.
  uint64_t warm_hits = 0;
  /// True once the engine gave up exactness: some search truncated or the
  /// total expansion budget ran out.
  bool truncated = false;
};

/// Owns its GraphSet; groups are consumed (members killed) as they are
/// taken.
class IncrementalEngine {
 public:
  /// `pool` (borrowed, may be null) parallelizes the exact-mode FillPeek
  /// waves; output is byte-identical for any pool / thread count. Calls
  /// issued from one of the pool's own worker threads scan in waves of
  /// one (nested ParallelFor would run inline anyway).
  IncrementalEngine(GraphSet set, IncrementalOptions options,
                    ThreadPool* pool = nullptr);

  // Non-copyable and non-movable: the searcher holds a pointer into the
  // owned GraphSet. Hold engines behind unique_ptr.
  IncrementalEngine(const IncrementalEngine&) = delete;
  IncrementalEngine& operator=(const IncrementalEngine&) = delete;

  /// Computes (if needed) and returns the next largest group without
  /// consuming it; nullopt when no alive graphs remain.
  const std::optional<ReplacementGroup>& Peek();

  /// Consumes the peeked group: kills its members and resets the stale
  /// lower bounds (removals invalidate Glo, not Gup).
  void ConsumePeeked();

  /// Peek + ConsumePeeked in one step (Algorithm 5's per-iteration call).
  std::optional<ReplacementGroup> Next();

  /// True when a Peek() result is cached and not yet consumed.
  bool HasPeeked() const { return peeked_; }

  /// Upper bound on the size of the next group: max alive Gup, capped by
  /// the alive count. Exact (== peeked size) once peeked. The scan result
  /// is cached until the next Peek/ConsumePeeked mutates bounds or
  /// liveness, so repeated hint polls (the k-way merge driver calls this
  /// per sub-group per round) cost O(1).
  int UpperHint() const;

  /// Caps this engine's further DFS expansions at `remaining` from now on
  /// (a budget shared with other engines: the caller re-issues whatever
  /// is left before each Peek). Only for engines constructed with a
  /// finite max_total_expansions, so the exactness gates never move.
  void LimitExpansions(uint64_t remaining);

  size_t AliveCount() const { return set_.AliveCount(); }
  const GraphSet& set() const { return set_; }
  const IncrementalStats& stats() const { return stats_; }

 private:
  /// One reusable pivot search outcome (exact mode): the canonical pivot
  /// of its graph over the alive set it was computed against, revalidated
  /// lazily via the kill epoch.
  struct CachedSearch {
    LabelPath path;
    std::vector<GraphId> members;
    int count = 0;
    uint64_t validated_epoch = 0;
    /// Seeded from the cross-engine shared cache (stats attribution).
    bool warm = false;
  };

  void InitUpperBounds();
  void FillPeek();
  /// The threshold scan (Algorithm 7) in waves + serial replay. `exact`
  /// enables pool-wide waves and result reuse; otherwise every wave is one
  /// in-place search under the budget left and, when `sampling`, the
  /// sample mask.
  void Scan(const std::vector<GraphId>& order, bool exact, bool sampling,
            int best_count, PivotSearcher::SearchResult* best);
  /// Copies a still-valid cached pivot of `g` into `*out` (found = true)
  /// and sets `*warm` when the entry came from the shared cache. Returns
  /// false (and drops stale entries) otherwise.
  bool CacheLookup(GraphId g, PivotSearcher::SearchResult* out, bool* warm);
  /// Epoch-0 results are also published to the shared cross-engine cache
  /// when one is configured.
  void CacheStore(GraphId g, const PivotSearcher::SearchResult& result);
  /// Seeds search_cache_ from the shared cross-engine cache (constructor
  /// helper; no-op unless options enable it).
  void WarmStartFromSharedCache();
  /// Rebuilds the sampling mask from the first sample_size alive graphs of
  /// the fixed seeded permutation; returns false when sampling is off or
  /// unnecessary (alive count within sample_size).
  bool RefreshSampleMask();

  GraphSet set_;
  IncrementalOptions options_;
  ThreadPool* pool_ = nullptr;
  /// Resolved from options in the constructor: non-null only when exact
  /// mode applies and the key is valid, so every use site can test this
  /// single pointer.
  SearchResultCache* shared_cache_ = nullptr;
  PivotSearcher searcher_;
  std::vector<int> lower_bounds_;  // Glo per graph
  std::vector<int> upper_bounds_;  // Gup per graph
  std::vector<GraphId> sample_order_;  // fixed seeded permutation
  std::vector<char> sample_mask_;
  std::vector<std::optional<CachedSearch>> search_cache_;  // per graph
  mutable std::optional<int> upper_hint_;  // memoized UpperHint scan
  bool peeked_ = false;
  std::optional<ReplacementGroup> peek_;
  IncrementalStats stats_;
};

}  // namespace ustl

#endif  // USTL_GROUPING_INCREMENTAL_H_
