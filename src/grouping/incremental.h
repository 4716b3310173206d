// Incremental (top-k) grouping over one GraphSet (Algorithms 5-7). Each
// Next()/Peek() produces the largest remaining group without partitioning
// everything upfront: graphs carry lower bounds Glo (count of a known
// transformation path through them) and upper bounds Gup (Lemma 6.2, from
// inverted-list lengths of covering edges); graphs are visited in
// descending upper-bound order and the scan stops as soon as no unvisited
// graph can beat the best group found.
//
// Parallel wave scan (exact mode): a pivot search's outcome — the
// canonical first-found maximal path, its count and members — does not
// depend on the threshold it was asked to beat or the Glo state it pruned
// under (valid bounds only skip subtrees that cannot contain a maximal
// path; see pivot_search.h). FillPeek exploits that: it resolves the
// descending-Gup order in waves on the thread pool, every wave searching
// against the wave-start threshold and a private Glo snapshot, then
// REPLAYS the results in scan order with the serial update rules — found
// iff the count beats the evolved running best, the same Gup/Glo writes,
// the same stop point. Results a serial scan would never have computed
// are discarded (their bound updates never land), so the engine's
// cross-round state is byte-identical for every wave size and thread
// count; the speculative searches cost only expansion statistics — and
// warm the result cache below.
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
// (IncrementalOptions::shared_cache, grouping/search_cache.h); wave
// widths are sized adaptively from the observed speculation hit rate
// (IncrementalOptions::adaptive_wave_sizing).
//
// Both accelerations apply in exact mode only. Sampling (Appendix E)
// re-counts against a fresh mask every round, and finite expansion
// budgets make results depend on how much the previous searches spent —
// those configurations keep the documented lazy serial scan.
//
// Deviation from the paper (see DESIGN.md): Algorithm 7 initializes the
// pruning threshold to tau (the largest lower bound), which misses a
// largest group of size exactly tau; we use tau - 1.
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
  /// Adaptive wave sizing for the exact-mode wave scan. The wave width
  /// defaults to the pool width, which speculates past the serial stop
  /// point even on hardware that cannot run the wave concurrently (a
  /// 1-hardware-thread box pays DFS expansions for results nobody may
  /// ever consult). With this on, waves start at the pool width (trust
  /// speculation until measured) and are then re-sized each round to
  /// base + hit_rate * (pool - base), where base = min(pool width,
  /// hardware threads) is the genuinely concurrent width and hit_rate is
  /// the observed fraction of speculative searches whose results later
  /// became cache hits (those searches were free). Output is
  /// byte-identical for any wave size, so this knob moves statistics
  /// only. No effect when the pool width is 1 or in non-exact modes.
  bool adaptive_wave_sizing = true;
  /// Cross-engine warm start (see grouping/search_cache.h): a borrowed
  /// shared cache plus this engine's content key. When the key is valid
  /// and exact mode applies (reuse on, no sampling, unlimited budgets),
  /// the engine seeds its per-graph search cache from previously
  /// published epoch-0 results of an identical-content engine and
  /// publishes its own epoch-0 results back. Byte-identical warm or
  /// cold; the cache must outlive the engine.
  SearchResultCache* shared_cache = nullptr;
  SearchCacheKey shared_cache_key;
  /// Cooperative cancellation (common/cancel.h): the scan loops call
  /// Check() at their heads — on the driver thread and between waves, so
  /// a tripped token unwinds within one wave of searches. An unwound
  /// engine is abandoned by its request; nothing partial is published to
  /// the shared cache (only complete per-graph results ever are).
  CancelToken cancel;
  /// Per-request trace (obs/trace.h; null = untraced): the wave scan
  /// opens one search_wave span per wave under `trace_parent` carrying
  /// the wave's width/hit counters. Statistics only — wave sizing,
  /// replay and reuse never read the trace, so output is byte-identical
  /// traced or not.
  TraceContext* trace = nullptr;
  uint64_t trace_parent = 0;
};

struct IncrementalStats {
  uint64_t expansions = 0;
  uint64_t searches = 0;
  /// Searches avoided by cross-round result reuse: rounds that resolved a
  /// graph from a still-valid cached pivot instead of running its DFS.
  uint64_t cache_hits = 0;
  /// Wave searches the lazy serial scan would have skipped (they ran past
  /// the point the replay stopped at). Pure speculation cost — their
  /// results still land in the reuse cache.
  uint64_t speculative_searches = 0;
  /// Speculative searches whose stored result later served a cache hit:
  /// speculation that retroactively became free. Each speculative search
  /// is counted at most once (the entry's flag clears on its first hit),
  /// so the ratio to speculative_searches — which drives adaptive wave
  /// sizing — is a true fraction in [0, 1].
  uint64_t speculative_hits = 0;
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
  /// wave scan; output is byte-identical for any pool / thread count.
  /// Calls issued from one of the pool's own worker threads degrade to
  /// the serial scan (nested ParallelFor runs inline).
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
    /// Stored by wave speculation past the serial stop point; a later hit
    /// on it proves the speculation was free (adaptive wave sizing).
    bool speculative = false;
  };

  void InitUpperBounds();
  void FillPeek();
  /// The legacy strictly-serial threshold scan, used whenever exact mode
  /// is off (sampling or finite budgets).
  void SerialScan(const std::vector<GraphId>& order, bool sampling,
                  int best_count, PivotSearcher::SearchResult* best);
  /// Exact-mode scan: waves + serial replay + result reuse.
  void WaveScan(const std::vector<GraphId>& order, int best_count,
                PivotSearcher::SearchResult* best);
  /// Copies a still-valid cached pivot of `g` into `*out` (found = true)
  /// and reports where the entry came from via the optional flags.
  /// Returns false (and drops stale entries) otherwise.
  bool CacheLookup(GraphId g, PivotSearcher::SearchResult* out,
                   bool* warm = nullptr, bool* speculative = nullptr);
  /// `speculative` marks results the serial scan would not have computed
  /// this round. Epoch-0 results are also published to the shared
  /// cross-engine cache when one is configured.
  void CacheStore(GraphId g, const PivotSearcher::SearchResult& result,
                  bool speculative);
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
