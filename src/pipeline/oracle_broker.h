// A broker that sits between the consolidation framework and any
// VerificationOracle. Column jobs running concurrently on the scheduler
// (pipeline.h) all funnel their questions through one broker, which
//
//   * deduplicates: verdicts are cached by question content — the pivot
//     program plus the presented pair list, digested into the same
//     128-bit dual-FNV key the search cache uses (one batched pass over
//     the pair list; no per-question key string is materialized) — so a
//     group that shows up in several columns (or again after a replay)
//     costs one oracle call;
//   * takes turns: an asker that misses the cache waits until no backend
//     call is in flight, then calls the backend itself, on its own thread.
//     The backend is never invoked concurrently, and each call (with its
//     oracle_call span and CPU) stays on the request that asked it;
//   * logs: every approved verdict with a parseable pivot program is
//     recorded as an ApprovedTransformation. The log is deduplicated and
//     grouped by column (keeping each column's presentation order), so it
//     is byte-identical no matter how the scheduler interleaved the
//     columns — deterministic replay through src/consolidate/replay.h.
//
// Correctness under reordering relies on the oracle order-independence
// contract (consolidate/oracle.h): a cached verdict equals the verdict a
// fresh call would return, so caching and turn order change only *how
// many* questions the backend sees, never a single output byte.
#ifndef USTL_PIPELINE_ORACLE_BROKER_H_
#define USTL_PIPELINE_ORACLE_BROKER_H_

#include <condition_variable>
#include <cstddef>
#include <list>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "consolidate/oracle.h"
#include "consolidate/replay.h"
#include "grouping/search_cache.h"

namespace ustl {

/// Counters for the bench harnesses and the CLI summary. `questions` is
/// what the framework asked, `backend_calls` what the human actually
/// answered; the gap is `cache_hits`.
struct OracleBrokerStats {
  size_t questions = 0;
  size_t backend_calls = 0;
  size_t cache_hits = 0;
  /// Verdicts dropped by the LRU bound (Options::max_cache_entries). An
  /// evicted question re-asks the backend on its next appearance; the
  /// order-independence contract keeps the re-asked verdict identical.
  size_t evictions = 0;
  /// Askers waiting for the backend turn at the stats() snapshot — an
  /// instantaneous depth, not a counter. Nonzero in a flight-recorder
  /// dump means requests were blocked on the oracle when it fired.
  size_t pending = 0;
};

/// One cached verdict in durable form: the 128-bit content key plus the
/// verdict itself. Re-seeding a broker with it skips the backend call a
/// fresh ask would have made — and, by the order-independence contract,
/// changes nothing else.
struct DurableVerdict {
  SearchCacheKey key;
  Verdict verdict;
};

/// One approved-log record in raw (pre-parse) form: exactly the broker's
/// internal (column, program, direction) -> (rank, member pairs) entry,
/// so restore rebuilds the log byte-identically without re-parsing
/// programs.
struct DurableApproved {
  std::string column;
  std::string program;
  ReplaceDirection direction = ReplaceDirection::kLhsToRhs;
  uint64_t rank = 0;
  std::vector<StringPair> pairs;
};

/// A broker's complete warm state in replayable form. Verdicts are
/// ordered least-recently-used first so that restoring them one by one
/// through the normal insert path reproduces the LRU order; approved
/// records are in the log's deterministic map order.
struct OracleDurableState {
  std::vector<DurableVerdict> verdicts;
  std::vector<DurableApproved> approved;
};

/// Durability hook: invoked under the broker mutex whenever NEW warm
/// state is created — a verdict inserted into the cache, an approved
/// record inserted (or tie-break-updated) in the log. Cache hits and
/// duplicate records do not fire. Implementations must not call back
/// into the broker (the mutex is held) and should be fast: an append to
/// a WAL, not a snapshot.
class OracleDurabilityListener {
 public:
  virtual ~OracleDurabilityListener() = default;
  virtual void OnVerdictCached(const DurableVerdict& verdict) = 0;
  virtual void OnApprovedRecorded(const DurableApproved& approved) = 0;
};

class OracleBroker : public VerificationOracle {
 public:
  struct Options {
    /// Cache verdicts by question content. Off = every question reaches
    /// the backend (the broker still takes turns and builds the log).
    bool cache_verdicts = true;
    /// Upper bound on cached verdicts; least-recently-used entries are
    /// evicted past it (stats().evictions counts them). 0 = unbounded —
    /// fine for one-shot pipeline runs, but a long-lived service fronting
    /// endless requests should set a bound so the cache cannot grow
    /// without limit. Eviction only ever costs a repeat question, never a
    /// changed verdict (order-independence contract, consolidate/oracle.h).
    size_t max_cache_entries = 0;
  };

  /// `backend` must outlive the broker. The broker never calls it
  /// concurrently, so the backend need not be thread-safe.
  explicit OracleBroker(VerificationOracle* backend);
  OracleBroker(VerificationOracle* backend, Options options);

  /// Context-free entry (VerificationOracle interface): cache key is the
  /// pair list alone and nothing is logged (no program to persist).
  Verdict Verify(const std::vector<StringPair>& group_pairs) override;

  /// The framework's entry: context supplies the pivot program (cache key
  /// component + replay-log payload) and the column name (log scope).
  Verdict VerifyWithContext(const std::vector<StringPair>& group_pairs,
                            const QuestionContext& context) override;

  OracleBrokerStats stats() const;

  /// The approved transformations seen so far, grouped by column with
  /// each column's entries in its presentation order (largest group first
  /// — replaying in that order reproduces the live session's tie-breaks)
  /// and carrying the member pairs the session applied, so a same-data
  /// replay is byte-faithful; entries whose program does not parse
  /// (display-only programs, context-free questions) are dropped. Feed to
  /// SerializeTransformationLog / ReplayTransformations (replay.h).
  std::vector<ApprovedTransformation> ApprovedLog() const;

  /// ApprovedLog() in the replay.h text form.
  std::string SerializeApprovedLog() const;

  /// Attaches (or detaches, with nullptr) the durability listener. Attach
  /// AFTER RestoreDurableState so recovered records are not re-appended
  /// to their own log; detach before the listener is destroyed.
  void SetDurabilityListener(OracleDurabilityListener* listener);

  /// Re-seeds the cache and approved log from a previously exported (or
  /// WAL-replayed) state, through the normal insert paths: duplicates are
  /// skipped, log collisions take the deterministic tie-break, the LRU
  /// bound applies. Does not fire the durability listener and does not
  /// touch stats — recovered state is warmth, not traffic. Call before
  /// the first question.
  void RestoreDurableState(const OracleDurableState& state);

  /// The broker's current warm state in restorable form (see
  /// OracleDurableState ordering guarantees). Safe to call concurrently
  /// with traffic; the export is a consistent point-in-time copy.
  OracleDurableState ExportDurableState() const;

 private:
  /// Log key: one entry per distinct approved (column, program,
  /// direction) — replay.h semantics, where the column *name* scopes a
  /// transformation.
  using LogKey = std::tuple<std::string, std::string, ReplaceDirection>;

  /// Requires mutex_. Records an approved verdict for the log, with the
  /// presented member pairs (the replay payload).
  void RecordVerdict(const QuestionContext& context,
                     const std::vector<StringPair>& pairs,
                     const Verdict& verdict);

  /// Requires mutex_. Cache lookup that refreshes the entry's LRU
  /// position; null on a miss.
  const Verdict* CacheFind(const SearchCacheKey& key);
  /// Requires mutex_. Inserts a fresh verdict and evicts the
  /// least-recently-used entries past the configured bound.
  void CacheInsert(const SearchCacheKey& key, const Verdict& verdict);

  /// One cached verdict plus its position in the recency list.
  struct CacheEntry {
    Verdict verdict;
    std::list<SearchCacheKey>::iterator recency;
  };

  VerificationOracle* backend_;
  Options options_;
  mutable std::mutex mutex_;
  /// The turn: calling_ is true while one asker is inside the backend
  /// call; waiting_ askers (stats().pending) block on turn_cv_ until it
  /// clears.
  bool calling_ = false;
  size_t waiting_ = 0;
  std::condition_variable turn_cv_;
  std::unordered_map<SearchCacheKey, CacheEntry, SearchCacheKeyHash> cache_;
  /// Cache keys, most recently used first; entries point into it.
  std::list<SearchCacheKey> recency_;
  OracleBrokerStats stats_;
  /// Durability hook (null = no persistence). Fired under mutex_ on new
  /// cache inserts and new/updated log records.
  OracleDurabilityListener* durability_ = nullptr;
  /// Approved records: per (column, program, direction), one entry per
  /// presentation rank it was approved at, carrying the member pairs the
  /// session applied. Keeping every rank (not just the best) is what lets
  /// replay re-apply a twice-approved group at both points, interleaved
  /// edits and all. Scheduling decides only *when* a record is inserted —
  /// the (key, rank) set is schedule-independent, and a same-rank
  /// collision across same-named columns keeps the lexicographically
  /// smaller pair list, which is what makes ApprovedLog deterministic.
  std::map<LogKey, std::map<size_t, std::vector<StringPair>>> log_;
};

}  // namespace ustl

#endif  // USTL_PIPELINE_ORACLE_BROKER_H_
