#include "pipeline/oracle_broker.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <tuple>

#include "dsl/parser.h"
#include "obs/trace.h"

namespace ustl {

namespace {

// Cache-hit attribution on the asking request's trace (obs/trace.h).
// Pure observability: emitted after the verdict is already decided, so
// traced and untraced runs ask the backend the same questions.
void TraceCacheHit(const QuestionContext& context) {
  if (context.trace == nullptr) return;
  context.trace->Event(
      context.trace_parent, "oracle_cache_hit", std::string(context.column),
      {{"presented", static_cast<int64_t>(context.presented)}});
}

// Content key for the verdict cache: pivot program and the full pair
// list, each field length-prefixed so values with arbitrary bytes (quoted
// CSV fields) keep unambiguous boundaries, digested into the shared
// 128-bit dual-FNV SearchCacheKey in one batched pass. Two independent
// 64-bit streams make an accidental collision across distinct questions
// astronomically unlikely, and the cache never copies question bytes —
// a key is 16 bytes regardless of group size.
SearchCacheKey CacheKey(std::string_view program,
                        const std::vector<StringPair>& pairs) {
  SearchKeyHasher hasher;
  hasher.Str(program);
  hasher.Pairs(pairs);
  return hasher.Finish();
}

}  // namespace

OracleBroker::OracleBroker(VerificationOracle* backend)
    : OracleBroker(backend, Options()) {}

OracleBroker::OracleBroker(VerificationOracle* backend, Options options)
    : backend_(backend), options_(options) {
  USTL_CHECK(backend_ != nullptr);
}

Verdict OracleBroker::Verify(const std::vector<StringPair>& group_pairs) {
  return VerifyWithContext(group_pairs, QuestionContext{});
}

Verdict OracleBroker::VerifyWithContext(
    const std::vector<StringPair>& group_pairs,
    const QuestionContext& context) {
  SearchCacheKey key;
  if (options_.cache_verdicts) key = CacheKey(context.program, group_pairs);

  std::unique_lock<std::mutex> lock(mutex_);
  // Entry checkpoint: a cancelled request never waits for the turn.
  context.cancel.Check();
  ++stats_.questions;
  // Wait until no backend call is in flight. Every pass re-reads the
  // cache, so a same-key twin answered while we waited serves us too. A
  // cancellable waiter wakes every 10 ms and unwinds once its token trips,
  // without ever reaching the backend.
  while (true) {
    if (options_.cache_verdicts) {
      if (const Verdict* verdict = CacheFind(key)) {
        ++stats_.cache_hits;
        TraceCacheHit(context);
        RecordVerdict(context, group_pairs, *verdict);
        return *verdict;
      }
    }
    if (!calling_) break;
    ++waiting_;
    if (context.cancel.cancellable()) {
      turn_cv_.wait_for(lock, std::chrono::milliseconds(10));
    } else {
      turn_cv_.wait(lock);
    }
    --waiting_;
    context.cancel.Check();
  }

  // Our turn: call the backend on this thread with the lock dropped, so
  // other askers can still hit the cache or queue for the next turn.
  ScopedSpan call_span(context.trace, context.trace_parent, "oracle_call",
                       std::string(context.column));
  call_span.AddAttr("presented", static_cast<int64_t>(context.presented));
  calling_ = true;
  lock.unlock();
  Verdict verdict;
  std::exception_ptr backend_error;
  try {
    verdict = backend_->VerifyWithContext(group_pairs, context);
  } catch (...) {
    backend_error = std::current_exception();
  }
  call_span.End();
  lock.lock();
  // Hand the turn on before any cache or log write, so a throwing insert
  // cannot strand it.
  calling_ = false;
  turn_cv_.notify_all();
  // A backend failure (retries exhausted, breaker open, cancellation
  // thrown mid-call) fails only this asker and writes no cache or log
  // entry: neither ever holds partial state from a failed question.
  if (backend_error != nullptr) std::rethrow_exception(backend_error);
  ++stats_.backend_calls;
  if (options_.cache_verdicts) CacheInsert(key, verdict);
  RecordVerdict(context, group_pairs, verdict);
  return verdict;
}

const Verdict* OracleBroker::CacheFind(const SearchCacheKey& key) {
  auto it = cache_.find(key);
  if (it == cache_.end()) return nullptr;
  // Refresh recency: splice moves the node without invalidating the
  // iterator stored in the entry.
  recency_.splice(recency_.begin(), recency_, it->second.recency);
  return &it->second.verdict;
}

void OracleBroker::CacheInsert(const SearchCacheKey& key,
                               const Verdict& verdict) {
  recency_.push_front(key);
  CacheEntry entry;
  entry.verdict = verdict;
  entry.recency = recency_.begin();
  cache_.emplace(key, std::move(entry));
  if (durability_ != nullptr) {
    durability_->OnVerdictCached(DurableVerdict{key, verdict});
  }
  if (options_.max_cache_entries == 0) return;
  while (cache_.size() > options_.max_cache_entries) {
    cache_.erase(recency_.back());
    recency_.pop_back();
    ++stats_.evictions;
  }
}

void OracleBroker::RecordVerdict(const QuestionContext& context,
                                 const std::vector<StringPair>& pairs,
                                 const Verdict& verdict) {
  if (!verdict.approved || context.program.empty()) return;
  LogKey key(std::string(context.column), std::string(context.program),
             verdict.direction);
  auto& ranks = log_[key];
  auto [it, inserted] = ranks.emplace(context.presented, pairs);
  bool updated = false;
  if (!inserted && pairs < it->second) {
    // Same-named columns can approve the same key at the same rank with
    // different member lists; a deterministic tie-break keeps the log
    // schedule-independent.
    it->second = pairs;
    updated = true;
  }
  if ((inserted || updated) && durability_ != nullptr) {
    // A tie-break update re-appends the record; restore applies the same
    // tie-break, so the duplicate converges to the same entry.
    DurableApproved record;
    record.column = std::get<0>(key);
    record.program = std::get<1>(key);
    record.direction = std::get<2>(key);
    record.rank = it->first;
    record.pairs = it->second;
    durability_->OnApprovedRecorded(record);
  }
}

void OracleBroker::SetDurabilityListener(OracleDurabilityListener* listener) {
  std::lock_guard<std::mutex> lock(mutex_);
  durability_ = listener;
}

void OracleBroker::RestoreDurableState(const OracleDurableState& state) {
  std::lock_guard<std::mutex> lock(mutex_);
  OracleDurabilityListener* saved = durability_;
  durability_ = nullptr;  // restore never re-appends to its own log
  if (options_.cache_verdicts) {
    for (const DurableVerdict& verdict : state.verdicts) {
      // A duplicate key (a WAL not yet compacted after its snapshot
      // landed) restores once; the entry contents are identical by the
      // order-independence contract.
      if (cache_.find(verdict.key) != cache_.end()) continue;
      CacheInsert(verdict.key, verdict.verdict);
    }
  }
  for (const DurableApproved& approved : state.approved) {
    LogKey key(approved.column, approved.program, approved.direction);
    auto& ranks = log_[std::move(key)];
    auto [it, inserted] =
        ranks.emplace(static_cast<size_t>(approved.rank), approved.pairs);
    if (!inserted && approved.pairs < it->second) {
      it->second = approved.pairs;
    }
  }
  durability_ = saved;
}

OracleDurableState OracleBroker::ExportDurableState() const {
  std::lock_guard<std::mutex> lock(mutex_);
  OracleDurableState state;
  state.verdicts.reserve(cache_.size());
  // Least-recently-used first: restore pushes each entry to the recency
  // front, so replaying this order rebuilds the exact LRU order.
  for (auto it = recency_.rbegin(); it != recency_.rend(); ++it) {
    auto found = cache_.find(*it);
    if (found == cache_.end()) continue;
    state.verdicts.push_back(DurableVerdict{*it, found->second.verdict});
  }
  for (const auto& [key, ranks] : log_) {
    for (const auto& [rank, pairs] : ranks) {
      DurableApproved record;
      record.column = std::get<0>(key);
      record.program = std::get<1>(key);
      record.direction = std::get<2>(key);
      record.rank = rank;
      record.pairs = pairs;
      state.approved.push_back(std::move(record));
    }
  }
  return state;
}

OracleBrokerStats OracleBroker::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  OracleBrokerStats out = stats_;
  out.pending = waiting_;
  return out;
}

std::vector<ApprovedTransformation> OracleBroker::ApprovedLog() const {
  struct Record {
    LogKey key;
    size_t rank;
    std::vector<StringPair> pairs;
  };
  std::vector<Record> records;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [key, ranks] : log_) {
      for (const auto& [rank, pairs] : ranks) {
        records.push_back(Record{key, rank, pairs});
      }
    }
  }
  // Per column, order entries by presentation rank: the session approved
  // big groups first, and a replay must re-apply them first to reproduce
  // the session's tie-breaks. Rank ties (possible only across same-named
  // columns) fall back to the key, so the log is deterministic either
  // way.
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) {
              const std::string& a_column = std::get<0>(a.key);
              const std::string& b_column = std::get<0>(b.key);
              if (a_column != b_column) return a_column < b_column;
              if (a.rank != b.rank) return a.rank < b.rank;
              return a.key < b.key;
            });
  std::vector<ApprovedTransformation> out;
  out.reserve(records.size());
  for (Record& record : records) {
    Result<Program> program = ParseProgram(std::get<1>(record.key));
    if (!program.ok()) continue;  // display-only program; skip
    ApprovedTransformation transformation;
    transformation.column = std::get<0>(record.key);
    transformation.program = std::move(program).value();
    transformation.direction = std::get<2>(record.key);
    transformation.pairs = std::move(record.pairs);
    out.push_back(std::move(transformation));
  }
  return out;
}

std::string OracleBroker::SerializeApprovedLog() const {
  return SerializeTransformationLog(ApprovedLog());
}

}  // namespace ustl
