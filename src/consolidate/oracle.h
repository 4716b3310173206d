// Human verification (Section 3 step 3). The human browses a group's value
// pairs and approves or rejects the group as a whole, picking a replacement
// direction on approval; they are "not required to exhaustively check all
// pairs" and may make occasional mistakes — the SimulatedOracle models both
// via a sampled approval threshold and an injected error rate.
//
// Order-independence contract: a verdict must be a pure function of the
// question content (the pair list presented). The column-parallel pipeline
// (src/pipeline/) presents questions in a scheduling-dependent order and
// caches verdicts by content, so any oracle whose answer depends on *when*
// a question is asked would make results depend on thread timing.
// SimulatedOracle honors the contract by seeding its sampling and
// error-injection RNG from a hash of the question itself (plus the
// configured seed) instead of drawing from one sequential stream — asking
// the same question twice, or in any order, yields the same verdict.
#ifndef USTL_CONSOLIDATE_ORACLE_H_
#define USTL_CONSOLIDATE_ORACLE_H_

#include <functional>
#include <string_view>
#include <vector>

#include "common/cancel.h"
#include "common/random.h"
#include "grouping/group.h"

namespace ustl {

class TraceContext;  // obs/trace.h

/// The direction the expert chooses for an approved group.
enum class ReplaceDirection { kLhsToRhs, kRhsToLhs };

struct Verdict {
  bool approved = false;
  ReplaceDirection direction = ReplaceDirection::kLhsToRhs;
};

/// Side information about a presented group. Not part of the question the
/// human answers (they only see the pairs) — it lets brokers and logs
/// attribute verdicts: the pivot program is what a replay log persists and
/// the column scopes it (see pipeline/oracle_broker.h). Both views may be
/// empty (e.g. the Single baseline has no pivot program).
struct QuestionContext {
  std::string_view column;
  std::string_view program;
  /// 1-based presentation index within the column (0 = unknown). Lets a
  /// broker order its replay log by presentation rank even when columns
  /// share a name, independent of scheduling.
  size_t presented = 0;
  /// Cancellation token of the asking request (common/cancel.h; inert by
  /// default). Brokers use it to unwind a cancelled waiter in bounded
  /// time; it never influences a verdict — verdicts stay pure functions
  /// of the pair list.
  CancelToken cancel;
  /// Per-request trace (obs/trace.h; null = untraced). Observability
  /// only: brokers/decorators open oracle_call spans and record
  /// oracle_retry / breaker_state events against it under
  /// `trace_parent` (the asking column span), which attributes them to
  /// the asking request. Never part of the question content — verdicts
  /// stay pure functions of the pair list, so traced and untraced runs
  /// are byte-identical.
  TraceContext* trace = nullptr;
  uint64_t trace_parent = 0;
};

/// Interface the framework consults once per presented group. Callers
/// never invoke it concurrently (the column-parallel pipeline's broker
/// lets one asking thread at a time call its backend), so implementations
/// need not be thread-safe.
class VerificationOracle {
 public:
  virtual ~VerificationOracle() = default;
  virtual Verdict Verify(const std::vector<StringPair>& group_pairs) = 0;
  /// Verify with attribution context. Default ignores the context; brokers
  /// override it to key caches and build replay logs.
  virtual Verdict VerifyWithContext(const std::vector<StringPair>& group_pairs,
                                    const QuestionContext& context) {
    (void)context;
    return Verify(group_pairs);
  }
};

/// Hash of a question's content (the pair list), used to derive
/// SimulatedOracle's per-question RNG seeds (the broker's verdict cache
/// keys by full content instead — see pipeline/oracle_broker.cc).
/// FNV-1a over every lhs/rhs length-prefixed, so field boundaries are
/// unambiguous for arbitrary byte content.
uint64_t HashQuestion(const std::vector<StringPair>& group_pairs);

/// A simulated expert backed by dataset ground truth.
class SimulatedOracle : public VerificationOracle {
 public:
  /// True iff the pair is a genuine variant pair (same logical value).
  using VariantJudge = std::function<bool(const StringPair&)>;
  /// Preference for the canonical side: > 0 replace lhs by rhs, < 0 the
  /// other way, 0 no preference. May be null (defaults to lhs -> rhs).
  using DirectionJudge = std::function<int(const StringPair&)>;

  struct Options {
    /// Approve when at least this fraction of inspected pairs are genuine.
    double approve_threshold = 0.8;
    /// The human inspects at most this many pairs per group (sampled
    /// deterministically from the question hash), mirroring non-exhaustive
    /// checking.
    size_t max_inspected = 20;
    /// Probability of flipping a verdict (human mistakes; Section 3 claims
    /// robustness to small numbers of errors, exercised in tests). Error
    /// draws are a pure function of (seed, question), not a shared
    /// sequential stream: the same group gets the same flip regardless of
    /// how many questions preceded it — the order-independence contract
    /// the column-parallel pipeline relies on.
    double error_rate = 0.0;
    uint64_t seed = 42;
  };

  SimulatedOracle(VariantJudge variant_judge, DirectionJudge direction_judge,
                  Options options);

  Verdict Verify(const std::vector<StringPair>& group_pairs) override;

  size_t questions_asked() const { return questions_asked_; }

 private:
  VariantJudge variant_judge_;
  DirectionJudge direction_judge_;
  Options options_;
  size_t questions_asked_ = 0;
};

/// An oracle that approves everything lhs -> rhs; useful as a baseline
/// ("apply transformations blindly") and in tests.
class ApproveAllOracle : public VerificationOracle {
 public:
  Verdict Verify(const std::vector<StringPair>& group_pairs) override;
};

}  // namespace ustl

#endif  // USTL_CONSOLIDATE_ORACLE_H_
