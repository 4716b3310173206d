// A retry/circuit-breaker decorator for oracle backends. Sits between the
// OracleBroker and a flaky backend (human UI gateway, RPC,
// FaultInjectingOracle in tests) and turns transient failures into
// bounded retries:
//
//   * bounded retries — a failing question is re-asked up to
//     max_attempts times; the verdict of an eventually-successful attempt
//     is byte-identical to a never-failing backend's (verdicts are pure
//     functions of question content), so retries never change output;
//   * circuit breaker — too many consecutive exhausted questions flip
//     the breaker open, and while open the backend is not called at all:
//     the question fails with a typed BreakerOpenError. Only the asking
//     request fails — the broker hands the error to that request and
//     keeps serving, and a question the broker answered before is a
//     cache hit that never reaches this decorator (degradation order:
//     broker cache → backend → retries → typed failure). The
//     breaker_cooldown_calls-th call while open is a probe: one real
//     backend call, after which success closes the breaker and failure
//     starts another cooldown. Cooldown is counted in calls, not seconds,
//     so breaker behavior is reproducible in tests.
#ifndef USTL_PIPELINE_RETRYING_ORACLE_H_
#define USTL_PIPELINE_RETRYING_ORACLE_H_

#include <cstdint>
#include <mutex>
#include <stdexcept>

#include "common/status.h"
#include "consolidate/oracle.h"

namespace ustl {

/// Thrown when the breaker is open and the call is not the probe.
class BreakerOpenError : public std::runtime_error {
 public:
  BreakerOpenError() : std::runtime_error("oracle circuit breaker open") {}
};

struct RetryingOracleStats {
  /// Re-asks after a failed attempt (attempt 2..N of some question).
  size_t retries = 0;
  /// Questions whose verdict arrived only after >= 1 retry.
  size_t recovered = 0;
  /// Questions that exhausted every attempt and failed.
  size_t exhausted = 0;
  /// Closed -> open transitions.
  size_t breaker_opens = 0;
  /// Calls failed with BreakerOpenError without touching the backend.
  size_t short_circuits = 0;
};

class RetryingOracle : public VerificationOracle {
 public:
  /// Each retry and breaker transition is reported once: as a point
  /// event on the asking question's trace (QuestionContext::trace, under
  /// trace_parent) — oracle_retry with the failed attempt's number,
  /// breaker_state with open 1 or 0 — and in stats().
  struct Options {
    /// Total attempts per question (1 = no retry).
    int max_attempts = 3;
    /// Consecutive exhausted questions that open the breaker. 0 disables
    /// the breaker entirely.
    size_t breaker_failure_threshold = 5;
    /// Calls while open up to and including the probe: the first
    /// cooldown - 1 short-circuit, the next one probes the backend.
    size_t breaker_cooldown_calls = 16;
  };

  RetryingOracle(VerificationOracle* backend, Options options)
      : backend_(backend), options_(options) {
    USTL_CHECK(backend_ != nullptr);
    USTL_CHECK(options_.max_attempts >= 1);
  }

  Verdict Verify(const std::vector<StringPair>& group_pairs) override {
    return VerifyWithContext(group_pairs, QuestionContext{});
  }
  Verdict VerifyWithContext(const std::vector<StringPair>& group_pairs,
                            const QuestionContext& context) override;

  RetryingOracleStats stats() const;
  /// True from the opening failure until a successful call closes it,
  /// probes included.
  bool breaker_open() const;

 private:
  VerificationOracle* backend_;
  Options options_;
  /// Guards the state below: stats() and breaker_open() are read from
  /// the metrics collector and flight dumps on other threads.
  mutable std::mutex mutex_;
  RetryingOracleStats stats_;
  bool open_ = false;
  size_t consecutive_exhausted_ = 0;
  size_t open_calls_ = 0;  // calls since the breaker (re)opened
};

}  // namespace ustl

#endif  // USTL_PIPELINE_RETRYING_ORACLE_H_
