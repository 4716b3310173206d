// Tests for the fault-tolerance layer (PR "robustness"): cooperative
// cancellation primitives (common/cancel.h), the seeded fault injector
// (pipeline/fault_oracle.h) and the retry / circuit-breaker decorator
// (pipeline/retrying_oracle.h). The serving-level matrix —
// threads x fault plans x cancel points with byte-identity on survivors —
// lives in serve_test.cc; this file pins the building blocks.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "consolidate/oracle.h"
#include "obs/trace.h"
#include "pipeline/fault_oracle.h"
#include "pipeline/retrying_oracle.h"

namespace ustl {
namespace {

std::vector<StringPair> Question(const std::string& tag) {
  return {{tag + " Street", tag + " St"}};
}

// Records the `open` attr of every breaker_state event (single-threaded
// emitter).
class BreakerStateSink : public TraceSink {
 public:
  void Emit(const TraceSpan& span) override {
    if (span.name != "breaker_state") return;
    for (const auto& [key, value] : span.attrs) {
      if (key == "open") opens.push_back(value);
    }
  }
  std::vector<int64_t> opens;
};

// Counts calls; approves everything.
class CountingOracle : public VerificationOracle {
 public:
  Verdict Verify(const std::vector<StringPair>& group_pairs) override {
    (void)group_pairs;
    ++calls_;
    Verdict verdict;
    verdict.approved = true;
    return verdict;
  }
  size_t calls() const { return calls_; }

 private:
  size_t calls_ = 0;
};

TEST(CancelStateTest, FirstTripWinsAndSticks) {
  CancelState state;
  CancelToken token(&state);
  EXPECT_EQ(token.Poll(), RequestStatus::kOk);
  EXPECT_NO_THROW(token.Check());
  state.Cancel(RequestStatus::kCancelled);
  state.Cancel(RequestStatus::kDeadlineExceeded);  // loses: first wins
  EXPECT_EQ(token.Poll(), RequestStatus::kCancelled);
  try {
    token.Check();
    FAIL() << "Check() must throw once tripped";
  } catch (const CancelledError& error) {
    EXPECT_EQ(error.status(), RequestStatus::kCancelled);
  }
}

TEST(CancelStateTest, DeadlineLatchesOnPoll) {
  CancelState state;
  state.SetDeadlineMs(1);
  CancelToken token(&state);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(token.Poll(), RequestStatus::kDeadlineExceeded);
  // Latched: a later explicit Cancel cannot repaint the cause.
  state.Cancel(RequestStatus::kCancelled);
  EXPECT_EQ(token.Poll(), RequestStatus::kDeadlineExceeded);
}

TEST(CancelStateTest, DeadlineBeyondTheClockNeverTrips) {
  // Both overflow now + ms on the steady clock's nanosecond count; such a
  // deadline can never pass, so the request keeps working.
  for (int64_t ms : {int64_t{10'000'000'000'000},
                     std::numeric_limits<int64_t>::max()}) {
    CancelState state;
    state.SetDeadlineMs(ms);
    CancelToken token(&state);
    EXPECT_EQ(token.Poll(), RequestStatus::kOk) << ms;
    EXPECT_NO_THROW(token.Check());
  }
}

TEST(CancelTokenTest, DefaultTokenIsInert) {
  CancelToken token;
  EXPECT_FALSE(token.cancellable());
  EXPECT_EQ(token.Poll(), RequestStatus::kOk);
  EXPECT_NO_THROW(token.Check());
}

TEST(FaultPlanTest, SpecRoundTripsAndRejectsGarbage) {
  FaultPlan plan;
  plan.fault_rate = 0.25;
  plan.failures_per_question = 3;
  plan.slow_rate = 0.5;
  plan.slow_ms = 7;
  plan.seed = 99;
  Result<FaultPlan> parsed = FaultPlan::FromSpec(plan.ToSpec());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(parsed->fault_rate, 0.25);
  EXPECT_EQ(parsed->failures_per_question, 3);
  EXPECT_FALSE(parsed->persistent);
  EXPECT_DOUBLE_EQ(parsed->slow_rate, 0.5);
  EXPECT_EQ(parsed->slow_ms, 7);
  EXPECT_EQ(parsed->seed, 99u);

  FaultPlan persistent;
  persistent.fault_rate = 1.0;
  persistent.persistent = true;
  Result<FaultPlan> parsed_persistent =
      FaultPlan::FromSpec(persistent.ToSpec());
  ASSERT_TRUE(parsed_persistent.ok());
  EXPECT_TRUE(parsed_persistent->persistent);

  EXPECT_FALSE(FaultPlan::FromSpec("rate=1.5").ok());
  EXPECT_FALSE(FaultPlan::FromSpec("rate=abc").ok());
  EXPECT_FALSE(FaultPlan::FromSpec("bogus=1").ok());
  EXPECT_FALSE(FaultPlan::FromSpec("rate").ok());
}

TEST(FaultInjectingOracleTest, FaultScheduleIsPureFunctionOfPlanAndHash) {
  FaultPlan plan;
  plan.fault_rate = 0.5;
  plan.failures_per_question = 1;
  plan.seed = 7;
  // The set of questions that fault is identical across independent
  // instances (no wall-clock, no call-order dependence).
  auto faulted = [&](FaultInjectingOracle* oracle) {
    std::vector<bool> out;
    for (int i = 0; i < 20; ++i) {
      try {
        oracle->Verify(Question(std::to_string(i)));
        out.push_back(false);
      } catch (const InjectedOracleError&) {
        out.push_back(true);
      }
    }
    return out;
  };
  CountingOracle backend_a, backend_b;
  FaultInjectingOracle oracle_a(&backend_a, plan);
  FaultInjectingOracle oracle_b(&backend_b, plan);
  const std::vector<bool> first = faulted(&oracle_a);
  EXPECT_EQ(first, faulted(&oracle_b));
  EXPECT_GT(oracle_a.faults_injected(), 0u);
  // Transient: each faulty question succeeds after failures_per_question
  // throws.
  const std::vector<bool> second = faulted(&oracle_a);
  EXPECT_EQ(second, std::vector<bool>(20, false));
}

TEST(FaultInjectingOracleTest, PersistentPlanNeverRecovers) {
  FaultPlan plan;
  plan.fault_rate = 1.0;
  plan.persistent = true;
  CountingOracle backend;
  FaultInjectingOracle oracle(&backend, plan);
  for (int attempt = 0; attempt < 4; ++attempt) {
    EXPECT_THROW(oracle.Verify(Question("x")), InjectedOracleError);
  }
  EXPECT_EQ(backend.calls(), 0u);
}

TEST(RetryingOracleTest, RecoversTransientFaultsWithIdenticalVerdicts) {
  FaultPlan plan;
  plan.fault_rate = 0.5;
  plan.failures_per_question = 2;
  plan.seed = 11;
  CountingOracle clean_backend;
  CountingOracle faulty_backend;
  FaultInjectingOracle faulty(&faulty_backend, plan);
  RetryingOracle::Options options;
  options.max_attempts = 3;  // > failures_per_question: always recovers
  RetryingOracle retrying(&faulty, options);
  for (int i = 0; i < 20; ++i) {
    const Verdict clean = clean_backend.Verify(Question(std::to_string(i)));
    const Verdict healed = retrying.Verify(Question(std::to_string(i)));
    EXPECT_EQ(healed.approved, clean.approved);
    EXPECT_EQ(healed.direction, clean.direction);
  }
  RetryingOracleStats stats = retrying.stats();
  EXPECT_GT(stats.retries, 0u);
  EXPECT_GT(stats.recovered, 0u);
  EXPECT_EQ(stats.exhausted, 0u);
  EXPECT_EQ(stats.breaker_opens, 0u);
}

TEST(RetryingOracleTest, BreakerOpensDegradesAndProbesClosed) {
  FaultPlan plan;
  plan.fault_rate = 1.0;
  plan.persistent = true;
  CountingOracle backend;
  FaultInjectingOracle faulty(&backend, plan);
  RetryingOracle::Options options;
  options.max_attempts = 2;
  options.breaker_failure_threshold = 2;
  options.breaker_cooldown_calls = 3;
  RetryingOracle retrying(&faulty, options);
  BreakerStateSink sink;
  TraceContext trace(&sink, "breaker", SteadyNow());
  QuestionContext context;
  context.trace = &trace;

  // Two exhausted questions open the breaker: one breaker_state event.
  EXPECT_THROW(retrying.VerifyWithContext(Question("a"), context),
               InjectedOracleError);
  EXPECT_THROW(retrying.VerifyWithContext(Question("b"), context),
               InjectedOracleError);
  EXPECT_TRUE(retrying.breaker_open());
  ASSERT_EQ(sink.opens, std::vector<int64_t>{1});

  // While open the backend is never called: typed error, short-circuit.
  const size_t faults_before = faulty.faults_injected();
  EXPECT_THROW(retrying.VerifyWithContext(Question("c"), context),
               BreakerOpenError);
  EXPECT_THROW(retrying.VerifyWithContext(Question("d"), context),
               BreakerOpenError);
  EXPECT_EQ(faulty.faults_injected(), faults_before);
  RetryingOracleStats stats = retrying.stats();
  EXPECT_EQ(stats.breaker_opens, 1u);
  EXPECT_EQ(stats.short_circuits, 2u);

  // Third call while open is the probe; it reaches the (still failing)
  // backend and the breaker stays open, so no transition is reported.
  EXPECT_THROW(retrying.VerifyWithContext(Question("e"), context),
               InjectedOracleError);
  EXPECT_TRUE(retrying.breaker_open());
  EXPECT_GT(faulty.faults_injected(), faults_before);
  EXPECT_EQ(sink.opens, std::vector<int64_t>{1});
}

TEST(RetryingOracleTest, CancellationIsNeverRetried) {
  class CancelCheckingOracle : public VerificationOracle {
   public:
    explicit CancelCheckingOracle(CancelState* state) : state_(state) {}
    Verdict Verify(const std::vector<StringPair>& group_pairs) override {
      return VerifyWithContext(group_pairs, QuestionContext{});
    }
    Verdict VerifyWithContext(const std::vector<StringPair>&,
                              const QuestionContext&) override {
      ++calls_;
      CancelToken(state_).Check();
      Verdict verdict;
      verdict.approved = true;
      return verdict;
    }
    size_t calls_ = 0;

   private:
    CancelState* state_;
  };
  CancelState state;
  state.Cancel(RequestStatus::kCancelled);
  CancelCheckingOracle backend(&state);
  RetryingOracle::Options options;
  options.max_attempts = 5;
  RetryingOracle retrying(&backend, options);
  QuestionContext context;
  CancelToken token(&state);
  context.cancel = token;
  EXPECT_THROW(retrying.VerifyWithContext(Question("q"), context),
               CancelledError);
  // The pre-attempt checkpoint fired; the backend was never even called,
  // let alone retried.
  EXPECT_EQ(backend.calls_, 0u);
  EXPECT_EQ(retrying.stats().retries, 0u);
}

TEST(RetryingOracleTest, CancelledProbeLeavesTheNextCallToProbe) {
  // A probe that unwinds on cancellation has not tested the backend: the
  // breaker stays open and the next call probes instead of the breaker
  // short-circuiting every later call.
  class SwitchOracle : public VerificationOracle {
   public:
    Verdict Verify(const std::vector<StringPair>&) override {
      if (failing_) throw std::runtime_error("backend down");
      Verdict verdict;
      verdict.approved = true;
      return verdict;
    }
    bool failing_ = true;
  };
  SwitchOracle backend;
  RetryingOracle::Options options;
  options.max_attempts = 1;
  options.breaker_failure_threshold = 1;
  options.breaker_cooldown_calls = 1;  // every call while open probes
  RetryingOracle retrying(&backend, options);
  EXPECT_THROW(retrying.Verify(Question("a")), std::runtime_error);
  ASSERT_TRUE(retrying.breaker_open());

  CancelState state;
  state.Cancel(RequestStatus::kDeadlineExceeded);
  QuestionContext context;
  context.cancel = CancelToken(&state);
  EXPECT_THROW(retrying.VerifyWithContext(Question("b"), context),
               CancelledError);
  EXPECT_TRUE(retrying.breaker_open());

  backend.failing_ = false;
  EXPECT_TRUE(retrying.Verify(Question("c")).approved);
  EXPECT_FALSE(retrying.breaker_open());
  EXPECT_EQ(retrying.stats().short_circuits, 0u);
}

}  // namespace
}  // namespace ustl
