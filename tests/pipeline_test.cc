// Tests for src/pipeline: OracleBroker cache/dedup/turn semantics, the
// deterministic replay log (round-trip through consolidate/replay.h), the
// column-parallel bit-identity contract of the ColumnScheduler, and the
// serialized progress-callback guarantee.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "consolidate/framework.h"
#include "consolidate/oracle.h"
#include "consolidate/replay.h"
#include "pipeline/oracle_broker.h"
#include "pipeline/pipeline.h"

namespace ustl {
namespace {

// A backend that counts calls and answers everything the same way.
class CountingOracle : public VerificationOracle {
 public:
  explicit CountingOracle(bool approve = true) { verdict_.approved = approve; }

  Verdict Verify(const std::vector<StringPair>& group_pairs) override {
    (void)group_pairs;
    ++calls_;
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    return verdict_;
  }

  void set_delay(std::chrono::milliseconds delay) { delay_ = delay; }
  size_t calls() const { return calls_; }

 private:
  Verdict verdict_;
  std::atomic<size_t> calls_{0};
  std::chrono::milliseconds delay_{0};
};

std::vector<StringPair> Question(const std::string& tag) {
  return {{tag + " Street", tag + " St"}, {tag + " Avenue", tag + " Ave"}};
}

TEST(OracleBrokerTest, CachesRepeatedQuestions) {
  CountingOracle backend;
  OracleBroker broker(&backend);
  QuestionContext context;
  context.column = "addr";
  context.program = "ConstantStr(\"x\")";
  Verdict first = broker.VerifyWithContext(Question("9"), context);
  Verdict again = broker.VerifyWithContext(Question("9"), context);
  Verdict third = broker.VerifyWithContext(Question("9"), context);
  EXPECT_TRUE(first.approved);
  EXPECT_EQ(first.approved, again.approved);
  EXPECT_EQ(first.approved, third.approved);
  EXPECT_EQ(backend.calls(), 1u);
  OracleBrokerStats stats = broker.stats();
  EXPECT_EQ(stats.questions, 3u);
  EXPECT_EQ(stats.backend_calls, 1u);
  EXPECT_EQ(stats.cache_hits, 2u);
}

TEST(OracleBrokerTest, DistinctQuestionContentMissesTheCache) {
  CountingOracle backend;
  OracleBroker broker(&backend);
  QuestionContext context;
  broker.VerifyWithContext(Question("9"), context);
  // Different pairs => different question.
  broker.VerifyWithContext(Question("3"), context);
  // Same pairs, different pivot program => different question too (the
  // cache key is program + pairs).
  QuestionContext other;
  other.program = "ConstantStr(\"y\")";
  broker.VerifyWithContext(Question("9"), other);
  EXPECT_EQ(backend.calls(), 3u);
  EXPECT_EQ(broker.stats().cache_hits, 0u);
}

TEST(OracleBrokerTest, CacheOffForwardsEveryQuestion) {
  CountingOracle backend;
  OracleBroker::Options options;
  options.cache_verdicts = false;
  OracleBroker broker(&backend, options);
  for (int i = 0; i < 3; ++i) broker.Verify(Question("9"));
  EXPECT_EQ(backend.calls(), 3u);
  OracleBrokerStats stats = broker.stats();
  EXPECT_EQ(stats.questions, 3u);
  EXPECT_EQ(stats.backend_calls, 3u);
  EXPECT_EQ(stats.cache_hits, 0u);
}

TEST(OracleBrokerTest, ConcurrentDuplicateAsksReachTheBackendOnce) {
  // Whether a thread hits the cache at entry or waits for the turn and is
  // answered from a same-key twin, the backend answers exactly once and
  // everyone sees that verdict.
  CountingOracle backend;
  backend.set_delay(std::chrono::milliseconds(20));
  OracleBroker broker(&backend);
  constexpr int kThreads = 8;
  std::vector<Verdict> verdicts(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { verdicts[t] = broker.Verify(Question("9")); });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(backend.calls(), 1u);
  for (const Verdict& verdict : verdicts) EXPECT_TRUE(verdict.approved);
  OracleBrokerStats stats = broker.stats();
  EXPECT_EQ(stats.questions, static_cast<size_t>(kThreads));
  EXPECT_EQ(stats.backend_calls, 1u);
  EXPECT_EQ(stats.cache_hits, static_cast<size_t>(kThreads) - 1);
}

TEST(OracleBrokerTest, LruBoundEvictsLeastRecentlyUsedVerdicts) {
  CountingOracle backend;
  OracleBroker::Options options;
  options.max_cache_entries = 2;
  OracleBroker broker(&backend, options);
  broker.Verify(Question("1"));  // cache: {1}
  broker.Verify(Question("2"));  // cache: {1, 2}
  broker.Verify(Question("1"));  // hit; 1 is now most recent
  broker.Verify(Question("3"));  // evicts 2 (LRU), cache: {1, 3}
  EXPECT_EQ(backend.calls(), 3u);
  EXPECT_EQ(broker.stats().evictions, 1u);
  broker.Verify(Question("1"));  // still cached
  EXPECT_EQ(backend.calls(), 3u);
  // 2 was evicted: re-asking reaches the backend again (and evicts 3).
  broker.Verify(Question("2"));
  EXPECT_EQ(backend.calls(), 4u);
  OracleBrokerStats stats = broker.stats();
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.questions, 6u);
  EXPECT_EQ(stats.cache_hits, 2u);
}

TEST(OracleBrokerTest, UnboundedCacheNeverEvicts) {
  CountingOracle backend;
  OracleBroker broker(&backend);  // max_cache_entries = 0
  for (int i = 0; i < 50; ++i) broker.Verify(Question(std::to_string(i)));
  for (int i = 0; i < 50; ++i) broker.Verify(Question(std::to_string(i)));
  EXPECT_EQ(backend.calls(), 50u);
  EXPECT_EQ(broker.stats().evictions, 0u);
  EXPECT_EQ(broker.stats().cache_hits, 50u);
}

// Throws on the first call, approves afterwards.
class FlakyOracle : public VerificationOracle {
 public:
  Verdict Verify(const std::vector<StringPair>& group_pairs) override {
    (void)group_pairs;
    if (fail_next_.exchange(false)) throw std::runtime_error("oracle down");
    Verdict verdict;
    verdict.approved = true;
    return verdict;
  }

 private:
  std::atomic<bool> fail_next_{true};
};

TEST(OracleBrokerTest, BackendExceptionPropagatesAndBrokerRecovers) {
  FlakyOracle backend;
  OracleBroker broker(&backend);
  // The failure surfaces in the asking thread (not a hang or a silent
  // rejection)...
  EXPECT_THROW(broker.Verify(Question("9")), std::runtime_error);
  // ...and the broker hands the turn on: the next question goes through
  // normally and gets cached.
  EXPECT_TRUE(broker.Verify(Question("9")).approved);
  EXPECT_TRUE(broker.Verify(Question("9")).approved);
  OracleBrokerStats stats = broker.stats();
  EXPECT_EQ(stats.questions, 3u);
  EXPECT_EQ(stats.backend_calls, 1u);  // the throwing call isn't counted
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST(OracleBrokerTest, ThrowingCombinerLeavesCacheAndLogConsistent) {
  // A backend throw must not leave partial entries behind — no verdict
  // cached, nothing appended to the approved log — and both must work
  // normally for the question afterwards.
  FlakyOracle backend;  // throws on the first call, approves afterwards
  OracleBroker broker(&backend);
  QuestionContext context;
  context.column = "addr";
  context.program = "ConstantStr(\"x\")";
  context.presented = 1;
  EXPECT_THROW(broker.VerifyWithContext(Question("9"), context),
               std::runtime_error);
  // Consistent failure state: no cache entry (a re-ask must reach the
  // backend, not replay a phantom verdict) and no log entry (the replay
  // log only ever records delivered approvals).
  EXPECT_EQ(broker.stats().cache_hits, 0u);
  EXPECT_TRUE(broker.ApprovedLog().empty());
  // The re-ask is served, cached and logged exactly once.
  EXPECT_TRUE(broker.VerifyWithContext(Question("9"), context).approved);
  EXPECT_TRUE(broker.VerifyWithContext(Question("9"), context).approved);
  OracleBrokerStats stats = broker.stats();
  EXPECT_EQ(stats.backend_calls, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(broker.ApprovedLog().size(), 1u);
}

TEST(OracleBrokerTest, ThrowingCombinerFailsOnlyTheAskingRequest) {
  // Concurrent askers during a backend failure: only the question whose
  // backend call threw fails; every other waiting question is still served
  // and the broker stays usable.
  class PoisonOracle : public VerificationOracle {
   public:
    Verdict Verify(const std::vector<StringPair>& group_pairs) override {
      if (group_pairs[0].lhs.find("poison") != std::string::npos) {
        throw std::runtime_error("backend refused");
      }
      if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
      Verdict verdict;
      verdict.approved = true;
      return verdict;
    }
    std::chrono::milliseconds delay_{0};
  };
  PoisonOracle backend;
  backend.delay_ = std::chrono::milliseconds(5);  // others wait their turn
  OracleBroker broker(&backend);
  std::atomic<size_t> served{0};
  std::atomic<size_t> failed{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 6; ++i) {
    threads.emplace_back([&, i] {
      const std::string tag =
          i == 0 ? std::string("poison") : "clean" + std::to_string(i);
      try {
        if (broker.Verify(Question(tag)).approved) ++served;
      } catch (const std::runtime_error&) {
        ++failed;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failed.load(), 1u);
  EXPECT_EQ(served.load(), 5u);
}

// Polls `ready` every 100 us until it holds or 5 s pass; returns whether
// it held. Caps every cross-thread wait in the turn tests below, so a
// broken broker fails them instead of hanging.
template <typename Ready>
bool WaitUpTo5s(Ready ready) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!ready()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

TEST(OracleBrokerTest, EachBackendCallRunsOnTheAskingThread) {
  // A's call is held until B waits for the turn; B's call then waits until
  // A's asker has returned from the broker. Each call runs on its asker's
  // thread, so A returns as soon as its own verdict is in instead of
  // staying to call the backend for B.
  class ProbeOracle : public VerificationOracle {
   public:
    Verdict Verify(const std::vector<StringPair>& group_pairs) override {
      if (group_pairs == Question("a")) {
        a_call_thread = std::this_thread::get_id();
        in_a_call = true;
        WaitUpTo5s([&] { return broker->stats().pending == 1; });
      } else {
        b_call_thread = std::this_thread::get_id();
        b_saw_a_return = WaitUpTo5s([&] { return a_returned.load(); });
      }
      Verdict verdict;
      verdict.approved = true;
      return verdict;
    }
    OracleBroker* broker = nullptr;
    std::atomic<bool> in_a_call{false};
    std::atomic<bool> a_returned{false};
    std::thread::id a_call_thread;
    std::thread::id b_call_thread;
    bool b_saw_a_return = false;
  };
  ProbeOracle backend;
  OracleBroker broker(&backend);
  backend.broker = &broker;
  std::thread a([&] {
    broker.Verify(Question("a"));
    backend.a_returned = true;
  });
  EXPECT_TRUE(WaitUpTo5s([&] { return backend.in_a_call.load(); }));
  std::thread b([&] { broker.Verify(Question("b")); });
  const std::thread::id a_id = a.get_id();
  const std::thread::id b_id = b.get_id();
  a.join();
  b.join();
  EXPECT_EQ(backend.a_call_thread, a_id);
  EXPECT_EQ(backend.b_call_thread, b_id);
  EXPECT_TRUE(backend.b_saw_a_return);
  EXPECT_EQ(broker.stats().backend_calls, 2u);
}

TEST(OracleBrokerTest, CancelledWaiterUnwindsWithoutReachingTheBackend) {
  // While A's call holds the turn, a waiter whose request is then
  // cancelled throws CancelledError before A is released, and never
  // reaches the backend.
  class HoldingOracle : public VerificationOracle {
   public:
    Verdict Verify(const std::vector<StringPair>& group_pairs) override {
      (void)group_pairs;
      ++calls;
      in_call = true;
      held_until_released = WaitUpTo5s([&] { return release.load(); });
      Verdict verdict;
      verdict.approved = true;
      return verdict;
    }
    std::atomic<size_t> calls{0};
    std::atomic<bool> in_call{false};
    std::atomic<bool> release{false};
    bool held_until_released = false;
  };
  HoldingOracle backend;
  OracleBroker broker(&backend);
  std::thread a([&] { broker.Verify(Question("a")); });
  EXPECT_TRUE(WaitUpTo5s([&] { return backend.in_call.load(); }));
  CancelState cancel;
  QuestionContext context;
  context.cancel = CancelToken(&cancel);
  bool cancelled = false;
  std::thread waiter([&] {
    try {
      broker.VerifyWithContext(Question("w"), context);
    } catch (const CancelledError& error) {
      cancelled = error.status() == RequestStatus::kCancelled;
    }
  });
  EXPECT_TRUE(WaitUpTo5s([&] { return broker.stats().pending == 1; }));
  cancel.Cancel();
  waiter.join();
  backend.release = true;
  a.join();
  EXPECT_TRUE(cancelled);
  EXPECT_TRUE(backend.held_until_released);  // A was not timed out
  EXPECT_EQ(backend.calls.load(), 1u);
  OracleBrokerStats stats = broker.stats();
  EXPECT_EQ(stats.questions, 2u);
  EXPECT_EQ(stats.backend_calls, 1u);
  EXPECT_EQ(stats.pending, 0u);
}

TEST(OracleBrokerTest, NeverCallsTheBackendConcurrently) {
  // The guarantee every VerificationOracle relies on (consolidate/
  // oracle.h): however many threads ask, at most one backend call is in
  // flight.
  class InFlightOracle : public VerificationOracle {
   public:
    Verdict Verify(const std::vector<StringPair>& group_pairs) override {
      (void)group_pairs;
      const size_t now = ++in_flight;
      size_t seen = max_in_flight.load();
      while (now > seen && !max_in_flight.compare_exchange_weak(seen, now)) {
      }
      ++calls;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      --in_flight;
      Verdict verdict;
      verdict.approved = true;
      return verdict;
    }
    std::atomic<size_t> in_flight{0};
    std::atomic<size_t> max_in_flight{0};
    std::atomic<size_t> calls{0};
  };
  InFlightOracle backend;
  OracleBroker broker(&backend);
  constexpr int kThreads = 8;
  constexpr int kQuestionsPerThread = 5;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int q = 0; q < kQuestionsPerThread; ++q) {
        broker.Verify(Question(std::to_string(t) + "." + std::to_string(q)));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(backend.max_in_flight.load(), 1u);
  EXPECT_EQ(backend.calls.load(), 40u);
  EXPECT_EQ(broker.stats().backend_calls, 40u);
}

TEST(OracleBrokerTest, ApprovedLogIsSortedDedupedAndParseable) {
  CountingOracle backend;
  OracleBroker broker(&backend);
  QuestionContext b;
  b.column = "beta";
  b.program = "ConstantStr(\"b\")";
  QuestionContext a;
  a.column = "alpha";
  a.program = "ConstantStr(\"a\")";
  QuestionContext bad;
  bad.column = "alpha";
  bad.program = "not a program";
  // Recorded in non-canonical order, with a repeat and an unparseable one.
  broker.VerifyWithContext(Question("9"), b);
  broker.VerifyWithContext(Question("3"), a);
  broker.VerifyWithContext(Question("9"), b);  // cache hit, still logged
  broker.VerifyWithContext(Question("7"), bad);
  std::vector<ApprovedTransformation> log = broker.ApprovedLog();
  ASSERT_EQ(log.size(), 2u);  // deduped, unparseable dropped
  EXPECT_EQ(log[0].column, "alpha");
  EXPECT_EQ(log[1].column, "beta");
  // And the serialized form round-trips through replay.h.
  Result<std::vector<ApprovedTransformation>> parsed =
      ParseTransformationLog(broker.SerializeApprovedLog());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].column, "alpha");
  EXPECT_EQ((*parsed)[0].program.functions(), log[0].program.functions());
  EXPECT_EQ((*parsed)[1].column, "beta");
}

TEST(OracleBrokerTest, FrameworkQuestionsProduceAReplayableLog) {
  // Drive the real framework through a broker and replay its log on a
  // fresh copy of the data: the replayed table must match the verified
  // one, with zero additional questions.
  Column column = {{"9 Street", "9 St"},
                   {"3 Street", "3 St"},
                   {"7 Street", "7 St"},
                   {"Oak Street", "Oak St"}};
  Column replayed = column;

  ApproveAllOracle approve_all;
  OracleBroker broker(&approve_all);
  FrameworkOptions options;
  options.budget_per_column = 20;
  options.column_name = "addr";
  ColumnRunResult result = StandardizeColumn(&column, &broker, options);
  ASSERT_GT(result.groups_approved, 0u);

  std::vector<ApprovedTransformation> log = broker.ApprovedLog();
  ASSERT_FALSE(log.empty());
  for (const ApprovedTransformation& transformation : log) {
    EXPECT_EQ(transformation.column, "addr");
  }
  Result<std::vector<ApprovedTransformation>> parsed =
      ParseTransformationLog(SerializeTransformationLog(log));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  for (const ApprovedTransformation& transformation : *parsed) {
    ApplyTransformation(&replayed, transformation);
  }
  EXPECT_EQ(replayed, column);
}

// ---------------------------------------------------------------------
// ColumnScheduler determinism.

// Two identical columns (cross-column cache hits) plus a distinct third.
Table MakeMultiColumnTable() {
  Table table({"alpha", "beta", "gamma"});
  for (int i = 1; i <= 6; ++i) {
    std::string n = std::to_string(i);
    size_t c = table.AddCluster();
    table.AddRecord(c, {n + " Street", n + " Street", n + " Road"});
    table.AddRecord(c, {n + " St", n + " St", n + " Rd"});
    table.AddRecord(c, {n + " St", n + " St", n + " Road"});
  }
  return table;
}

// A ground-truth-ish simulated expert with a nonzero error rate: the error
// draws exercise the per-question hash seeding — any order dependence in
// the oracle would break the bit-identity assertions below.
SimulatedOracle MakeNoisyOracle() {
  SimulatedOracle::Options options;
  options.error_rate = 0.25;
  options.seed = 7;
  return SimulatedOracle(
      [](const StringPair& pair) {
        return pair.lhs.size() != pair.rhs.size();
      },
      [](const StringPair& pair) {
        return pair.rhs.size() > pair.lhs.size() ? 1 : -1;
      },
      options);
}

struct PipelineFingerprint {
  std::string bytes;
  OracleBrokerStats stats;
  std::vector<size_t> presented;
};

PipelineFingerprint RunPipelineConfig(int threads, bool column_parallel,
                                      bool cache) {
  Table table = MakeMultiColumnTable();
  SimulatedOracle oracle = MakeNoisyOracle();
  PipelineOptions options;
  options.framework.budget_per_column = 15;
  options.column_parallel = column_parallel;
  options.num_threads = threads;
  options.broker.cache_verdicts = cache;
  PipelineRun run = RunConsolidationPipeline(&table, &oracle, options);
  PipelineFingerprint fingerprint;
  fingerprint.bytes = FingerprintConsolidation(table, run.golden_records);
  fingerprint.stats = run.oracle_stats;
  for (const ColumnRunResult& result : run.per_column) {
    fingerprint.presented.push_back(result.groups_presented);
  }
  return fingerprint;
}

TEST(ColumnSchedulerTest, ByteIdenticalAcrossThreadsAndModes) {
  // The acceptance matrix: --threads {1,4} x column-parallel {on,off},
  // plus cache on/off — six configurations, one output.
  PipelineFingerprint base = RunPipelineConfig(1, false, true);
  ASSERT_FALSE(base.bytes.empty());
  EXPECT_EQ(base.bytes, RunPipelineConfig(4, false, true).bytes);
  EXPECT_EQ(base.bytes, RunPipelineConfig(1, true, true).bytes);
  EXPECT_EQ(base.bytes, RunPipelineConfig(4, true, true).bytes);
  EXPECT_EQ(base.bytes, RunPipelineConfig(1, false, false).bytes);
  EXPECT_EQ(base.bytes, RunPipelineConfig(4, true, false).bytes);
  // Presented-group counts are part of the contract too.
  EXPECT_EQ(base.presented, RunPipelineConfig(4, true, true).presented);
}

TEST(ColumnSchedulerTest, DuplicateColumnsHitTheCache) {
  PipelineFingerprint cached = RunPipelineConfig(4, true, true);
  EXPECT_GT(cached.stats.cache_hits, 0u);
  EXPECT_LT(cached.stats.backend_calls, cached.stats.questions);
  // Cache off: every question reaches the oracle — strictly more calls.
  PipelineFingerprint uncached = RunPipelineConfig(4, true, false);
  EXPECT_EQ(uncached.stats.cache_hits, 0u);
  EXPECT_EQ(uncached.stats.backend_calls, uncached.stats.questions);
  EXPECT_GT(uncached.stats.backend_calls, cached.stats.backend_calls);
}

TEST(ColumnSchedulerTest, ProgressCallbackIsSerializedUnderParallelism) {
  Table table = MakeMultiColumnTable();
  ApproveAllOracle oracle;
  std::atomic<int> inflight{0};
  std::atomic<bool> overlapped{false};
  size_t calls = 0;  // unsynchronized on purpose: serialization guarantee
  PipelineOptions options;
  options.framework.budget_per_column = 15;
  options.framework.progress_callback = [&](size_t presented,
                                            const Column& column) {
    if (inflight.fetch_add(1) != 0) overlapped = true;
    EXPECT_GE(presented, 1u);
    EXPECT_EQ(column.size(), 6u);
    ++calls;
    inflight.fetch_sub(1);
  };
  options.column_parallel = true;
  options.num_threads = 4;
  PipelineRun run = RunConsolidationPipeline(&table, &oracle, options);
  EXPECT_FALSE(overlapped.load());
  size_t presented_total = 0;
  for (const ColumnRunResult& result : run.per_column) {
    presented_total += result.groups_presented;
  }
  EXPECT_EQ(calls, presented_total);
}

TEST(ColumnSchedulerTest, ReplayLogReproducesTheSessionTable) {
  // The broker log keeps each column's presentation order (largest group
  // first), so replaying it on a fresh copy of the input re-applies the
  // same transformations with the same tie-breaks: same table, zero
  // questions — even when the session ran column-parallel.
  Table session = MakeMultiColumnTable();
  Table replayed = MakeMultiColumnTable();
  ApproveAllOracle oracle;
  PipelineOptions options;
  options.framework.budget_per_column = 15;
  options.column_parallel = true;
  options.num_threads = 4;
  PipelineRun run = RunConsolidationPipeline(&session, &oracle, options);
  ASSERT_FALSE(run.approved_log.empty());
  Result<std::vector<ApprovedTransformation>> parsed =
      ParseTransformationLog(SerializeTransformationLog(run.approved_log));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ReplayTransformations(&replayed, *parsed);
  EXPECT_EQ(FingerprintConsolidation(replayed, {}), FingerprintConsolidation(session, {}));
}

TEST(ColumnSchedulerTest, GoldenRecordCreationMatchesThePipeline) {
  // Algorithm 1's plain column loop produces the output, and asks the
  // questions, of the serial verdict-cache-off pipeline.
  Table via_legacy = MakeMultiColumnTable();
  Table via_pipeline = MakeMultiColumnTable();
  SimulatedOracle legacy_oracle = MakeNoisyOracle();
  SimulatedOracle pipeline_oracle = MakeNoisyOracle();
  FrameworkOptions framework;
  framework.budget_per_column = 15;
  GoldenRecordRun legacy =
      GoldenRecordCreation(&via_legacy, &legacy_oracle, framework);
  PipelineOptions options;
  options.framework = framework;
  options.broker.cache_verdicts = false;
  PipelineRun pipeline =
      RunConsolidationPipeline(&via_pipeline, &pipeline_oracle, options);
  EXPECT_EQ(FingerprintConsolidation(via_legacy, legacy.golden_records),
            FingerprintConsolidation(via_pipeline, pipeline.golden_records));
  EXPECT_EQ(legacy_oracle.questions_asked(),
            pipeline_oracle.questions_asked());
}

}  // namespace
}  // namespace ustl
