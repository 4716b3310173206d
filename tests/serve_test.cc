// Tests for src/serve: the long-lived ConsolidationService. Pins the
// ISSUE 5 acceptance matrix — per-table byte-identity against a serial
// single-table run across threads {1,2,4} x admission-order permutations
// x warm/cold cache state — plus the least-recently-served fairness
// rule, the streamed event contract, bounded admission, the
// cross-request search-cache warmth and error propagation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "consolidate/oracle.h"
#include "obs/trace.h"
#include "pipeline/fault_oracle.h"
#include "pipeline/pipeline.h"
#include "serve/service.h"
#include "vector_trace_sink.h"

namespace ustl {
namespace {

constexpr size_t kBudget = 20;

// A small clustered table whose values form one obvious variant family
// per cluster ("<tag><i> Street" vs "<tag><i> St"), replicated into
// `columns` identical columns. Distinct tags make distinct tables;
// identical tags make byte-identical content (the cross-request reuse
// case).
Table MakeTable(const std::string& tag, size_t columns, int clusters) {
  std::vector<std::string> names;
  for (size_t i = 1; i <= columns; ++i) {
    names.push_back("value" + std::to_string(i));
  }
  Table table(names);
  for (int i = 1; i <= clusters; ++i) {
    const std::string n = tag + std::to_string(i);
    const size_t c = table.AddCluster();
    table.AddRecord(c, std::vector<std::string>(columns, n + " Street"));
    table.AddRecord(c, std::vector<std::string>(columns, n + " St"));
    table.AddRecord(c, std::vector<std::string>(columns, n + " St"));
  }
  return table;
}

FrameworkOptions TestFramework() {
  FrameworkOptions framework;
  framework.budget_per_column = kBudget;
  return framework;
}

// The contract's reference point: a serial single-table pipeline run.
std::string SerialFingerprint(Table table) {
  ApproveAllOracle oracle;
  PipelineOptions options;
  options.framework = TestFramework();
  PipelineRun run = RunConsolidationPipeline(&table, &oracle, options);
  return FingerprintConsolidation(table, run.golden_records);
}

TEST(ConsolidationServiceTest,
     ByteIdenticalAcrossThreadsAdmissionOrdersAndWarmth) {
  // Three tables: two distinct, one repeating the first's content (so the
  // shared caches fire across requests within a round too).
  const std::vector<Table> originals = {MakeTable("Oak", 1, 6),
                                        MakeTable("Pine", 2, 5),
                                        MakeTable("Oak", 1, 6)};
  std::vector<std::string> baselines;
  for (const Table& table : originals) {
    baselines.push_back(SerialFingerprint(table));
  }
  ASSERT_NE(baselines[0], baselines[1]);
  ASSERT_EQ(baselines[0], baselines[2]);  // same content, same output

  for (int threads : {1, 2, 4}) {
    for (const std::vector<size_t>& order :
         {std::vector<size_t>{0, 1, 2}, std::vector<size_t>{2, 1, 0}}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads << " order="
                                      << order[0] << order[1] << order[2]);
      ServiceOptions options;
      options.framework = TestFramework();
      options.num_threads = threads;
      ApproveAllOracle oracle;
      ConsolidationService service(&oracle, options);
      // Two rounds through the same service: round 1 runs cold, round 2
      // against verdict/search caches warmed by round 1.
      for (int round = 1; round <= 2; ++round) {
        std::vector<Table> tables = originals;
        std::vector<uint64_t> handles(tables.size());
        for (size_t t : order) {
          handles[t] = service.Submit(&tables[t]);
        }
        for (size_t t : order) {
          RequestResult result = service.Wait(handles[t]);
          EXPECT_EQ(FingerprintConsolidation(tables[t],
                                             result.golden_records),
                    baselines[t])
              << "table " << t << " round " << round;
        }
      }
    }
  }
}

TEST(ConsolidationServiceTest, FairnessSmallTableOvertakesHugeTable) {
  // A huge table admitted first and a 1-column table admitted second:
  // both are unserved, so the small table (fewer columns left) gets the
  // very next column slot and completes while the huge one is
  // mid-flight. start_paused makes the dispatch order reproducible (both
  // requests are queued before any job runs), and one worker makes it
  // fully deterministic.
  Table huge = MakeTable("Huge", 5, 6);
  Table small = MakeTable("Tiny", 1, 3);
  ServiceOptions options;
  options.framework = TestFramework();
  options.num_threads = 1;
  options.start_paused = true;
  ApproveAllOracle oracle;
  ConsolidationService service(&oracle, options);
  std::vector<uint64_t> order;  // serialized callback: no lock needed
  RequestOptions request;
  request.on_event = [&order](const ServeEvent& event) {
    if (event.kind == ServeEvent::Kind::kRequestDone) {
      order.push_back(event.request);
    }
  };
  const uint64_t huge_handle = service.Submit(&huge, request);
  const uint64_t small_handle = service.Submit(&small, request);
  service.Resume();
  service.Wait(small_handle);
  service.Wait(huge_handle);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], small_handle);
  EXPECT_EQ(order[1], huge_handle);
  EXPECT_EQ(service.stats().max_concurrent_requests, 2u);
}

TEST(ConsolidationServiceTest, LeastRecentlyServedFirstPinsBatchOrder) {
  // Five tables of 3/1/2/4/1 columns queued before any job runs, one
  // worker: the order of kColumnDone events is the grant order. All start
  // unserved, so fewest-columns-first then id decides B E C A D; from
  // then on each grant goes to the request served longest ago.
  const std::vector<std::pair<std::string, size_t>> shapes = {
      {"A", 3}, {"B", 1}, {"C", 2}, {"D", 4}, {"E", 1}};
  ServiceOptions options;
  options.framework = TestFramework();
  options.num_threads = 1;
  options.start_paused = true;
  ApproveAllOracle oracle;
  ConsolidationService service(&oracle, options);
  std::vector<Table> tables;
  for (const auto& [name, columns] : shapes) {
    tables.push_back(MakeTable(name, columns, 3));
  }
  std::string order;  // serialized callback: no lock needed
  std::vector<uint64_t> handles;
  for (size_t t = 0; t < tables.size(); ++t) {
    RequestOptions request;
    request.label = shapes[t].first;
    request.on_event = [&order](const ServeEvent& event) {
      if (event.kind == ServeEvent::Kind::kColumnDone) order += event.label;
    };
    handles.push_back(service.Submit(&tables[t], std::move(request)));
  }
  service.Resume();
  for (uint64_t handle : handles) service.Wait(handle);
  EXPECT_EQ(order, "BECADCADADD");
}

TEST(ConsolidationServiceTest, WideTableKeepsItsTurnUnderStreamOfArrivals) {
  // One worker serves a 6-column table while every presented group, of
  // any request, submits one more 1-column table from the progress
  // callback, so fresh requests keep arriving until kArrivals are in.
  // Only requests already waiting at the wide table's grant may go ahead
  // of it before its next one: it must not wait for the stream to dry up.
  constexpr size_t kArrivals = 40;
  Table wide = MakeTable("Wide", 6, 6);
  std::vector<Table> arrivals;
  for (size_t i = 0; i < kArrivals; ++i) {
    arrivals.push_back(MakeTable("Arrival" + std::to_string(i) + "x", 1, 3));
  }
  // Callbacks run on the one worker, one at a time: no lock needed. All
  // of this outlives the service, whose destructor drains the stream.
  std::vector<uint64_t> grants;    // request of each kColumnDone, in order
  std::vector<uint64_t> finished;  // request of each kRequestDone, in order
  std::vector<uint64_t> handles(kArrivals);
  size_t submitted = 0;
  std::promise<void> all_submitted;
  RequestOptions request;

  ServiceOptions options;
  // Below max_pending_requests: a Submit from the only worker that
  // blocked on a full backlog would deadlock the service.
  ASSERT_LT(kArrivals + 1, options.max_pending_requests);
  options.num_threads = 1;
  ApproveAllOracle oracle;
  ConsolidationService service(&oracle, options);
  request.on_event = [&](const ServeEvent& event) {
    if (event.kind == ServeEvent::Kind::kColumnDone) {
      grants.push_back(event.request);
    } else if (event.kind == ServeEvent::Kind::kRequestDone) {
      finished.push_back(event.request);
    }
  };
  request.framework = TestFramework();
  request.framework->progress_callback = [&](size_t, const Column&) {
    if (submitted == kArrivals) return;
    handles[submitted] = service.Submit(&arrivals[submitted], request);
    if (++submitted == kArrivals) all_submitted.set_value();
  };
  const uint64_t wide_handle = service.Submit(&wide, request);
  ASSERT_EQ(all_submitted.get_future().wait_for(std::chrono::seconds(60)),
            std::future_status::ready);
  for (uint64_t handle : handles) {
    EXPECT_EQ(service.Wait(handle).status, RequestStatus::kOk);
  }
  EXPECT_EQ(service.Wait(wide_handle).status, RequestStatus::kOk);

  ASSERT_EQ(finished.size(), kArrivals + 1);
  const size_t wide_rank =
      std::find(finished.begin(), finished.end(), wide_handle) -
      finished.begin();
  const size_t last_rank =
      std::find(finished.begin(), finished.end(), handles.back()) -
      finished.begin();
  EXPECT_LT(wide_rank, last_rank);
  // Grants other requests took between two of the wide table's own.
  size_t longest_wait = 0;
  size_t wait = 0;
  size_t wide_grants = 0;
  for (uint64_t id : grants) {
    if (id != wide_handle) {
      ++wait;
      continue;
    }
    if (wide_grants++ > 0) longest_wait = std::max(longest_wait, wait);
    wait = 0;
  }
  EXPECT_EQ(wide_grants, 6u);
  // Only requests hungry at the wide table's last grant, or admitted
  // before the next grant, can go ahead of it: 4 here, of 40 arrivals.
  EXPECT_LE(longest_wait, 8u);
}

TEST(ConsolidationServiceTest, WarmSearchCacheSkipsRepeatedSearches) {
  ServiceOptions options;
  options.framework = TestFramework();
  ApproveAllOracle oracle;
  ConsolidationService service(&oracle, options);

  auto run_once = [&](uint64_t* searches, uint64_t* warm_hits) {
    Table table = MakeTable("Elm", 1, 8);
    RequestResult result = service.Wait(service.Submit(&table));
    *searches = 0;
    *warm_hits = 0;
    for (const ColumnRunResult& column : result.per_column) {
      *searches += column.grouping.searches;
      *warm_hits += column.grouping.warm_hits;
    }
  };

  uint64_t cold_searches = 0, cold_warm_hits = 0;
  run_once(&cold_searches, &cold_warm_hits);
  EXPECT_GT(cold_searches, 0u);
  EXPECT_EQ(cold_warm_hits, 0u);

  uint64_t warm_searches = 0, warm_warm_hits = 0;
  run_once(&warm_searches, &warm_warm_hits);
  EXPECT_GT(warm_warm_hits, 0u);
  EXPECT_LT(warm_searches, cold_searches);

  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.search_cache.publishes, 0u);
  EXPECT_GT(stats.search_cache.warm_starts, 0u);
  EXPECT_GT(stats.search_cache.entries_served, 0u);
}

TEST(ConsolidationServiceTest, JoinsCounterSumsColumnJoins) {
  ServiceOptions options;
  options.framework = TestFramework();
  ApproveAllOracle oracle;
  ConsolidationService service(&oracle, options);

  uint64_t joins = 0;
  for (const char* tag : {"Oak", "Ash"}) {
    Table table = MakeTable(tag, 2, 6);
    RequestResult result = service.Wait(service.Submit(&table));
    for (const ColumnRunResult& column : result.per_column) {
      joins += column.grouping.joins;
    }
  }
  EXPECT_GT(joins, 0u);
  EXPECT_NE(service.metrics().WriteText().find(
                "\nustl_grouping_joins_total " + std::to_string(joins) + "\n"),
            std::string::npos);
}

TEST(ConsolidationServiceTest, StreamsOrderedEventsPerRequest) {
  Table table = MakeTable("Birch", 2, 5);
  ServiceOptions options;
  options.framework = TestFramework();
  ApproveAllOracle oracle;
  ConsolidationService service(&oracle, options);
  std::vector<ServeEvent> events;  // serialized callback: no lock needed
  RequestOptions request;
  request.label = "birch";
  request.on_event = [&](const ServeEvent& event) {
    events.push_back(event);
  };
  RequestResult result = service.Wait(service.Submit(&table, request));

  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().kind, ServeEvent::Kind::kAdmitted);
  EXPECT_EQ(events.back().kind, ServeEvent::Kind::kRequestDone);
  EXPECT_EQ(events.front().label, "birch");

  size_t verdicts = 0;
  size_t columns_done = 0;
  std::map<std::string, size_t> last_rank;
  for (const ServeEvent& event : events) {
    if (event.kind == ServeEvent::Kind::kVerdict) {
      ++verdicts;
      // Presentation ranks are 1-based and strictly increasing per
      // column, whatever the cross-column interleaving.
      EXPECT_EQ(event.presented, last_rank[event.column] + 1);
      last_rank[event.column] = event.presented;
      EXPECT_GT(event.group_size, 0u);
    } else if (event.kind == ServeEvent::Kind::kColumnDone) {
      ++columns_done;
    }
  }
  size_t presented_total = 0;
  for (const ColumnRunResult& column : result.per_column) {
    presented_total += column.groups_presented;
  }
  EXPECT_EQ(verdicts, presented_total);
  EXPECT_EQ(columns_done, table.num_columns());
  EXPECT_EQ(events.back().groups_presented, presented_total);
}

TEST(ConsolidationServiceTest, EventStreamOpensWithAdmittedUnderLoad) {
  // A request submitted while workers are already busy must still see
  // kAdmitted as its first event — admission is emitted before the
  // request becomes pickable.
  ServiceOptions options;
  options.framework = TestFramework();
  options.num_threads = 2;
  ApproveAllOracle oracle;
  ConsolidationService service(&oracle, options);
  std::vector<Table> tables = {MakeTable("Alder", 3, 6),
                               MakeTable("Cedar", 1, 4),
                               MakeTable("Maple", 2, 5)};
  // One vector per request; callbacks are serialized service-wide, so
  // unsynchronized writes are safe.
  std::vector<std::vector<ServeEvent::Kind>> kinds(tables.size());
  std::vector<uint64_t> handles(tables.size());
  for (size_t t = 0; t < tables.size(); ++t) {
    RequestOptions request;
    request.on_event = [&kinds, t](const ServeEvent& event) {
      kinds[t].push_back(event.kind);
    };
    handles[t] = service.Submit(&tables[t], std::move(request));
  }
  for (uint64_t handle : handles) service.Wait(handle);
  for (size_t t = 0; t < tables.size(); ++t) {
    ASSERT_FALSE(kinds[t].empty()) << t;
    EXPECT_EQ(kinds[t].front(), ServeEvent::Kind::kAdmitted) << t;
    EXPECT_EQ(kinds[t].back(), ServeEvent::Kind::kRequestDone) << t;
  }
}

TEST(ConsolidationServiceTest, BoundedAdmissionStillDrainsEverything) {
  const std::string baseline = SerialFingerprint(MakeTable("Ash", 1, 5));
  ServiceOptions options;
  options.framework = TestFramework();
  options.num_threads = 2;
  options.max_pending_requests = 1;  // every Submit waits for the backlog
  ApproveAllOracle oracle;
  ConsolidationService service(&oracle, options);
  std::vector<Table> tables(3, MakeTable("Ash", 1, 5));
  std::vector<uint64_t> handles;
  for (Table& table : tables) {
    handles.push_back(service.Submit(&table));
  }
  for (size_t t = 0; t < tables.size(); ++t) {
    RequestResult result = service.Wait(handles[t]);
    EXPECT_EQ(FingerprintConsolidation(tables[t], result.golden_records),
              baseline);
  }
  EXPECT_EQ(service.stats().requests_completed, 3u);
}

TEST(ConsolidationServiceTest, SharedBrokerDeduplicatesAcrossRequests) {
  // Identical tables admitted back to back: the second request's
  // questions are all verdict-cache hits, so the backend hears each
  // distinct question once per service lifetime.
  Table first = MakeTable("Fir", 1, 6);
  Table second = MakeTable("Fir", 1, 6);
  ServiceOptions options;
  options.framework = TestFramework();
  SimulatedOracle oracle(
      [](const StringPair& pair) { return pair.lhs.size() != pair.rhs.size(); },
      nullptr, SimulatedOracle::Options{});
  ConsolidationService service(&oracle, options);
  service.Wait(service.Submit(&first));
  const OracleBrokerStats after_first = service.stats().oracle;
  service.Wait(service.Submit(&second));
  const OracleBrokerStats after_second = service.stats().oracle;
  EXPECT_GT(after_first.backend_calls, 0u);
  EXPECT_EQ(after_second.backend_calls, after_first.backend_calls);
  EXPECT_GT(after_second.cache_hits, after_first.cache_hits);
  EXPECT_EQ(FingerprintConsolidation(first, {}),
            FingerprintConsolidation(second, {}));
}

// Throws on every question mentioning "Poison".
class PoisonOracle : public VerificationOracle {
 public:
  Verdict Verify(const std::vector<StringPair>& group_pairs) override {
    for (const StringPair& pair : group_pairs) {
      if (pair.lhs.find("Poison") != std::string::npos) {
        throw std::runtime_error("backend refused");
      }
    }
    Verdict verdict;
    verdict.approved = true;
    return verdict;
  }
};

TEST(ConsolidationServiceTest, BackendFailureSurfacesInWaitAndServiceLives) {
  Table poisoned = MakeTable("Poison", 1, 4);
  Table healthy = MakeTable("Willow", 1, 4);
  ServiceOptions options;
  options.framework = TestFramework();
  PoisonOracle oracle;
  ConsolidationService service(&oracle, options);
  const uint64_t bad = service.Submit(&poisoned);
  EXPECT_THROW(service.Wait(bad), std::runtime_error);
  // The service survives a failed request: later requests run normally.
  RequestResult result = service.Wait(service.Submit(&healthy));
  EXPECT_EQ(FingerprintConsolidation(healthy, result.golden_records),
            SerialFingerprint(MakeTable("Willow", 1, 4)));
}

TEST(SearchResultCacheTest, KeyBoundEvictsLeastRecentlyUsed) {
  SearchResultCache::Options options;
  options.max_keys = 2;
  SearchResultCache cache(options);
  auto key = [](uint64_t tag) {
    SearchKeyHasher hasher;
    hasher.U64(tag);
    return hasher.Finish();
  };
  CachedPivot pivot;
  pivot.path = {1, 2};
  pivot.members = {0};
  pivot.count = 1;
  cache.Publish(key(1), 0, pivot);  // keys: {1}
  cache.Publish(key(2), 0, pivot);  // keys: {1, 2}
  EXPECT_EQ(cache.WarmStart(key(1)).size(), 1u);  // 1 is now most recent
  cache.Publish(key(3), 0, pivot);  // evicts 2 (LRU)
  EXPECT_EQ(cache.WarmStart(key(1)).size(), 1u);
  EXPECT_EQ(cache.WarmStart(key(3)).size(), 1u);
  EXPECT_TRUE(cache.WarmStart(key(2)).empty());
  const SearchCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.keys, 2u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(ConsolidationServiceTest, ZeroColumnTableCompletesImmediately) {
  Table empty(std::vector<std::string>{});
  ServiceOptions options;
  ApproveAllOracle oracle;
  ConsolidationService service(&oracle, options);
  RequestResult result = service.Wait(service.Submit(&empty));
  EXPECT_TRUE(result.per_column.empty());
  EXPECT_EQ(service.stats().requests_completed, 1u);
}

// ---------------------------------------------------------------------
// Fault-tolerance matrix (PR "robustness"): threads x fault plans x
// cancel points, byte-identity on survivors, bounded cancel latency.
// ---------------------------------------------------------------------

TEST(ServiceFaultToleranceTest,
     ByteIdenticalUnderEventuallySuccessfulFaultPlans) {
  // Every (threads x cache x fault-plan) cell must reproduce the serial
  // clean run byte for byte: retries recover every injected failure
  // (max_attempts > failures_per_question) and verdicts are pure
  // functions of question content, so the faults change only how often
  // the backend is asked.
  const std::vector<Table> originals = {MakeTable("Oak", 2, 5),
                                        MakeTable("Pine", 1, 6)};
  std::vector<std::string> baselines;
  for (const Table& table : originals) {
    baselines.push_back(SerialFingerprint(table));
  }
  std::vector<FaultPlan> plans(2);
  plans[0].fault_rate = 0.7;
  plans[0].failures_per_question = 2;
  plans[0].seed = 3;
  plans[1].fault_rate = 1.0;  // every question fails once
  plans[1].failures_per_question = 1;
  plans[1].seed = 4;

  for (int threads : {1, 4}) {
    for (bool cache : {true, false}) {
      for (size_t p = 0; p < plans.size(); ++p) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads
                                        << " cache=" << cache << " plan=" << p);
        ApproveAllOracle backend;
        FaultInjectingOracle faulty(&backend, plans[p]);
        ServiceOptions options;
        options.framework = TestFramework();
        options.num_threads = threads;
        options.broker.cache_verdicts = cache;
        options.enable_retry = true;
        options.retry.max_attempts = 3;
        ConsolidationService service(&faulty, options);
        std::vector<Table> tables = originals;
        std::vector<uint64_t> handles;
        for (Table& table : tables) handles.push_back(service.Submit(&table));
        for (size_t t = 0; t < tables.size(); ++t) {
          RequestResult result = service.Wait(handles[t]);
          EXPECT_EQ(result.status, RequestStatus::kOk);
          EXPECT_EQ(
              FingerprintConsolidation(tables[t], result.golden_records),
              baselines[t]);
        }
        const ServiceStats stats = service.stats();
        EXPECT_GT(faulty.faults_injected(), 0u);
        EXPECT_GT(stats.retry.retries, 0u);
        EXPECT_EQ(stats.retry.exhausted, 0u);
        EXPECT_EQ(stats.retry.breaker_opens, 0u);
      }
    }
  }
}

TEST(ServiceFaultToleranceTest, RetriesAppearOnTheAskingRequestsTrace) {
  // Every question fails once and succeeds on its retry. Each retry is
  // reported once per channel: one oracle_retry point event under the
  // asking column's span, and one count in ServiceStats::retry.
  FaultPlan plan;
  plan.fault_rate = 1.0;
  plan.failures_per_question = 1;
  ApproveAllOracle backend;
  FaultInjectingOracle faulty(&backend, plan);
  ServiceOptions options;
  options.framework = TestFramework();
  options.enable_retry = true;
  options.retry.max_attempts = 2;
  ConsolidationService service(&faulty, options);
  Table table = MakeTable("Elm", 1, 4);
  VectorTraceSink sink;
  RequestOptions request;
  request.trace_sink = &sink;
  RequestResult result = service.Wait(service.Submit(&table, request));
  EXPECT_EQ(result.status, RequestStatus::kOk);

  const std::vector<TraceSpan> spans = sink.spans();
  std::map<uint64_t, std::string> names;  // one request: ids are unique
  for (const TraceSpan& span : spans) names[span.id] = span.name;
  size_t retries = 0;
  for (const TraceSpan& span : spans) {
    if (span.name != "oracle_retry") continue;
    ++retries;
    EXPECT_EQ(span.start_us, span.end_us);  // a point event
    EXPECT_EQ(names[span.parent], "column");
    const std::vector<std::pair<std::string, int64_t>> first_attempt = {
        {"attempt", 1}};
    EXPECT_EQ(span.attrs, first_attempt);
  }
  EXPECT_GT(retries, 0u);
  EXPECT_EQ(service.stats().retry.retries, retries);
}

TEST(ServiceFaultToleranceTest, PreAdmissionCancelCommitsNothing) {
  // Cancelled while paused, before any column job ran: the request
  // finalizes kCancelled without touching its table, and the survivor
  // admitted alongside it stays byte-identical.
  Table doomed = MakeTable("Doom", 2, 5);
  const Table doomed_before = doomed;
  Table survivor = MakeTable("Oak", 1, 6);
  const std::string baseline = SerialFingerprint(survivor);
  ServiceOptions options;
  options.framework = TestFramework();
  options.start_paused = true;
  ApproveAllOracle oracle;
  ConsolidationService service(&oracle, options);
  std::vector<ServeEvent> events;  // serialized callback: no lock needed
  RequestOptions request;
  request.on_event = [&](const ServeEvent& event) { events.push_back(event); };
  const uint64_t doomed_handle = service.Submit(&doomed, request);
  const uint64_t survivor_handle = service.Submit(&survivor);
  service.Cancel(doomed_handle);
  service.Resume();

  RequestResult cancelled = service.Wait(doomed_handle);
  EXPECT_EQ(cancelled.status, RequestStatus::kCancelled);
  EXPECT_TRUE(cancelled.per_column.empty());
  EXPECT_TRUE(cancelled.golden_records.empty());
  EXPECT_EQ(FingerprintConsolidation(doomed, {}),
            FingerprintConsolidation(doomed_before, {}));  // untouched
  // The status is reported once, on the closing kRequestDone.
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(events.front().kind, ServeEvent::Kind::kAdmitted);
  EXPECT_EQ(events.back().kind, ServeEvent::Kind::kRequestDone);
  EXPECT_EQ(events.back().status, RequestStatus::kCancelled);

  RequestResult alive = service.Wait(survivor_handle);
  EXPECT_EQ(alive.status, RequestStatus::kOk);
  EXPECT_EQ(FingerprintConsolidation(survivor, alive.golden_records),
            baseline);
  EXPECT_EQ(service.stats().requests_cancelled, 1u);
}

TEST(ServiceFaultToleranceTest, MidColumnCancelUnwindsAndSparesSurvivors) {
  // Cancel from inside the request's own event stream after the first
  // verdict (the documented event-callback-safe use of Cancel): the
  // in-flight column unwinds at a checkpoint, the table stays untouched
  // and concurrently running requests still match the serial baseline.
  for (int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    Table doomed = MakeTable("Doom", 2, 6);
    const Table doomed_before = doomed;
    Table survivor = MakeTable("Pine", 1, 6);
    const std::string baseline = SerialFingerprint(survivor);
    ServiceOptions options;
    options.framework = TestFramework();
    options.num_threads = threads;
    ApproveAllOracle oracle;
    ConsolidationService service(&oracle, options);
    RequestOptions request;
    request.on_event = [&](const ServeEvent& event) {
      // The event carries its own request id, so the very first verdict
      // can cancel even if it beats Submit's return.
      if (event.kind == ServeEvent::Kind::kVerdict) {
        service.Cancel(event.request);
      }
    };
    const uint64_t doomed_handle = service.Submit(&doomed, request);
    const uint64_t survivor_handle = service.Submit(&survivor);

    const auto cancel_started = std::chrono::steady_clock::now();
    RequestResult cancelled = service.Wait(doomed_handle);
    const auto cancel_latency =
        std::chrono::steady_clock::now() - cancel_started;
    EXPECT_EQ(cancelled.status, RequestStatus::kCancelled);
    EXPECT_TRUE(cancelled.per_column.empty());
    EXPECT_EQ(FingerprintConsolidation(doomed, {}),
              FingerprintConsolidation(doomed_before, {}));
    // Bounded cancel latency: the unwind is checkpoint-to-checkpoint on
    // a small table, nowhere near this ceiling unless cancellation hangs.
    EXPECT_LT(cancel_latency, std::chrono::seconds(30));

    RequestResult alive = service.Wait(survivor_handle);
    EXPECT_EQ(alive.status, RequestStatus::kOk);
    EXPECT_EQ(FingerprintConsolidation(survivor, alive.golden_records),
              baseline);
  }
}

TEST(ServiceFaultToleranceTest, DeadlineExceededReturnsTypedStatus) {
  // A 1 ms deadline against a slow oracle (every question sleeps):
  // the request must come back kDeadlineExceeded — promptly, not after
  // serving the whole table — with nothing committed.
  FaultPlan plan;
  plan.slow_rate = 1.0;
  plan.slow_ms = 25;
  ApproveAllOracle backend;
  FaultInjectingOracle slow(&backend, plan);
  ServiceOptions options;
  options.framework = TestFramework();
  ConsolidationService service(&slow, options);
  Table doomed = MakeTable("Slow", 1, 8);
  const Table doomed_before = doomed;
  ServeEvent last;  // serialized callback; read after Wait
  RequestOptions request;
  request.deadline_ms = 1;
  request.on_event = [&](const ServeEvent& event) { last = event; };
  const auto started = std::chrono::steady_clock::now();
  RequestResult result = service.Wait(service.Submit(&doomed, request));
  const auto latency = std::chrono::steady_clock::now() - started;
  EXPECT_EQ(result.status, RequestStatus::kDeadlineExceeded);
  EXPECT_EQ(last.kind, ServeEvent::Kind::kRequestDone);
  EXPECT_EQ(last.status, RequestStatus::kDeadlineExceeded);
  EXPECT_TRUE(result.per_column.empty());
  EXPECT_EQ(FingerprintConsolidation(doomed, {}),
            FingerprintConsolidation(doomed_before, {}));
  EXPECT_LT(latency, std::chrono::seconds(30));
  EXPECT_EQ(service.stats().requests_deadline_exceeded, 1u);
  // The service still serves: an undeadlined request runs clean.
  Table alive = MakeTable("Slow", 1, 8);
  RequestResult ok = service.Wait(service.Submit(&alive));
  EXPECT_EQ(ok.status, RequestStatus::kOk);
}

TEST(ServiceFaultToleranceTest, DeadlineBeyondTheClockRunsToCompletion) {
  // A deadline too far out for the steady clock can never pass: the
  // request runs as if it had none, byte-identical to the serial run.
  ApproveAllOracle oracle;
  ServiceOptions options;
  options.framework = TestFramework();
  ConsolidationService service(&oracle, options);
  Table table = MakeTable("Far", 1, 4);
  const std::string baseline = SerialFingerprint(table);
  RequestOptions request;
  request.deadline_ms = std::numeric_limits<int64_t>::max();
  RequestResult result = service.Wait(service.Submit(&table, request));
  EXPECT_EQ(result.status, RequestStatus::kOk);
  EXPECT_EQ(FingerprintConsolidation(table, result.golden_records), baseline);
  EXPECT_EQ(service.stats().requests_deadline_exceeded, 0u);
}

TEST(ServiceFaultToleranceTest, ExhaustedRetriesFailOnlyTheAskingRequest) {
  // A persistently faulty backend exhausts the poisoned request's
  // retries; the clean request sharing the service (and the broker
  // batch) still completes byte-identically.
  class SelectiveFaultOracle : public VerificationOracle {
   public:
    Verdict Verify(const std::vector<StringPair>& group_pairs) override {
      for (const StringPair& pair : group_pairs) {
        if (pair.lhs.find("Doom") != std::string::npos) {
          throw std::runtime_error("backend refuses this table");
        }
      }
      Verdict verdict;
      verdict.approved = true;
      return verdict;
    }
  };
  Table doomed = MakeTable("Doom", 1, 4);
  Table survivor = MakeTable("Oak", 1, 6);
  const std::string baseline = SerialFingerprint(survivor);
  ServiceOptions options;
  options.framework = TestFramework();
  options.num_threads = 2;
  options.enable_retry = true;
  options.retry.max_attempts = 2;
  options.retry.breaker_failure_threshold = 0;  // isolate retry semantics
  SelectiveFaultOracle oracle;
  ConsolidationService service(&oracle, options);
  const uint64_t doomed_handle = service.Submit(&doomed);
  const uint64_t survivor_handle = service.Submit(&survivor);
  EXPECT_THROW(service.Wait(doomed_handle), std::runtime_error);
  RequestResult alive = service.Wait(survivor_handle);
  EXPECT_EQ(alive.status, RequestStatus::kOk);
  EXPECT_EQ(FingerprintConsolidation(survivor, alive.golden_records),
            baseline);
  EXPECT_GT(service.stats().retry.exhausted, 0u);
}

TEST(ServiceFaultToleranceTest, OpenBreakerStillServesCachedVerdicts) {
  // Degradation with the breaker open: a question the broker answered
  // before is a cache hit that never reaches the retry decorator, so a
  // table seen before still completes byte-identically while a new one
  // fails.
  class DyingOracle : public VerificationOracle {
   public:
    Verdict Verify(const std::vector<StringPair>&) override {
      if (dead) throw std::runtime_error("backend down");
      Verdict verdict;
      verdict.approved = true;
      return verdict;
    }
    bool dead = false;
  };
  DyingOracle backend;
  ServiceOptions options;
  options.framework = TestFramework();
  options.enable_retry = true;
  options.retry.max_attempts = 1;
  options.retry.breaker_failure_threshold = 1;
  ConsolidationService service(&backend, options);
  Table warm = MakeTable("Elm", 1, 4);
  RequestResult first = service.Wait(service.Submit(&warm));
  ASSERT_EQ(first.status, RequestStatus::kOk);
  const std::string baseline =
      FingerprintConsolidation(warm, first.golden_records);
  EXPECT_EQ(baseline, SerialFingerprint(MakeTable("Elm", 1, 4)));

  backend.dead = true;
  Table fresh = MakeTable("Fir", 1, 4);
  EXPECT_THROW(service.Wait(service.Submit(&fresh)), std::runtime_error);
  const ServiceStats before = service.stats();
  ASSERT_EQ(before.retry.breaker_opens, 1u);

  Table again = MakeTable("Elm", 1, 4);
  RequestResult second = service.Wait(service.Submit(&again));
  EXPECT_EQ(second.status, RequestStatus::kOk);
  EXPECT_EQ(FingerprintConsolidation(again, second.golden_records), baseline);
  const ServiceStats after = service.stats();
  EXPECT_EQ(after.oracle.backend_calls, before.oracle.backend_calls);
  EXPECT_EQ(after.retry.short_circuits, before.retry.short_circuits);
}

TEST(ServiceObservabilityTest, TracingNeverPerturbsOutputOrOracleTraffic) {
  // The ISSUE 8 zero-perturbation gate at test scope: the same workload
  // through a traced service and an untraced one must produce
  // byte-identical tables AND identical backend call counts (tracing
  // must not even shift the cache/batching behavior), across thread
  // counts.
  const std::vector<Table> originals = {MakeTable("Oak", 1, 6),
                                        MakeTable("Pine", 2, 5)};
  std::vector<std::string> baselines;
  for (const Table& table : originals) {
    baselines.push_back(SerialFingerprint(table));
  }
  for (int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    size_t backend_calls[2] = {0, 0};
    for (int traced = 0; traced < 2; ++traced) {
      ServiceOptions options;
      options.framework = TestFramework();
      options.num_threads = threads;
      ApproveAllOracle oracle;
      ConsolidationService service(&oracle, options);
      CountingTraceSink sink;
      std::vector<Table> tables = originals;
      std::vector<uint64_t> handles;
      for (Table& table : tables) {
        RequestOptions request;
        if (traced == 1) request.trace_sink = &sink;
        handles.push_back(service.Submit(&table, std::move(request)));
      }
      for (size_t t = 0; t < tables.size(); ++t) {
        RequestResult result = service.Wait(handles[t]);
        EXPECT_EQ(FingerprintConsolidation(tables[t], result.golden_records),
                  baselines[t])
            << "table " << t << " traced=" << traced;
      }
      backend_calls[traced] = service.stats().oracle.backend_calls;
      if (traced == 1) {
        EXPECT_GT(sink.count(), 0u);
      }
    }
    EXPECT_EQ(backend_calls[0], backend_calls[1]);
  }
}

TEST(ServiceObservabilityTest, TraceStreamClosesEveryRequestWithOneRoot) {
  // Each traced request must emit exactly one root "request" span
  // (parent 0, id 1) whose request id is unique even when labels repeat.
  std::ostringstream out;
  JsonLinesTraceSink sink(&out);
  ServiceOptions options;
  options.framework = TestFramework();
  ApproveAllOracle oracle;
  ConsolidationService service(&oracle, options);
  for (int round = 0; round < 2; ++round) {
    Table table = MakeTable("Elm", 1, 4);
    RequestOptions request;
    request.label = "elm";  // same label both rounds
    request.trace_sink = &sink;
    service.Wait(service.Submit(&table, std::move(request)));
  }
  const std::string text = out.str();
  size_t roots = 0;
  size_t pos = 0;
  while ((pos = text.find("\"name\": \"request\"", pos)) !=
         std::string::npos) {
    ++roots;
    pos += 1;
  }
  EXPECT_EQ(roots, 2u);
  // The label#id scheme keeps repeated labels distinct.
  EXPECT_NE(text.find("\"request\": \"elm#1\""), std::string::npos);
  EXPECT_NE(text.find("\"request\": \"elm#2\""), std::string::npos);
}

TEST(ServiceObservabilityTest, EventsCarryMonotonicSeqAndTimestamps) {
  // ServeEvent seq is the 1-based per-request emission order and ts_us
  // the service-relative steady clock: contiguous and non-decreasing per
  // request (both excluded from determinism comparisons).
  struct Seen {
    std::vector<uint64_t> seqs;
    std::vector<int64_t> ts;
  };
  std::map<uint64_t, Seen> per_request;
  ServiceOptions options;
  options.framework = TestFramework();
  options.num_threads = 2;
  ApproveAllOracle oracle;
  ConsolidationService service(&oracle, options);
  std::vector<Table> tables = {MakeTable("Oak", 1, 6), MakeTable("Ash", 2, 4)};
  std::vector<uint64_t> handles;
  for (Table& table : tables) {
    RequestOptions request;
    request.on_event = [&per_request](const ServeEvent& event) {
      per_request[event.request].seqs.push_back(event.seq);
      per_request[event.request].ts.push_back(event.ts_us);
    };
    handles.push_back(service.Submit(&table, std::move(request)));
  }
  for (uint64_t handle : handles) service.Wait(handle);
  ASSERT_EQ(per_request.size(), 2u);
  for (const auto& entry : per_request) {
    const Seen& seen = entry.second;
    ASSERT_FALSE(seen.seqs.empty());
    for (size_t i = 0; i < seen.seqs.size(); ++i) {
      EXPECT_EQ(seen.seqs[i], i + 1);  // contiguous from 1
    }
    for (size_t i = 1; i < seen.ts.size(); ++i) {
      EXPECT_GE(seen.ts[i], seen.ts[i - 1]);
    }
  }
}

TEST(ServiceObservabilityTest, RecorderAndProfilerNeverPerturbOutput) {
  // With the profiler on and a trace sink attached, on top of the
  // always-on flight recorder, a run still produces tables byte-identical
  // to the serial pipeline run (which has no recorder at all) and the
  // same backend traffic as a run with neither, across thread counts.
  const std::vector<Table> originals = {MakeTable("Oak", 1, 6),
                                        MakeTable("Pine", 2, 5)};
  std::vector<std::string> baselines;
  for (const Table& table : originals) {
    baselines.push_back(SerialFingerprint(table));
  }
  for (int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    size_t backend_calls[2] = {0, 0};
    for (int diagnosed = 0; diagnosed < 2; ++diagnosed) {
      ServiceOptions options;
      options.framework = TestFramework();
      options.num_threads = threads;
      options.enable_profiler = diagnosed == 1;
      ApproveAllOracle oracle;
      ConsolidationService service(&oracle, options);
      CountingTraceSink sink;
      std::vector<Table> tables = originals;
      std::vector<uint64_t> handles;
      for (Table& table : tables) {
        RequestOptions request;
        if (diagnosed == 1) request.trace_sink = &sink;
        handles.push_back(service.Submit(&table, std::move(request)));
      }
      for (size_t t = 0; t < tables.size(); ++t) {
        RequestResult result = service.Wait(handles[t]);
        EXPECT_EQ(FingerprintConsolidation(tables[t], result.golden_records),
                  baselines[t])
            << "table " << t << " diagnosed=" << diagnosed;
      }
      backend_calls[diagnosed] = service.stats().oracle.backend_calls;
      if (diagnosed == 1) {
        // The diagnosis layer actually saw the spans it must not act on.
        ASSERT_NE(service.flight_recorder(), nullptr);
        ASSERT_NE(service.profiler(), nullptr);
        EXPECT_GT(service.flight_recorder()->recorded(), 0u);
        EXPECT_GT(service.profiler()->folded_spans(), 0u);
        const auto totals = service.profiler()->TotalsByName();
        EXPECT_EQ(totals.at("request").count, 2u);
        EXPECT_GT(totals.count("column"), 0u);
        // The profile gauges surface through the registry.
        const std::string text = service.metrics().WriteText();
        EXPECT_NE(text.find("ustl_profile_folded_spans"), std::string::npos);
        EXPECT_NE(text.find("ustl_flight_recorder_spans"), std::string::npos);
        EXPECT_NE(text.find("ustl_build_info{compiler=\""),
                  std::string::npos);
      }
    }
    EXPECT_EQ(backend_calls[0], backend_calls[1]);
  }
}

TEST(ServiceObservabilityTest, TraceSamplingIsDeterministicAcrossThreads) {
  // --trace-sample selects requests by content hash, so the sampled SET
  // must be a pure function of the tables — identical across thread
  // counts and runs — and sampling must not change a single output byte.
  std::vector<Table> originals;
  for (int i = 0; i < 8; ++i) {
    originals.push_back(MakeTable("Samp" + std::to_string(i), 1, 4));
  }
  std::vector<std::string> baselines;
  for (const Table& table : originals) {
    baselines.push_back(SerialFingerprint(table));
  }
  std::vector<std::vector<bool>> sampled_by_threads;
  for (int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    ServiceOptions options;
    options.framework = TestFramework();
    options.num_threads = threads;
    options.trace_sample = 2;
    ApproveAllOracle oracle;
    ConsolidationService service(&oracle, options);
    // One sink per request: a sampled-away request leaves its own sink
    // untouched, which is how we read the per-table decision back out.
    std::vector<CountingTraceSink> sinks(originals.size());
    std::vector<Table> tables = originals;
    std::vector<uint64_t> handles;
    for (size_t t = 0; t < tables.size(); ++t) {
      RequestOptions request;
      request.trace_sink = &sinks[t];
      handles.push_back(service.Submit(&tables[t], std::move(request)));
    }
    std::vector<bool> sampled(originals.size());
    size_t sampled_count = 0;
    for (size_t t = 0; t < tables.size(); ++t) {
      RequestResult result = service.Wait(handles[t]);
      EXPECT_EQ(FingerprintConsolidation(tables[t], result.golden_records),
                baselines[t])
          << "table " << t;
      sampled[t] = sinks[t].count() > 0;
      sampled_count += sampled[t] ? 1 : 0;
    }
    // Every request was either sampled or counted as unsampled.
    const std::string text = service.metrics().WriteText();
    EXPECT_NE(text.find("ustl_trace_sampled_total " +
                        std::to_string(sampled_count)),
              std::string::npos);
    EXPECT_NE(text.find("ustl_trace_unsampled_total " +
                        std::to_string(originals.size() - sampled_count)),
              std::string::npos);
    sampled_by_threads.push_back(std::move(sampled));
  }
  EXPECT_EQ(sampled_by_threads[0], sampled_by_threads[1]);
}

TEST(ServiceObservabilityTest, DeadlineExceededFiresFlightDump) {
  // A request that dies on its deadline must leave a diagnosis artifact:
  // one flight-recorder dump whose JSON carries the reason, the recent
  // span ring and the per-request progress table.
  FaultPlan plan;
  plan.slow_rate = 1.0;
  plan.slow_ms = 25;
  ApproveAllOracle backend;
  FaultInjectingOracle slow(&backend, plan);
  ServiceOptions options;
  options.framework = TestFramework();
  std::vector<std::string> dumps;
  options.flight_dump_sink = [&dumps](const std::string& dump) {
    dumps.push_back(dump);
  };
  ConsolidationService service(&slow, options);
  Table doomed = MakeTable("Slow", 1, 8);
  RequestOptions request;
  request.deadline_ms = 1;
  RequestResult result = service.Wait(service.Submit(&doomed, request));
  ASSERT_EQ(result.status, RequestStatus::kDeadlineExceeded);
  ASSERT_EQ(dumps.size(), 1u);
  const std::string& dump = dumps[0];
  EXPECT_EQ(dump.find("{\"flight_recorder\": {"), 0u);
  EXPECT_NE(dump.find("\"reason\": \"deadline_exceeded\""),
            std::string::npos);
  // The culprit is still in the progress table when the dump fires.
  EXPECT_NE(dump.find("\"requests\": [{\"id\": 1,"), std::string::npos);
  EXPECT_NE(dump.find("\"broker\": {\"pending\":"), std::string::npos);
  EXPECT_NE(dump.find("\"persist\": {\"wal_appends\":"), std::string::npos);
  EXPECT_NE(service.metrics().WriteText().find("ustl_flight_dumps_total 1"),
            std::string::npos);
}

TEST(ServiceObservabilityTest, StallWatchdogDumpsSlowRequestsOnce) {
  // CheckStalls latches per request: a request older than the threshold
  // triggers exactly one dump however often the watchdog polls.
  FaultPlan plan;
  plan.slow_rate = 1.0;
  plan.slow_ms = 30;
  ApproveAllOracle backend;
  FaultInjectingOracle slow(&backend, plan);
  ServiceOptions options;
  options.framework = TestFramework();
  options.num_threads = 1;
  options.stall_threshold_ms = 5;
  std::vector<std::string> dumps;
  options.flight_dump_sink = [&dumps](const std::string& dump) {
    dumps.push_back(dump);
  };
  ConsolidationService service(&slow, options);
  Table slow_table = MakeTable("Stall", 1, 4);
  const uint64_t handle = service.Submit(&slow_table);
  // Poll past the threshold: the first check past 5 ms dumps, later
  // checks see the latch and stay quiet.
  size_t stalled = 0;
  for (int i = 0; i < 100 && stalled == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    stalled = service.CheckStalls();
  }
  EXPECT_EQ(stalled, 1u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(service.CheckStalls(), 0u);
  }
  RequestResult result = service.Wait(handle);
  EXPECT_EQ(result.status, RequestStatus::kOk);
  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_NE(dumps[0].find("\"reason\": \"stall\""), std::string::npos);
}

TEST(ServiceObservabilityTest, StallThresholdBeyondTheClockNeverTrips) {
  // A threshold too far out for the steady clock can never be reached:
  // neither the watchdog nor a draining Shutdown may dump, however young
  // the request.
  std::vector<std::string> dumps;
  ServiceOptions options;
  options.framework = TestFramework();
  options.start_paused = true;  // the request stays active until Shutdown
  options.stall_threshold_ms = std::numeric_limits<int64_t>::max();
  options.flight_dump_sink = [&dumps](const std::string& dump) {
    dumps.push_back(dump);
  };
  ApproveAllOracle oracle;
  ConsolidationService service(&oracle, options);
  Table table = MakeTable("Far", 1, 4);
  const uint64_t handle = service.Submit(&table);
  EXPECT_EQ(service.CheckStalls(), 0u);
  service.Shutdown(/*drain=*/true);  // resumes, then drains
  EXPECT_EQ(service.Wait(handle).status, RequestStatus::kOk);
  EXPECT_TRUE(dumps.empty());
}

TEST(ServiceShutdownTest, DrainRejectsNewSubmitsButFinishesInFlight) {
  // ISSUE 9 satellite: once Shutdown begins draining, a new Submit comes
  // back immediately with the typed kShuttingDown status, while requests
  // admitted before the drain complete normally with unchanged bytes.
  const std::string baseline = SerialFingerprint(MakeTable("Drain", 1, 5));
  ServiceOptions options;
  options.framework = TestFramework();
  options.num_threads = 1;
  options.start_paused = true;  // both in-flight requests queue first
  ApproveAllOracle oracle;
  ConsolidationService service(&oracle, options);

  Table in_flight_a = MakeTable("Drain", 1, 5);
  Table in_flight_b = MakeTable("Drain", 1, 5);
  const uint64_t handle_a = service.Submit(&in_flight_a);
  const uint64_t handle_b = service.Submit(&in_flight_b);

  service.Shutdown(/*drain=*/false);  // begin draining, don't block

  // Rejected without blocking: the handle is pre-completed.
  Table late = MakeTable("Late", 1, 4);
  const uint64_t handle_late = service.Submit(&late);
  RequestResult rejected = service.Wait(handle_late);
  EXPECT_EQ(rejected.status, RequestStatus::kShuttingDown);
  EXPECT_TRUE(rejected.golden_records.empty());
  EXPECT_EQ(service.stats().requests_rejected, 1u);

  // In-flight requests are unaffected by the drain: they complete with
  // kOk and the same bytes as a serial run.
  service.Resume();
  RequestResult result_a = service.Wait(handle_a);
  RequestResult result_b = service.Wait(handle_b);
  EXPECT_EQ(result_a.status, RequestStatus::kOk);
  EXPECT_EQ(result_b.status, RequestStatus::kOk);
  EXPECT_EQ(FingerprintConsolidation(in_flight_a, result_a.golden_records),
            baseline);
  EXPECT_EQ(FingerprintConsolidation(in_flight_b, result_b.golden_records),
            baseline);
  service.Shutdown(/*drain=*/true);  // idempotent; already drained
  EXPECT_EQ(service.stats().requests_completed, 2u);
}

TEST(ServiceShutdownTest, PersistedServiceWarmRestartsByteIdentical) {
  // ISSUE 9 acceptance at test scope: a service with persist_dir set
  // writes its warm state on shutdown; a second service over the same
  // directory recovers it, produces byte-identical output, and makes
  // strictly fewer (here: zero) backend calls.
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() /
       ("ustl_serve_persist_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  const std::string baseline = SerialFingerprint(MakeTable("Warm", 2, 6));

  size_t cold_calls = 0;
  {
    ServiceOptions options;
    options.framework = TestFramework();
    options.persist_dir = dir;
    ApproveAllOracle oracle;
    ConsolidationService service(&oracle, options);
    EXPECT_EQ(service.stats().persist.recovered_records, 0u);
    Table table = MakeTable("Warm", 2, 6);
    RequestResult result = service.Wait(service.Submit(&table));
    EXPECT_EQ(result.status, RequestStatus::kOk);
    EXPECT_EQ(FingerprintConsolidation(table, result.golden_records),
              baseline);
    cold_calls = service.stats().oracle.backend_calls;
    EXPECT_GT(cold_calls, 0u);
    EXPECT_GT(service.stats().persist.wal_appends, 0u);
    // Destructor = Shutdown(true): drains and writes the final snapshot.
  }
  ASSERT_TRUE(fs::exists(dir + "/snapshot.bin"));

  {
    ServiceOptions options;
    options.framework = TestFramework();
    options.persist_dir = dir;
    ApproveAllOracle oracle;
    ConsolidationService service(&oracle, options);
    EXPECT_GT(service.stats().persist.recovered_records, 0u);
    Table table = MakeTable("Warm", 2, 6);
    RequestResult result = service.Wait(service.Submit(&table));
    EXPECT_EQ(result.status, RequestStatus::kOk);
    // Byte-identical output from recovered state, zero backend traffic:
    // warm state only ever skips questions, never changes answers.
    EXPECT_EQ(FingerprintConsolidation(table, result.golden_records),
              baseline);
    EXPECT_EQ(service.stats().oracle.backend_calls, 0u);
    EXPECT_LT(service.stats().oracle.backend_calls, cold_calls);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ustl
