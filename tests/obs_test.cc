// Tests for src/obs: the metrics registry (atomic counters, gauges,
// fixed-bucket histograms, registration-ordered exposition) and the
// per-request tracing primitives (span ids, RAII emission, null-sink
// inertness, JSON-lines schema). The concurrency tests double as TSan
// targets: scrapes race with updates by design, and the sanitizer run
// keeps the relaxed-atomic claims honest.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "vector_trace_sink.h"

namespace ustl {
namespace {

TEST(MetricsRegistryTest, CounterAggregatesAcrossThreads) {
  MetricsRegistry registry;
  Counter* counter = registry.RegisterCounter("test_total", "help");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kPerThread; ++i) counter->Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter->Value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  Gauge gauge;
  gauge.Set(41);
  gauge.Add(2);
  gauge.Add(-1);
  EXPECT_EQ(gauge.Value(), 42);
  gauge.Set(-7);  // signed: queue depths may legitimately go negative
  EXPECT_EQ(gauge.Value(), -7);
}

TEST(MetricsRegistryTest, HistogramBucketsIncludeUpperBounds) {
  Histogram histogram({10, 100});
  // Bounds are inclusive: 10 lands in the first bucket, 101 in +Inf.
  for (int64_t value : {5, 10, 11, 100, 101}) histogram.Observe(value);
  Histogram::Snapshot snapshot = histogram.Aggregate();
  ASSERT_EQ(snapshot.bucket_counts.size(), 3u);  // two bounds + Inf
  EXPECT_EQ(snapshot.bucket_counts[0], 2u);      // 5, 10
  EXPECT_EQ(snapshot.bucket_counts[1], 2u);      // 11, 100
  EXPECT_EQ(snapshot.bucket_counts[2], 1u);      // 101
  EXPECT_EQ(snapshot.count, 5u);
  EXPECT_EQ(snapshot.sum, 5 + 10 + 11 + 100 + 101);
}

TEST(MetricsRegistryTest, RegistrationIsIdempotentByName) {
  MetricsRegistry registry;
  Counter* first = registry.RegisterCounter("dup_total", "help");
  Counter* second = registry.RegisterCounter("dup_total", "other help");
  EXPECT_EQ(first, second);  // same instrument, independent subsystems
  Gauge* gauge = registry.RegisterGauge("depth", "help");
  EXPECT_EQ(gauge, registry.RegisterGauge("depth", "help"));
}

TEST(MetricsRegistryTest, TextExpositionIsRegistrationOrderedAndStable) {
  MetricsRegistry registry;
  registry.RegisterCounter("zzz_total", "registered first");
  registry.RegisterGauge("aaa_depth", "registered second");
  registry.RegisterHistogram("mmm_us", "registered third", {1000});
  const std::string first = registry.WriteText();
  const std::string second = registry.WriteText();
  // Identical state scrapes byte-identically (no hash-order leakage).
  EXPECT_EQ(first, second);
  // Registration order wins over lexicographic order.
  EXPECT_LT(first.find("zzz_total"), first.find("aaa_depth"));
  EXPECT_LT(first.find("aaa_depth"), first.find("mmm_us"));
  EXPECT_NE(first.find("# TYPE zzz_total counter"), std::string::npos);
  EXPECT_NE(first.find("# TYPE aaa_depth gauge"), std::string::npos);
  EXPECT_NE(first.find("# TYPE mmm_us histogram"), std::string::npos);
}

TEST(MetricsRegistryTest, TextHistogramBucketsAreCumulative) {
  MetricsRegistry registry;
  Histogram* histogram = registry.RegisterHistogram("lat_us", "help", {10, 100});
  for (int64_t value : {5, 10, 11, 100, 101}) histogram->Observe(value);
  const std::string text = registry.WriteText();
  EXPECT_NE(text.find("lat_us_bucket{le=\"10\"} 2"), std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{le=\"100\"} 4"), std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{le=\"+Inf\"} 5"), std::string::npos);
  EXPECT_NE(text.find("lat_us_sum 227"), std::string::npos);
  EXPECT_NE(text.find("lat_us_count 5"), std::string::npos);
}

TEST(MetricsRegistryTest, JsonSnapshotCarriesValues) {
  MetricsRegistry registry;
  Counter* counter = registry.RegisterCounter("jobs_total", "help");
  counter->Increment(3);
  registry.RegisterGauge("depth", "help")->Set(-2);
  const std::string json = registry.WriteJson();
  EXPECT_EQ(json.find("{\"metrics\": ["), 0u);
  EXPECT_NE(json.find("\"name\": \"jobs_total\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"value\": -2"), std::string::npos);
}

TEST(MetricsRegistryTest, CollectorsRunAtScrapeTime) {
  MetricsRegistry registry;
  Gauge* mirrored = registry.RegisterGauge("mirrored", "help");
  int source = 0;
  registry.AddCollector([&source, mirrored] { mirrored->Set(source); });
  source = 17;
  EXPECT_NE(registry.WriteText().find("mirrored 17"), std::string::npos);
  source = 23;  // a later scrape re-runs the collector
  EXPECT_NE(registry.WriteText().find("mirrored 23"), std::string::npos);
}

TEST(MetricsRegistryTest, ScrapesRaceSafelyWithUpdates) {
  // TSan leg: concurrent Increment/Observe against WriteText must be
  // clean — scrapes read relaxed atomics, never a torn struct.
  MetricsRegistry registry;
  Counter* counter = registry.RegisterCounter("race_total", "help");
  Histogram* histogram =
      registry.RegisterHistogram("race_us", "help", {100, 10000});
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([counter, histogram] {
      for (int i = 0; i < 5000; ++i) {
        counter->Increment();
        histogram->Observe(i);
      }
    });
  }
  for (int s = 0; s < 20; ++s) {
    EXPECT_FALSE(registry.WriteText().empty());
  }
  for (std::thread& thread : writers) thread.join();
  EXPECT_EQ(counter->Value(), 20000u);
  EXPECT_EQ(histogram->Aggregate().count, 20000u);
}

TEST(TraceTest, NullContextAndNullSinkAreInert) {
  ScopedSpan no_context(nullptr, 0, "never");
  EXPECT_FALSE(no_context.active());
  EXPECT_EQ(no_context.id(), 0u);
  no_context.AddAttr("ignored", 1);  // must be safe

  TraceContext unsinked(nullptr, "r", SteadyNow());
  ScopedSpan no_sink(&unsinked, 0, "never");
  EXPECT_FALSE(no_sink.active());
  EXPECT_EQ(no_sink.id(), 0u);
  unsinked.Event(0, "never", "");  // no-op, must not crash
}

TEST(TraceTest, SpanIdsGrowAndChildrenOutnumberParents) {
  CountingTraceSink sink;
  TraceContext ctx(&sink, "req", SteadyNow());
  ScopedSpan parent(&ctx, 0, "parent");
  EXPECT_EQ(parent.id(), 1u);
  {
    ScopedSpan child(&ctx, parent.id(), "child");
    EXPECT_GT(child.id(), parent.id());
  }
  EXPECT_EQ(sink.count(), 1u);  // the child closed, the parent is open
  parent.End();
  EXPECT_EQ(sink.count(), 2u);
  parent.End();  // idempotent
  EXPECT_EQ(sink.count(), 2u);
  EXPECT_GT(sink.formatted_bytes(), 0);
}

TEST(TraceTest, JsonLinesSchema) {
  TraceSpan span;
  span.request_id = "tab\"le#1";
  span.id = 3;
  span.parent = 1;
  span.name = "graph_build";
  span.detail = "u=>ul";
  span.start_us = 10;
  span.end_us = 25;
  span.cpu_us = 7;
  span.attrs = {{"pairs", 6}};
  EXPECT_EQ(FormatTraceSpanJson(span),
            "{\"request\": \"tab\\\"le#1\", \"id\": 3, \"parent\": 1, "
            "\"name\": \"graph_build\", \"detail\": \"u=>ul\", "
            "\"start_us\": 10, \"end_us\": 25, \"cpu_us\": 7, "
            "\"attrs\": {\"pairs\": 6}}");
  // detail and attrs are omitted when empty; cpu_us is always present
  // (0 marks hand-built cross-thread spans, not "unknown").
  TraceSpan bare;
  bare.request_id = "r";
  bare.id = 1;
  bare.name = "request";
  const std::string formatted = FormatTraceSpanJson(bare);
  EXPECT_EQ(formatted.find("detail"), std::string::npos);
  EXPECT_EQ(formatted.find("attrs"), std::string::npos);
  EXPECT_NE(formatted.find("\"cpu_us\": 0"), std::string::npos);
}

TEST(TraceTest, JsonLinesSinkWritesOneLinePerSpan) {
  std::ostringstream out;
  JsonLinesTraceSink sink(&out);
  TraceContext ctx(&sink, "req", SteadyNow());
  { ScopedSpan span(&ctx, 0, "a"); }
  ctx.Event(1, "b", "note", {{"n", 2}});
  const std::string text = out.str();
  size_t lines = 0;
  for (char c : text) lines += c == '\n';
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(text.find("\"name\": \"a\""), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"b\""), std::string::npos);
  // The event is a point span under parent 1.
  EXPECT_NE(text.find("\"parent\": 1"), std::string::npos);
}

TEST(TraceTest, MonotonicTimestampsAndContainment) {
  std::ostringstream out;
  JsonLinesTraceSink sink(&out);
  TraceContext ctx(&sink, "req", SteadyNow());
  ScopedSpan parent(&ctx, 0, "parent");
  { ScopedSpan child(&ctx, parent.id(), "child"); }
  parent.End();
  // Emission order is child first (RAII), and the parent's interval
  // contains the child's; spot-check via the formatted output order.
  const std::string text = out.str();
  EXPECT_LT(text.find("\"name\": \"child\""), text.find("\"name\": \"parent\""));
}

TEST(TraceTest, ConcurrentSpansGetUniqueIds) {
  // TSan leg: many threads open/close spans on one context; the id
  // counter and the sink must both be thread-safe.
  CountingTraceSink sink;
  TraceContext ctx(&sink, "req", SteadyNow());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&ctx] {
      for (int i = 0; i < 1000; ++i) {
        ScopedSpan span(&ctx, 0, "work");
        span.AddAttr("i", i);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(sink.count(), 4000u);
  // All ids were handed out exactly once: the next one is #4001.
  EXPECT_EQ(ctx.NextSpanId(), 4001u);
}

TEST(MetricsRegistryTest, LabeledGaugeRendersLabelsInBothFormats) {
  MetricsRegistry registry;
  Gauge* info = registry.RegisterGauge(
      "build_info", "help",
      {{"compiler", "gcc 12.2.0"}, {"build_type", "Release"}});
  info->Set(1);
  const std::string text = registry.WriteText();
  EXPECT_NE(text.find("build_info{compiler=\"gcc 12.2.0\","
                      "build_type=\"Release\"} 1"),
            std::string::npos);
  const std::string json = registry.WriteJson();
  EXPECT_NE(json.find("\"labels\": {\"compiler\": \"gcc 12.2.0\", "
                      "\"build_type\": \"Release\"}"),
            std::string::npos);
  // Idempotency keys on the bare name, labels notwithstanding.
  EXPECT_EQ(info, registry.RegisterGauge("build_info", "help"));
}

TEST(MetricsRegistryTest, ProcessMetricsExposeRssCpuFdsAndBuildInfo) {
  MetricsRegistry registry;
  RegisterProcessMetrics(&registry);
  const std::string text = registry.WriteText();
  // Presence always; nonzero only where short-lived processes can
  // guarantee it (whole-second CPU time may legitimately read 0).
  EXPECT_NE(text.find("ustl_process_rss_bytes"), std::string::npos);
  EXPECT_NE(text.find("ustl_process_cpu_seconds_total"), std::string::npos);
  EXPECT_NE(text.find("ustl_process_open_fds"), std::string::npos);
  EXPECT_NE(text.find("ustl_build_info{compiler=\""), std::string::npos);
  EXPECT_NE(text.find("build_type=\"" + std::string(BuildTypeString())),
            std::string::npos);
#if defined(__linux__)
  // A running gtest binary has a nonzero footprint and open fds.
  Gauge* rss = registry.RegisterGauge("ustl_process_rss_bytes", "");
  Gauge* fds = registry.RegisterGauge("ustl_process_open_fds", "");
  registry.WriteText();  // collectors refresh on scrape
  EXPECT_GT(rss->Value(), 0);
  EXPECT_GT(fds->Value(), 0);
#endif
}

TEST(TraceTest, CpuTimeIsCapturedAndClampedToWall) {
  VectorTraceSink sink;
  TraceContext ctx(&sink, "req", SteadyNow());
  {
    ScopedSpan span(&ctx, 0, "busy");
    // Burn a little CPU so the thread clock moves on most schedulers.
    volatile uint64_t sum = 0;
    for (int i = 0; i < 200000; ++i) sum += i;
  }
  const std::vector<TraceSpan> spans = sink.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_GE(spans[0].cpu_us, 0);
  EXPECT_LE(spans[0].cpu_us, spans[0].end_us - spans[0].start_us);
}

TEST(TraceTest, TeeFansOutToEverySinkAndSkipsNulls) {
  CountingTraceSink a;
  CountingTraceSink b;
  TeeTraceSink tee({&a, nullptr, &b});
  TraceContext ctx(&tee, "req", SteadyNow());
  { ScopedSpan span(&ctx, 0, "work"); }
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(b.count(), 1u);
}

/// A serial synthetic span tree with hand-picked intervals:
///   request [0,100] cpu 50
///     column.a [10,40] cpu 20
///       search_wave [20,30] cpu 5
///     column.b [50,90] cpu 10
/// Children emit before the root (RAII order).
void EmitSyntheticTree(TraceSink* sink) {
  TraceSpan wave;
  wave.request_id = "t#1";
  wave.id = 3;
  wave.parent = 2;
  wave.name = "search_wave";
  wave.start_us = 20;
  wave.end_us = 30;
  wave.cpu_us = 5;
  sink->Emit(wave);
  TraceSpan col_a;
  col_a.request_id = "t#1";
  col_a.id = 2;
  col_a.parent = 1;
  col_a.name = "column";
  col_a.start_us = 10;
  col_a.end_us = 40;
  col_a.cpu_us = 20;
  sink->Emit(col_a);
  TraceSpan col_b;
  col_b.request_id = "t#1";
  col_b.id = 4;
  col_b.parent = 1;
  col_b.name = "column";
  col_b.start_us = 50;
  col_b.end_us = 90;
  col_b.cpu_us = 10;
  sink->Emit(col_b);
  TraceSpan root;
  root.request_id = "t#1";
  root.id = 1;
  root.parent = 0;
  root.name = "request";
  root.start_us = 0;
  root.end_us = 100;
  root.cpu_us = 50;
  sink->Emit(root);
}

TEST(ProfileTest, FoldsInclusiveAndExclusiveTimes) {
  ProfileAccumulator profiler;
  EmitSyntheticTree(&profiler);
  const auto table = profiler.Table();
  ASSERT_EQ(table.size(), 3u);  // request, request;column, request;column;...
  const auto& root = table.at("request");
  EXPECT_EQ(root.count, 1u);
  EXPECT_EQ(root.wall_us, 100);
  EXPECT_EQ(root.self_wall_us, 100 - 30 - 40);  // minus both columns
  EXPECT_EQ(root.cpu_us, 50);
  EXPECT_EQ(root.self_cpu_us, 50 - 20 - 10);
  const auto& column = table.at("request;column");
  EXPECT_EQ(column.count, 2u);  // both columns share a path
  EXPECT_EQ(column.wall_us, 30 + 40);
  EXPECT_EQ(column.self_wall_us, (30 - 10) + 40);
  const auto& wave = table.at("request;column;search_wave");
  EXPECT_EQ(wave.count, 1u);
  EXPECT_EQ(wave.wall_us, 10);
  EXPECT_EQ(wave.self_wall_us, 10);  // leaf: inclusive == exclusive
  // Inclusive >= exclusive everywhere, and on a serial tree the self
  // wall times sum exactly to the root's wall time.
  int64_t self_sum = 0;
  for (const auto& row : table) {
    EXPECT_GE(row.second.wall_us, row.second.self_wall_us) << row.first;
    EXPECT_GE(row.second.cpu_us, row.second.self_cpu_us) << row.first;
    self_sum += row.second.self_wall_us;
  }
  EXPECT_EQ(self_sum, 100);
  EXPECT_EQ(profiler.folded_spans(), 4u);
  EXPECT_EQ(profiler.dropped_spans(), 0u);
  // TotalsByName collapses paths to their leaf name.
  const auto totals = profiler.TotalsByName();
  EXPECT_EQ(totals.at("column").count, 2u);
  EXPECT_EQ(totals.at("search_wave").self_wall_us, 10);
}

TEST(ProfileTest, JsonAndFoldedOutputsCarryTheTable) {
  ProfileAccumulator profiler;
  EmitSyntheticTree(&profiler);
  const std::string json = profiler.WriteJson();
  EXPECT_EQ(json.find("{\"profile\": ["), 0u);
  EXPECT_NE(json.find("\"path\": \"request;column;search_wave\""),
            std::string::npos);
  EXPECT_NE(json.find("\"folded_spans\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_spans\": 0"), std::string::npos);
  const std::string folded = profiler.WriteFolded();
  EXPECT_NE(folded.find("request;column;search_wave 10\n"), std::string::npos);
  EXPECT_NE(folded.find("request 30\n"), std::string::npos);
}

TEST(ProfileTest, BufferBoundDropsInsteadOfGrowing) {
  ProfileAccumulator profiler(/*max_buffered_spans=*/2);
  for (uint64_t i = 0; i < 5; ++i) {
    TraceSpan span;
    span.request_id = "leaky#1";
    span.id = 10 + i;
    span.parent = 1;  // never-closing root: these can only buffer
    span.name = "column";
    profiler.Emit(span);
  }
  EXPECT_EQ(profiler.dropped_spans(), 3u);
  // The two buffered spans still fold when their root finally closes.
  TraceSpan root;
  root.request_id = "leaky#1";
  root.id = 1;
  root.parent = 0;
  root.name = "request";
  profiler.Emit(root);
  EXPECT_EQ(profiler.folded_spans(), 3u);  // root + 2 survivors
}

TEST(ProfileTest, ConcurrentRequestsFoldIndependently) {
  // TSan leg: many threads emit full synthetic trees under distinct
  // request ids while a reader snapshots the table.
  ProfileAccumulator profiler;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&profiler, t] {
      for (int i = 0; i < 200; ++i) {
        TraceSpan child;
        child.request_id = "r" + std::to_string(t) + "#" + std::to_string(i);
        child.id = 2;
        child.parent = 1;
        child.name = "column";
        child.start_us = 1;
        child.end_us = 2;
        profiler.Emit(child);
        TraceSpan root = child;
        root.id = 1;
        root.parent = 0;
        root.name = "request";
        root.start_us = 0;
        root.end_us = 3;
        profiler.Emit(root);
      }
    });
  }
  for (int s = 0; s < 20; ++s) (void)profiler.Table();
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(profiler.folded_spans(), 4u * 200 * 2);
  EXPECT_EQ(profiler.dropped_spans(), 0u);
  EXPECT_EQ(profiler.Table().at("request;column").count, 4u * 200);
}

TEST(FlightRecorderTest, RingKeepsTheNewestSpansAfterWraparound) {
  FlightRecorder recorder(/*capacity=*/4);
  for (uint64_t i = 1; i <= 10; ++i) {
    TraceSpan span;
    span.request_id = "r#1";
    span.id = i;
    span.name = "column";
    span.start_us = static_cast<int64_t>(i);
    recorder.Emit(span);
  }
  EXPECT_EQ(recorder.capacity(), 4u);
  EXPECT_EQ(recorder.recorded(), 10u);
  const std::vector<TraceSpan> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-to-newest of the surviving tail: ids 7..10.
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].id, 7 + i);
  }
}

TEST(FlightRecorderTest, DumpJsonCarriesReasonSpansAndContext) {
  FlightRecorder recorder(/*capacity=*/8);
  TraceSpan span;
  span.request_id = "elm#1";
  span.id = 2;
  span.parent = 1;
  span.name = "column";
  span.end_us = 5;
  recorder.Emit(span);
  const std::string dump =
      recorder.DumpJson("stall", 1234, "{\"requests\": []}");
  EXPECT_EQ(dump.find("{\"flight_recorder\": {"), 0u);
  EXPECT_NE(dump.find("\"reason\": \"stall\""), std::string::npos);
  EXPECT_NE(dump.find("\"dumped_us\": 1234"), std::string::npos);
  EXPECT_NE(dump.find("\"capacity\": 8"), std::string::npos);
  EXPECT_NE(dump.find("\"recorded\": 1"), std::string::npos);
  EXPECT_NE(dump.find("\"name\": \"column\""), std::string::npos);
  EXPECT_NE(dump.find("\"context\": {\"requests\": []}"), std::string::npos);
  // Empty context stays schema-valid JSON.
  EXPECT_NE(recorder.DumpJson("drain_timeout", 1, "").find("\"context\": {}"),
            std::string::npos);
}

TEST(FlightRecorderTest, ConcurrentEmitAndDumpAreSafe) {
  // TSan leg: writers race Snapshot/DumpJson; the ring must never tear.
  FlightRecorder recorder(/*capacity=*/32);
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&recorder] {
      for (int i = 0; i < 2000; ++i) {
        TraceSpan span;
        span.request_id = "r";
        span.id = static_cast<uint64_t>(i) + 1;
        span.name = "work";
        recorder.Emit(span);
      }
    });
  }
  for (int s = 0; s < 20; ++s) {
    EXPECT_FALSE(recorder.DumpJson("race", s, "").empty());
  }
  for (std::thread& thread : writers) thread.join();
  EXPECT_EQ(recorder.recorded(), 8000u);
  EXPECT_EQ(recorder.Snapshot().size(), 32u);
}

}  // namespace
}  // namespace ustl
