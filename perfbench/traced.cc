// Traced mode. The replay drives the workload's tables serially through
// the public calls the service and StandardizeColumn make, with one
// benchmark-side span around each call; nothing inside the library is
// instrumented for it. Spans stay in memory and are written at exit.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "bench.h"
#include "common/clock.h"
#include "common/parallel.h"
#include "consolidate/truth_discovery.h"
#include "graph/graph_builder.h"
#include "graph/term_scorer.h"
#include "grouping/grouping.h"
#include "index/inverted_index.h"
#include "obs/trace.h"
#include "pipeline/oracle_broker.h"
#include "pipeline/pipeline.h"
#include "replace/replacement_store.h"

namespace ustl {
namespace perfbench {
namespace {

/// Benchmark-side spans. A span name is "<layer>.<call>". Single-threaded:
/// the replay opens every span on the driving thread.
class Tracer {
 public:
  struct Span {
    const char* name;
    uint32_t request;
    uint32_t id;
    uint32_t parent;
    int64_t start_ns;
    int64_t end_ns;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  uint32_t Begin(const char* name, uint32_t request, uint32_t parent) {
    if (!enabled_) return 0;
    const uint32_t id = static_cast<uint32_t>(spans_.size() + 1);
    spans_.push_back({name, request, id, parent, Now(), 0});
    return id;
  }

  void End(uint32_t id) {
    if (id != 0) spans_[id - 1].end_ns = Now();
  }

  const std::vector<Span>& spans() const { return spans_; }

  int64_t DurationUs(uint32_t id) const {
    return id == 0 ? 0 : (spans_[id - 1].end_ns - spans_[id - 1].start_ns) / 1000;
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(SteadyNow() -
                                                                epoch_)
        .count();
  }

  bool enabled_;
  SteadyClock::time_point epoch_ = SteadyNow();
  std::vector<Span> spans_;
};

class Scope {
 public:
  Scope(Tracer* tracer, const char* name, uint32_t request, uint32_t parent)
      : tracer_(tracer), id_(tracer->Begin(name, request, parent)) {}
  ~Scope() { End(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  uint32_t id() const { return id_; }
  void End() {
    tracer_->End(id_);
    id_ = 0;
  }

 private:
  Tracer* tracer_;
  uint32_t id_;
};

/// The simulated human behind the broker, timed so pipeline.verify can
/// exclude the human's own time.
class TimedHuman : public VerificationOracle {
 public:
  TimedHuman(VerificationOracle* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  void SetParent(uint32_t request, uint32_t parent) {
    request_ = request;
    parent_ = parent;
  }

  Verdict Verify(const std::vector<StringPair>& group_pairs) override {
    Scope span(tracer_, "human.verify", request_, parent_);
    return inner_->Verify(group_pairs);
  }

 private:
  VerificationOracle* inner_;
  Tracer* tracer_;
  uint32_t request_ = 0;
  uint32_t parent_ = 0;
};

/// Learns which structure groups a GroupingEngine preprocessed: the
/// engine names each in a graph_build span of its existing trace hook.
class BuildCapture : public TraceSink {
 public:
  void Emit(const TraceSpan& span) override {
    if (span.name != "graph_build") return;
    std::lock_guard<std::mutex> lock(mutex_);
    structures_.push_back(span.detail);
  }

  std::vector<std::string> Take() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out = std::move(structures_);
    structures_.clear();
    return out;
  }

 private:
  std::mutex mutex_;
  std::vector<std::string> structures_;
};

struct ReplayTotals {
  WorkCounters counters;
  uint64_t pairs = 0;
  uint64_t graphs = 0;
  uint64_t labels = 0;
  uint64_t postings = 0;
  uint64_t index_bytes = 0;
  uint64_t io_bytes = 0;
  /// Per arrival.
  std::vector<std::string> fingerprints;
  std::vector<int64_t> busy_us;
  double cpu_s = 0.0;
};

struct ReplayContext {
  Tracer* tracer;
  OracleBroker* broker;
  TimedHuman* human;
  BuildCapture* capture;
  TraceContext* capture_trace;
  ThreadPool* pool;
  ReplayTotals* totals;
};

/// Re-builds the graphs and indexes of the structure groups the engine
/// preprocessed, timing GraphBuilder::BuildBatch and InvertedIndex::Build
/// the way GroupingEngine::Preprocess calls them.
void RebuildStructureGroups(const ReplayContext& ctx,
                            const std::vector<StringPair>& pairs,
                            const GroupingOptions& grouping,
                            const std::vector<std::string>& built,
                            uint32_t request, uint32_t parent) {
  if (built.empty()) return;
  const bool use_scorer =
      grouping.use_term_scorer && grouping.structure_refinement;
  Scope corpus_span(ctx.tracer, "graph.scorer", request, parent);
  CorpusFrequency global;
  if (grouping.use_term_scorer) {
    for (const StringPair& pair : pairs) {
      global.Add(pair.lhs);
      global.Add(pair.rhs);
    }
  }
  corpus_span.End();
  for (const auto& [structure, indices] :
       PartitionByStructure(pairs, grouping.structure_refinement)) {
    if (std::find(built.begin(), built.end(), structure) == built.end()) {
      continue;
    }
    LabelInterner interner;
    GraphBuilderOptions options = grouping.graph;
    Scope scorer_span(ctx.tracer, "graph.scorer", request, parent);
    std::optional<FrequencyTermScorer> scorer;
    if (use_scorer) {
      scorer.emplace(&global);
      for (size_t i : indices) {
        scorer->AddStructureString(pairs[i].lhs);
        scorer->AddStructureString(pairs[i].rhs);
      }
      options.scorer = &*scorer;
    }
    scorer_span.End();
    GraphBuilder builder(options, &interner);
    std::vector<GraphBuilder::BuildRequest> requests;
    for (size_t i : indices) requests.push_back({pairs[i].lhs, pairs[i].rhs});

    Scope build_span(ctx.tracer, "graph.build", request, parent);
    const std::vector<TransformationGraph> graphs =
        CheckOk(builder.BuildBatch(requests, ctx.pool));
    build_span.End();

    IndexBuildOptions index_options;
    index_options.codec = grouping.index_codec;
    index_options.block = grouping.block_postings;
    Scope index_span(ctx.tracer, "index.build", request, parent);
    InvertedIndex index = InvertedIndex::Build(graphs, ctx.pool, 0,
                                               interner.size(), index_options);
    index_span.End();

    ctx.totals->graphs += graphs.size();
    ctx.totals->labels += interner.size();
    ctx.totals->postings += index.NumPostings();
    ctx.totals->index_bytes += index.MemoryBytes();
  }
}

/// StandardizeColumn (consolidate/framework.cc), call for call, with a
/// span around each call into another module.
void ReplayColumn(const ReplayContext& ctx, const FrameworkOptions& options,
                  Column* column, uint32_t request, uint32_t parent) {
  Tracer* tracer = ctx.tracer;
  Scope candidates_span(tracer, "replace.candidates", request, parent);
  ReplacementStore store(*column, options.candidates);
  candidates_span.End();
  ctx.totals->pairs += store.num_pairs();

  GroupingOptions grouping = options.grouping;
  if (tracer->enabled()) grouping.trace = ctx.capture_trace;
  const std::vector<StringPair> pairs = store.pairs();
  Scope init_span(tracer, "grouping.init", request, parent);
  GroupingEngine engine(pairs, grouping);
  init_span.End();

  size_t presented = 0;
  while (presented < options.budget_per_column) {
    Scope next_span(tracer, "grouping.next", request, parent);
    std::optional<Group> group = engine.Next();
    next_span.End();
    if (!group.has_value()) break;
    if (options.skip_singletons && group->size() <= 1) continue;
    if (options.skip_constant_pivot_groups && group->pure_constant) continue;
    if (group->constant_coverage > options.max_constant_coverage) continue;
    if (options.skip_dead_groups) {
      bool any_live = false;
      for (size_t pair_index : group->member_pair_indices) {
        if (!store.occurrences(pair_index).empty()) {
          any_live = true;
          break;
        }
      }
      if (!any_live) continue;
    }
    std::vector<StringPair> group_pairs;
    group_pairs.reserve(group->size());
    for (size_t pair_index : group->member_pair_indices) {
      group_pairs.push_back(store.pair(pair_index));
    }

    ++presented;
    QuestionContext context;
    context.column = options.column_name;
    context.program = group->program;
    context.presented = presented;
    Scope verify_span(tracer, "pipeline.verify", request, parent);
    ctx.human->SetParent(request, verify_span.id());
    const Verdict verdict = ctx.broker->VerifyWithContext(group_pairs, context);
    verify_span.End();

    if (verdict.approved) {
      Scope apply_span(tracer, "replace.apply", request, parent);
      size_t edits = 0;
      for (size_t pair_index : group->member_pair_indices) {
        edits += verdict.direction == ReplaceDirection::kLhsToRhs
                     ? store.Apply(pair_index)
                     : store.ApplyReverse(pair_index);
      }
      ctx.totals->counters.edits += edits;
    }
  }
  ctx.totals->counters.Add(engine.stats());
  ctx.totals->counters.groups_presented += presented;
  *column = store.column();

  if (tracer->enabled()) {
    grouping.trace = nullptr;
    RebuildStructureGroups(ctx, pairs, grouping, ctx.capture->Take(), request,
                           parent);
  }
}

ReplayTotals Replay(const Inputs& inputs, Tracer* tracer) {
  const WorkloadConfig& config = inputs.config;
  ReplayTotals totals;
  std::unique_ptr<SimulatedOracle> simulated = MakeHuman(*inputs.judge);
  TimedHuman human(simulated.get(), tracer);
  // One broker and one search cache for the whole stream, as the service.
  OracleBroker broker(&human);
  SearchResultCache search_cache;
  BuildCapture capture;
  TraceContext capture_trace(&capture, "replay", SteadyNow());
  std::unique_ptr<ThreadPool> pool;
  if (config.grouping_threads > 1) {
    pool = std::make_unique<ThreadPool>(config.grouping_threads);
  }
  const ReplayContext ctx{tracer, &broker, &human, &capture,
                          &capture_trace, pool.get(), &totals};

  std::vector<std::string> texts;
  for (const TableInput& table : inputs.tables) {
    texts.push_back(CheckOk(ReadFileToString(table.csv_path)));
  }
  const std::string out_stem = inputs.work_dir + "/replay";

  const double cpu_start = ProcessCpuSeconds();
  for (size_t a = 0; a < inputs.arrivals.size(); ++a) {
    const uint32_t request = static_cast<uint32_t>(a + 1);
    const std::string& text = texts[inputs.arrivals[a]];
    Scope request_span(tracer, "bench.request", request, 0);

    Scope parse_span(tracer, "io.parse", request, request_span.id());
    ClusteredCsv csv = CheckOk(ReadClusteredCsv(text, "cluster"));
    parse_span.End();
    totals.io_bytes += text.size();

    std::vector<Column> columns;
    for (size_t col = 0; col < csv.table.num_columns(); ++col) {
      Scope column_span(tracer, "bench.column", request, request_span.id());
      FrameworkOptions options = BenchFramework();
      options.column_name = csv.table.column_names()[col];
      options.grouping.num_threads = config.grouping_threads;
      options.grouping.shared_search_cache = &search_cache;
      Column column = csv.table.ExtractColumn(col);
      ReplayColumn(ctx, options, &column, request, column_span.id());
      columns.push_back(std::move(column));
    }
    for (size_t col = 0; col < columns.size(); ++col) {
      csv.table.StoreColumn(col, columns[col]);
    }

    Scope fuse_span(tracer, "consolidate.fuse", request, request_span.id());
    const std::vector<GoldenRecord> golden = MajorityConsensus(csv.table);
    fuse_span.End();

    Scope write_span(tracer, "io.write", request, request_span.id());
    const std::string table_csv = WriteClusteredCsv(csv);
    const std::string golden_csv = WriteGoldenCsv(csv, golden);
    CheckOk(WriteStringToFile(out_stem + ".csv", table_csv));
    CheckOk(WriteStringToFile(out_stem + ".golden.csv", golden_csv));
    write_span.End();
    totals.io_bytes += table_csv.size() + golden_csv.size();

    const uint32_t request_id = request_span.id();
    request_span.End();
    totals.busy_us.push_back(tracer->DurationUs(request_id));
    totals.fingerprints.push_back(FingerprintConsolidation(csv.table, golden));
  }
  totals.cpu_s = ProcessCpuSeconds() - cpu_start;
  return totals;
}

/// Per-span-name totals and self times, from the span tree.
struct NameTotals {
  size_t calls = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

std::map<std::string, NameTotals> SummarizeSpans(const Tracer& tracer) {
  const std::vector<Tracer::Span>& spans = tracer.spans();
  std::vector<int64_t> child_ns(spans.size() + 1, 0);
  for (const Tracer::Span& span : spans) {
    if (span.parent != 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::map<std::string, NameTotals> out;
  for (const Tracer::Span& span : spans) {
    const int64_t duration = span.end_ns - span.start_ns;
    NameTotals& totals = out[span.name];
    ++totals.calls;
    totals.total_ms += duration / 1e6;
    totals.self_ms += (duration - child_ns[span.id]) / 1e6;
  }
  return out;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

}  // namespace

ModeResult RunTraced(const Inputs& inputs, const std::string& trace_path,
                     const std::string& run_record_json) {
  ModeResult out;
  const WorkloadConfig& config = inputs.config;
  const std::vector<std::string> reference = ReferenceFingerprints(inputs);
  auto check = [&](const std::string& what, size_t arrival,
                   const std::string& fingerprint, bool status_ok) {
    ++out.attempted;
    if (status_ok &&
        fingerprint == reference[inputs.arrivals[arrival]]) {
      return;
    }
    ++out.failed;
    out.errors.push_back(what + " arrival " + std::to_string(arrival) +
                         ": output differs from the serial reference");
  };

  // The untraced service pass: service-level counters and request
  // latencies.
  PassRecord pass = RunPass(inputs, 0, 1);
  ScoreOutputs(inputs, &pass);
  WorkCounters service_counters;
  for (size_t a = 0; a < pass.requests.size(); ++a) {
    const RequestRecord& record = pass.requests[a];
    check("service pass", a, record.fingerprint,
          record.status == RequestStatus::kOk);
    service_counters += record.counters;
  }

  Tracer untraced_tracer(false);
  const ReplayTotals untraced = Replay(inputs, &untraced_tracer);
  Tracer tracer(true);
  const ReplayTotals traced = Replay(inputs, &tracer);
  for (size_t a = 0; a < inputs.arrivals.size(); ++a) {
    check("untraced replay", a, untraced.fingerprints[a], true);
    check("traced replay", a, traced.fingerprints[a], true);
  }
  // Serial runs repeat their work exactly: a drift is a behaviour change.
  if (config.grouping_threads == 1) {
    if (!(traced.counters == untraced.counters)) {
      out.errors.push_back("work counters differ between traced and untraced replay");
    }
    if (config.num_threads == 1 && !(traced.counters == service_counters)) {
      out.errors.push_back("work counters differ between replay and service pass");
    }
  }

  std::map<std::string, NameTotals> names = SummarizeSpans(tracer);
  auto total = [&](const char* name) { return names[name].total_ms; };
  auto self = [&](const char* name) { return names[name].self_ms; };
  const double rebuild_ms =
      total("graph.scorer") + total("graph.build") + total("index.build");
  const double next_net_ms = total("grouping.next") - rebuild_ms;

  // Layer self times. The re-builds ran outside the request flow; in the
  // real flow they sit inside GroupingEngine::Next, so they move there.
  std::map<std::string, double> layer_self;
  for (const auto& [name, totals] : names) {
    layer_self[name.substr(0, name.find('.'))] += totals.self_ms;
  }
  layer_self["grouping"] -= rebuild_ms;
  const double replay_ms = total("bench.request") - rebuild_ms;

  std::vector<double> queue_wait;
  for (size_t a = 0; a < pass.requests.size(); ++a) {
    const RequestRecord& record = pass.requests[a];
    const double latency_ms = (record.done_us - record.arrival_us) / 1e3;
    queue_wait.push_back(std::max(0.0, latency_ms - traced.busy_us[a] / 1e3));
  }

  const ServiceStats& stats = pass.stats;
  std::vector<Metric>& m = out.metrics;
  auto count = [&](const char* name, double value) {
    m.push_back({name, value, "count", 1});
  };
  m.push_back({"serve.queue_wait_ms_p50", Quantile(queue_wait, 0.5), "ms", queue_wait.size()});
  m.push_back({"serve.queue_wait_ms_p90", Quantile(queue_wait, 0.9), "ms", queue_wait.size()});
  count("serve.max_concurrent_requests", static_cast<double>(stats.max_concurrent_requests));
  m.push_back({"serve.thread_utilization",
               pass.makespan_s > 0 ? pass.cpu_s / (pass.makespan_s * config.num_threads) : 0.0,
               "ratio", 1});
  count("pipeline.questions", static_cast<double>(stats.oracle.questions));
  count("pipeline.backend_calls", static_cast<double>(stats.oracle.backend_calls));
  m.push_back({"pipeline.cache_hit_ratio",
               stats.oracle.questions == 0
                   ? 0.0
                   : static_cast<double>(stats.oracle.cache_hits) / stats.oracle.questions,
               "ratio", stats.oracle.questions});
  m.push_back({"pipeline.verify_ms", self("pipeline.verify"), "ms", names["pipeline.verify"].calls});
  m.push_back({"consolidate.fuse_ms", total("consolidate.fuse"), "ms", names["consolidate.fuse"].calls});
  m.push_back({"replace.candidates_ms", total("replace.candidates"), "ms", names["replace.candidates"].calls});
  count("replace.pairs", static_cast<double>(traced.pairs));
  m.push_back({"replace.apply_ms", total("replace.apply"), "ms", names["replace.apply"].calls});
  count("replace.edits", static_cast<double>(traced.counters.edits));
  m.push_back({"grouping.next_ms", total("grouping.next"), "ms", names["grouping.next"].calls});
  count("grouping.searches", static_cast<double>(traced.counters.searches));
  count("grouping.expansions", static_cast<double>(traced.counters.expansions));
  m.push_back({"grouping.us_per_expansion",
               traced.counters.expansions == 0
                   ? 0.0
                   : next_net_ms * 1e3 / static_cast<double>(traced.counters.expansions),
               "us", traced.counters.expansions});
  count("grouping.cache_hits", static_cast<double>(traced.counters.cache_hits));
  count("grouping.warm_hits", static_cast<double>(traced.counters.warm_hits));
  count("grouping.speculative_searches", static_cast<double>(traced.counters.speculative_searches));
  m.push_back({"graph.build_ms", total("graph.build"), "ms", names["graph.build"].calls});
  count("graph.graphs", static_cast<double>(traced.graphs));
  count("graph.labels", static_cast<double>(traced.labels));
  m.push_back({"index.build_ms", total("index.build"), "ms", names["index.build"].calls});
  count("index.postings", static_cast<double>(traced.postings));
  m.push_back({"index.bytes", static_cast<double>(traced.index_bytes), "bytes", 1});
  count("persist.wal_appends", static_cast<double>(stats.persist.wal_appends));
  count("persist.fsyncs", static_cast<double>(stats.persist.fsyncs));
  count("persist.snapshot_writes", static_cast<double>(stats.persist.snapshot_writes));
  m.push_back({"io.parse_ms", total("io.parse"), "ms", names["io.parse"].calls});
  m.push_back({"io.write_ms", total("io.write"), "ms", names["io.write"].calls});
  m.push_back({"io.bytes", static_cast<double>(traced.io_bytes), "bytes", 1});

  const double overhead_cpu_s = traced.cpu_s - untraced.cpu_s;
  std::printf("{\"info\": \"trace_overhead\", \"traced_cpu_s\": %.6f, "
              "\"untraced_cpu_s\": %.6f, \"overhead_cpu_s\": %.6f, "
              "\"rebuild_ms\": %.3f, \"spans\": %zu}\n",
              traced.cpu_s, untraced.cpu_s, overhead_cpu_s, rebuild_ms,
              tracer.spans().size());
  for (const auto& [layer, self_ms] : layer_self) {
    std::printf("{\"info\": \"layer\", \"layer\": \"%s\", \"self_ms\": %.3f, "
                "\"share\": %.4f}\n",
                layer.c_str(), self_ms, replay_ms > 0 ? self_ms / replay_ms : 0.0);
  }

  // The trace file: run record, layer table, metrics and every span.
  std::ofstream file(trace_path);
  file.precision(15);
  file << "{\"run_record\": " << run_record_json
       << ",\n \"workload\": " << JsonString(config.name)
       << ",\n \"replay_ms\": " << replay_ms
       << ",\n \"overhead\": {\"traced_cpu_s\": " << traced.cpu_s
       << ", \"untraced_cpu_s\": " << untraced.cpu_s
       << ", \"overhead_cpu_s\": " << overhead_cpu_s
       << ", \"rebuild_ms\": " << rebuild_ms << "},\n \"layers\": {";
  bool first = true;
  for (const auto& [layer, self_ms] : layer_self) {
    file << (first ? "" : ", ") << JsonString(layer) << ": {\"self_ms\": " << self_ms
         << ", \"share\": " << (replay_ms > 0 ? self_ms / replay_ms : 0.0) << "}";
    first = false;
  }
  file << "},\n \"calls\": {";
  first = true;
  for (const auto& [name, totals] : names) {
    file << (first ? "" : ", ") << JsonString(name) << ": {\"calls\": " << totals.calls
         << ", \"total_ms\": " << totals.total_ms << ", \"self_ms\": " << totals.self_ms
         << "}";
    first = false;
  }
  file << "},\n \"per_layer\": {";
  first = true;
  for (const Metric& metric : m) {
    file << (first ? "" : ", ") << JsonString(metric.name) << ": {\"value\": "
         << metric.value << ", \"unit\": " << JsonString(metric.unit) << "}";
    first = false;
  }
  file << "},\n \"span_fields\": [\"name\", \"request\", \"id\", \"parent\", "
          "\"start_us\", \"end_us\"],\n \"spans\": [";
  first = true;
  for (const Tracer::Span& span : tracer.spans()) {
    file << (first ? "\n  " : ",\n  ") << "[" << JsonString(span.name) << ", "
         << span.request << ", " << span.id << ", " << span.parent << ", "
         << span.start_ns / 1e3 << ", " << span.end_ns / 1e3 << "]";
    first = false;
  }
  file << "]}\n";
  file.close();
  if (!file) throw std::runtime_error("cannot write " + trace_path);
  std::printf("{\"info\": \"trace_file\", \"path\": %s}\n",
              JsonString(trace_path).c_str());
  return out;
}

}  // namespace perfbench
}  // namespace ustl
