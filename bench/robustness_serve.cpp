// Robustness bench for the fault-tolerance layer (serve + pipeline). Five
// legs, one JSON line each, all gated on hardware-independent metrics by
// tools/check_bench.py:
//
//   * fault_sweep — the workload under an eventually-successful fault
//     plan (every faulty question recovers within the retry budget):
//     output must stay byte-identical to the serial clean baseline,
//     retries must actually fire, nothing may exhaust;
//   * breaker — a persistently failing backend opens the circuit
//     breaker, which then fails calls without asking the backend, and
//     the service keeps serving clean requests afterwards;
//   * cancel — a request cancelled mid-flight must return its typed
//     status within a bounded wall-clock latency (the one absolute-time
//     gate, with a deliberately generous ceiling: it detects hangs, not
//     slowness);
//   * zero_fault — the whole cancellation/retry plumbing armed but idle
//     (zero-fault plan, far-future deadline) vs. the plain service:
//     throughput overhead must stay within 2% (best-of-5 alternating
//     timing — the minimum filters scheduler noise);
//   * obs_overhead — prices the full diagnosis kit (per-span JSON
//     formatting, flight-recorder ring insertion, CPU-attributed
//     profile folding, plus an in-process metrics scrape) against the
//     production-default service; the ratio must stay within 2% and
//     output byte-identical. The marginal cost is measured directly
//     rather than as an end-to-end A/B difference: one single-worker
//     run (deterministic span volume) captures the exact span stream,
//     timed replay passes push that stream through the armed sinks
//     under a process-CPU clock, and the gate ratio is
//     (baseline_cpu + obs_cpu) / baseline_cpu. An A/B ratio of two
//     full runs puts host frequency noise (several percent on a
//     shared one-core CI box) on both large terms and cannot resolve
//     a 2% ceiling; replay noise only perturbs a term that is itself
//     well under 2%, so the gate is stable. A fully armed run still
//     executes end-to-end — byte-identity and the recorder_spans /
//     profile_folded sub-metrics come from it, proving ring insertion
//     and folding ran for real. The replay re-prices ring insertion
//     even though the always-on recorder already pays it in the
//     baseline — deliberate over-counting, so the ceiling covers the
//     always-on paths too;
//   * persist_overhead — the durability layer armed (persist_dir set,
//     fsync=batch, every verdict WAL-logged, final snapshot on drain)
//     vs. the plain service: overhead must stay within 10% and output
//     byte-identical; then a warm restart over the same directory must
//     recover a nonzero record count and serve the same workload with
//     strictly fewer backend calls (the ISSUE 9 crash-safety gate,
//     measured on its happy path).
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "obs/flight_recorder.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "pipeline/fault_oracle.h"
#include "pipeline/pipeline.h"
#include "serve/service.h"

namespace {

using namespace ustl;
using namespace ustl::bench;

constexpr size_t kBudget = 60;

Table MakeTable(const GeneratedDataset& data, size_t columns) {
  std::vector<std::string> names;
  for (size_t i = 1; i <= columns; ++i) {
    names.push_back("value" + std::to_string(i));
  }
  Table table(names);
  for (size_t c = 0; c < data.column.size(); ++c) {
    const size_t cluster = table.AddCluster();
    for (const std::string& value : data.column[c]) {
      table.AddRecord(cluster, std::vector<std::string>(columns, value));
    }
  }
  return table;
}

FrameworkOptions BenchFramework() {
  FrameworkOptions framework;
  framework.budget_per_column = kBudget;
  return framework;
}

std::string SerialFingerprint(Table table) {
  ApproveAllOracle oracle;
  PipelineOptions options;
  options.framework = BenchFramework();
  PipelineRun run = RunConsolidationPipeline(&table, &oracle, options);
  return FingerprintConsolidation(table, run.golden_records);
}

struct Workload {
  std::vector<Table> tables;
  std::vector<std::string> baselines;
};

Workload MakeWorkload(double scale) {
  AddressGenOptions address_gen;
  address_gen.scale = scale;
  address_gen.seed = BenchSeed() + 3;
  JournalTitleGenOptions journal_gen;
  journal_gen.scale = scale;
  journal_gen.seed = BenchSeed() + 4;
  Workload workload;
  workload.tables.push_back(
      MakeTable(GenerateAddressDataset(address_gen), 1));
  workload.tables.push_back(
      MakeTable(GenerateJournalTitleDataset(journal_gen), 1));
  workload.tables.push_back(
      MakeTable(GenerateAddressDataset(address_gen), 2));
  for (const Table& table : workload.tables) {
    workload.baselines.push_back(SerialFingerprint(table));
  }
  return workload;
}

// Runs the workload once through a fresh service; returns seconds, and
// whether every table matched its serial baseline.
double RunWorkload(const Workload& workload, VerificationOracle* oracle,
                   ServiceOptions options, int64_t deadline_ms,
                   bool* byte_identical, ServiceStats* stats,
                   TraceSink* trace_sink = nullptr,
                   size_t* scraped_bytes = nullptr) {
  options.framework = BenchFramework();
  options.num_threads = 4;
  ConsolidationService service(oracle, options);
  std::vector<Table> tables = workload.tables;
  std::vector<uint64_t> handles;
  Timer timer;
  for (Table& table : tables) {
    RequestOptions request;
    request.deadline_ms = deadline_ms;
    request.trace_sink = trace_sink;
    handles.push_back(service.Submit(&table, std::move(request)));
  }
  bool identical = true;
  for (size_t t = 0; t < tables.size(); ++t) {
    RequestResult result = service.Wait(handles[t]);
    identical = identical && result.status == RequestStatus::kOk &&
                FingerprintConsolidation(tables[t], result.golden_records) ==
                    workload.baselines[t];
  }
  if (scraped_bytes != nullptr) {
    // Timed on purpose: the obs_overhead leg prices a live registry
    // scrape alongside tracing, not just the per-span cost.
    *scraped_bytes = service.metrics().WriteText().size();
  }
  const double seconds = timer.ElapsedSeconds();
  if (byte_identical != nullptr) *byte_identical = identical;
  if (stats != nullptr) *stats = service.stats();
  return seconds;
}

double ProcessCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec + ts.tv_nsec * 1e-9;
}

// Collects the raw span stream of a run so the obs_overhead leg can
// replay the exact production-shaped spans through the armed sinks.
class CaptureTraceSink : public TraceSink {
 public:
  void Emit(const TraceSpan& span) override {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
  }
  const std::vector<TraceSpan>& spans() const { return spans_; }

 private:
  std::mutex mutex_;
  std::vector<TraceSpan> spans_;
};

struct ObsRun {
  double cpu = 0.0;         // process-CPU seconds for the workload
  double scrape_cpu = 0.0;  // process-CPU seconds for the registry scrape
  bool byte_identical = false;
  uint64_t recorder_spans = 0;
  uint64_t profile_folded = 0;
};

// One obs_overhead workload pass through a single-worker service (the
// span volume is then deterministic run to run). The flight recorder
// rides along in every configuration — it is the production default;
// `armed` additionally enables the profile accumulator and prices a
// registry scrape. Counters are read after the clock stops.
ObsRun RunObsWorkload(const Workload& workload, bool armed,
                      TraceSink* request_sink) {
  ApproveAllOracle oracle;
  ServiceOptions options;
  options.framework = BenchFramework();
  options.num_threads = 1;
  options.enable_profiler = armed;
  ConsolidationService service(&oracle, options);
  std::vector<Table> tables = workload.tables;
  std::vector<uint64_t> handles;
  ObsRun run;
  const double cpu_start = ProcessCpuSeconds();
  for (Table& table : tables) {
    RequestOptions request;
    request.trace_sink = request_sink;
    handles.push_back(service.Submit(&table, std::move(request)));
  }
  bool identical = true;
  for (size_t t = 0; t < tables.size(); ++t) {
    RequestResult result = service.Wait(handles[t]);
    identical = identical && result.status == RequestStatus::kOk &&
                FingerprintConsolidation(tables[t], result.golden_records) ==
                    workload.baselines[t];
  }
  run.cpu = ProcessCpuSeconds() - cpu_start;
  if (armed) {
    const double scrape_start = ProcessCpuSeconds();
    const size_t scraped = service.metrics().WriteText().size();
    run.scrape_cpu = ProcessCpuSeconds() - scrape_start;
    identical = identical && scraped > 0;
  }
  run.byte_identical = identical;
  run.recorder_spans = service.flight_recorder()->recorded();
  if (service.profiler() != nullptr) {
    run.profile_folded = service.profiler()->folded_spans();
  }
  return run;
}

}  // namespace

int main() {
  PrintEnvironmentJson("robustness_serve");
  const double scale = BenchScale(0.06);
  printf("=== Robustness: retries, breaker, cancellation, zero-fault "
         "overhead (scale=%.2f) ===\n\n",
         scale);
  const Workload workload = MakeWorkload(scale);

  // --- fault_sweep: eventually-successful plan, byte-identical output.
  {
    FaultPlan plan;
    plan.fault_rate = 0.6;
    plan.failures_per_question = 2;
    plan.seed = BenchSeed();
    ApproveAllOracle backend;
    FaultInjectingOracle faulty(&backend, plan);
    ServiceOptions options;
    options.enable_retry = true;
    options.retry.max_attempts = 4;
    bool byte_identical = false;
    ServiceStats stats;
    const double seconds =
        RunWorkload(workload, &faulty, options, 0, &byte_identical, &stats);
    printf("{\"bench\": \"robustness_serve\", \"variant\": \"fault_sweep\", "
           "\"seconds\": %.4f, \"faults_injected\": %zu, \"retries\": %zu, "
           "\"recovered\": %zu, \"exhausted\": %zu, "
           "\"byte_identical\": %s}\n",
           seconds, faulty.faults_injected(), stats.retry.retries,
           stats.retry.recovered, stats.retry.exhausted,
           byte_identical ? "true" : "false");
  }

  // --- breaker: persistent faults trip it; open, it short-circuits.
  {
    FaultPlan plan;
    plan.fault_rate = 1.0;
    plan.persistent = true;
    plan.seed = BenchSeed();
    ApproveAllOracle backend;
    FaultInjectingOracle faulty(&backend, plan);
    RetryingOracle::Options retry_options;
    retry_options.max_attempts = 2;
    retry_options.breaker_failure_threshold = 3;
    retry_options.breaker_cooldown_calls = 1000;
    RetryingOracle retrying(&faulty, retry_options);
    size_t failed = 0;
    for (int i = 0; i < 8; ++i) {
      try {
        retrying.Verify({{"q" + std::to_string(i) + " Street",
                          "q" + std::to_string(i) + " St"}});
      } catch (...) {
        ++failed;
      }
    }
    const RetryingOracleStats stats = retrying.stats();
    // The service itself (plain oracle) still serves after the storm —
    // byte-identity on a clean run is the "never the service" check.
    ApproveAllOracle clean;
    ServiceOptions options;
    bool alive = false;
    RunWorkload(workload, &clean, options, 0, &alive, nullptr);
    printf("{\"bench\": \"robustness_serve\", \"variant\": \"breaker\", "
           "\"failed_questions\": %zu, \"breaker_opens\": %zu, "
           "\"short_circuits\": %zu, \"service_alive\": %s}\n",
           failed, stats.breaker_opens, stats.short_circuits,
           alive ? "true" : "false");
  }

  // --- cancel: mid-flight cancellation latency (hang detector).
  {
    FaultPlan plan;  // a slow oracle keeps the request mid-flight
    plan.slow_rate = 1.0;
    plan.slow_ms = 10;
    plan.seed = BenchSeed();
    ApproveAllOracle backend;
    FaultInjectingOracle slow(&backend, plan);
    ServiceOptions options;
    options.framework = BenchFramework();
    options.num_threads = 4;
    ConsolidationService service(&slow, options);
    std::vector<Table> tables = workload.tables;
    std::vector<uint64_t> handles;
    for (Table& table : tables) handles.push_back(service.Submit(&table));
    const uint64_t victim = handles[0];
    const auto cancel_started = std::chrono::steady_clock::now();
    service.Cancel(victim);
    RequestResult result = service.Wait(victim);
    const double cancel_latency_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - cancel_started)
            .count();
    for (size_t t = 1; t < handles.size(); ++t) service.Wait(handles[t]);
    printf("{\"bench\": \"robustness_serve\", \"variant\": \"cancel\", "
           "\"cancelled\": %d, \"cancel_latency_ms\": %.2f}\n",
           result.status == RequestStatus::kCancelled ? 1 : 0,
           cancel_latency_ms);
  }

  // --- zero_fault: armed-but-idle plumbing vs. the plain service.
  {
    double plain_best = 0.0;
    double armed_best = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      ApproveAllOracle plain_backend;
      ServiceOptions plain_options;
      const double plain = RunWorkload(workload, &plain_backend,
                                       plain_options, 0, nullptr, nullptr);
      if (plain_best == 0.0 || plain < plain_best) plain_best = plain;

      ApproveAllOracle armed_backend;
      FaultPlan zero;  // inactive plan: injector forwards every call
      FaultInjectingOracle injector(&armed_backend, zero);
      ServiceOptions armed_options;
      armed_options.enable_retry = true;
      bool byte_identical = false;
      const double armed =
          RunWorkload(workload, &injector, armed_options,
                      /*deadline_ms=*/3600 * 1000, &byte_identical, nullptr);
      if (armed_best == 0.0 || armed < armed_best) armed_best = armed;
      if (!byte_identical) {
        printf("{\"bench\": \"robustness_serve\", \"variant\": "
               "\"zero_fault\", \"error\": \"not byte-identical\"}\n");
        return 1;
      }
    }
    printf("{\"bench\": \"robustness_serve\", \"variant\": \"zero_fault\", "
           "\"plain_seconds\": %.4f, \"armed_seconds\": %.4f, "
           "\"overhead_ratio\": %.4f}\n",
           plain_best, armed_best, armed_best / plain_best);
  }

  // --- obs_overhead: price the armed diagnosis paths against the
  // production default (flight recorder on in both — always-on by
  // design). See the header comment for why the marginal cost is
  // measured by replaying the captured span stream instead of by an
  // end-to-end A/B ratio.
  {
    const auto fail = [] {
      printf("{\"bench\": \"robustness_serve\", \"variant\": "
             "\"obs_overhead\", \"error\": \"not byte-identical\"}\n");
    };
    // Production-default CPU: best of 7 single-worker reps.
    double baseline_cpu = 0.0;
    for (int rep = 0; rep < 7; ++rep) {
      const ObsRun run = RunObsWorkload(workload, false, nullptr);
      if (!run.byte_identical) {
        fail();
        return 1;
      }
      if (baseline_cpu == 0.0 || run.cpu < baseline_cpu) {
        baseline_cpu = run.cpu;
      }
    }
    // Capture the span stream once (single worker, so the stream is the
    // one every rep above generated for the recorder).
    CaptureTraceSink capture;
    if (!RunObsWorkload(workload, false, &capture).byte_identical) {
      fail();
      return 1;
    }
    // Fully armed run, end-to-end: byte-identity under the whole kit,
    // plus proof that ring insertion and profile folding really ran.
    CountingTraceSink counting;
    const ObsRun armed = RunObsWorkload(workload, true, &counting);
    if (!armed.byte_identical) {
      fail();
      return 1;
    }
    // Price formatting + ring insertion + folding by replaying the
    // captured stream through fresh sinks; best of 5 passes.
    double replay_cpu = 0.0;
    for (int pass = 0; pass < 5; ++pass) {
      CountingTraceSink sink;
      FlightRecorder recorder;
      ProfileAccumulator profiler;
      const double cpu_start = ProcessCpuSeconds();
      for (const TraceSpan& span : capture.spans()) {
        sink.Emit(span);
        recorder.Emit(span);
        profiler.Emit(span);
      }
      const double cpu = ProcessCpuSeconds() - cpu_start;
      if (replay_cpu == 0.0 || cpu < replay_cpu) replay_cpu = cpu;
    }
    const double obs_cpu = replay_cpu + armed.scrape_cpu;
    printf("{\"bench\": \"robustness_serve\", \"variant\": \"obs_overhead\", "
           "\"baseline_cpu_seconds\": %.4f, \"obs_cpu_seconds\": %.6f, "
           "\"overhead_ratio\": %.4f, \"spans\": %llu, "
           "\"recorder_spans\": %llu, \"profile_folded\": %llu, "
           "\"byte_identical\": true}\n",
           baseline_cpu, obs_cpu, (baseline_cpu + obs_cpu) / baseline_cpu,
           static_cast<unsigned long long>(counting.count()),
           static_cast<unsigned long long>(armed.recorder_spans),
           static_cast<unsigned long long>(armed.profile_folded));
  }

  // --- persist_overhead: WAL + snapshot armed vs. the plain service,
  // then a warm restart over the persisted directory.
  {
    namespace fs = std::filesystem;
    const std::string dir =
        (fs::temp_directory_path() /
         ("ustl_bench_persist_" + std::to_string(::getpid())))
            .string();
    double plain_best = 0.0;
    double persisted_best = 0.0;
    size_t cold_calls = 0;
    for (int rep = 0; rep < 5; ++rep) {
      ApproveAllOracle plain_backend;
      ServiceOptions plain_options;
      const double plain = RunWorkload(workload, &plain_backend,
                                       plain_options, 0, nullptr, nullptr);
      if (plain_best == 0.0 || plain < plain_best) plain_best = plain;

      fs::remove_all(dir);  // every persisted rep starts cold
      ApproveAllOracle persisted_backend;
      ServiceOptions persisted_options;
      persisted_options.persist_dir = dir;
      persisted_options.persist.fsync = FsyncPolicy::kBatch;
      bool byte_identical = false;
      ServiceStats stats;
      const double persisted =
          RunWorkload(workload, &persisted_backend, persisted_options, 0,
                      &byte_identical, &stats);
      if (persisted_best == 0.0 || persisted < persisted_best) {
        persisted_best = persisted;
      }
      cold_calls = stats.oracle.backend_calls;
      if (!byte_identical) {
        printf("{\"bench\": \"robustness_serve\", \"variant\": "
               "\"persist_overhead\", \"error\": \"not byte-identical\"}\n");
        return 1;
      }
    }

    // Warm restart over the last rep's directory: recovery must report
    // records and strictly cut backend traffic, with identical bytes.
    ApproveAllOracle warm_backend;
    ServiceOptions warm_options;
    warm_options.persist_dir = dir;
    bool warm_identical = false;
    ServiceStats warm_stats;
    RunWorkload(workload, &warm_backend, warm_options, 0, &warm_identical,
                &warm_stats);
    fs::remove_all(dir);
    const unsigned long long recovered =
        static_cast<unsigned long long>(warm_stats.persist.recovered_records);
    const bool warm_saves = warm_stats.oracle.backend_calls < cold_calls;
    printf("{\"bench\": \"robustness_serve\", "
           "\"variant\": \"persist_overhead\", "
           "\"plain_seconds\": %.4f, \"persisted_seconds\": %.4f, "
           "\"overhead_ratio\": %.4f, \"recovered_records\": %llu, "
           "\"cold_backend_calls\": %zu, \"warm_backend_calls\": %zu, "
           "\"warm_call_savings\": %d, \"byte_identical\": %s}\n",
           plain_best, persisted_best, persisted_best / plain_best, recovered,
           cold_calls, warm_stats.oracle.backend_calls, warm_saves ? 1 : 0,
           (warm_identical && recovered > 0) ? "true" : "false");
  }
  return 0;
}
