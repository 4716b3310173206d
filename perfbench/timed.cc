// Timed mode: service passes driven from outside the library, and the
// end-to-end metrics computed from them.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <tuple>

#include "bench.h"
#include "common/clock.h"
#include "pipeline/pipeline.h"

namespace ustl {
namespace perfbench {
namespace {

/// Set-ups per pass; setup_s is the median over all of them.
constexpr int kSetupsPerPass = 9;
constexpr size_t kMinPasses = 3;
constexpr size_t kMaxPasses = 200;
/// Latency charged to a failed request: beyond any limit.
constexpr double kMissedMs = 1e12;

/// Per-request event state, written by the service's (serialized) event
/// callbacks and read by the driving thread.
struct EventLog {
  struct Slot {
    int64_t first_verdict_us = -1;
    std::map<size_t, int64_t> last_verdict_us;  // by column
    std::vector<int64_t> gaps_us;
  };

  explicit EventLog(size_t requests) : slots(requests) {}

  std::function<void(const ServeEvent&)> Callback(size_t slot) {
    return [this, slot](const ServeEvent& event) {
      if (event.kind == ServeEvent::Kind::kVerdict) {
        const int64_t now = MicrosSince(start);
        std::lock_guard<std::mutex> lock(mutex);
        Slot& s = slots[slot];
        if (s.first_verdict_us < 0) s.first_verdict_us = now;
        auto it = s.last_verdict_us.find(event.column_index);
        if (it != s.last_verdict_us.end()) s.gaps_us.push_back(now - it->second);
        s.last_verdict_us[event.column_index] = now;
      } else if (event.kind == ServeEvent::Kind::kRequestDone) {
        std::lock_guard<std::mutex> lock(mutex);
        done.push_back(slot);
        done_cv.notify_one();
      }
    };
  }

  SteadyClock::time_point start;
  std::mutex mutex;
  std::condition_variable done_cv;
  std::vector<Slot> slots;
  std::deque<size_t> done;  // completed slots, in completion order
};

ServiceOptions MakeServiceOptions(const WorkloadConfig& config,
                                  const std::string& persist_dir) {
  ServiceOptions options;
  options.framework = BenchFramework();
  options.num_threads = config.num_threads;
  options.max_concurrent_jobs = config.max_concurrent_jobs;
  if (config.persist) {
    options.persist_dir = persist_dir;
    options.persist.fsync = FsyncPolicy::kBatch;
  }
  return options;
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(position));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = position - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

PassRecord RunPass(const Inputs& inputs, int pass_index, int setups) {
  const WorkloadConfig& config = inputs.config;
  const size_t n = inputs.arrivals.size();
  PassRecord pass;
  std::unique_ptr<SimulatedOracle> human = MakeHuman(*inputs.judge);
  const std::string persist_dir = inputs.work_dir + "/persist";
  const std::string out_dir = inputs.work_dir + "/out";
  std::filesystem::create_directories(out_dir);

  // Set-up: read the inputs loaded up front (every CSV; the closed loop
  // also parses them) and construct the service, recovering its persist
  // dir. Repeated so setup_s is a median; only the last one is used.
  std::vector<std::string> texts;
  std::vector<ClusteredCsv> tables(n);
  // Declared before the service, so requests still draining when an
  // exception unwinds never call back into a destroyed log.
  EventLog log(n);
  std::unique_ptr<ConsolidationService> service;
  for (int s = 0; s < setups; ++s) {
    service.reset();
    if (config.persist) std::filesystem::remove_all(persist_dir);
    texts.clear();
    const SteadyClock::time_point start = SteadyNow();
    for (const TableInput& table : inputs.tables) {
      texts.push_back(CheckOk(ReadFileToString(table.csv_path)));
    }
    if (!config.open_loop) {
      for (size_t a = 0; a < n; ++a) {
        tables[a] = CheckOk(ReadClusteredCsv(texts[inputs.arrivals[a]], "cluster"));
      }
    }
    service = std::make_unique<ConsolidationService>(
        human.get(), MakeServiceOptions(config, persist_dir));
    pass.setup_s.push_back(MicrosToSeconds(MicrosSince(start)));
  }

  pass.requests.resize(n);
  std::vector<uint64_t> handles(n);
  int64_t last_result_us = 0;
  auto finish = [&](size_t a) {
    RequestResult result = service->Wait(handles[a]);
    last_result_us = MicrosSince(log.start);
    RequestRecord& record = pass.requests[a];
    record.status = result.status;
    if (result.status == RequestStatus::kOk) {
      const std::string stem = out_dir + "/" + std::to_string(a);
      const std::string table_csv = WriteClusteredCsv(tables[a]);
      const std::string golden_csv =
          WriteGoldenCsv(tables[a], result.golden_records);
      CheckOk(WriteStringToFile(stem + ".csv", table_csv));
      CheckOk(WriteStringToFile(stem + ".golden.csv", golden_csv));
    }
    record.done_us = MicrosSince(log.start);
    for (const ColumnRunResult& column : result.per_column) {
      record.counters.Add(column.grouping);
      record.counters.groups_presented += column.groups_presented;
      record.counters.edits += column.edits;
    }
    record.output = std::move(tables[a]);
    record.golden = std::move(result.golden_records);
  };
  auto submit = [&](size_t a) {
    RequestOptions request;
    request.label = inputs.tables[inputs.arrivals[a]].name + "#" +
                    std::to_string(pass_index) + "." + std::to_string(a);
    request.on_event = log.Callback(a);
    handles[a] = service->Submit(&tables[a].table, std::move(request));
  };

  log.start = SteadyNow();
  const double cpu_start = ProcessCpuSeconds();
  if (!config.open_loop) {
    // Closed loop: everything is submitted at once; the command waits for
    // all of it.
    for (size_t a = 0; a < n; ++a) {
      pass.requests[a].table = inputs.arrivals[a];
      pass.requests[a].arrival_us = MicrosSince(log.start);
      submit(a);
    }
    for (size_t a = 0; a < n; ++a) finish(a);
  } else {
    // Open loop: arrival a is due at a * interval whatever the backlog;
    // completions are written out while waiting for the next arrival.
    size_t next = 0;
    size_t completed = 0;
    while (completed < n) {
      std::vector<size_t> ready;
      {
        std::unique_lock<std::mutex> lock(log.mutex);
        if (log.done.empty()) {
          if (next < n) {
            const auto due = log.start + std::chrono::microseconds(
                                             static_cast<int64_t>(next) *
                                             config.interarrival_us);
            log.done_cv.wait_until(lock, due,
                                   [&] { return !log.done.empty(); });
          } else {
            log.done_cv.wait(lock, [&] { return !log.done.empty(); });
          }
        }
        ready.assign(log.done.begin(), log.done.end());
        log.done.clear();
      }
      for (size_t a : ready) {
        finish(a);
        ++completed;
      }
      while (next < n) {
        const int64_t due = static_cast<int64_t>(next) * config.interarrival_us;
        const int64_t now = MicrosSince(log.start);
        if (now < due) break;
        pass.generator_late_ms.push_back(static_cast<double>(now - due) / 1e3);
        RequestRecord& record = pass.requests[next];
        record.table = inputs.arrivals[next];
        record.arrival_us = due;
        tables[next] = CheckOk(ReadClusteredCsv(texts[record.table], "cluster"));
        submit(next);
        ++next;
      }
    }
  }
  pass.cpu_s = ProcessCpuSeconds() - cpu_start;
  pass.makespan_s = MicrosToSeconds(last_result_us);

  {
    std::lock_guard<std::mutex> lock(log.mutex);
    for (size_t a = 0; a < n; ++a) {
      pass.requests[a].first_verdict_us = log.slots[a].first_verdict_us;
      pass.requests[a].verdict_gaps_us = std::move(log.slots[a].gaps_us);
    }
  }
  // Drain writes the final snapshot, so the persist counters are complete.
  service->Shutdown(true);
  pass.stats = service->stats();
  service.reset();
  if (config.persist) std::filesystem::remove_all(persist_dir);
  return pass;
}

void ScoreOutputs(const Inputs& inputs, PassRecord* pass) {
  for (RequestRecord& record : pass->requests) {
    if (record.status != RequestStatus::kOk) continue;
    record.fingerprint =
        FingerprintConsolidation(record.output.table, record.golden);
    record.confusion = EvaluateIdentity(record.output.table.ExtractColumn(0),
                                        inputs.tables[record.table].samples);
    record.output = ClusteredCsv();
    record.golden.clear();
  }
}

namespace {

/// A timing taken per pass as its p50 and p90, reported as the median over
/// passes: a pass holds only three requests on paper3, where a pooled p90
/// would be the slowest pass's maximum.
struct PassPercentiles {
  std::vector<double> p50;
  std::vector<double> p90;
  size_t samples = 0;

  void AddPass(const std::vector<double>& values) {
    if (values.empty()) return;
    p50.push_back(Quantile(values, 0.5));
    p90.push_back(Quantile(values, 0.9));
    samples += values.size();
  }

  void Report(const std::string& name, std::vector<Metric>* metrics) const {
    metrics->push_back({name + "_p50", Median(p50), "ms", samples});
    metrics->push_back({name + "_p90", Median(p90), "ms", samples});
  }
};

}  // namespace

ModeResult RunTimed(const Inputs& inputs, double seconds) {
  ModeResult out;
  std::vector<PassRecord> passes;
  const SteadyClock::time_point start = SteadyNow();
  double last_pass_s = 0.0;
  while (passes.size() < kMinPasses ||
         (MicrosToSeconds(MicrosSince(start)) + last_pass_s <= seconds &&
          passes.size() < kMaxPasses)) {
    const SteadyClock::time_point pass_start = SteadyNow();
    passes.push_back(
        RunPass(inputs, static_cast<int>(passes.size()), kSetupsPerPass));
    last_pass_s = MicrosToSeconds(MicrosSince(pass_start));
  }
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  // Output check, outside the timed section.
  const std::vector<std::string> reference = ReferenceFingerprints(inputs);
  std::vector<double> setup, makespan, cpu, late;
  PassPercentiles waits, first_question, latency;
  Confusion confusion;
  size_t sampled_pairs = 0;
  for (size_t p = 0; p < passes.size(); ++p) {
    PassRecord& pass = passes[p];
    ScoreOutputs(inputs, &pass);
    setup.insert(setup.end(), pass.setup_s.begin(), pass.setup_s.end());
    makespan.push_back(pass.makespan_s);
    cpu.push_back(pass.cpu_s);
    late.insert(late.end(), pass.generator_late_ms.begin(),
                pass.generator_late_ms.end());
    std::vector<double> pass_waits, pass_first_question, pass_latency;
    for (const RequestRecord& record : pass.requests) {
      ++out.attempted;
      const bool ok = record.status == RequestStatus::kOk &&
                      record.fingerprint == reference[record.table];
      if (!ok) {
        ++out.failed;
        out.errors.push_back("request " + std::to_string(p) + "." +
                             inputs.tables[record.table].name +
                             (record.status == RequestStatus::kOk
                                  ? ": output differs from the serial reference"
                                  : ": status not ok"));
      }
      for (int64_t gap : record.verdict_gaps_us) pass_waits.push_back(gap / 1e3);
      if (record.first_verdict_us >= 0) {
        pass_first_question.push_back(
            (record.first_verdict_us - record.arrival_us) / 1e3);
      }
      // A failed request misses every latency limit.
      pass_latency.push_back(ok ? (record.done_us - record.arrival_us) / 1e3
                                : kMissedMs);
      if (p == 0) {
        confusion.tp += record.confusion.tp;
        confusion.fp += record.confusion.fp;
        confusion.fn += record.confusion.fn;
        confusion.tn += record.confusion.tn;
        sampled_pairs += inputs.tables[record.table].samples.size();
      }
    }
    waits.AddPass(pass_waits);
    first_question.AddPass(pass_first_question);
    latency.AddPass(pass_latency);
  }

  // At one thread the work counters are exact: any drift between passes
  // is a behaviour change, never noise.
  if (inputs.config.num_threads == 1) {
    auto totals = [](const PassRecord& pass) {
      WorkCounters total;
      for (const RequestRecord& record : pass.requests) total += record.counters;
      return std::make_tuple(total, pass.stats.oracle.questions,
                             pass.stats.oracle.backend_calls);
    };
    for (size_t p = 1; p < passes.size(); ++p) {
      if (!(totals(passes[p]) == totals(passes[0]))) {
        out.errors.push_back("work counters of pass " + std::to_string(p) +
                             " differ from pass 0 (behaviour change)");
      }
    }
  }

  std::vector<Metric>& m = out.metrics;
  m.push_back({"setup_s", Median(setup), "s", setup.size()});
  m.push_back({"makespan_s", Median(makespan), "s", makespan.size()});
  m.push_back({"cpu_s", Median(cpu), "s", cpu.size()});
  m.push_back({"peak_rss_mb", peak_rss_mb, "MB", 1});
  waits.Report("question_wait_ms", &m);
  first_question.Report("first_question_ms", &m);
  latency.Report("request_latency_ms", &m);
  m.push_back({"recall", Recall(confusion), "ratio", sampled_pairs});
  m.push_back({"precision", Precision(confusion), "ratio", sampled_pairs});
  m.push_back({"ok_share",
               out.attempted == 0
                   ? 0.0
                   : static_cast<double>(out.attempted - out.failed) /
                         static_cast<double>(out.attempted),
               "ratio", out.attempted});
  if (!late.empty()) {
    std::printf("{\"info\": \"generator_late_ms\", \"p50\": %.6g, \"p90\": "
                "%.6g, \"max\": %.6g, \"samples\": %zu}\n",
                Quantile(late, 0.5), Quantile(late, 0.9), Quantile(late, 1.0),
                late.size());
  }
  std::string pass_makespans;
  for (double value : makespan) {
    pass_makespans += (pass_makespans.empty() ? "" : ", ") + std::to_string(value);
  }
  std::printf("{\"info\": \"passes\", \"count\": %zu, \"makespan_s\": [%s], "
              "\"failed_share\": %.6g}\n",
              passes.size(), pass_makespans.c_str(),
              out.attempted == 0 ? 0.0
                                 : static_cast<double>(out.failed) /
                                       static_cast<double>(out.attempted));
  return out;
}

}  // namespace perfbench
}  // namespace ustl
