// Shared declarations of the end-to-end benchmark program (README.md in
// this directory). It generates each workload's tables with datagen,
// writes them as clustered CSV and hands the library only that CSV; the
// simulated human is the paper's SimulatedOracle over the generated ground
// truth. Two modes:
//
//   * timed (--trace 0): repeated passes of the workload through one
//     ConsolidationService each, timed from outside; every request's
//     output is checked against a serial, cold, single-table reference;
//   * traced (--trace 1): one untraced service pass for the service-level
//     counters, then a serial replay of the same tables through the public
//     calls the service makes, with one benchmark-side span per call.
#ifndef USTL_PERFBENCH_BENCH_H_
#define USTL_PERFBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "consolidate/framework.h"
#include "consolidate/oracle.h"
#include "datagen/dataset.h"
#include "eval/metrics.h"
#include "io/csv.h"
#include "serve/service.h"

namespace ustl {
namespace perfbench {

/// How a workload drives the service. See README.md for why each exists.
struct WorkloadConfig {
  std::string name;
  /// Service thread budget and cap on concurrently running column jobs
  /// (ServiceOptions::num_threads / max_concurrent_jobs).
  int num_threads = 1;
  int max_concurrent_jobs = 0;
  /// Grouping threads each column job receives: what the service hands a
  /// job, and what the traced replay gives its grouping engines.
  int grouping_threads = 1;
  /// Open loop: arrivals at a fixed interval, each parsed on arrival.
  /// Closed loop: every table parsed up front and submitted at once.
  bool open_loop = false;
  int64_t interarrival_us = 0;
  /// persist_dir on, fsync = batch.
  bool persist = false;
};

/// One distinct input table.
struct TableInput {
  std::string name;    // e.g. "address-0.30-d7"
  std::string family;  // address | journaltitle | authorlist
  /// Ground truth, with clusters and records in the order the CSV has.
  GeneratedDataset data;
  std::string csv_path;
  /// The paper's Section 8 evaluation sample (labelled cell pairs).
  std::vector<SampledPair> samples;
};

/// The simulated human's ground truth over every dataset of a workload:
/// a pair is a variant if any dataset says so, so verdicts stay pure
/// functions of question content across tables.
class Judge {
 public:
  explicit Judge(const std::vector<TableInput>& tables);
  bool Variant(const StringPair& pair) const;
  int Direction(const StringPair& pair) const;

 private:
  /// The dataset whose ground truth calls `pair` a variant, or null.
  const GeneratedDataset* Owner(const StringPair& pair) const;

  std::vector<const GeneratedDataset*> datasets_;
  /// One dataset per family: the families' segment judges are stateless,
  /// so asking each family once covers every dataset of it.
  std::vector<const GeneratedDataset*> family_judges_;
};

struct Inputs {
  WorkloadConfig config;
  std::vector<TableInput> tables;
  /// Table index of each arrival, in submission order.
  std::vector<size_t> arrivals;
  std::unique_ptr<Judge> judge;
  std::string work_dir;
};

/// Builds the workload's tables for `seed`, writes their CSVs under
/// `work_dir` and fixes the arrival sequence. Throws std::runtime_error on
/// an unknown workload or an I/O failure.
Inputs PrepareInputs(const std::string& workload, uint64_t seed,
                     const std::string& work_dir);

/// A SimulatedOracle (error rate 0) answering from `judge`.
std::unique_ptr<SimulatedOracle> MakeHuman(const Judge& judge);

/// The framework configuration every request uses.
FrameworkOptions BenchFramework();

/// Fingerprint of each distinct table's serial, cold, one-thread,
/// single-table run with the same simulated human.
std::vector<std::string> ReferenceFingerprints(const Inputs& inputs);

/// Process user+sys CPU seconds so far.
double ProcessCpuSeconds();

/// The value of `result`; throws std::runtime_error on an error status.
template <typename T>
T CheckOk(Result<T> result) {
  if (!result.ok()) throw std::runtime_error(result.status().ToString());
  return std::move(result).value();
}

/// Throws std::runtime_error on an error status.
void CheckOk(const Status& status);

/// Work counters of one request (summed over its columns).
struct WorkCounters {
  uint64_t searches = 0;
  uint64_t expansions = 0;
  uint64_t cache_hits = 0;
  uint64_t warm_hits = 0;
  uint64_t speculative_searches = 0;
  uint64_t groups_presented = 0;
  uint64_t edits = 0;

  void Add(const IncrementalStats& stats);
  WorkCounters& operator+=(const WorkCounters& o);
  bool operator==(const WorkCounters& o) const;
};

/// One request of a service pass, timed from outside.
struct RequestRecord {
  size_t table = 0;
  int64_t arrival_us = 0;  // scheduled arrival, from the pass start
  int64_t first_verdict_us = -1;
  int64_t done_us = 0;     // output written
  std::vector<int64_t> verdict_gaps_us;
  RequestStatus status = RequestStatus::kOk;
  /// The standardized table and golden records, kept until ScoreOutputs.
  ClusteredCsv output;
  std::vector<GoldenRecord> golden;
  std::string fingerprint;
  Confusion confusion;
  WorkCounters counters;
};

/// One service pass: set-up, then every arrival of the workload.
struct PassRecord {
  std::vector<double> setup_s;  // every set-up of the pass
  double makespan_s = 0.0;
  double cpu_s = 0.0;
  std::vector<RequestRecord> requests;
  std::vector<double> generator_late_ms;  // open loop only
  ServiceStats stats;
};

/// Runs one pass of the workload. `setups` set-ups are timed; all but the
/// last are discarded.
PassRecord RunPass(const Inputs& inputs, int pass_index, int setups);

/// Fills fingerprint/confusion of every request of `pass` from the
/// outputs it kept (kept out of the timed section).
void ScoreOutputs(const Inputs& inputs, PassRecord* pass);

/// Linear-interpolation quantile of `values` (q in [0, 1]).
double Quantile(std::vector<double> values, double q);

/// One metric of the result line, plus its sample count for the
/// human-readable lines.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

/// Outcome of a mode: metrics plus the request accounting of the result
/// line.
struct ModeResult {
  std::vector<Metric> metrics;
  size_t attempted = 0;
  size_t failed = 0;
  /// Problems that make the run incorrect (output mismatch, counter drift).
  std::vector<std::string> errors;
};

ModeResult RunTimed(const Inputs& inputs, double seconds);
ModeResult RunTraced(const Inputs& inputs, const std::string& trace_path,
                     const std::string& run_record_json);

}  // namespace perfbench
}  // namespace ustl

#endif  // USTL_PERFBENCH_BENCH_H_
