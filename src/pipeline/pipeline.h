// The column-parallel consolidation pipeline. Algorithm 1 standardizes a
// table's columns strictly one at a time; the columns are independent
// until truth discovery, so the ColumnScheduler runs one StandardizeColumn
// job per column on a shared ThreadPool instead — each job with its own
// GroupingEngine — and funnels every oracle interaction through one
// OracleBroker (cache + one backend call at a time + replay log).
//
// Determinism contract: the pipeline's output is byte-identical for any
// thread count and for column_parallel on/off, *provided the backend
// oracle is order-independent* (consolidate/oracle.h). Each column job
// only touches its own column, results are committed in column index
// order, and verdicts are pure functions of question content, so the
// schedule cannot leak into the output. SimulatedOracle, ApproveAllOracle
// and the broker's cache all honor the contract.
//
// Thread budgeting: `num_threads` is the total budget. When columns run
// in parallel the serving layer this delegates to runs up to `budget`
// column jobs concurrently and hands each budget/workers threads for its
// GroupingEngine (GroupingOptions::num_threads), so nested parallelism
// never oversubscribes the machine; a serial run gives the whole budget
// to the single active engine.
#ifndef USTL_PIPELINE_PIPELINE_H_
#define USTL_PIPELINE_PIPELINE_H_

#include <vector>

#include "consolidate/framework.h"
#include "pipeline/oracle_broker.h"

namespace ustl {

class TraceSink;  // obs/trace.h

struct PipelineOptions {
  /// Per-column framework configuration. `framework.column_name` is
  /// overwritten per job with the table's column name;
  /// `framework.grouping.num_threads` is overwritten with this pipeline's
  /// per-column budget (set `num_threads` below instead). If
  /// `framework.progress_callback` is set, the pipeline serializes its
  /// invocations (never concurrent), but under column parallelism calls
  /// from different columns interleave in scheduling order — see
  /// FrameworkOptions::progress_callback.
  FrameworkOptions framework;
  /// Run one StandardizeColumn job per column on the thread pool. Off =
  /// columns run serially in index order (Algorithm 1's loop), still
  /// through the broker.
  bool column_parallel = false;
  /// Total thread budget (0 = hardware concurrency, 1 = fully serial),
  /// split between the column scheduler and the per-column grouping
  /// engines as described above.
  int num_threads = 1;
  OracleBroker::Options broker;
  /// Per-request trace sink (obs/trace.h; borrowed, null = untraced),
  /// forwarded to the underlying service request — the one-shot facade's
  /// run appears as a single traced request. Observability only; output
  /// is byte-identical traced or not.
  TraceSink* trace_sink = nullptr;
};

/// What a pipeline run produced, superset of GoldenRecordRun.
struct PipelineRun {
  std::vector<ColumnRunResult> per_column;
  std::vector<GoldenRecord> golden_records;
  OracleBrokerStats oracle_stats;
  /// The broker's deterministic replay log (replay.h), ready to serialize.
  std::vector<ApprovedTransformation> approved_log;
};

/// Algorithm 1 through the scheduler + broker: a thin one-shot facade
/// over serve/service.h. Each Run constructs a single-request
/// ConsolidationService (fresh broker and search cache — Run-scoped
/// warmth; a column whose content repeats an earlier column's skips its
/// round-one searches unless `framework.grouping.reuse_search_results`
/// is off), submits the table and waits. Long-lived deployments that
/// want caches persisting ACROSS tables use ConsolidationService
/// directly.
class ColumnScheduler {
 public:
  explicit ColumnScheduler(PipelineOptions options);

  /// Standardizes every column of `table` in place (in parallel when
  /// configured), runs majority-consensus truth discovery, and reports
  /// broker statistics. `backend` answers the questions; the scheduler
  /// serializes all calls into it.
  PipelineRun Run(Table* table, VerificationOracle* backend) const;

 private:
  PipelineOptions options_;
};

/// One-shot convenience wrapper around ColumnScheduler.
PipelineRun RunConsolidationPipeline(Table* table,
                                     VerificationOracle* backend,
                                     const PipelineOptions& options);

/// Canonical byte fingerprint of a consolidated table plus its golden
/// records (pass {} for a table alone). Two runs produced identical
/// output iff their fingerprints are equal — the currency of the
/// determinism contract's byte-identity checks (tests, benches, smoke).
std::string FingerprintConsolidation(const Table& table,
                                     const std::vector<GoldenRecord>& golden);

}  // namespace ustl

#endif  // USTL_PIPELINE_PIPELINE_H_
