// The golden-record construction framework (Algorithm 1): per column,
// generate candidate replacements, group them (incrementally, Section 6),
// present groups to the human in decreasing size order until the budget is
// exhausted, apply approved groups, and finally run truth discovery.
#ifndef USTL_CONSOLIDATE_FRAMEWORK_H_
#define USTL_CONSOLIDATE_FRAMEWORK_H_

#include <functional>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "consolidate/cluster.h"
#include "consolidate/oracle.h"
#include "consolidate/truth_discovery.h"
#include "grouping/grouping.h"
#include "replace/replacement_store.h"

namespace ustl {

struct FrameworkOptions {
  CandidateGenOptions candidates;
  /// Grouping configuration, including `grouping.num_threads` (0 =
  /// hardware concurrency, 1 = serial): the framework's parallelism knob.
  /// Results are bit-identical for any value — see
  /// GroupingOptions::num_threads for the contract.
  GroupingOptions grouping;
  /// Groups presented to the human per column (the budget of Section 3).
  size_t budget_per_column = 100;
  /// Groups of size 1 carry no repetition evidence; the paper's Single
  /// baseline presents them one by one. When false, singleton groups are
  /// still presented (they count against the budget).
  bool skip_singletons = false;
  /// Skip groups whose pivot is a single full-width ConstantStr ("replace
  /// anything by this exact value"). Those are repeated-conflict artifacts,
  /// not transformations, and would waste human budget; skipping them does
  /// not consume budget. See Group::pure_constant.
  bool skip_constant_pivot_groups = true;
  /// Skip groups whose pivot program is mostly "emit this literal":
  /// constant coverage above this fraction (Group::constant_coverage).
  /// Variant families always exist in both directions, and the
  /// low-coverage direction survives, so no transformation is lost.
  /// Set to 1.0 to disable.
  double max_constant_coverage = 0.7;
  /// Skip groups all of whose member replacements have empty replacement
  /// sets (Section 7.1: a replacement whose set became empty "no longer
  /// exists" and is removed from Phi). Typically the mirror of an already
  /// applied group. Does not consume budget.
  bool skip_dead_groups = true;
  /// Called after every presented group with the number of groups
  /// presented so far and the current column state. Lets the benchmark
  /// harnesses measure precision/recall/MCC as a function of the budget
  /// (x-axis of Figures 6-8) in a single pass. May be null.
  ///
  /// Thread-safety under column parallelism (pipeline/pipeline.h): the
  /// pipeline serializes invocations — the callback is never entered
  /// concurrently, so it may touch unsynchronized state — but calls from
  /// *different columns* interleave in scheduling order. Per column the
  /// presented counts are still strictly increasing; use the column
  /// argument (or capture per-column state) to disambiguate, and don't
  /// assume a deterministic global call order when columns run in
  /// parallel.
  std::function<void(size_t, const Column&)> progress_callback;
  /// Name of the column being standardized. Purely attributive: it scopes
  /// the oracle QuestionContext so brokers can build per-column replay
  /// logs. The pipeline fills it per job; empty is fine elsewhere.
  std::string column_name;
  /// Cooperative cancellation (common/cancel.h). Checked before every
  /// presented group, forwarded into the grouping engine's scan loops and
  /// into the oracle QuestionContext (so a broker can unwind a waiter).
  /// A tripped token aborts the run via CancelledError before the next
  /// side effect; the partially edited column is abandoned by the caller.
  /// Inert by default.
  CancelToken cancel;
  /// Serving-layer attribution: id of the request this column belongs to
  /// (0 = none). Travels in the QuestionContext so per-request retry and
  /// breaker events can name their request.
  uint64_t request_id = 0;
  /// Per-request trace (obs/trace.h; null = untraced). StandardizeColumn
  /// opens candidates/apply spans under `trace_parent` (the serving
  /// layer's column span), forwards the context into the grouping options
  /// (graph_build, search_wave spans) and into every QuestionContext
  /// (oracle batch/call attribution). Observability only: nothing in the
  /// run reads it, so traced and untraced runs are byte-identical.
  TraceContext* trace = nullptr;
  uint64_t trace_parent = 0;
};

/// One presented group, for reports and the examples.
struct GroupTrace {
  size_t size = 0;
  bool approved = false;
  ReplaceDirection direction = ReplaceDirection::kLhsToRhs;
  size_t edits = 0;
  std::string structure;
  std::string program;
  std::vector<StringPair> sample_pairs;  // up to 5, for display
};

struct ColumnRunResult {
  size_t groups_presented = 0;
  size_t groups_approved = 0;
  size_t edits = 0;
  std::vector<GroupTrace> trace;
  /// Search-work counters of the column's grouping engine (searches,
  /// expansions, cache/warm hits...). The serving layer and the benches
  /// read these to show what a warm cross-engine search cache saved;
  /// zeroes for StandardizeColumnSingle, which never builds an engine.
  IncrementalStats grouping;
};

/// Standardizes one column in place (Algorithm 1 lines 2-9 for one Ci).
ColumnRunResult StandardizeColumn(Column* column,
                                  VerificationOracle* oracle,
                                  const FrameworkOptions& options);

/// The paper's Single baseline: no grouping — every candidate replacement
/// is a group by itself, presented in generation order (the order of
/// ReplacementStore's pairs; with one member per group there is no size
/// to rank by) until the budget runs out.
ColumnRunResult StandardizeColumnSingle(Column* column,
                                        VerificationOracle* oracle,
                                        const FrameworkOptions& options);

/// Full Algorithm 1: standardize every column of the table in index order
/// with the same oracle/budget (each column's `column_name` set from the
/// table), then return MC golden records. The oracle is asked directly,
/// one question at a time; the table is written only after every column
/// succeeded, so a CancelledError (from `options.cancel`) or an oracle
/// failure leaves it as passed in. Use RunConsolidationPipeline
/// (pipeline/pipeline.h) for column parallelism, verdict caching and
/// broker statistics, or serve/service.h's ConsolidationService for
/// long-lived multi-table serving with caches warm across requests.
struct GoldenRecordRun {
  std::vector<ColumnRunResult> per_column;
  std::vector<GoldenRecord> golden_records;
};
GoldenRecordRun GoldenRecordCreation(Table* table, VerificationOracle* oracle,
                                     const FrameworkOptions& options);

}  // namespace ustl

#endif  // USTL_CONSOLIDATE_FRAMEWORK_H_
