#include "consolidate/framework.h"

#include <utility>

#include "obs/trace.h"

namespace ustl {

ColumnRunResult StandardizeColumn(Column* column, VerificationOracle* oracle,
                                  const FrameworkOptions& options) {
  ColumnRunResult result;
  ScopedSpan candidates_span(options.trace, options.trace_parent,
                             "candidates", options.column_name);
  ReplacementStore store(*column, options.candidates);
  candidates_span.AddAttr("pairs", static_cast<int64_t>(store.num_pairs()));
  candidates_span.End();

  // The engine groups a snapshot of Phi; store indices are stable, so the
  // group members map back even after edits (stale occurrences are checked
  // at apply time, Section 7.1).
  GroupingOptions grouping_options = options.grouping;
  if (!grouping_options.cancel.cancellable()) {
    grouping_options.cancel = options.cancel;
  }
  grouping_options.trace = options.trace;
  grouping_options.trace_parent = options.trace_parent;
  GroupingEngine engine(store.pairs(), grouping_options);

  while (result.groups_presented < options.budget_per_column) {
    options.cancel.Check();
    std::optional<Group> group = engine.Next();
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
      if (!any_live) continue;  // Section 7.1: these replacements are gone
    }

    std::vector<StringPair> group_pairs;
    group_pairs.reserve(group->size());
    for (size_t pair_index : group->member_pair_indices) {
      group_pairs.push_back(store.pair(pair_index));
    }

    ++result.groups_presented;
    QuestionContext context;
    context.column = options.column_name;
    context.program = group->program;
    context.presented = result.groups_presented;
    context.cancel = options.cancel;
    context.request_id = options.request_id;
    context.trace = options.trace;
    context.trace_parent = options.trace_parent;
    Verdict verdict = oracle->VerifyWithContext(group_pairs, context);

    GroupTrace trace;
    trace.size = group->size();
    trace.approved = verdict.approved;
    trace.direction = verdict.direction;
    trace.structure = group->structure;
    trace.program = group->program;
    for (size_t i = 0; i < group_pairs.size() && i < 5; ++i) {
      trace.sample_pairs.push_back(group_pairs[i]);
    }

    if (verdict.approved) {
      ++result.groups_approved;
      ScopedSpan apply_span(options.trace, options.trace_parent, "apply",
                            group->program);
      size_t edits = 0;
      for (size_t pair_index : group->member_pair_indices) {
        edits += verdict.direction == ReplaceDirection::kLhsToRhs
                     ? store.Apply(pair_index)
                     : store.ApplyReverse(pair_index);
      }
      apply_span.AddAttr("edits", static_cast<int64_t>(edits));
      trace.edits = edits;
      result.edits += edits;
    }
    result.trace.push_back(std::move(trace));
    if (options.progress_callback) {
      options.progress_callback(result.groups_presented, store.column());
    }
  }

  result.grouping = engine.stats();
  *column = store.column();
  return result;
}

ColumnRunResult StandardizeColumnSingle(Column* column,
                                        VerificationOracle* oracle,
                                        const FrameworkOptions& options) {
  ColumnRunResult result;
  ReplacementStore store(*column, options.candidates);

  // All "groups" have one member, so size ranking is vacuous; the paper's
  // Single shows candidates in generation order.
  for (size_t index = 0; index < store.num_pairs(); ++index) {
    options.cancel.Check();
    if (result.groups_presented >= options.budget_per_column) break;
    if (options.skip_dead_groups && store.occurrences(index).empty()) {
      continue;
    }
    ++result.groups_presented;
    std::vector<StringPair> group_pairs = {store.pair(index)};
    // Single has no pivot program; the context only scopes the column.
    QuestionContext context;
    context.column = options.column_name;
    context.presented = result.groups_presented;
    context.cancel = options.cancel;
    context.request_id = options.request_id;
    context.trace = options.trace;
    context.trace_parent = options.trace_parent;
    Verdict verdict = oracle->VerifyWithContext(group_pairs, context);
    GroupTrace trace;
    trace.size = 1;
    trace.approved = verdict.approved;
    trace.direction = verdict.direction;
    trace.sample_pairs = group_pairs;
    if (verdict.approved) {
      ++result.groups_approved;
      size_t edits = verdict.direction == ReplaceDirection::kLhsToRhs
                         ? store.Apply(index)
                         : store.ApplyReverse(index);
      trace.edits = edits;
      result.edits += edits;
    }
    result.trace.push_back(std::move(trace));
    if (options.progress_callback) {
      options.progress_callback(result.groups_presented, store.column());
    }
  }

  *column = store.column();
  return result;
}

GoldenRecordRun GoldenRecordCreation(Table* table, VerificationOracle* oracle,
                                     const FrameworkOptions& options) {
  // Each column is standardized as a working copy; the table changes only
  // once every column succeeded, so a cancelled or failed run leaves it
  // exactly as passed in.
  GoldenRecordRun run;
  std::vector<Column> columns;
  FrameworkOptions column_options = options;
  for (size_t col = 0; col < table->num_columns(); ++col) {
    column_options.column_name = table->column_names()[col];
    columns.push_back(table->ExtractColumn(col));
    run.per_column.push_back(
        StandardizeColumn(&columns.back(), oracle, column_options));
  }
  for (size_t col = 0; col < columns.size(); ++col) {
    table->StoreColumn(col, columns[col]);
  }
  run.golden_records = MajorityConsensus(*table);
  return run;
}

}  // namespace ustl
