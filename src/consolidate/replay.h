// Replaying approved transformations on new data. A verification session
// produces groups the expert approved — each one a pivot program plus a
// replacement direction. Persisting those (dsl/parser.h syntax) and
// replaying them later standardizes fresh batches of the same feed with
// zero additional questions: for every in-cluster value pair (a, b) the
// program is consistent with, the source value is rewritten to the target.
// This is the cross-run reuse story FlashFill-style systems ship with,
// built on the paper's machinery.
#ifndef USTL_CONSOLIDATE_REPLAY_H_
#define USTL_CONSOLIDATE_REPLAY_H_

#include <string>
#include <string_view>
#include <vector>

#include "consolidate/cluster.h"
#include "consolidate/oracle.h"
#include "dsl/program.h"

namespace ustl {

/// One persisted, approved transformation.
struct ApprovedTransformation {
  /// Column it was approved on; empty = applies to every column.
  std::string column;
  /// The group's pivot program (maps the group's lhs to its rhs).
  Program program;
  /// kLhsToRhs replaces a by b whenever program(a) can produce b;
  /// kRhsToLhs replaces b by a.
  ReplaceDirection direction = ReplaceDirection::kLhsToRhs;
  /// The approved group's member pairs in the order the live session
  /// applied them. When non-empty, replay applies exactly these
  /// value-level replacements — byte-faithful to the session, because
  /// group membership (pivot path contained in the pair's graph) is
  /// strictly narrower than program consistency. Empty = legacy log or
  /// deliberate generalization: every consistent pair is rewritten.
  std::vector<StringPair> pairs;
};

/// Applies one transformation to a column in place. With recorded member
/// pairs, only candidate pairs matching those exact (lhs, rhs) values are
/// rewritten, in the recorded order — reproducing the live session's
/// edits byte for byte. Without them, every ordered pair of distinct
/// values (a, b) with b an output of program(a) triggers a rewrite of the
/// direction's source value to its target in all cells of that cluster
/// holding it, visited in candidate order. Returns cells edited.
size_t ApplyTransformation(Column* column,
                           const ApprovedTransformation& transformation);

/// Replays a log against a table: each transformation applies to its
/// named column (or all columns when unnamed). Returns cells edited.
size_t ReplayTransformations(
    Table* table,
    const std::vector<ApprovedTransformation>& transformations);

/// Text form, one block per transformation:
///
///   column: Address
///   direction: lhs->rhs
///   program: SubStr(...) (+) ConstantStr("...")
///   pair: "9 Street" -> "9 St"
///
/// `pair:` lines (zero or more, quoted with C-style escapes for
/// backslash, quote, newline, CR) record the group's members. Blocks are
/// blank-line separated and each needs its `program:` line: a block that
/// sets `column:`, `direction:` or `pair:` without one is an error.
/// Unknown "key: value" lines are ignored on parse, so a block of only
/// those is skipped.
std::string SerializeTransformationLog(
    const std::vector<ApprovedTransformation>& transformations);

Result<std::vector<ApprovedTransformation>> ParseTransformationLog(
    std::string_view text);

}  // namespace ustl

#endif  // USTL_CONSOLIDATE_REPLAY_H_
