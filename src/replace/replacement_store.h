// The replacement store (Section 7.1): owns a working copy of the column,
// the candidate replacements and their replacement sets, applies approved
// replacements, and keeps the replacement sets consistent after edits.
//
// Whole-value occurrences are verified (cell must still equal lhs) and
// rewritten to rhs; token-level occurrences are verified at their recorded
// offset, and a span that no longer holds lhs is skipped as stale. After
// an edit, each touched cluster is re-derived whole: its entries are
// dropped from every occurrence list, then one cluster pass
// (GenerateForCluster) regenerates and merges its candidates, which
// reproduces the update rules of Section 7.1 (entries migrate to the pairs
// the new values form; emptied pairs die). Dropping first is what keeps a
// pass's entries at the tail of each list, where its dedup looks.
#ifndef USTL_REPLACE_REPLACEMENT_STORE_H_
#define USTL_REPLACE_REPLACEMENT_STORE_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "replace/candidate_gen.h"
#include "replace/replacement.h"

namespace ustl {

class ReplacementStore {
 public:
  ReplacementStore(Column column, const CandidateGenOptions& options);

  /// The distinct candidate replacements Phi. Indices are stable: applying
  /// replacements may append new pairs but never renumbers existing ones.
  const std::vector<StringPair>& pairs() const { return set_.pairs; }
  const StringPair& pair(size_t index) const { return set_.pairs[index]; }
  size_t num_pairs() const { return set_.pairs.size(); }

  /// Index of the pair `lhs -> rhs`, or SIZE_MAX. Pairs are unique by
  /// (lhs, rhs), dead ones included.
  size_t Find(std::string_view lhs, std::string_view rhs) const {
    return set_.Find(lhs, rhs);
  }

  /// The live occurrences of a pair; empty when the replacement no longer
  /// exists anywhere (Section 7.1 removes such replacements from Phi).
  const std::vector<Occurrence>& occurrences(size_t index) const {
    return set_.occurrences[index];
  }

  /// The working column (updated in place by Apply).
  const Column& column() const { return column_; }

  /// Applies pair `index` in the stored direction (lhs replaced by rhs) at
  /// every valid occurrence. Returns the number of edits made.
  size_t Apply(size_t index);

  /// Applies pair `index` in the reverse direction (rhs replaced by lhs).
  /// Section 3 step 3: the human picks the direction at approval time.
  /// Implemented via the mirrored pair's occurrences.
  size_t ApplyReverse(size_t index);

 private:
  // Re-derives candidates for `cluster` after edits: drops its stale
  // occurrences from every pair, then regenerates and merges.
  void RefreshCluster(size_t cluster);

  size_t ApplyDirected(const std::string& lhs, const std::string& rhs,
                       const std::vector<Occurrence>& occurrences);

  Column column_;
  CandidateGenOptions options_;
  CandidateSet set_;
};

}  // namespace ustl

#endif  // USTL_REPLACE_REPLACEMENT_STORE_H_
