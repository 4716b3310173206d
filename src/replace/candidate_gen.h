// Candidate replacement generation (Section 3 step 1, Appendix A).
// Full-value candidates pair every two non-identical values within a
// cluster, in both directions. Token-level candidates come from the LCS
// alignment of the whitespace tokens of such a pair.
#ifndef USTL_REPLACE_CANDIDATE_GEN_H_
#define USTL_REPLACE_CANDIDATE_GEN_H_

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "replace/replacement.h"

namespace ustl {

struct CandidateGenOptions {
  /// Pair whole cell values (Section 3 step 1).
  bool full_value_pairs = true;
  /// LCS-aligned token segments (Appendix A).
  bool token_level = true;
  /// Cells longer than this are skipped entirely (graphs would be trivial
  /// anyway, and quadratic pair enumeration on huge cells is wasted work).
  size_t max_value_len = 256;
};

/// The distinct candidate replacements of a column plus their replacement
/// sets L[lhs -> rhs] (Section 7.1). Pair indices are stable identifiers.
struct CandidateSet {
  std::vector<StringPair> pairs;
  std::vector<std::vector<Occurrence>> occurrences;  // parallel to pairs

  /// Index of a pair, or SIZE_MAX.
  size_t Find(const std::string& lhs, const std::string& rhs) const;

  /// Internal: pair key -> index ("lhs\x1frhs").
  std::unordered_map<std::string, size_t> index;
};

/// Generates all candidate replacements of `column`.
CandidateSet GenerateCandidates(const Column& column,
                                const CandidateGenOptions& options);

/// Generates candidates for a single cluster and merges them into `set`
/// (new pairs appended, occurrences added, duplicates ignored). Used by
/// the replacement store to refresh edited clusters (Section 7.1).
void GenerateForCluster(const Column& column, size_t cluster,
                        const CandidateGenOptions& options, CandidateSet* set);

}  // namespace ustl

#endif  // USTL_REPLACE_CANDIDATE_GEN_H_
