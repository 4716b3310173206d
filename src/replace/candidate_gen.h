// Candidate replacement generation (Section 3 step 1, Appendix A).
// Full-value candidates pair every two non-identical values within a
// cluster, in both directions. Token-level candidates come from the LCS
// alignment of the whitespace tokens of such a pair.
//
// A cluster pass (GenerateCandidates runs one per cluster, and the
// replacement store one per edited cluster) tokenizes each cell once into
// spans, aligns every ordered pair with the flat-table kernel of
// text/alignment.h, and hands the segments to the set as views into the
// two cells; a string is copied only when a new pair is created. Its
// buffers live in per-thread scratch that keeps its capacity, so
// re-deriving a cluster whose pairs already exist allocates nothing
// (CandidateGenAllocationTest.WarmRegenerationAllocatesNothing).
//
// Contracts: pair ids are handed out in first-sight order, and each
// occurrence list holds its entries in the order they were first seen.
// The set finds a pair by an open-addressing table of pair ids
// (common/id_table.h) hashed over (lhs, rhs) and compared field by field,
// so no byte of a value can make two pairs collide.
#ifndef USTL_REPLACE_CANDIDATE_GEN_H_
#define USTL_REPLACE_CANDIDATE_GEN_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/id_table.h"
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
  size_t Find(std::string_view lhs, std::string_view rhs) const;

  /// Internal: the pair ids, seated by a hash of (lhs, rhs).
  std::vector<uint32_t> slots = std::vector<uint32_t>(16, kEmptyIdSlot);
};

/// Generates all candidate replacements of `column`.
CandidateSet GenerateCandidates(const Column& column,
                                const CandidateGenOptions& options);

/// Generates candidates for a single cluster and merges them into `set`
/// (new pairs appended, occurrences added, duplicates ignored). Used by
/// the replacement store to refresh edited clusters (Section 7.1).
///
/// Duplicates are found by scanning only the tail of each occurrence list
/// that holds `cluster`'s entries. That tail is all of them when every
/// entry of `cluster` already in `set` sits at the end of its list: true
/// for a set that holds none (the store drops them before a refresh, and
/// GenerateCandidates visits each cluster once) and for the cluster
/// generated last. Debug builds check it.
void GenerateForCluster(const Column& column, size_t cluster,
                        const CandidateGenOptions& options, CandidateSet* set);

}  // namespace ustl

#endif  // USTL_REPLACE_CANDIDATE_GEN_H_
