// Fine-grained candidate replacement generation by alignment (Appendix A).
//
// TokenLcsAlign splits both values into whitespace tokens, computes their
// longest common subsequence, and emits each maximal pair of aligned
// non-identical token runs as a segment pair ("9" ~ "9th",
// "Wisconsin" ~ "WI"). It is the only aligner: candidate generation pairs
// whole values and these token segments, as in the paper.
#ifndef USTL_TEXT_ALIGNMENT_H_
#define USTL_TEXT_ALIGNMENT_H_

#include <string>
#include <string_view>
#include <vector>

namespace ustl {

/// An aligned pair of non-identical segments, one from each input value.
/// `lhs_begin`/`rhs_begin` are 1-based character offsets of the segment in
/// the original values (0 when the segment is empty), so callers can apply
/// a replacement in place.
struct AlignedSegment {
  std::string lhs;
  std::string rhs;
  int lhs_begin = 0;
  int rhs_begin = 0;

  bool operator==(const AlignedSegment& o) const {
    return lhs == o.lhs && rhs == o.rhs && lhs_begin == o.lhs_begin &&
           rhs_begin == o.rhs_begin;
  }
};

/// Token-level LCS alignment (Appendix A). Segments where either side is
/// empty (pure insertions/deletions) are skipped: a replacement needs two
/// non-empty different strings.
std::vector<AlignedSegment> TokenLcsAlign(std::string_view lhs,
                                          std::string_view rhs);

/// Longest common subsequence length over whitespace tokens. Exposed for
/// tests and datagen sanity checks.
int TokenLcsLength(std::string_view lhs, std::string_view rhs);

}  // namespace ustl

#endif  // USTL_TEXT_ALIGNMENT_H_
