// Fine-grained candidate replacement generation by alignment (Appendix A).
//
// Two values are split into whitespace tokens, the longest common
// subsequence of the two token lists is computed, and each maximal pair of
// aligned non-identical token runs is emitted as a segment pair
// ("9" ~ "9th", "Wisconsin" ~ "WI"). This is the only aligner: candidate
// generation pairs whole values and these token segments, as in the paper.
//
// The kernel, AlignTokenSpans, works on views. Each value is tokenized
// once into byte spans (AppendTokenSpans), so a cluster pass splits a cell
// once however many values it is aligned with. The LCS table is one flat
// (n + 1) x (m + 1) array in per-thread scratch that keeps its capacity,
// and segments come back as byte offsets into the two values: a warm
// alignment allocates nothing. TokenLcsAlign and TokenLcsLength are thin
// wrappers over the kernel that tokenize two strings and, for
// TokenLcsAlign, copy the segments out.
#ifndef USTL_TEXT_ALIGNMENT_H_
#define USTL_TEXT_ALIGNMENT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ustl {

/// A whitespace token of a value: its bytes [begin, end), 0-based.
struct TokenSpan {
  uint32_t begin;
  uint32_t end;
};

/// Appends the whitespace tokens of `value` to `out`, left to right.
void AppendTokenSpans(std::string_view value, std::vector<TokenSpan>* out);

/// A value and its whitespace tokens tokens[0, num_tokens), as views.
struct TokenizedValue {
  std::string_view text;
  const TokenSpan* tokens;
  size_t num_tokens;
};

/// An aligned pair of non-identical segments as byte ranges of the two
/// values: lhs[lhs_begin, lhs_end) ~ rhs[rhs_begin, rhs_end), 0-based.
struct SegmentSpan {
  uint32_t lhs_begin;
  uint32_t lhs_end;
  uint32_t rhs_begin;
  uint32_t rhs_end;
};

/// The token-level LCS alignment kernel (Appendix A). Returns the length
/// of the longest common token subsequence. When `segments` is not null it
/// is cleared and receives the segment pairs in left-to-right order;
/// gaps where either side is empty (pure insertions/deletions) are
/// skipped, since a replacement needs two non-empty different strings.
int AlignTokenSpans(const TokenizedValue& lhs, const TokenizedValue& rhs,
                    std::vector<SegmentSpan>* segments);

/// An aligned pair of non-identical segments, one from each input value.
/// `lhs_begin`/`rhs_begin` are 1-based character offsets of the segment in
/// the original values, so callers can apply a replacement in place.
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

/// AlignTokenSpans over two strings, with the segments copied out.
std::vector<AlignedSegment> TokenLcsAlign(std::string_view lhs,
                                          std::string_view rhs);

/// Longest common subsequence length over whitespace tokens. Exposed for
/// tests and datagen sanity checks.
int TokenLcsLength(std::string_view lhs, std::string_view rhs);

}  // namespace ustl

#endif  // USTL_TEXT_ALIGNMENT_H_
