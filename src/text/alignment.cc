#include "text/alignment.h"

#include <algorithm>

#include "common/status.h"
#include "text/char_class.h"

namespace ustl {
namespace {

// The LCS table of AlignTokenSpans. One lives per thread and keeps its
// capacity across calls. Entry i * (m + 1) + j is the LCS length of the
// first i tokens of lhs and the first j tokens of rhs.
std::vector<uint32_t>& ThreadLcsTable() {
  thread_local std::vector<uint32_t> table;
  return table;
}

std::string_view TokenText(const TokenizedValue& value, size_t i) {
  const TokenSpan& token = value.tokens[i];
  return value.text.substr(token.begin, token.end - token.begin);
}

// Appends the aligned gap [li, lj) x [ri, rj) (token indices) as a segment
// if both sides are non-empty and differ.
void EmitGap(const TokenizedValue& lhs, const TokenizedValue& rhs, size_t li,
             size_t lj, size_t ri, size_t rj,
             std::vector<SegmentSpan>* out) {
  if (li >= lj || ri >= rj) return;
  const SegmentSpan seg{lhs.tokens[li].begin, lhs.tokens[lj - 1].end,
                        rhs.tokens[ri].begin, rhs.tokens[rj - 1].end};
  if (lhs.text.substr(seg.lhs_begin, seg.lhs_end - seg.lhs_begin) !=
      rhs.text.substr(seg.rhs_begin, seg.rhs_end - seg.rhs_begin)) {
    out->push_back(seg);
  }
}

}  // namespace

void AppendTokenSpans(std::string_view value, std::vector<TokenSpan>* out) {
  USTL_CHECK(value.size() <= UINT32_MAX);
  size_t i = 0;
  while (i < value.size()) {
    while (i < value.size() && ClassOf(value[i]) == CharClass::kSpace) ++i;
    size_t j = i;
    while (j < value.size() && ClassOf(value[j]) != CharClass::kSpace) ++j;
    if (j > i) {
      out->push_back(
          TokenSpan{static_cast<uint32_t>(i), static_cast<uint32_t>(j)});
    }
    i = j;
  }
}

int AlignTokenSpans(const TokenizedValue& lhs, const TokenizedValue& rhs,
                    std::vector<SegmentSpan>* segments) {
  const size_t n = lhs.num_tokens;
  const size_t m = rhs.num_tokens;
  const size_t width = m + 1;
  std::vector<uint32_t>& dp = ThreadLcsTable();
  if (dp.size() < (n + 1) * width) dp.resize((n + 1) * width);
  std::fill(dp.begin(), dp.begin() + width, 0u);
  for (size_t i = 1; i <= n; ++i) {
    const std::string_view token = TokenText(lhs, i - 1);
    const uint32_t* up = &dp[(i - 1) * width];
    uint32_t* row = &dp[i * width];
    row[0] = 0;
    for (size_t j = 1; j <= m; ++j) {
      row[j] = token == TokenText(rhs, j - 1) ? up[j - 1] + 1
                                               : std::max(up[j], row[j - 1]);
    }
  }
  const int length = static_cast<int>(dp[n * width + m]);
  if (segments == nullptr) return length;

  // Backtrack from (n, m). Each matched token pair closes the gap between
  // it and the match after it, so gaps come out right to left.
  segments->clear();
  size_t i = n, j = m;
  size_t gap_l = n, gap_r = m;  // the current gap ends before these tokens
  while (i > 0 && j > 0) {
    if (TokenText(lhs, i - 1) == TokenText(rhs, j - 1) &&
        dp[i * width + j] == dp[(i - 1) * width + j - 1] + 1) {
      EmitGap(lhs, rhs, i, gap_l, j, gap_r, segments);
      gap_l = --i;
      gap_r = --j;
    } else if (dp[(i - 1) * width + j] >= dp[i * width + j - 1]) {
      --i;
    } else {
      --j;
    }
  }
  EmitGap(lhs, rhs, 0, gap_l, 0, gap_r, segments);
  std::reverse(segments->begin(), segments->end());
  return length;
}

std::vector<AlignedSegment> TokenLcsAlign(std::string_view lhs,
                                          std::string_view rhs) {
  std::vector<TokenSpan> tokens;
  AppendTokenSpans(lhs, &tokens);
  const size_t n = tokens.size();
  AppendTokenSpans(rhs, &tokens);
  std::vector<SegmentSpan> spans;
  AlignTokenSpans(TokenizedValue{lhs, tokens.data(), n},
                  TokenizedValue{rhs, tokens.data() + n, tokens.size() - n},
                  &spans);
  std::vector<AlignedSegment> out;
  for (const SegmentSpan& span : spans) {
    out.push_back(AlignedSegment{
        std::string(lhs.substr(span.lhs_begin, span.lhs_end - span.lhs_begin)),
        std::string(rhs.substr(span.rhs_begin, span.rhs_end - span.rhs_begin)),
        static_cast<int>(span.lhs_begin) + 1,
        static_cast<int>(span.rhs_begin) + 1});
  }
  return out;
}

int TokenLcsLength(std::string_view lhs, std::string_view rhs) {
  std::vector<TokenSpan> tokens;
  AppendTokenSpans(lhs, &tokens);
  const size_t n = tokens.size();
  AppendTokenSpans(rhs, &tokens);
  return AlignTokenSpans(
      TokenizedValue{lhs, tokens.data(), n},
      TokenizedValue{rhs, tokens.data() + n, tokens.size() - n}, nullptr);
}

}  // namespace ustl
