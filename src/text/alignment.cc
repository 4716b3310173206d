#include "text/alignment.h"

#include <algorithm>

#include "text/char_class.h"

namespace ustl {
namespace {

struct SpannedToken {
  std::string_view text;
  int begin;  // 1-based
  int end;    // 1-based exclusive
};

std::vector<SpannedToken> SpannedWhitespaceTokens(std::string_view s) {
  std::vector<SpannedToken> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && ClassOf(s[i]) == CharClass::kSpace) ++i;
    size_t j = i;
    while (j < s.size() && ClassOf(s[j]) != CharClass::kSpace) ++j;
    if (j > i) {
      out.push_back(SpannedToken{s.substr(i, j - i), static_cast<int>(i) + 1,
                                 static_cast<int>(j) + 1});
    }
    i = j;
  }
  return out;
}

// Emits the aligned gap [li, lj) x [ri, rj) (token indices) as a segment if
// both sides are non-empty.
void EmitGap(std::string_view lhs, std::string_view rhs,
             const std::vector<SpannedToken>& lt,
             const std::vector<SpannedToken>& rt, size_t li, size_t lj,
             size_t ri, size_t rj, std::vector<AlignedSegment>* out) {
  if (li >= lj || ri >= rj) return;
  int lb = lt[li].begin;
  int le = lt[lj - 1].end;
  int rb = rt[ri].begin;
  int re = rt[rj - 1].end;
  AlignedSegment seg;
  seg.lhs = std::string(lhs.substr(lb - 1, le - lb));
  seg.rhs = std::string(rhs.substr(rb - 1, re - rb));
  seg.lhs_begin = lb;
  seg.rhs_begin = rb;
  if (seg.lhs != seg.rhs) out->push_back(std::move(seg));
}

}  // namespace

int TokenLcsLength(std::string_view lhs, std::string_view rhs) {
  auto lt = SpannedWhitespaceTokens(lhs);
  auto rt = SpannedWhitespaceTokens(rhs);
  size_t n = lt.size(), m = rt.size();
  std::vector<std::vector<int>> dp(n + 1, std::vector<int>(m + 1, 0));
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= m; ++j) {
      if (lt[i - 1].text == rt[j - 1].text) {
        dp[i][j] = dp[i - 1][j - 1] + 1;
      } else {
        dp[i][j] = std::max(dp[i - 1][j], dp[i][j - 1]);
      }
    }
  }
  return dp[n][m];
}

std::vector<AlignedSegment> TokenLcsAlign(std::string_view lhs,
                                          std::string_view rhs) {
  auto lt = SpannedWhitespaceTokens(lhs);
  auto rt = SpannedWhitespaceTokens(rhs);
  size_t n = lt.size(), m = rt.size();
  std::vector<std::vector<int>> dp(n + 1, std::vector<int>(m + 1, 0));
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= m; ++j) {
      if (lt[i - 1].text == rt[j - 1].text) {
        dp[i][j] = dp[i - 1][j - 1] + 1;
      } else {
        dp[i][j] = std::max(dp[i - 1][j], dp[i][j - 1]);
      }
    }
  }
  // Backtrack to recover the matched token pairs in order.
  std::vector<std::pair<size_t, size_t>> matches;
  size_t i = n, j = m;
  while (i > 0 && j > 0) {
    if (lt[i - 1].text == rt[j - 1].text &&
        dp[i][j] == dp[i - 1][j - 1] + 1) {
      matches.emplace_back(i - 1, j - 1);
      --i;
      --j;
    } else if (dp[i - 1][j] >= dp[i][j - 1]) {
      --i;
    } else {
      --j;
    }
  }
  std::reverse(matches.begin(), matches.end());

  std::vector<AlignedSegment> out;
  size_t li = 0, ri = 0;
  for (auto [mi, mj] : matches) {
    EmitGap(lhs, rhs, lt, rt, li, mi, ri, mj, &out);
    li = mi + 1;
    ri = mj + 1;
  }
  EmitGap(lhs, rhs, lt, rt, li, n, ri, m, &out);
  return out;
}

}  // namespace ustl
