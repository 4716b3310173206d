#include "graph/graph_builder.h"

#include <algorithm>

#include "text/char_class.h"
#include "text/terms.h"

namespace ustl {
namespace {

constexpr CharClass kRegexClasses[] = {CharClass::kDigit, CharClass::kLower,
                                       CharClass::kUpper, CharClass::kSpace};

// Longest common prefix length of a and b.
size_t Lcp(std::string_view a, std::string_view b) {
  size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

// Longest common suffix length of a and b.
size_t Lcs(std::string_view a, std::string_view b) {
  size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[a.size() - 1 - i] == b[b.size() - 1 - i]) ++i;
  return i;
}

}  // namespace

GraphBuilder::GraphBuilder(GraphBuilderOptions options,
                           LabelInterner* interner)
    : options_(options), interner_(interner) {
  USTL_CHECK(interner_ != nullptr);
}

Result<TransformationGraph> GraphBuilder::Build(std::string_view s,
                                                std::string_view t) const {
  if (t.empty()) {
    return Status::InvalidArgument("replacement target must be non-empty");
  }
  if (s == t) {
    return Status::InvalidArgument("replacement sides must differ");
  }
  TransformationGraph graph{std::string(s), std::string(t)};
  const int n = static_cast<int>(s.size());
  const int m = static_cast<int>(t.size());

  // Oversized values get the trivial constant-only graph so that every
  // replacement keeps at least one transformation path (see header).
  if (n > options_.max_input_len || m > options_.max_output_len) {
    graph.AddLabel(1, m + 1, interner_->InternConstant(t));
    return graph;
  }

  // --- Position array P[1 .. n+1] (Algorithm 8 lines 3-11), tiered per the
  // static order of Section 7.4: regex MatchPos, then constant-term
  // MatchPos, then ConstPos.
  std::vector<std::vector<PosFn>> positions(n + 2);
  {
    std::vector<std::vector<PosFn>> tier0(n + 2), tier2(n + 2);
    std::vector<std::pair<double, PosFn>> best_const(n + 2,
                                                     {0.0, PosFn::ConstPos(1)});
    std::vector<bool> has_const(n + 2, false);

    for (CharClass c : kRegexClasses) {
      Term term = Term::Regex(c);
      auto matches = FindMatches(term, s);
      const int total = static_cast<int>(matches.size());
      for (int k = 1; k <= total; ++k) {
        const TermMatch& match = matches[k - 1];
        tier0[match.begin].push_back(PosFn::MatchPos(term, k, Dir::kBegin));
        tier0[match.begin].push_back(
            PosFn::MatchPos(term, k - total - 1, Dir::kBegin));
        tier0[match.end].push_back(PosFn::MatchPos(term, k, Dir::kEnd));
        tier0[match.end].push_back(
            PosFn::MatchPos(term, k - total - 1, Dir::kEnd));
      }
    }

    if (options_.scorer != nullptr) {
      // Constant-string terms, restricted to class tokens and, per
      // position, to the best-scoring term (Appendix E static order).
      std::vector<std::string> seen;
      for (const Token& token : ClassTokens(s)) {
        if (std::find(seen.begin(), seen.end(), token.text) != seen.end()) {
          continue;
        }
        seen.push_back(token.text);
        double score = options_.scorer->Score(token.text);
        if (score <= 0.0) continue;
        Term term = Term::Constant(token.text);
        auto matches = FindMatches(term, s);
        const int total = static_cast<int>(matches.size());
        for (int k = 1; k <= total; ++k) {
          const TermMatch& match = matches[k - 1];
          for (auto [position, dir] :
               {std::pair{match.begin, Dir::kBegin},
                std::pair{match.end, Dir::kEnd}}) {
            if (!has_const[position] || score > best_const[position].first) {
              has_const[position] = true;
              best_const[position] = {score, PosFn::MatchPos(term, k, dir)};
            }
          }
        }
      }
    }

    for (int k = 1; k <= n + 1; ++k) {
      tier2[k].push_back(PosFn::ConstPos(k));
      tier2[k].push_back(PosFn::ConstPos(k - n - 2));
    }

    for (int k = 1; k <= n + 1; ++k) {
      std::vector<PosFn>& out = positions[k];
      if (options_.position_static_order) {
        if (!tier0[k].empty()) {
          out = tier0[k];
        } else if (has_const[k]) {
          out.push_back(best_const[k].second);
        } else {
          out = tier2[k];
        }
      } else {
        out = tier0[k];
        if (has_const[k]) out.push_back(best_const[k].second);
        out.insert(out.end(), tier2[k].begin(), tier2[k].end());
      }
      std::sort(out.begin(), out.end());
    }
  }

  // --- Constant and SubStr labels per edge (Algorithm 8 lines 13-18).
  // Appendix-E pruning: with a scorer, ConstantStr(t[i,j)) is added only if
  // no extension substring scores strictly higher. Scores for all (i, j)
  // are precomputed, then extension maxima by prefix/suffix sweeps, so the
  // check is O(1) per edge instead of O(|t|) scorer lookups.
  const int width = m + 2;
  auto at = [width](int i, int j) { return i * width + j; };
  std::vector<double> score, left_ext_max, right_ext_max;
  if (options_.scorer != nullptr) {
    score.assign(width * width, 0.0);
    left_ext_max = score;
    right_ext_max = score;
    for (int i = 1; i <= m; ++i) {
      // Only class tokens score (TermScorer), so t[i, j) is looked up only
      // while it stays inside one run of t[i]'s class; kOther tokens are
      // single characters. Every other score is 0.
      const CharClass c = ClassOf(t[i - 1]);
      int run_end = i + 1;
      if (c != CharClass::kOther) {
        while (run_end <= m && ClassOf(t[run_end - 1]) == c) ++run_end;
      }
      for (int j = i + 1; j <= run_end; ++j) {
        score[at(i, j)] = options_.scorer->Score(t.substr(i - 1, j - i));
      }
    }
    // left_ext_max[i][j] = max over k < i of score[k][j].
    for (int j = 2; j <= m + 1; ++j) {
      double running = 0.0;
      for (int i = 1; i < j; ++i) {
        left_ext_max[at(i, j)] = running;
        running = std::max(running, score[at(i, j)]);
      }
    }
    // right_ext_max[i][j] = max over l > j of score[i][l].
    for (int i = 1; i <= m; ++i) {
      double running = 0.0;
      for (int j = m + 1; j > i; --j) {
        right_ext_max[at(i, j)] = running;
        running = std::max(running, score[at(i, j)]);
      }
    }
  }
  auto const_allowed = [&](int i, int j) {
    if (options_.scorer == nullptr) return true;
    return left_ext_max[at(i, j)] <= score[at(i, j)] &&
           right_ext_max[at(i, j)] <= score[at(i, j)];
  };

  // Class-token boundaries of t, for the token_aligned_labels restriction.
  std::vector<bool> aligned(m + 2, !options_.token_aligned_labels);
  if (options_.token_aligned_labels) {
    for (const Token& token : ClassTokens(t)) aligned[token.begin] = true;
    aligned[m + 1] = true;
  }
  auto edge_aligned = [&](int i, int j) {
    if (i == 1 && j == m + 1) return true;  // completeness guarantee
    return aligned[i] && aligned[j];
  };

  for (int i = 1; i <= m; ++i) {
    for (int j = i + 1; j <= m + 1; ++j) {
      if (!edge_aligned(i, j)) continue;
      std::string_view u = t.substr(i - 1, j - i);
      if (const_allowed(i, j)) {
        graph.AddLabel(i, j, interner_->InternConstant(u));
      }
      int label_budget = options_.max_substr_labels_per_edge;
      const int len = j - i;
      for (int x = 1; x + len <= n + 1 && label_budget > 0; ++x) {
        if (s.substr(x - 1, len) != u) continue;
        const int y = x + len;
        for (const PosFn& left : positions[x]) {
          if (label_budget <= 0) break;
          for (const PosFn& right : positions[y]) {
            if (label_budget <= 0) break;
            graph.AddLabel(i, j, interner_->InternSubStr(left, right));
            --label_budget;
          }
        }
      }
    }
  }

  // --- Affix labels (Appendix D), longest prefix/suffix only (Appendix E).
  if (options_.enable_affix) {
    for (CharClass c : kRegexClasses) {
      Term term = Term::Regex(c);
      auto matches = FindMatches(term, s);
      for (int k = 1; k <= static_cast<int>(matches.size()); ++k) {
        const TermMatch& match = matches[k - 1];
        std::string_view text =
            s.substr(match.begin - 1, match.end - match.begin);
        for (int i = 1; i <= m; ++i) {
          size_t len = Lcp(t.substr(i - 1), text);
          if (len >= 1) {
            graph.AddLabel(i, i + static_cast<int>(len),
                           interner_->Intern(StringFn::Prefix(term, k)));
          }
        }
        for (int j = 2; j <= m + 1; ++j) {
          size_t len = Lcs(t.substr(0, j - 1), text);
          if (len >= 1) {
            graph.AddLabel(j - static_cast<int>(len), j,
                           interner_->Intern(StringFn::Suffix(term, k)));
          }
        }
      }
    }
  }

  return graph;
}

Result<std::vector<TransformationGraph>> GraphBuilder::BuildBatch(
    const std::vector<BuildRequest>& requests, ThreadPool* /*pool*/) const {
  std::vector<TransformationGraph> graphs;
  graphs.reserve(requests.size());
  for (const BuildRequest& request : requests) {
    Result<TransformationGraph> graph = Build(request.source, request.target);
    if (!graph.ok()) return graph.status();
    graphs.push_back(std::move(graph).value());
  }
  return graphs;
}

}  // namespace ustl
