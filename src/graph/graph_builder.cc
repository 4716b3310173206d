#include "graph/graph_builder.h"

#include <algorithm>
#include <optional>

#include "text/char_class.h"

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

// A class token of s (a maximal run of one class, or one kOther
// character) spanning s[begin, end), 1-based. For a regex class, k is the
// token's 1-based ordinal among the class's tokens, i.e. its match index
// under Term::Regex(c).
struct ClassRun {
  CharClass c;
  int begin;
  int end;
  int k;
};

// A regex MatchPos(Term::Regex(c), k, dir) at a position of s. Sorting by
// (position, k, dir, c) puts each position's candidates in PosFn order.
struct RegexPos {
  int position;
  int k;
  Dir dir;
  CharClass c;

  bool operator<(const RegexPos& o) const {
    if (position != o.position) return position < o.position;
    if (k != o.k) return k < o.k;
    if (dir != o.dir) return dir < o.dir;
    return c < o.c;
  }
};

// The best-scoring constant-term MatchPos(Term::Constant(literal), k, dir)
// of a position; `score` is 0 until one is found (only tokens scoring above
// 0 become terms).
struct LiteralPos {
  double score = 0.0;
  std::string_view literal;
  int k = 0;
  Dir dir = Dir::kBegin;
};

// The working buffers of Build. One set lives per thread and keeps its
// capacity across calls, so a warm builder allocates only the graph it
// returns.
struct BuildScratch {
  std::vector<ClassRun> runs;             // class tokens of s, in order
  std::vector<RegexPos> regex_positions;  // tier 1, every position's
  std::vector<std::string_view> seen;     // tokens the scorer was asked
  std::vector<LiteralPos> literal_positions;  // tier 2, by position
  // The candidate positions P[x] of s: pool ids
  // positions[position_begin[x], position_begin[x + 1]), in PosFn order.
  std::vector<uint32_t> position_begin;
  std::vector<LabelInterner::PosId> positions;
  std::vector<char> aligned;  // token boundaries of t, by node
  std::vector<EdgeLabel> labels;
};

BuildScratch& ThreadScratch() {
  thread_local BuildScratch scratch;
  return scratch;
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
  const int n = static_cast<int>(s.size());
  const int m = static_cast<int>(t.size());
  BuildScratch& scratch = ThreadScratch();
  std::vector<EdgeLabel>& labels = scratch.labels;
  labels.clear();

  // Oversized values get the trivial constant-only graph so that every
  // replacement keeps at least one transformation path (see header).
  if (n > options_.max_input_len || m > options_.max_output_len) {
    labels.emplace_back(1, m + 1, interner_->InternConstant(t));
    return TransformationGraph(std::string(s), std::string(t), &labels);
  }

  // --- The class tokens of s, in one scan.
  std::vector<ClassRun>& runs = scratch.runs;
  runs.clear();
  int class_runs[4] = {0, 0, 0, 0};  // per regex class
  for (int i = 0; i < n;) {
    const CharClass c = ClassOf(s[i]);
    int j = i + 1;
    int k = 0;
    if (c != CharClass::kOther) {
      while (j < n && ClassOf(s[j]) == c) ++j;
      k = ++class_runs[static_cast<int>(c)];
    }
    runs.push_back(ClassRun{c, i + 1, j + 1, k});
    i = j;
  }

  // --- Position array P[1 .. n+1] (Algorithm 8 lines 3-11), tiered per the
  // static order of Section 7.4: regex MatchPos, then constant-term
  // MatchPos, then ConstPos. A regex run's match index k counts from the
  // left, and k - total - 1 names the same match from the right.
  std::vector<RegexPos>& regex_positions = scratch.regex_positions;
  regex_positions.clear();
  for (const ClassRun& run : runs) {
    if (run.c == CharClass::kOther) continue;
    const int from_end = run.k - class_runs[static_cast<int>(run.c)] - 1;
    for (int k : {run.k, from_end}) {
      regex_positions.push_back(RegexPos{run.begin, k, Dir::kBegin, run.c});
      regex_positions.push_back(RegexPos{run.end, k, Dir::kEnd, run.c});
    }
  }
  std::sort(regex_positions.begin(), regex_positions.end());

  std::vector<LiteralPos>& literal_positions = scratch.literal_positions;
  literal_positions.assign(static_cast<size_t>(n) + 2, LiteralPos{});
  if (options_.scorer != nullptr) {
    // Constant-string terms, restricted to class tokens and, per
    // position, to the best-scoring term (Appendix E static order); the
    // first term found keeps a tie. A term matches its non-overlapping
    // leftmost occurrences in s (FindMatches).
    std::vector<std::string_view>& seen = scratch.seen;
    seen.clear();
    for (const ClassRun& run : runs) {
      const std::string_view token =
          s.substr(run.begin - 1, run.end - run.begin);
      if (std::find(seen.begin(), seen.end(), token) != seen.end()) continue;
      seen.push_back(token);
      const double score = options_.scorer->Score(token);
      if (score <= 0.0) continue;
      int k = 0;
      for (size_t x = 0; x + token.size() <= s.size();) {
        if (s.substr(x, token.size()) != token) {
          ++x;
          continue;
        }
        ++k;
        const int begin = static_cast<int>(x) + 1;
        const int end = begin + static_cast<int>(token.size());
        for (auto [position, dir] :
             {std::pair{begin, Dir::kBegin}, std::pair{end, Dir::kEnd}}) {
          if (score > literal_positions[position].score) {
            literal_positions[position] = LiteralPos{score, token, k, dir};
          }
        }
        x += token.size();
      }
    }
  }

  std::vector<uint32_t>& position_begin = scratch.position_begin;
  std::vector<LabelInterner::PosId>& positions = scratch.positions;
  position_begin.assign(static_cast<size_t>(n) + 3, 0);
  positions.clear();
  size_t next_regex = 0;
  for (int x = 1; x <= n + 1; ++x) {
    position_begin[x] = static_cast<uint32_t>(positions.size());
    if (next_regex < regex_positions.size() &&
        regex_positions[next_regex].position == x) {
      for (; next_regex < regex_positions.size() &&
             regex_positions[next_regex].position == x;
           ++next_regex) {
        const RegexPos& pos = regex_positions[next_regex];
        positions.push_back(interner_->InternMatchPos(pos.c, pos.k, pos.dir));
      }
    } else if (literal_positions[x].score > 0.0) {
      const LiteralPos& pos = literal_positions[x];
      positions.push_back(
          interner_->InternMatchPos(pos.literal, pos.k, pos.dir));
    } else {
      positions.push_back(interner_->InternConstPos(x - n - 2));
      positions.push_back(interner_->InternConstPos(x));
    }
  }
  position_begin[n + 2] = static_cast<uint32_t>(positions.size());

  // --- Constant and SubStr labels per edge (Algorithm 8 lines 13-18), only
  // on edges aligned with the class tokens of t (maximal character-class
  // runs, one token per kOther character). Appendix E prefers
  // token-structured constants over character fragments; aligning the
  // edges keeps the path space at token granularity, which is what makes
  // pivot search tractable on conflict-heavy structure groups. Positions 1
  // and m + 1 are always boundaries, so the full-width edge is kept and
  // every replacement has a path. Affix labels are not restricted
  // (Street -> St needs the mid-token cut, Appendix D). Appendix E's
  // pruning of a constant that a higher-scoring extension contains never
  // drops one here: every extension of an aligned edge crosses a class
  // boundary, and such a string scores 0 (TermScorer::Score).
  std::vector<char>& aligned = scratch.aligned;
  aligned.assign(static_cast<size_t>(m) + 2, 0);
  for (int i = 1; i <= m; ++i) {
    const CharClass c = ClassOf(t[i - 1]);
    aligned[i] = i == 1 || c == CharClass::kOther || c != ClassOf(t[i - 2]);
  }
  aligned[m + 1] = 1;

  for (int i = 1; i <= m; ++i) {
    if (!aligned[i]) continue;
    for (int j = i + 1; j <= m + 1; ++j) {
      if (!aligned[j]) continue;
      const std::string_view u = t.substr(i - 1, j - i);
      labels.emplace_back(i, j, interner_->InternConstant(u));
      int label_budget = options_.max_substr_labels_per_edge;
      const int len = j - i;
      for (int x = 1; x + len <= n + 1 && label_budget > 0; ++x) {
        if (s.substr(x - 1, len) != u) continue;
        const int y = x + len;
        for (uint32_t l = position_begin[x];
             l < position_begin[x + 1] && label_budget > 0; ++l) {
          for (uint32_t r = position_begin[y];
               r < position_begin[y + 1] && label_budget > 0; ++r) {
            labels.emplace_back(
                i, j, interner_->InternSubStr(positions[l], positions[r]));
            --label_budget;
          }
        }
      }
    }
  }

  // --- Affix labels (Appendix D), longest prefix/suffix only (Appendix E).
  // Each label is interned where it first lands on an edge, which keeps
  // the first-sight order of ids.
  if (options_.enable_affix) {
    for (CharClass c : kRegexClasses) {
      for (const ClassRun& run : runs) {
        if (run.c != c) continue;
        const std::string_view text =
            s.substr(run.begin - 1, run.end - run.begin);
        std::optional<LabelId> prefix;
        for (int i = 1; i <= m; ++i) {
          const int len = static_cast<int>(Lcp(t.substr(i - 1), text));
          if (len < 1) continue;
          if (!prefix) {
            prefix = interner_->InternAffix(StringFn::Kind::kPrefix, c, run.k);
          }
          labels.emplace_back(i, i + len, *prefix);
        }
        std::optional<LabelId> suffix;
        for (int j = 2; j <= m + 1; ++j) {
          const int len = static_cast<int>(Lcs(t.substr(0, j - 1), text));
          if (len < 1) continue;
          if (!suffix) {
            suffix = interner_->InternAffix(StringFn::Kind::kSuffix, c, run.k);
          }
          labels.emplace_back(j - len, j, *suffix);
        }
      }
    }
  }

  return TransformationGraph(std::string(s), std::string(t), &labels);
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
