// Tests for src/replace: candidate generation (Section 3 step 1,
// Appendix A) and the replacement store with its Section 7.1 update
// semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "new_counter.h"
#include "replace/candidate_gen.h"
#include "replace/replacement_store.h"
#include "text/char_class.h"

namespace ustl {
namespace {

Column Table1NameColumn() {
  // The Name column of Table 1, lowercased clusters {r1,r2,r3}, {r4,r5,r6}.
  return {{"Mary Lee", "M. Lee", "Lee, Mary"},
          {"Smith, James", "James Smith", "J. Smith"}};
}

TEST(CandidateGenTest, FullValuePairsBothDirections) {
  CandidateGenOptions options;
  options.token_level = false;
  CandidateSet set = GenerateCandidates(Table1NameColumn(), options);
  // 3 values per cluster -> 6 ordered pairs per cluster -> 12 total
  // (Section 3: "12 candidate replacements from the two clusters").
  EXPECT_EQ(set.pairs.size(), 12u);
  EXPECT_NE(set.Find("Mary Lee", "M. Lee"), static_cast<size_t>(-1));
  EXPECT_NE(set.Find("M. Lee", "Mary Lee"), static_cast<size_t>(-1));
  EXPECT_EQ(set.Find("Mary Lee", "J. Smith"), static_cast<size_t>(-1))
      << "cross-cluster pairs must not be generated";
}

TEST(CandidateGenTest, OccurrencesPointAtLhsCells) {
  CandidateGenOptions options;
  options.token_level = false;
  CandidateSet set = GenerateCandidates(Table1NameColumn(), options);
  size_t index = set.Find("Mary Lee", "M. Lee");
  ASSERT_NE(index, static_cast<size_t>(-1));
  ASSERT_EQ(set.occurrences[index].size(), 1u);
  const Occurrence& occ = set.occurrences[index][0];
  EXPECT_EQ(occ.cluster, 0u);
  EXPECT_EQ(occ.row, 0u);  // the cell holding "Mary Lee"
  EXPECT_TRUE(occ.whole_value);
}

TEST(CandidateGenTest, TokenLevelExampleA1) {
  // Appendix A: "9 St, 02141 Wisconsin" ~ "9th St, 02141 WI" produces the
  // four segment replacements 9->9th, 9th->9, Wisconsin->WI, WI->Wisconsin.
  Column column = {{"9 St, 02141 Wisconsin", "9th St, 02141 WI"}};
  CandidateGenOptions options;
  options.full_value_pairs = false;
  CandidateSet set = GenerateCandidates(column, options);
  EXPECT_EQ(set.pairs.size(), 4u);
  EXPECT_NE(set.Find("9", "9th"), static_cast<size_t>(-1));
  EXPECT_NE(set.Find("9th", "9"), static_cast<size_t>(-1));
  EXPECT_NE(set.Find("Wisconsin", "WI"), static_cast<size_t>(-1));
  EXPECT_NE(set.Find("WI", "Wisconsin"), static_cast<size_t>(-1));
}

TEST(CandidateGenTest, TokenOccurrenceOffsets) {
  Column column = {{"9 St, 02141 Wisconsin", "9th St, 02141 WI"}};
  CandidateGenOptions options;
  options.full_value_pairs = false;
  CandidateSet set = GenerateCandidates(column, options);
  size_t index = set.Find("Wisconsin", "WI");
  ASSERT_NE(index, static_cast<size_t>(-1));
  ASSERT_EQ(set.occurrences[index].size(), 1u);
  EXPECT_EQ(set.occurrences[index][0].begin, 13);  // 1-based offset
  EXPECT_FALSE(set.occurrences[index][0].whole_value);
}

TEST(CandidateGenTest, LongValuesSkipped) {
  CandidateGenOptions options;
  options.max_value_len = 4;
  Column column = {{"aaaaaaaa", "b"}};
  CandidateSet set = GenerateCandidates(column, options);
  EXPECT_TRUE(set.pairs.empty());
}

TEST(CandidateGenTest, DuplicateValuesProduceSharedPair) {
  // Two cells with "9" and one with "9th": the pair 9 -> 9th has two
  // occurrences (one per "9" cell).
  Column column = {{"9", "9", "9th"}};
  CandidateGenOptions options;
  options.token_level = false;
  CandidateSet set = GenerateCandidates(column, options);
  size_t index = set.Find("9", "9th");
  ASSERT_NE(index, static_cast<size_t>(-1));
  EXPECT_EQ(set.occurrences[index].size(), 2u);
}

TEST(CandidateGenTest, UnitSeparatorBytesKeepPairsApart) {
  // Cells may hold any byte, 0x1F included. "a\x1fb" -> "c" and
  // "a" -> "b\x1fc" are different pairs that a key joining lhs and rhs
  // with 0x1F would merge; each must keep only its own occurrences.
  const std::string us(1, '\x1f');
  const Column column = {{"a" + us + "b", "c"}, {"a", "b" + us + "c"}};
  CandidateSet set = GenerateCandidates(column, CandidateGenOptions{});
  const std::vector<StringPair> expected = {{"a" + us + "b", "c"},
                                            {"c", "a" + us + "b"},
                                            {"a", "b" + us + "c"},
                                            {"b" + us + "c", "a"}};
  ASSERT_EQ(set.pairs.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(set.pairs[i] == expected[i]) << "pair " << i;
    EXPECT_EQ(set.Find(expected[i].lhs, expected[i].rhs), i);
    // Every value is one token: the pair's whole-value occurrence and its
    // token-level twin, both on the one cell it came from.
    const std::vector<Occurrence> own = {{i / 2, i % 2, 1, true},
                                         {i / 2, i % 2, 1, false}};
    EXPECT_TRUE(set.occurrences[i] == own) << "pair " << i;
  }
}

// Re-deriving an unchanged cluster the way the replacement store refreshes
// one (drop the cluster's entries, then one cluster pass) allocates
// nothing once the per-thread scratch is warm and every pair exists:
// segments are views into the cells, the pair table is probed field by
// field, and the occurrence lists keep their capacity.
TEST(CandidateGenAllocationTest, WarmRegenerationAllocatesNothing) {
  const Column column = {{"9 St, 02141 Wisconsin", "9th St, 02141 WI",
                          "9th Street, 02141 Wisconsin", "9 St., 02141 WI"}};
  const CandidateGenOptions options;
  CandidateSet set = GenerateCandidates(column, options);
  const CandidateSet generated = set;
  for (std::vector<Occurrence>& list : set.occurrences) list.clear();
  const size_t news =
      CountNews([&] { GenerateForCluster(column, 0, options, &set); });
  EXPECT_EQ(news, 0u);
  EXPECT_TRUE(set.pairs == generated.pairs);
  EXPECT_TRUE(set.occurrences == generated.occurrences);
}

// --- Replacement store (Section 7.1). ---

TEST(ReplacementStoreTest, ApplyWholeValue) {
  ReplacementStore store(Table1NameColumn(), CandidateGenOptions{});
  size_t index = store.pairs().size();
  for (size_t i = 0; i < store.num_pairs(); ++i) {
    if (store.pair(i).lhs == "Lee, Mary" && store.pair(i).rhs == "Mary Lee") {
      index = i;
    }
  }
  ASSERT_LT(index, store.num_pairs());
  size_t edits = store.Apply(index);
  EXPECT_EQ(edits, 1u);
  EXPECT_EQ(store.column()[0][2], "Mary Lee");
}

TEST(ReplacementStoreTest, Section71EntryMigration) {
  // Section 7.1's example: after v1 -> v2 is applied, the replacement
  // v1 -> v3 becomes v2 -> v3 (its occurrence migrates) and v2 -> v1 no
  // longer exists anywhere.
  Column column = {{"v1x", "v2x", "v3x"}};
  CandidateGenOptions options;
  options.token_level = false;
  ReplacementStore store(column, options);
  size_t v1v2 = store.pairs().size();
  for (size_t i = 0; i < store.num_pairs(); ++i) {
    if (store.pair(i).lhs == "v1x" && store.pair(i).rhs == "v2x") v1v2 = i;
  }
  ASSERT_LT(v1v2, store.num_pairs());
  EXPECT_EQ(store.Apply(v1v2), 1u);
  EXPECT_EQ(store.column()[0][0], "v2x");

  for (size_t i = 0; i < store.num_pairs(); ++i) {
    const StringPair& pair = store.pair(i);
    if (pair.lhs == "v1x" || pair.rhs == "v1x") {
      EXPECT_TRUE(store.occurrences(i).empty())
          << pair.lhs << " -> " << pair.rhs << " should be dead";
    }
    if (pair.lhs == "v2x" && pair.rhs == "v3x") {
      // Both v2x cells now pair with v3x.
      EXPECT_EQ(store.occurrences(i).size(), 2u);
    }
  }
}

TEST(ReplacementStoreTest, ApplyReverseUsesMirrorOccurrences) {
  Column column = {{"Street", "St"}};
  CandidateGenOptions options;
  options.token_level = false;
  ReplacementStore store(column, options);
  size_t index = store.pairs().size();
  for (size_t i = 0; i < store.num_pairs(); ++i) {
    if (store.pair(i).lhs == "St" && store.pair(i).rhs == "Street") index = i;
  }
  ASSERT_LT(index, store.num_pairs());
  // Reverse of St -> Street replaces Street cells by St.
  EXPECT_EQ(store.ApplyReverse(index), 1u);
  EXPECT_EQ(store.column()[0][0], "St");
  EXPECT_EQ(store.column()[0][1], "St");
}

TEST(ReplacementStoreTest, TokenLevelApplyEditsInPlace) {
  Column column = {{"9 St, 02141 Wisconsin", "9th St, 02141 WI"}};
  CandidateGenOptions options;
  options.full_value_pairs = false;
  ReplacementStore store(column, options);
  size_t index = store.pairs().size();
  for (size_t i = 0; i < store.num_pairs(); ++i) {
    if (store.pair(i).lhs == "Wisconsin" && store.pair(i).rhs == "WI") {
      index = i;
    }
  }
  ASSERT_LT(index, store.num_pairs());
  EXPECT_EQ(store.Apply(index), 1u);
  EXPECT_EQ(store.column()[0][0], "9 St, 02141 WI");
}

TEST(ReplacementStoreTest, StaleOccurrencesSkipped) {
  // Applying the same whole-value replacement twice edits nothing new.
  Column column = {{"a1", "b2"}};
  CandidateGenOptions options;
  options.token_level = false;
  ReplacementStore store(column, options);
  size_t index = store.pairs().size();
  for (size_t i = 0; i < store.num_pairs(); ++i) {
    if (store.pair(i).lhs == "a1") index = i;
  }
  ASSERT_LT(index, store.num_pairs());
  EXPECT_EQ(store.Apply(index), 1u);
  EXPECT_EQ(store.Apply(index), 0u);
  EXPECT_EQ(store.column()[0][0], "b2");
}

TEST(ReplacementStoreTest, ConvergenceMakesClusterIdentical) {
  // Applying the right replacements makes all variants identical — the TP
  // condition of the evaluation protocol.
  Column column = {{"9 St, 02141 Wisconsin", "9th St, 02141 WI",
                    "9th Street, 02141 WI"}};
  ReplacementStore store(column, CandidateGenOptions{});
  // Apply whole-value replacements toward "9th Street, 02141 WI".
  for (size_t i = 0; i < store.num_pairs(); ++i) {
    if (store.pair(i).rhs == "9th Street, 02141 WI" &&
        !store.occurrences(i).empty() &&
        store.occurrences(i)[0].whole_value) {
      store.Apply(i);
    }
  }
  EXPECT_EQ(store.column()[0][0], store.column()[0][1]);
  EXPECT_EQ(store.column()[0][1], store.column()[0][2]);
}

TEST(ReplacementStoreTest, WholeValueRewriteSubsumesTokenOccurrence) {
  // Regression: the pair 9 -> 9th carries both a whole-value occurrence
  // and a token occurrence on the same cell. One Apply must rewrite the
  // cell exactly once — the token occurrence firing after the whole-value
  // rewrite produced "9thth".
  Column column = {{"9th", "9"}};
  ReplacementStore store(column, CandidateGenOptions{});
  size_t index = store.pairs().size();
  for (size_t i = 0; i < store.num_pairs(); ++i) {
    if (store.pair(i).lhs == "9" && store.pair(i).rhs == "9th") index = i;
  }
  ASSERT_LT(index, store.num_pairs());
  EXPECT_EQ(store.Apply(index), 1u);
  EXPECT_EQ(store.column()[0], (std::vector<std::string>{"9th", "9th"}));
}

TEST(ReplacementStoreTest, MultipleTokenOccurrencesInOneCellAllApply) {
  // "St" appears twice in one cell; the token-level pair St -> Street
  // must rewrite both spans (right-to-left so offsets stay valid), not
  // just the first.
  Column column = {{"St Mary St Boston", "Street Mary Street Boston"}};
  ReplacementStore store(column, CandidateGenOptions{});
  size_t index = store.pairs().size();
  for (size_t i = 0; i < store.num_pairs(); ++i) {
    if (store.pair(i).lhs == "St" && store.pair(i).rhs == "Street") {
      index = i;
    }
  }
  ASSERT_LT(index, store.num_pairs());
  EXPECT_EQ(store.Apply(index), 2u);
  EXPECT_EQ(store.column()[0][0], "Street Mary Street Boston");
}

// --- Differential test against a reference implementation. ---

// Candidate generation and the replacement store written the direct way,
// kept as the reference: every ordered pair re-tokenizes both values and
// aligns them with a vector-of-vectors LCS table into string segments, a
// pair is keyed by the string lhs + 0x1F + rhs, and an occurrence is
// deduplicated by a std::find over its pair's whole list. (That key is
// why the random columns below hold no 0x1F byte.)
class ReferenceStore {
 public:
  ReferenceStore(Column column, const CandidateGenOptions& options)
      : column_(std::move(column)), options_(options) {
    for (size_t c = 0; c < column_.size(); ++c) Generate(c);
  }

  const std::vector<StringPair>& pairs() const { return pairs_; }
  const std::vector<Occurrence>& occurrences(size_t index) const {
    return occurrences_[index];
  }
  const Column& column() const { return column_; }

  size_t Apply(size_t index) {
    const StringPair pair = pairs_[index];
    return ApplyDirected(pair.lhs, pair.rhs, occurrences_[index]);
  }

  size_t ApplyReverse(size_t index) {
    const StringPair pair = pairs_[index];
    auto it = index_.find(Key(pair.rhs, pair.lhs));
    if (it == index_.end()) return 0;
    return ApplyDirected(pair.rhs, pair.lhs, occurrences_[it->second]);
  }

 private:
  struct Token {
    std::string_view text;
    int begin;  // 1-based
    int end;    // 1-based exclusive
  };

  static std::string Key(const std::string& lhs, const std::string& rhs) {
    return lhs + '\x1f' + rhs;
  }

  static std::vector<Token> Tokens(std::string_view s) {
    std::vector<Token> out;
    size_t i = 0;
    while (i < s.size()) {
      while (i < s.size() && ClassOf(s[i]) == CharClass::kSpace) ++i;
      size_t j = i;
      while (j < s.size() && ClassOf(s[j]) != CharClass::kSpace) ++j;
      if (j > i) {
        out.push_back(Token{s.substr(i, j - i), static_cast<int>(i) + 1,
                            static_cast<int>(j) + 1});
      }
      i = j;
    }
    return out;
  }

  // (lhs segment, rhs segment, 1-based lhs offset) of each aligned gap.
  static std::vector<std::tuple<std::string, std::string, int>> Align(
      std::string_view lhs, std::string_view rhs) {
    const std::vector<Token> lt = Tokens(lhs);
    const std::vector<Token> rt = Tokens(rhs);
    const size_t n = lt.size(), m = rt.size();
    std::vector<std::vector<int>> dp(n + 1, std::vector<int>(m + 1, 0));
    for (size_t i = 1; i <= n; ++i) {
      for (size_t j = 1; j <= m; ++j) {
        dp[i][j] = lt[i - 1].text == rt[j - 1].text
                       ? dp[i - 1][j - 1] + 1
                       : std::max(dp[i - 1][j], dp[i][j - 1]);
      }
    }
    std::vector<std::pair<size_t, size_t>> matches;
    size_t i = n, j = m;
    while (i > 0 && j > 0) {
      if (lt[i - 1].text == rt[j - 1].text &&
          dp[i][j] == dp[i - 1][j - 1] + 1) {
        matches.emplace_back(--i, --j);
      } else if (dp[i - 1][j] >= dp[i][j - 1]) {
        --i;
      } else {
        --j;
      }
    }
    std::reverse(matches.begin(), matches.end());
    std::vector<std::tuple<std::string, std::string, int>> out;
    size_t li = 0, ri = 0;
    auto emit = [&](size_t lj, size_t rj) {
      if (li >= lj || ri >= rj) return;
      const int lb = lt[li].begin, le = lt[lj - 1].end;
      const int rb = rt[ri].begin, re = rt[rj - 1].end;
      std::string l(lhs.substr(lb - 1, le - lb));
      std::string r(rhs.substr(rb - 1, re - rb));
      if (l != r) out.emplace_back(std::move(l), std::move(r), lb);
    };
    for (const auto& [mi, mj] : matches) {
      emit(mi, mj);
      li = mi + 1;
      ri = mj + 1;
    }
    emit(n, m);
    return out;
  }

  void Add(const std::string& lhs, const std::string& rhs,
           const Occurrence& occurrence) {
    if (lhs.empty() || rhs.empty() || lhs == rhs) return;
    auto [it, inserted] = index_.emplace(Key(lhs, rhs), pairs_.size());
    if (inserted) {
      pairs_.push_back(StringPair{lhs, rhs});
      occurrences_.emplace_back();
    }
    std::vector<Occurrence>& list = occurrences_[it->second];
    if (std::find(list.begin(), list.end(), occurrence) == list.end()) {
      list.push_back(occurrence);
    }
  }

  void Generate(size_t cluster) {
    const std::vector<std::string>& rows = column_[cluster];
    for (size_t a = 0; a < rows.size(); ++a) {
      if (rows[a].size() > options_.max_value_len) continue;
      for (size_t b = 0; b < rows.size(); ++b) {
        if (a == b || rows[b].size() > options_.max_value_len) continue;
        if (rows[a] == rows[b]) continue;
        if (options_.full_value_pairs) {
          Add(rows[a], rows[b], Occurrence{cluster, a, 1, true});
        }
        if (!options_.token_level) continue;
        for (const auto& [lhs, rhs, begin] : Align(rows[a], rows[b])) {
          Add(lhs, rhs, Occurrence{cluster, a, begin, false});
        }
      }
    }
  }

  size_t ApplyDirected(const std::string& lhs, const std::string& rhs,
                       std::vector<Occurrence> pending) {
    std::sort(pending.begin(), pending.end());
    std::vector<size_t> touched;
    size_t edits = 0;
    for (size_t i = 0, end = 0; i < pending.size(); i = end) {
      const size_t cluster = pending[i].cluster;
      const size_t row = pending[i].row;
      bool whole = false;
      for (end = i; end < pending.size() && pending[end].cluster == cluster &&
                    pending[end].row == row;
           ++end) {
        whole |= pending[end].whole_value;
      }
      std::string& cell = column_[cluster][row];
      size_t cell_edits = 0;
      if (whole) {
        if (cell == lhs) {
          cell = rhs;
          cell_edits = 1;
        }
      } else {
        for (size_t j = end; j-- > i;) {
          const size_t offset = static_cast<size_t>(pending[j].begin) - 1;
          if (offset + lhs.size() <= cell.size() &&
              cell.compare(offset, lhs.size(), lhs) == 0) {
            cell.replace(offset, lhs.size(), rhs);
            ++cell_edits;
          }
        }
      }
      if (cell_edits > 0 &&
          std::find(touched.begin(), touched.end(), cluster) ==
              touched.end()) {
        touched.push_back(cluster);
      }
      edits += cell_edits;
    }
    for (size_t cluster : touched) {
      for (std::vector<Occurrence>& list : occurrences_) {
        list.erase(std::remove_if(list.begin(), list.end(),
                                  [cluster](const Occurrence& occ) {
                                    return occ.cluster == cluster;
                                  }),
                   list.end());
      }
      Generate(cluster);
    }
    return edits;
  }

  Column column_;
  CandidateGenOptions options_;
  std::vector<StringPair> pairs_;
  std::vector<std::vector<Occurrence>> occurrences_;
  std::unordered_map<std::string, size_t> index_;
};

// Which of the shapes the differential test promises a run generated.
struct Coverage {
  size_t single_row_clusters = 0;
  size_t thirty_row_clusters = 0;
  size_t empty_cells = 0;
  size_t repeated_values = 0;
  size_t rewritten_values = 0;
  size_t single_tokens = 0;
  size_t blank_edges = 0;
  size_t at_cap = 0;
  size_t past_cap = 0;
};

const std::vector<std::string>& Vocabulary() {
  static const std::vector<std::string> tokens = {
      "9",   "9th", "St",   "St.",   "Street", "W",   "West", "42nd",
      "Ave", "NY",  "Mary", "Lee",   "Lee,",   "M.",  "J.",   "Smith",
      "WI",  "a",   "b",    "02141", "Wisconsin"};
  return tokens;
}

// A random cell over `tokens`, joined by runs of spaces and tabs. No 0x1F
// byte (see ReferenceStore).
std::string RandomValue(Rng* rng, size_t max_value_len,
                        const std::vector<std::string>& tokens,
                        const std::vector<std::string>& cluster,
                        Coverage* coverage) {
  static const std::vector<std::string> kBlanks = {" ",  " ",  " ",  "  ",
                                                   "\t", " \t", "\t\t ",
                                                   "   "};
  switch (rng->Uniform(0, 9)) {
    case 0:
      ++coverage->empty_cells;
      return "";
    case 1:
      ++coverage->single_tokens;
      return rng->Choice(tokens);
    case 2:
    case 3:
      if (!cluster.empty()) {
        ++coverage->repeated_values;
        return rng->Choice(cluster);
      }
      break;
    case 4:
    case 5:
      if (!cluster.empty()) {
        // A variant of an earlier cell: every occurrence of one token's
        // text rewritten, as "St" -> "Street" throughout an address.
        ++coverage->rewritten_values;
        std::string value = rng->Choice(cluster);
        const std::string from = rng->Choice(tokens);
        const std::string to = rng->Choice(Vocabulary());
        for (size_t at = value.find(from); at != std::string::npos;
             at = value.find(from, at + to.size())) {
          value.replace(at, from.size(), to);
        }
        return value;
      }
      break;
    default:
      break;
  }
  std::string value;
  const bool leading = rng->Bernoulli(0.15);
  const bool trailing = rng->Bernoulli(0.15);
  if (leading) value += rng->Choice(kBlanks);
  const int64_t length = rng->Uniform(1, 6);
  for (int64_t t = 0; t < length; ++t) {
    if (t > 0) value += rng->Choice(kBlanks);
    value += rng->Choice(tokens);
  }
  if (trailing) value += rng->Choice(kBlanks);
  coverage->blank_edges += leading || trailing;
  if (rng->Bernoulli(0.12)) {
    // Exactly at, or one byte past, the cell-length cap.
    const size_t target =
        max_value_len + static_cast<size_t>(rng->Uniform(0, 1));
    while (value.size() < target) {
      value += rng->Choice(kBlanks);
      value += rng->Choice(tokens);
    }
    value.resize(target);
    ++(target == max_value_len ? coverage->at_cap : coverage->past_cap);
  }
  return value;
}

::testing::AssertionResult SameState(const ReplacementStore& store,
                                     const ReferenceStore& reference) {
  if (store.column() != reference.column()) {
    return ::testing::AssertionFailure() << "columns differ";
  }
  if (store.num_pairs() != reference.pairs().size()) {
    return ::testing::AssertionFailure()
           << store.num_pairs() << " pairs, reference "
           << reference.pairs().size();
  }
  for (size_t i = 0; i < store.num_pairs(); ++i) {
    if (!(store.pair(i) == reference.pairs()[i])) {
      return ::testing::AssertionFailure() << "pair " << i << " differs";
    }
    if (store.occurrences(i) != reference.occurrences(i)) {
      return ::testing::AssertionFailure()
             << "occurrences of pair " << i << " differ";
    }
    if (store.Find(store.pair(i).lhs, store.pair(i).rhs) != i) {
      return ::testing::AssertionFailure() << "Find misses pair " << i;
    }
  }
  return ::testing::AssertionSuccess();
}

// GenerateCandidates and a random Apply/ApplyReverse sequence produce the
// reference's pairs in the same order, the same occurrence lists in the
// same order and the same column after every call.
TEST(CandidateGenDifferentialTest, MatchesReferenceOnRandomColumns) {
  Rng rng(27);
  Coverage coverage;
  const std::vector<size_t> caps = {12, 20, 40, 256};
  for (int trial = 0; trial < 240; ++trial) {
    CandidateGenOptions options;
    options.max_value_len = rng.Choice(caps);
    const int64_t mode = rng.Uniform(0, 5);
    options.full_value_pairs = mode != 4;
    options.token_level = mode != 5;
    Column column(static_cast<size_t>(rng.Uniform(1, 4)));
    for (std::vector<std::string>& cluster : column) {
      // A two-token alphabet repeats tokens within and across cells, so
      // one pair gathers many occurrences per cell and deep dedup tails.
      std::vector<std::string> tokens = Vocabulary();
      if (rng.Bernoulli(0.3)) tokens = {rng.Choice(tokens), rng.Choice(tokens)};
      const int64_t rows = rng.Uniform(1, 30);
      coverage.single_row_clusters += rows == 1;
      coverage.thirty_row_clusters += rows == 30;
      for (int64_t r = 0; r < rows; ++r) {
        cluster.push_back(RandomValue(&rng, options.max_value_len, tokens,
                                      cluster, &coverage));
      }
    }
    ReplacementStore store(column, options);
    ReferenceStore reference(column, options);
    ASSERT_TRUE(SameState(store, reference)) << "trial " << trial;
    for (int step = 0; step < 12 && store.num_pairs() > 0; ++step) {
      const size_t index = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(store.num_pairs()) - 1));
      if (rng.Bernoulli(0.5)) {
        ASSERT_EQ(store.Apply(index), reference.Apply(index))
            << "trial " << trial << " step " << step;
      } else {
        ASSERT_EQ(store.ApplyReverse(index), reference.ApplyReverse(index))
            << "trial " << trial << " step " << step;
      }
      ASSERT_TRUE(SameState(store, reference))
          << "trial " << trial << " step " << step;
    }
  }
  EXPECT_GT(coverage.single_row_clusters, 0u);
  EXPECT_GT(coverage.thirty_row_clusters, 0u);
  EXPECT_GT(coverage.empty_cells, 0u);
  EXPECT_GT(coverage.repeated_values, 0u);
  EXPECT_GT(coverage.rewritten_values, 0u);
  EXPECT_GT(coverage.single_tokens, 0u);
  EXPECT_GT(coverage.blank_edges, 0u);
  EXPECT_GT(coverage.at_cap, 0u);
  EXPECT_GT(coverage.past_cap, 0u);
}

}  // namespace
}  // namespace ustl
