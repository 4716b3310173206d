// Position functions of the DSL (Appendix B). A position function applies
// to the input string s and returns a 1-based position in [1, |s|+1], or
// fails. Two kinds exist:
//
//   ConstPos(k)          absolute position; negative k counts from the end
//                        (k in [-(|s|+1), -1] maps to |s|+2+k).
//   MatchPos(tau, k, D)  the beginning (D=B) or ending (D=E) position of the
//                        k-th match of term tau in s; negative k counts
//                        matches from the end (k in [-m, -1] maps to m+1+k).
//
// Position functions are value types with a total order, so they can be
// embedded in string functions and interned.
#ifndef USTL_DSL_POSITION_H_
#define USTL_DSL_POSITION_H_

#include <optional>
#include <string>
#include <string_view>

#include "text/terms.h"

namespace ustl {

/// Direction selector for MatchPos: beginning or ending of the match.
enum class Dir : uint8_t { kBegin = 0, kEnd = 1 };

/// A position function (ConstPos or MatchPos). Immutable value type.
class PosFn {
 public:
  /// ConstPos(k); k != 0.
  static PosFn ConstPos(int k);
  /// MatchPos(term, k, dir); k != 0.
  static PosFn MatchPos(Term term, int k, Dir dir);

  bool is_const_pos() const { return kind_ == Kind::kConstPos; }
  bool is_match_pos() const { return kind_ == Kind::kMatchPos; }
  int k() const { return k_; }
  Dir dir() const { return dir_; }
  const Term& term() const { return term_; }

  /// Evaluates on `s`; nullopt when k is out of range or the term has too
  /// few matches. The result is always in [1, |s|+1] when present.
  std::optional<int> Eval(std::string_view s) const;

  /// Debug form, e.g. "ConstPos(2)" or "MatchPos(TC, 1, B)".
  std::string ToString() const;

  bool operator==(const PosFn& o) const {
    return kind_ == o.kind_ && k_ == o.k_ && dir_ == o.dir_ &&
           term_ == o.term_;
  }
  bool operator<(const PosFn& o) const;

 private:
  enum class Kind : uint8_t { kConstPos = 0, kMatchPos = 1 };

  PosFn() : term_(Term::Regex(CharClass::kDigit)) {}

  Kind kind_ = Kind::kConstPos;
  int k_ = 1;
  Dir dir_ = Dir::kBegin;
  Term term_;  // meaningful only for kMatchPos
};

}  // namespace ustl

#endif  // USTL_DSL_POSITION_H_
