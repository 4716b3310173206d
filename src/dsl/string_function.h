// String functions of the DSL (Appendix B) plus the paper's affix extension
// (Appendix D). A string function applies to the input string s and returns
// one or more output strings:
//
//   ConstantStr(x)   the literal x (single output).
//   SubStr(l, r)     the substring s[l, r) located by two position
//                    functions (single output; fails if either position
//                    fails or l >= r).
//   Prefix(tau, k)   every non-empty prefix of the k-th match of the
//                    regex term tau in s (multi-output).
//   Suffix(tau, k)   every non-empty suffix of the k-th match.
//
// The affix functions are what make "Street -> St" and "Avenue -> Ave"
// share a program: the original Gulwani DSL requires deterministic single
// outputs and cannot express them (Appendix D).
#ifndef USTL_DSL_STRING_FUNCTION_H_
#define USTL_DSL_STRING_FUNCTION_H_

#include <string>
#include <string_view>
#include <vector>

#include "dsl/position.h"

namespace ustl {

/// A string function. Immutable value type.
class StringFn {
 public:
  enum class Kind : uint8_t {
    kConstantStr = 0,
    kSubStr = 1,
    kPrefix = 2,
    kSuffix = 3,
  };

  static StringFn ConstantStr(std::string value);
  static StringFn SubStr(PosFn left, PosFn right);
  /// Prefix/Suffix require a regex term and k != 0 (negative k counts
  /// matches from the end, mirroring MatchPos).
  static StringFn Prefix(Term term, int k);
  static StringFn Suffix(Term term, int k);

  Kind kind() const { return kind_; }
  const std::string& constant() const { return constant_; }
  const PosFn& left() const { return left_; }
  const PosFn& right() const { return right_; }
  const Term& term() const { return term_; }
  int k() const { return k_; }

  /// All output strings of this function on `s`. ConstantStr/SubStr yield
  /// zero or one output; affix functions yield up to |match| outputs.
  std::vector<std::string> Eval(std::string_view s) const;

  /// True iff `out` is one of the outputs of this function on `s`.
  /// Cheaper than materializing Eval() for affix functions.
  bool CanProduce(std::string_view s, std::string_view out) const;

  /// Debug form, e.g. "SubStr(MatchPos(TC, 1, B), MatchPos(Tl, 1, E))".
  std::string ToString() const;

  bool operator==(const StringFn& o) const;
  bool operator<(const StringFn& o) const;

 private:
  StringFn()
      : left_(PosFn::ConstPos(1)),
        right_(PosFn::ConstPos(1)),
        term_(Term::Regex(CharClass::kDigit)) {}

  Kind kind_ = Kind::kConstantStr;
  std::string constant_;
  PosFn left_, right_;  // kSubStr
  Term term_;           // affix kinds
  int k_ = 1;           // affix kinds
};

}  // namespace ustl

#endif  // USTL_DSL_STRING_FUNCTION_H_
