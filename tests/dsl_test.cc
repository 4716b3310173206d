// Tests for src/dsl: position functions (Appendix B, Example B.1), string
// functions (Example B.2, affix extension of Appendix D), programs
// (Example B.3 / Figures 3-4), and the label interner.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "dsl/interner.h"
#include "dsl/position.h"
#include "dsl/program.h"
#include "dsl/string_function.h"

namespace ustl {
namespace {

constexpr const char* kLeeMary = "Lee, Mary";  // |s| = 9

// --- Example B.1. ---

TEST(PosFnTest, ConstPosForward) {
  EXPECT_EQ(PosFn::ConstPos(2).Eval(kLeeMary), 2);
  EXPECT_EQ(PosFn::ConstPos(1).Eval(kLeeMary), 1);
  EXPECT_EQ(PosFn::ConstPos(10).Eval(kLeeMary), 10);  // |s|+1 is valid
  EXPECT_FALSE(PosFn::ConstPos(11).Eval(kLeeMary).has_value());
}

TEST(PosFnTest, ConstPosBackward) {
  // ConstPos(-5) = |s| + 2 + k = 9 + 2 - 5 = 6 (Example B.1).
  EXPECT_EQ(PosFn::ConstPos(-5).Eval(kLeeMary), 6);
  EXPECT_EQ(PosFn::ConstPos(-1).Eval(kLeeMary), 10);
  EXPECT_EQ(PosFn::ConstPos(-10).Eval(kLeeMary), 1);
  EXPECT_FALSE(PosFn::ConstPos(-11).Eval(kLeeMary).has_value());
}

TEST(PosFnTest, MatchPosSecondCapital) {
  // MatchPos(TC, 2, B) = 6 and MatchPos(TC, 2, E) = 7 (Example B.1).
  Term tc = Term::Regex(CharClass::kUpper);
  EXPECT_EQ(PosFn::MatchPos(tc, 2, Dir::kBegin).Eval(kLeeMary), 6);
  EXPECT_EQ(PosFn::MatchPos(tc, 2, Dir::kEnd).Eval(kLeeMary), 7);
}

TEST(PosFnTest, MatchPosBackwardIndex) {
  // The -1st match is the last one: for TC in "Lee, Mary" that is "M".
  Term tc = Term::Regex(CharClass::kUpper);
  EXPECT_EQ(PosFn::MatchPos(tc, -1, Dir::kBegin).Eval(kLeeMary), 6);
  EXPECT_EQ(PosFn::MatchPos(tc, -2, Dir::kBegin).Eval(kLeeMary), 1);
  EXPECT_FALSE(PosFn::MatchPos(tc, -3, Dir::kBegin).Eval(kLeeMary).has_value());
}

TEST(PosFnTest, MatchPosTooFewMatches) {
  Term td = Term::Regex(CharClass::kDigit);
  EXPECT_FALSE(PosFn::MatchPos(td, 1, Dir::kBegin).Eval(kLeeMary).has_value());
}

TEST(PosFnTest, FigureThreePositions) {
  // Figure 4: PA = 1, PB = 4, PC = 6, PD = 7 on "Lee, Mary".
  Term tc = Term::Regex(CharClass::kUpper);
  Term tl = Term::Regex(CharClass::kLower);
  Term tb = Term::Regex(CharClass::kSpace);
  EXPECT_EQ(PosFn::MatchPos(tc, 1, Dir::kBegin).Eval(kLeeMary), 1);   // PA
  EXPECT_EQ(PosFn::MatchPos(tl, 1, Dir::kEnd).Eval(kLeeMary), 4);    // PB
  EXPECT_EQ(PosFn::MatchPos(tb, 1, Dir::kEnd).Eval(kLeeMary), 6);    // PC
  EXPECT_EQ(PosFn::MatchPos(tc, -1, Dir::kEnd).Eval(kLeeMary), 7);   // PD
}

// Distinct positions intern to distinct labels on either side of a
// SubStr: the interner distinguishes every PosFn field.
TEST(PosFnTest, InternedIdsInjective) {
  Term tc = Term::Regex(CharClass::kUpper);
  std::vector<PosFn> fns = {
      PosFn::ConstPos(1),
      PosFn::ConstPos(-1),
      PosFn::MatchPos(tc, 1, Dir::kBegin),
      PosFn::MatchPos(tc, 1, Dir::kEnd),
      PosFn::MatchPos(tc, -1, Dir::kBegin),
      PosFn::MatchPos(Term::Constant("x"), 1, Dir::kBegin),
  };
  LabelInterner interner;
  std::vector<LabelId> as_left, as_right;
  for (const PosFn& fn : fns) {
    as_left.push_back(interner.InternSubStr(
        interner.InternPos(fn), interner.InternPos(PosFn::ConstPos(2))));
    as_right.push_back(
        interner.Intern(StringFn::SubStr(PosFn::ConstPos(2), fn)));
  }
  for (size_t i = 0; i < fns.size(); ++i) {
    for (size_t j = 0; j < fns.size(); ++j) {
      EXPECT_EQ(fns[i] == fns[j], i == j);
      EXPECT_EQ(as_left[i] == as_left[j], i == j);
      EXPECT_EQ(as_right[i] == as_right[j], i == j);
    }
  }
}

// The most negative int counts from the end without being negated, so it
// is simply out of range.
TEST(PosFnTest, MostNegativeKEvaluatesToNothing) {
  constexpr int kMin = std::numeric_limits<int>::min();
  Term tl = Term::Regex(CharClass::kLower);
  EXPECT_FALSE(PosFn::ConstPos(kMin).Eval("abc").has_value());
  EXPECT_FALSE(PosFn::MatchPos(tl, kMin, Dir::kBegin).Eval("abc").has_value());
  EXPECT_FALSE(PosFn::MatchPos(tl, kMin, Dir::kEnd).Eval("abc").has_value());
}

// --- String functions (Example B.2, Appendix D). ---

TEST(StringFnTest, ConstantStr) {
  StringFn f = StringFn::ConstantStr("MIT");
  EXPECT_EQ(f.Eval(kLeeMary), std::vector<std::string>{"MIT"});
  EXPECT_TRUE(f.CanProduce("anything", "MIT"));
  EXPECT_FALSE(f.CanProduce("anything", "MI"));
}

TEST(StringFnTest, SubStrExampleB2) {
  // SubStr(MatchPos(TC,1,B), MatchPos(Tl,1,E)) = "Lee" on "Lee, Mary".
  Term tc = Term::Regex(CharClass::kUpper);
  Term tl = Term::Regex(CharClass::kLower);
  StringFn f = StringFn::SubStr(PosFn::MatchPos(tc, 1, Dir::kBegin),
                                PosFn::MatchPos(tl, 1, Dir::kEnd));
  EXPECT_EQ(f.Eval(kLeeMary), std::vector<std::string>{"Lee"});
  EXPECT_TRUE(f.CanProduce(kLeeMary, "Lee"));
}

TEST(StringFnTest, SubStrFailsWhenPositionsInvalid) {
  Term td = Term::Regex(CharClass::kDigit);
  StringFn f = StringFn::SubStr(PosFn::MatchPos(td, 1, Dir::kBegin),
                                PosFn::MatchPos(td, 1, Dir::kEnd));
  EXPECT_TRUE(f.Eval(kLeeMary).empty());
  // l >= r also fails.
  StringFn g = StringFn::SubStr(PosFn::ConstPos(5), PosFn::ConstPos(2));
  EXPECT_TRUE(g.Eval(kLeeMary).empty());
}

TEST(StringFnTest, PrefixEnumeratesAllPrefixes) {
  // Prefix(Tl, 1) on "Street": the 1st lowercase match is "treet"; outputs
  // are t, tr, tre, tree, treet (Appendix D).
  StringFn f = StringFn::Prefix(Term::Regex(CharClass::kLower), 1);
  EXPECT_EQ(f.Eval("Street"),
            (std::vector<std::string>{"t", "tr", "tre", "tree", "treet"}));
  EXPECT_TRUE(f.CanProduce("Street", "t"));
  EXPECT_TRUE(f.CanProduce("Avenue", "ve"));  // prefix of "venue"
  EXPECT_FALSE(f.CanProduce("Street", "re"));
}

TEST(StringFnTest, SuffixEnumeratesAllSuffixes) {
  StringFn f = StringFn::Suffix(Term::Regex(CharClass::kLower), 1);
  EXPECT_EQ(f.Eval("abc"), (std::vector<std::string>{"c", "bc", "abc"}));
  EXPECT_TRUE(f.CanProduce("abc", "bc"));
  EXPECT_FALSE(f.CanProduce("abc", "ab"));
}

TEST(StringFnTest, AffixNegativeK) {
  // Negative k counts matches from the end, mirroring MatchPos.
  StringFn f = StringFn::Prefix(Term::Regex(CharClass::kLower), -1);
  EXPECT_TRUE(f.CanProduce("Lee, Mary", "ar"));   // prefix of "ary"
  EXPECT_FALSE(f.CanProduce("Lee, Mary", "ee"));  // that's match 1, not -1
}

TEST(StringFnTest, InternedIdsInjectiveAcrossKinds) {
  Term tl = Term::Regex(CharClass::kLower);
  std::vector<StringFn> fns = {
      StringFn::ConstantStr("a"),
      StringFn::SubStr(PosFn::ConstPos(1), PosFn::ConstPos(2)),
      StringFn::Prefix(tl, 1),
      StringFn::Suffix(tl, 1),
      StringFn::Prefix(tl, 2),
  };
  LabelInterner interner;
  std::vector<LabelId> ids;
  for (const StringFn& fn : fns) ids.push_back(interner.Intern(fn));
  for (size_t i = 0; i < fns.size(); ++i) {
    for (size_t j = 0; j < fns.size(); ++j) {
      EXPECT_EQ(fns[i] == fns[j], i == j);
      EXPECT_EQ(ids[i] == ids[j], i == j);
    }
  }
}

TEST(StringFnTest, MostNegativeKProducesNothing) {
  constexpr int kMin = std::numeric_limits<int>::min();
  Term tl = Term::Regex(CharClass::kLower);
  for (const StringFn& fn :
       {StringFn::SubStr(PosFn::ConstPos(kMin), PosFn::ConstPos(3)),
        StringFn::SubStr(PosFn::MatchPos(tl, kMin, Dir::kBegin),
                         PosFn::ConstPos(3)),
        StringFn::Prefix(tl, kMin), StringFn::Suffix(tl, kMin)}) {
    SCOPED_TRACE(fn.ToString());
    EXPECT_TRUE(fn.Eval("abc").empty());
    EXPECT_FALSE(fn.CanProduce("abc", "a"));
  }
}

// --- Programs (Example B.3 / Figures 3-4). ---

Program MLeeProgram() {
  Term tc = Term::Regex(CharClass::kUpper);
  Term tl = Term::Regex(CharClass::kLower);
  Term tb = Term::Regex(CharClass::kSpace);
  StringFn f1 = StringFn::SubStr(PosFn::MatchPos(tc, 1, Dir::kBegin),
                                 PosFn::MatchPos(tl, 1, Dir::kEnd));
  StringFn f2 = StringFn::SubStr(PosFn::MatchPos(tb, 1, Dir::kEnd),
                                 PosFn::MatchPos(tc, -1, Dir::kEnd));
  StringFn f3 = StringFn::ConstantStr(". ");
  return Program({f2, f3, f1});
}

TEST(ProgramTest, ExampleB3ProducesMLee) {
  Program rho = MLeeProgram();
  Result<std::string> out = rho.EvaluateDeterministic(kLeeMary);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "M. Lee");
  EXPECT_TRUE(rho.ConsistentWith(kLeeMary, "M. Lee"));
  EXPECT_FALSE(rho.ConsistentWith(kLeeMary, "M. Lee "));
}

TEST(ProgramTest, SameProgramGeneralizesToSmithJames) {
  // The whole point of pivot paths: the Example B.3 program also maps
  // "Smith, James" to "J. Smith".
  Program rho = MLeeProgram();
  Result<std::string> out = rho.EvaluateDeterministic("Smith, James");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "J. Smith");
}

TEST(ProgramTest, AffixProgramStreetSt) {
  // Appendix D: SubStr(TC-begin, TC-end) (+) Prefix(Tl, 1) is consistent
  // with both Street -> St and Avenue -> Ave.
  Term tc = Term::Regex(CharClass::kUpper);
  Term tl = Term::Regex(CharClass::kLower);
  Program rho({StringFn::SubStr(PosFn::MatchPos(tc, 1, Dir::kBegin),
                                PosFn::MatchPos(tc, 1, Dir::kEnd)),
               StringFn::Prefix(tl, 1)});
  EXPECT_TRUE(rho.ConsistentWith("Street", "St"));
  EXPECT_TRUE(rho.ConsistentWith("Avenue", "Ave"));
  EXPECT_FALSE(rho.ConsistentWith("Street", "Sx"));
}

TEST(ProgramTest, EvaluateEnumeratesAffixChoices) {
  Program rho({StringFn::Prefix(Term::Regex(CharClass::kLower), 1)});
  Result<std::vector<std::string>> outs = rho.Evaluate("abc");
  ASSERT_TRUE(outs.ok());
  EXPECT_EQ(*outs, (std::vector<std::string>{"a", "ab", "abc"}));
}

TEST(ProgramTest, EvaluateRespectsOutputCap) {
  // Two affix functions over a long run explode combinatorially; the cap
  // turns that into ResourceExhausted instead of an OOM.
  Term tl = Term::Regex(CharClass::kLower);
  Program rho({StringFn::Prefix(tl, 1), StringFn::Prefix(tl, 1)});
  std::string s(200, 'a');
  Result<std::vector<std::string>> outs = rho.Evaluate(s, 100);
  EXPECT_FALSE(outs.ok());
  EXPECT_EQ(outs.status().code(), StatusCode::kResourceExhausted);
}

TEST(ProgramTest, EvaluateDeterministicRejectsMultiValued) {
  Program rho({StringFn::Prefix(Term::Regex(CharClass::kLower), 1)});
  EXPECT_FALSE(rho.EvaluateDeterministic("abc").ok());
}

TEST(ProgramTest, EmptyProgramInconsistent) {
  Program rho;
  EXPECT_FALSE(rho.ConsistentWith("a", "a"));
}

TEST(ProgramTest, FunctionFailureYieldsNoOutputs) {
  Term td = Term::Regex(CharClass::kDigit);
  Program rho({StringFn::SubStr(PosFn::MatchPos(td, 1, Dir::kBegin),
                                PosFn::MatchPos(td, 1, Dir::kEnd))});
  Result<std::vector<std::string>> outs = rho.Evaluate("letters only");
  ASSERT_TRUE(outs.ok());
  EXPECT_TRUE(outs->empty());
  EXPECT_FALSE(rho.ConsistentWith("letters only", "x"));
}

// --- Interner. ---

TEST(InternerTest, RoundTrip) {
  LabelInterner interner;
  StringFn f = StringFn::ConstantStr("abc");
  LabelId id = interner.Intern(f);
  EXPECT_EQ(interner.Get(id), f);
  EXPECT_EQ(interner.Intern(f), id);  // idempotent
  EXPECT_EQ(interner.size(), 1u);
}

TEST(InternerTest, DistinctFunctionsGetDistinctIds) {
  LabelInterner interner;
  LabelId a = interner.Intern(StringFn::ConstantStr("a"));
  LabelId b = interner.Intern(StringFn::ConstantStr("b"));
  LabelId c = interner.Intern(
      StringFn::Prefix(Term::Regex(CharClass::kLower), 1));
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_EQ(interner.size(), 3u);
}

TEST(InternerTest, LookupWithoutInterning) {
  LabelInterner interner;
  LabelId id;
  EXPECT_FALSE(interner.Lookup(StringFn::ConstantStr("a"), &id));
  LabelId interned = interner.Intern(StringFn::ConstantStr("a"));
  ASSERT_TRUE(interner.Lookup(StringFn::ConstantStr("a"), &id));
  EXPECT_EQ(id, interned);
}

// Enough labels to grow the table from 16 slots to 16,384: every
// SubStr(ConstPos(a), ConstPos(b)) with a, b in +-40, affixes, and
// constants and constant terms that share long prefixes. Ids are dense in
// first-sight order, a second pass through any entry point returns them
// unchanged, and Lookup agrees.
TEST(InternerTest, GrowthKeepsIdsDenseAndStable) {
  Term tl = Term::Regex(CharClass::kLower);
  std::vector<StringFn> fns;
  for (int a = -40; a <= 40; ++a) {
    for (int b = -40; b <= 40; ++b) {
      if (a == 0 || b == 0) continue;
      fns.push_back(StringFn::SubStr(PosFn::ConstPos(a), PosFn::ConstPos(b)));
    }
    if (a == 0) continue;
    fns.push_back(StringFn::Prefix(tl, a));
    fns.push_back(StringFn::Suffix(tl, a));
  }
  std::string prefix;
  for (int i = 0; i < 300; ++i) {
    prefix.push_back(static_cast<char>('a' + i % 26));
    fns.push_back(StringFn::ConstantStr(prefix));
    fns.push_back(StringFn::ConstantStr("street " + std::to_string(i)));
    fns.push_back(StringFn::SubStr(
        PosFn::MatchPos(Term::Constant(prefix), 1, Dir::kEnd),
        PosFn::ConstPos(-1)));
  }
  ASSERT_GT(fns.size(), 4096u);

  // The builder's construct-free entry points.
  auto intern_fast = [](LabelInterner* interner, const StringFn& fn) {
    switch (fn.kind()) {
      case StringFn::Kind::kConstantStr:
        return interner->InternConstant(fn.constant());
      case StringFn::Kind::kSubStr:
        return interner->InternSubStr(interner->InternPos(fn.left()),
                                      interner->InternPos(fn.right()));
      default:
        return interner->InternAffix(fn.kind(), fn.term().char_class(),
                                     fn.k());
    }
  };
  LabelInterner by_fn, by_fields;
  for (size_t i = 0; i < fns.size(); ++i) {
    ASSERT_EQ(by_fn.Intern(fns[i]), i);
    ASSERT_EQ(intern_fast(&by_fields, fns[i]), i);
  }
  for (LabelInterner* interner : {&by_fn, &by_fields}) {
    for (size_t i = 0; i < fns.size(); ++i) {
      EXPECT_EQ(interner->Intern(fns[i]), i);
      EXPECT_EQ(intern_fast(interner, fns[i]), i);
      LabelId id = 0;
      ASSERT_TRUE(interner->Lookup(fns[i], &id));
      EXPECT_EQ(id, i);
      EXPECT_EQ(interner->Get(static_cast<LabelId>(i)), fns[i]);
    }
    EXPECT_EQ(interner->size(), fns.size());
    LabelId id = 0;
    EXPECT_FALSE(interner->Lookup(StringFn::ConstantStr("absent"), &id));
    EXPECT_FALSE(interner->Lookup(
        StringFn::SubStr(PosFn::ConstPos(41), PosFn::ConstPos(1)), &id));

    // A SubStr over a constant term whose literal (longer than the 15-byte
    // small-string buffer) was never interned. Lookup probes the string
    // pool, the position pool and the label table and adds to none of
    // them: the next new position and the next new label still get the
    // next ids.
    const PosFn unseen = PosFn::MatchPos(
        Term::Constant("a literal nobody interned"), 1, Dir::kBegin);
    const LabelInterner::PosId next_pos =
        interner->InternPos(PosFn::ConstPos(1000)) + 1;
    EXPECT_FALSE(interner->Lookup(
        StringFn::SubStr(unseen, PosFn::ConstPos(-1)), &id));
    EXPECT_EQ(interner->size(), fns.size());
    EXPECT_EQ(interner->InternPos(PosFn::ConstPos(1001)), next_pos);
    EXPECT_EQ(interner->InternConstant("next"), fns.size());
  }
}

TEST(InternerTest, PathToString) {
  LabelInterner interner;
  LabelPath path = {interner.Intern(StringFn::ConstantStr("x")),
                    interner.Intern(StringFn::ConstantStr("y"))};
  EXPECT_EQ(PathToString(path, interner),
            "ConstantStr(\"x\") (+) ConstantStr(\"y\")");
}

}  // namespace
}  // namespace ustl
