// Tests for src/text: character classes, terms and matching (Appendix B),
// structure signatures (Section 7.2), and alignment (Appendix A).
#include <gtest/gtest.h>

#include "text/alignment.h"
#include "text/char_class.h"
#include "text/structure.h"
#include "text/terms.h"

namespace ustl {
namespace {

TEST(CharClassTest, Classification) {
  EXPECT_EQ(ClassOf('7'), CharClass::kDigit);
  EXPECT_EQ(ClassOf('a'), CharClass::kLower);
  EXPECT_EQ(ClassOf('Z'), CharClass::kUpper);
  EXPECT_EQ(ClassOf(' '), CharClass::kSpace);
  EXPECT_EQ(ClassOf('\t'), CharClass::kSpace);
  EXPECT_EQ(ClassOf(','), CharClass::kOther);
  EXPECT_EQ(ClassOf('.'), CharClass::kOther);
}

TEST(CharClassTest, TermNames) {
  EXPECT_STREQ(CharClassTermName(CharClass::kDigit), "Td");
  EXPECT_STREQ(CharClassTermName(CharClass::kLower), "Tl");
  EXPECT_STREQ(CharClassTermName(CharClass::kUpper), "TC");
  EXPECT_STREQ(CharClassTermName(CharClass::kSpace), "Tb");
}

TEST(TermTest, RegexMatchesMaximalRuns) {
  // s = "Lee, Mary": TC matches "L"[1,2) and "M"[6,7) (1-based as in the
  // paper's Figure 4).
  Term tc = Term::Regex(CharClass::kUpper);
  auto matches = FindMatches(tc, "Lee, Mary");
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0], (TermMatch{1, 2}));
  EXPECT_EQ(matches[1], (TermMatch{6, 7}));
}

TEST(TermTest, LowercaseRuns) {
  Term tl = Term::Regex(CharClass::kLower);
  auto matches = FindMatches(tl, "Lee, Mary");
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0], (TermMatch{2, 4}));   // "ee"
  EXPECT_EQ(matches[1], (TermMatch{7, 10}));  // "ary"
}

TEST(TermTest, DigitAndWhitespaceRuns) {
  auto digits = FindMatches(Term::Regex(CharClass::kDigit), "9 St, 02141 WI");
  ASSERT_EQ(digits.size(), 2u);
  EXPECT_EQ(digits[0], (TermMatch{1, 2}));
  EXPECT_EQ(digits[1], (TermMatch{7, 12}));
  auto spaces = FindMatches(Term::Regex(CharClass::kSpace), "a  b c");
  ASSERT_EQ(spaces.size(), 2u);
  EXPECT_EQ(spaces[0], (TermMatch{2, 4}));  // run of two spaces is one match
}

TEST(TermTest, NoMatches) {
  EXPECT_TRUE(FindMatches(Term::Regex(CharClass::kDigit), "abc").empty());
  EXPECT_TRUE(FindMatches(Term::Regex(CharClass::kUpper), "").empty());
}

TEST(TermTest, ConstantMatchesNonOverlapping) {
  Term t = Term::Constant("aa");
  auto matches = FindMatches(t, "aaaa");
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0], (TermMatch{1, 3}));
  EXPECT_EQ(matches[1], (TermMatch{3, 5}));
}

TEST(TermTest, ConstantStringTermSemantics) {
  // Appendix B: a constant string term matches and only matches its
  // literal.
  Term t = Term::Constant("Mr.");
  auto matches = FindMatches(t, "Mr. Lee and Mr. Smith");
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].begin, 1);
  EXPECT_EQ(matches[1].begin, 13);
}

TEST(TermTest, Ordering) {
  Term a = Term::Regex(CharClass::kDigit);
  Term b = Term::Regex(CharClass::kLower);
  Term c = Term::Constant("x");
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(a < c);  // regex terms order before constants
  EXPECT_FALSE(a < a);
  EXPECT_EQ(a, Term::Regex(CharClass::kDigit));
}

TEST(TermTest, ToStringForms) {
  EXPECT_EQ(Term::Regex(CharClass::kDigit).ToString(), "Td");
  EXPECT_EQ(Term::Constant("St").ToString(), "T\"St\"");
}

TEST(ClassTokensTest, SplitsByClassAndPunctSingles) {
  // Section 7.2: kOther characters are single-character terms, so "--"
  // yields two tokens.
  auto tokens = ClassTokens("9th--A");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].text, "9");
  EXPECT_EQ(tokens[1].text, "th");
  EXPECT_EQ(tokens[2].text, "-");
  EXPECT_EQ(tokens[3].text, "-");
  EXPECT_EQ(tokens[4].text, "A");
  EXPECT_EQ(tokens[0].begin, 1);
  EXPECT_EQ(tokens[4].end, 7);
}

TEST(WhitespaceTokensTest, Basic) {
  EXPECT_EQ(WhitespaceTokens("  a b  c "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(WhitespaceTokens("   ").empty());
}

// --- Structure signatures (Section 7.2). ---

TEST(StructureTest, PaperExamples) {
  // Struc("9") = Td and Struc("9th") = Td Tl.
  EXPECT_EQ(StructureOf("9"), "d");
  EXPECT_EQ(StructureOf("9th"), "dl");
}

TEST(StructureTest, MixedClassesAndLiterals) {
  EXPECT_EQ(StructureOf("Lee, Mary"), "ul,sul");
  EXPECT_EQ(StructureOf("M. Lee"), "u.sul");
  EXPECT_EQ(StructureOf("02141-WI"), "d-u");
  EXPECT_EQ(StructureOf(""), "");
}

TEST(StructureTest, ReplacementStructureKey) {
  // 9 -> 9th and 3 -> 3rd share the structure Td -> Td Tl.
  EXPECT_EQ(ReplacementStructure("9", "9th"), "d=>dl");
  EXPECT_EQ(ReplacementStructure("3", "3rd"), "d=>dl");
  EXPECT_TRUE(StructurallyEquivalent("9", "9th", "3", "3rd"));
  EXPECT_FALSE(StructurallyEquivalent("9", "9th", "3", "3RD"));
}

TEST(StructureTest, RunsCollapse) {
  EXPECT_EQ(StructureOf("aaa"), StructureOf("a"));
  EXPECT_EQ(StructureOf("  "), "s");
  // Punctuation does not collapse.
  EXPECT_EQ(StructureOf(".."), "..");
}

// --- Alignment (Appendix A). ---

TEST(AlignmentTest, PaperExampleA1) {
  // r1 = "9 St, 02141 Wisconsin", r2 = "9th St, 02141 WI"; the LCS is
  // "St, 02141", producing aligned pairs (9, 9th) and (Wisconsin, WI).
  auto segments = TokenLcsAlign("9 St, 02141 Wisconsin", "9th St, 02141 WI");
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0].lhs, "9");
  EXPECT_EQ(segments[0].rhs, "9th");
  EXPECT_EQ(segments[1].lhs, "Wisconsin");
  EXPECT_EQ(segments[1].rhs, "WI");
  // 1-based character offsets into the original values.
  EXPECT_EQ(segments[0].lhs_begin, 1);
  EXPECT_EQ(segments[1].lhs_begin, 13);
  EXPECT_EQ(segments[1].rhs_begin, 15);
}

TEST(AlignmentTest, MultiTokenSegments) {
  // No common token: one whole-value segment pair.
  auto segments = TokenLcsAlign("9 Street", "9th St");
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].lhs, "9 Street");
  EXPECT_EQ(segments[0].rhs, "9th St");
}

TEST(AlignmentTest, PureInsertionSkipped) {
  // "E" is inserted; one side of that gap is empty, so no pair is emitted.
  auto segments = TokenLcsAlign("3 Ave", "3 E Ave");
  EXPECT_TRUE(segments.empty());
}

TEST(AlignmentTest, IdenticalValuesNoSegments) {
  EXPECT_TRUE(TokenLcsAlign("a b c", "a b c").empty());
}

TEST(AlignmentTest, LcsLength) {
  // Common tokens are "St," and "02141" ("9" vs "9th" and "Wisconsin" vs
  // "WI" differ).
  EXPECT_EQ(TokenLcsLength("9 St, 02141 Wisconsin", "9th St, 02141 WI"), 2);
  EXPECT_EQ(TokenLcsLength("a b", "c d"), 0);
  EXPECT_EQ(TokenLcsLength("a b c", "a b c"), 3);
}

}  // namespace
}  // namespace ustl
