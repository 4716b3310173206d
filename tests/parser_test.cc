// Tests for dsl/parser: serialize/parse round trips (including hostile
// literals), compatibility with the ToString surface form, and error
// reporting. The fuzz case generates random programs and checks the
// round trip is the identity.
#include <gtest/gtest.h>

#include <random>

#include "dsl/parser.h"
#include "dsl/program.h"

namespace ustl {
namespace {

Program PaperProgram() {
  // rho = f2 (+) f3 (+) f1 from Figure 3.
  Term tc = Term::Regex(CharClass::kUpper);
  Term tl = Term::Regex(CharClass::kLower);
  Term tb = Term::Regex(CharClass::kSpace);
  return Program({
      StringFn::SubStr(PosFn::MatchPos(tb, 1, Dir::kEnd),
                       PosFn::MatchPos(tc, -1, Dir::kEnd)),
      StringFn::ConstantStr(". "),
      StringFn::SubStr(PosFn::MatchPos(tc, 1, Dir::kBegin),
                       PosFn::MatchPos(tl, 1, Dir::kEnd)),
  });
}

void ExpectRoundTrip(const Program& program) {
  std::string text = SerializeProgram(program);
  Result<Program> parsed = ParseProgram(text);
  ASSERT_TRUE(parsed.ok()) << text << " -> " << parsed.status().ToString();
  EXPECT_EQ(parsed->functions(), program.functions()) << text;
}

TEST(ParserTest, PaperProgramRoundTrips) {
  Program program = PaperProgram();
  ExpectRoundTrip(program);
  // And the parsed program still transforms the running example.
  Program parsed = std::move(ParseProgram(SerializeProgram(program))).value();
  EXPECT_TRUE(parsed.ConsistentWith("Lee, Mary", "M. Lee"));
}

TEST(ParserTest, SerializeMatchesToStringForTameLiterals) {
  Program program = PaperProgram();
  EXPECT_EQ(SerializeProgram(program), program.ToString());
  // ToString output parses.
  EXPECT_TRUE(ParseProgram(program.ToString()).ok());
}

TEST(ParserTest, HostileConstantsRoundTrip) {
  for (const std::string& constant :
       {std::string("quote\" and \\ backslash"), std::string("new\nline"),
        std::string("tab\tand\rcr"), std::string("\x01\x02\x7f"),
        std::string("(+) , ) ("), std::string("ConstantStr(\"x\")"),
        std::string(" ")}) {
    ExpectRoundTrip(Program({StringFn::ConstantStr(constant)}));
  }
}

TEST(ParserTest, ConstantTermsRoundTrip) {
  ExpectRoundTrip(Program({StringFn::SubStr(
      PosFn::MatchPos(Term::Constant("Mr. \"X\""), 2, Dir::kBegin),
      PosFn::ConstPos(-1))}));
}

TEST(ParserTest, AffixFunctionsRoundTrip) {
  ExpectRoundTrip(Program({
      StringFn::Prefix(Term::Regex(CharClass::kLower), 1),
      StringFn::Suffix(Term::Regex(CharClass::kDigit), -2),
  }));
}

TEST(ParserTest, WhitespaceInsensitive) {
  Result<Program> parsed = ParseProgram(
      "  ConstantStr( \"a\" )   (+)\n\tSubStr(ConstPos( 1 ),ConstPos(2))  ");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->size(), 2u);
}

struct ErrorCase {
  const char* text;
  const char* why;
};

class ParserErrorTest : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(ParserErrorTest, Rejects) {
  Result<Program> parsed = ParseProgram(GetParam().text);
  EXPECT_FALSE(parsed.ok()) << GetParam().why;
}

INSTANTIATE_TEST_SUITE_P(
    Grammar, ParserErrorTest,
    ::testing::Values(
        ErrorCase{"", "empty input"},
        ErrorCase{"Bogus(\"x\")", "unknown function"},
        ErrorCase{"ConstantStr(\"x\"", "missing close paren"},
        ErrorCase{"ConstantStr(\"x) ", "unterminated literal"},
        ErrorCase{"ConstantStr(\"\")", "empty constant"},
        ErrorCase{"ConstantStr(\"x\\q\")", "unknown escape"},
        ErrorCase{"ConstantStr(\"x\\x9\")", "truncated hex escape"},
        ErrorCase{"ConstPos(1)", "position function is not a program"},
        ErrorCase{"SubStr(ConstPos(0), ConstPos(1))", "k = 0"},
        ErrorCase{"SubStr(ConstPos(1) ConstPos(2))", "missing comma"},
        ErrorCase{"Prefix(T\"x\", 1)", "affix needs a regex term"},
        ErrorCase{"Prefix(Tl, 0)", "affix k = 0"},
        ErrorCase{"SubStr(MatchPos(Tq, 1, B), ConstPos(1))", "bad term"},
        ErrorCase{"SubStr(MatchPos(Tl, 1, X), ConstPos(1))",
                  "bad direction"},
        ErrorCase{"ConstantStr(\"a\") ConstantStr(\"b\")",
                  "missing (+) separator"},
        ErrorCase{"ConstantStr(\"a\") (+)", "dangling separator"},
        ErrorCase{"SubStr(ConstPos(4294967297), ConstPos(3))",
                  "k wraps to 1 as a 32-bit int"},
        ErrorCase{"SubStr(ConstPos(-2147483648), ConstPos(3))",
                  "k = INT_MIN has no negation"},
        ErrorCase{"SubStr(MatchPos(Tl, 2147483648, B), ConstPos(3))",
                  "k = INT_MAX + 1"},
        ErrorCase{"Prefix(Tl, -99999999999999999999999)",
                  "k beyond 64 bits"}));

// The accepted integer range is symmetric, [-INT_MAX, INT_MAX]; an
// out-of-range k is a typed error, never a wrapped value.
TEST(ParserTest, IntegerRangeIsChecked) {
  ExpectRoundTrip(Program({StringFn::SubStr(PosFn::ConstPos(2147483647),
                                            PosFn::ConstPos(-2147483647))}));
  ExpectRoundTrip(
      Program({StringFn::Suffix(Term::Regex(CharClass::kDigit), -2147483647)}));
  Result<Program> parsed =
      ParseProgram("SubStr(ConstPos(1), ConstPos(-2147483648))");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("out of range"), std::string::npos)
      << parsed.status().ToString();
}

// Random program fuzzing: build arbitrary valid programs out of the whole
// function space and require the round trip to be the identity.
class ParserFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzzTest, RandomProgramsRoundTrip) {
  std::mt19937_64 rng(GetParam());
  auto random_string = [&]() {
    static const char alphabet[] =
        "abcXYZ019 \t\n\"\\().,+-_\x01\x7f";
    std::string s;
    const size_t len = 1 + rng() % 8;
    for (size_t i = 0; i < len; ++i) {
      s.push_back(alphabet[rng() % (sizeof(alphabet) - 1)]);
    }
    return s;
  };
  auto random_term = [&](bool regex_only) {
    if (!regex_only && rng() % 3 == 0) return Term::Constant(random_string());
    static const CharClass classes[] = {CharClass::kDigit, CharClass::kLower,
                                        CharClass::kUpper, CharClass::kSpace};
    return Term::Regex(classes[rng() % 4]);
  };
  auto random_k = [&]() {
    int k = 1 + static_cast<int>(rng() % 5);
    return rng() % 2 == 0 ? k : -k;
  };
  auto random_pos = [&]() {
    if (rng() % 2 == 0) return PosFn::ConstPos(random_k());
    return PosFn::MatchPos(random_term(false), random_k(),
                           rng() % 2 == 0 ? Dir::kBegin : Dir::kEnd);
  };
  auto random_fn = [&]() {
    switch (rng() % 4) {
      case 0: return StringFn::ConstantStr(random_string());
      case 1: return StringFn::SubStr(random_pos(), random_pos());
      case 2: return StringFn::Prefix(random_term(true), random_k());
      default: return StringFn::Suffix(random_term(true), random_k());
    }
  };
  for (int round = 0; round < 100; ++round) {
    std::vector<StringFn> fns;
    const size_t len = 1 + rng() % 5;
    for (size_t i = 0; i < len; ++i) fns.push_back(random_fn());
    ExpectRoundTrip(Program(std::move(fns)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest,
                         ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace ustl
