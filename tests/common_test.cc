// Tests for src/common: Status/Result, string utilities, Rng, Timer.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>

#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace ustl {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kResourceExhausted, StatusCode::kInternal,
        StatusCode::kUnimplemented}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveValue) {
  Result<std::string> r = std::string("hello");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

TEST(StringUtilTest, SplitAndTrim) {
  EXPECT_EQ(SplitAndTrim("a  b c", ' '),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitAndTrim("  ", ' '), std::vector<std::string>{});
  EXPECT_EQ(SplitAndTrim("", ' '), std::vector<std::string>{});
}

TEST(StringUtilTest, SplitKeepsEmptyPieces) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), std::vector<std::string>{""});
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"x"}, ","), "x");
}

TEST(StringUtilTest, CaseConversion) {
  EXPECT_EQ(ToLower("Mary Lee"), "mary lee");
  EXPECT_EQ(ToUpper("9th St"), "9TH ST");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("Street", "St"));
  EXPECT_FALSE(StartsWith("St", "Street"));
  EXPECT_TRUE(EndsWith("Avenue", "nue"));
  EXPECT_FALSE(EndsWith("Ave", "Avenue"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(StringUtilTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");  // leftmost, non-overlap
  EXPECT_EQ(ReplaceAll("abc", "", "x"), "abc");
}

TEST(StringUtilTest, NormalizeWhitespace) {
  EXPECT_EQ(NormalizeWhitespace("  a \t b  "), "a b");
  EXPECT_EQ(NormalizeWhitespace(""), "");
  EXPECT_EQ(NormalizeWhitespace("x"), "x");
}

TEST(StringUtilTest, EscapeForDisplay) {
  EXPECT_EQ(EscapeForDisplay("a\tb"), "a\\x09b");
  EXPECT_EQ(EscapeForDisplay("plain"), "plain");
}

TEST(StringUtilTest, ParseUnsignedTakesDigitsOnly) {
  EXPECT_EQ(ParseUnsigned("0"), std::optional<uint64_t>(0));
  EXPECT_EQ(ParseUnsigned("40"), std::optional<uint64_t>(40));
  EXPECT_EQ(ParseUnsigned("007"), std::optional<uint64_t>(7));
  EXPECT_EQ(ParseUnsigned("18446744073709551615"),
            std::optional<uint64_t>(UINT64_MAX));
}

TEST(StringUtilTest, ParseUnsignedRejectsEverythingElse) {
  EXPECT_FALSE(ParseUnsigned(""));
  EXPECT_FALSE(ParseUnsigned("abc"));
  EXPECT_FALSE(ParseUnsigned("-3"));
  EXPECT_FALSE(ParseUnsigned("+3"));
  EXPECT_FALSE(ParseUnsigned(" 3"));
  EXPECT_FALSE(ParseUnsigned("3 "));
  EXPECT_FALSE(ParseUnsigned("12abc"));
  EXPECT_FALSE(ParseUnsigned("1.5"));
  EXPECT_FALSE(ParseUnsigned("18446744073709551616"));  // UINT64_MAX + 1
  EXPECT_FALSE(ParseUnsigned("99999999999999999999"));
}

TEST(StringUtilTest, AppendJsonStringEscapesControlBytesOnly) {
  std::string out = "x=";
  AppendJsonString(&out, "say \"hi\"\\ \n\t\x01 caf\xc3\xa9");
  EXPECT_EQ(out, "x=\"say \\\"hi\\\"\\\\ \\n\\t\\u0001 caf\xc3\xa9\"");
  out.clear();
  AppendJsonString(&out, "");
  EXPECT_EQ(out, "\"\"");
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1000), b.Uniform(0, 1000));
  }
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, SkewedSizeWithinBounds) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.SkewedSize(5.0, 40);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 40);
    sum += static_cast<double>(v);
  }
  double mean = sum / 2000;
  EXPECT_GT(mean, 2.5);
  EXPECT_LT(mean, 8.0);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(4);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, WeightedRespectsZeroWeight) {
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    size_t pick = rng.Weighted({0.0, 1.0, 0.0});
    EXPECT_EQ(pick, 1u);
  }
}

TEST(TimerTest, MonotoneNonNegative) {
  Timer t;
  int64_t first = t.ElapsedMicros();
  EXPECT_GE(first, 0);
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GE(t.ElapsedMicros(), first);
  t.Reset();
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
}

}  // namespace
}  // namespace ustl
