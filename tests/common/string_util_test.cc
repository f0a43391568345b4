#include "common/string_util.h"

#include <cerrno>
#include <cstdlib>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace tpiin {
namespace {

TEST(SplitTest, BasicAndEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitWhitespaceTest, CollapsesRuns) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
  EXPECT_TRUE(SplitWhitespace("").empty());
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(TrimTest, StripsBothEnds) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("x"), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("\ta b\n"), "a b");
}

TEST(StartsEndsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("tpiin-edge-list", "tpiin"));
  EXPECT_FALSE(StartsWith("tp", "tpiin"));
  EXPECT_TRUE(EndsWith("data.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", "data.csv"));
}

TEST(ParseInt64Test, ValidInputs) {
  EXPECT_EQ(*ParseInt64("42"), 42);
  EXPECT_EQ(*ParseInt64("-7"), -7);
  EXPECT_EQ(*ParseInt64("  15 "), 15);
  EXPECT_EQ(*ParseInt64("0"), 0);
}

TEST(ParseInt64Test, InvalidInputs) {
  EXPECT_TRUE(ParseInt64("").status().IsInvalidArgument());
  EXPECT_TRUE(ParseInt64("abc").status().IsInvalidArgument());
  EXPECT_TRUE(ParseInt64("12x").status().IsInvalidArgument());
  EXPECT_TRUE(ParseInt64("1.5").status().IsInvalidArgument());
  EXPECT_TRUE(
      ParseInt64("99999999999999999999999").status().IsOutOfRange());
}

// ParseInt64 is from_chars-based; it must accept and reject exactly
// what strtoll over the trimmed text did, with the same messages.
Result<int64_t> StrtollReference(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return Status::InvalidArgument("empty integer literal");
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE) {
    return Status::OutOfRange("integer out of range: " + buf);
  }
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("not an integer: " + buf);
  }
  return static_cast<int64_t>(v);
}

TEST(ParseInt64Test, AgreesWithStrtoll) {
  std::vector<std::string> inputs = {
      "+5",   "+",     "-",   "+-5", "-+5", "++5", "--5", "+ 5", "- 5",
      "-0",   "+0",    "007", " 12 ", "1 2", "0x10", "1e3", "\t-3\n",
      "9223372036854775807", "-9223372036854775808",
      "9223372036854775808", "-9223372036854775809",
      "99999999999999999999x", std::string("12\0", 3)};
  Rng rng(99);
  const std::string alphabet = "0123456789+- x\t";
  for (int i = 0; i < 2000; ++i) {
    std::string s;
    const int64_t length = rng.UniformInt(0, 22);
    for (int64_t k = 0; k < length; ++k) {
      s += alphabet[rng.UniformU64(alphabet.size())];
    }
    inputs.push_back(s);
  }
  for (const std::string& input : inputs) {
    Result<int64_t> got = ParseInt64(input);
    Result<int64_t> want = StrtollReference(input);
    ASSERT_EQ(got.status().code(), want.status().code()) << "'" << input << "'";
    EXPECT_EQ(got.status().message(), want.status().message());
    if (want.ok()) {
      EXPECT_EQ(*got, *want) << "'" << input << "'";
    }
  }
}

TEST(ParseDoubleTest, ValidAndInvalid) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(*ParseDouble("-1e3"), -1000.0);
  EXPECT_TRUE(ParseDouble("").status().IsInvalidArgument());
  EXPECT_TRUE(ParseDouble("x12").status().IsInvalidArgument());
}

TEST(FormatWithCommasTest, GroupsDigits) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1000), "1,000");
  EXPECT_EQ(FormatWithCommas(1234567), "1,234,567");
  EXPECT_EQ(FormatWithCommas(-1234567), "-1,234,567");
}

TEST(FormatDoubleTest, FixedDigits) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
}

TEST(StringPrintfTest, FormatsLikePrintf) {
  EXPECT_EQ(StringPrintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StringPrintf("%.3f", 0.5), "0.500");
  EXPECT_EQ(StringPrintf("empty"), "empty");
  // Long output exercises the two-pass sizing.
  std::string big = StringPrintf("%0512d", 1);
  EXPECT_EQ(big.size(), 512u);
}

}  // namespace
}  // namespace tpiin
