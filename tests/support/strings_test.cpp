#include "support/strings.h"

#include <gtest/gtest.h>

namespace hicsync::support {
namespace {

TEST(Strings, SplitBasic) {
  auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitKeepsEmptyFields) {
  auto parts = split(",x,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[2], "");
}

TEST(Strings, SplitNoSeparator) {
  auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, SplitEmptyString) {
  auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
}

TEST(Strings, TrimAllWhitespace) { EXPECT_EQ(trim(" \t "), ""); }

TEST(Strings, TrimNothingToDo) { EXPECT_EQ(trim("x y"), "x y"); }

TEST(Strings, JoinBasic) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(Strings, JoinEmpty) { EXPECT_EQ(join({}, ","), ""); }

TEST(Strings, JoinSingle) { EXPECT_EQ(join({"only"}, ","), "only"); }

TEST(Strings, IsIdentifierAccepts) {
  EXPECT_TRUE(is_identifier("x"));
  EXPECT_TRUE(is_identifier("_foo"));
  EXPECT_TRUE(is_identifier("a1_b2"));
}

TEST(Strings, IsIdentifierRejects) {
  EXPECT_FALSE(is_identifier(""));
  EXPECT_FALSE(is_identifier("1abc"));
  EXPECT_FALSE(is_identifier("a-b"));
  EXPECT_FALSE(is_identifier("a b"));
}

TEST(Strings, IndentMultiline) {
  EXPECT_EQ(indent("a\nb", 2), "  a\n  b");
}

TEST(Strings, IndentSkipsEmptyLines) {
  EXPECT_EQ(indent("a\n\nb", 2), "  a\n\n  b");
}

TEST(Strings, FormatBasic) {
  EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
}

TEST(Strings, FormatEmpty) { EXPECT_EQ(format("%s", ""), ""); }

TEST(ParseNumber, U64TakesDecimalDigitsOnly) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_u64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_u64("010", &v));  // decimal, never octal
  EXPECT_EQ(v, 10u);
  EXPECT_TRUE(parse_u64("18446744073709551615", &v));
  EXPECT_EQ(v, ~0ull);
}

TEST(ParseNumber, U64RejectsSignsPrefixesJunkAndOverflow) {
  std::uint64_t v = 7;
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "0x10", "1e3", "abc",
                          "12a", "18446744073709551616",
                          "99999999999999999999"}) {
    EXPECT_FALSE(parse_u64(bad, &v)) << bad;
  }
  EXPECT_EQ(v, 7u);  // untouched on failure
}

TEST(ParseNumber, IntTakesOptionalMinusWithinRange) {
  int v = 0;
  EXPECT_TRUE(parse_int("-5", &v));
  EXPECT_EQ(v, -5);
  EXPECT_TRUE(parse_int("2147483647", &v));
  EXPECT_EQ(v, 2147483647);
  EXPECT_TRUE(parse_int("-2147483648", &v));
  EXPECT_EQ(v, -2147483647 - 1);
  v = 3;
  for (const char* bad : {"", "-", "--1", "+2", "2147483648", "-2147483649",
                          "1.5", "abc", "2x"}) {
    EXPECT_FALSE(parse_int(bad, &v)) << bad;
  }
  EXPECT_EQ(v, 3);
}

TEST(ParseNumber, DoubleTakesFiniteDecimalsOnly) {
  double v = 0.0;
  EXPECT_TRUE(parse_double("150.5", &v));
  EXPECT_DOUBLE_EQ(v, 150.5);
  EXPECT_TRUE(parse_double("-2.5", &v));
  EXPECT_DOUBLE_EQ(v, -2.5);
  EXPECT_TRUE(parse_double("1e3", &v));
  EXPECT_DOUBLE_EQ(v, 1000.0);
  v = 4.0;
  for (const char* bad : {"", ".", "abc", "inf", "nan", "0x1p3", " 1", "1 ",
                          "1e", "1e999", "1.5x"}) {
    EXPECT_FALSE(parse_double(bad, &v)) << bad;
  }
  EXPECT_DOUBLE_EQ(v, 4.0);
}

}  // namespace
}  // namespace hicsync::support
