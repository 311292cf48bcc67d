#include "util/flags.hpp"

#include <gtest/gtest.h>

namespace mris::util {
namespace {

Flags parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, SpaceSeparatedValue) {
  const Flags f = parse({"--jobs", "500"});
  EXPECT_EQ(f.get_int("jobs", 0), 500);
}

TEST(FlagsTest, EqualsSeparatedValue) {
  const Flags f = parse({"--scheduler=pq-wsjf"});
  EXPECT_EQ(f.get("scheduler", ""), "pq-wsjf");
}

TEST(FlagsTest, BooleanFlagWithoutValue) {
  const Flags f = parse({"--gantt", "--jobs", "5"});
  EXPECT_TRUE(f.get_bool("gantt"));
  EXPECT_EQ(f.get_int("jobs", 0), 5);
}

TEST(FlagsTest, TrailingBooleanFlag) {
  const Flags f = parse({"--verbose"});
  EXPECT_TRUE(f.get_bool("verbose"));
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  const Flags f = parse({});
  EXPECT_EQ(f.get("name", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(f.get_double("x", 2.5), 2.5);
  EXPECT_EQ(f.get_int("n", -7), -7);
  EXPECT_FALSE(f.get_bool("b", false));
  EXPECT_TRUE(f.get_bool("b", true));
}

TEST(FlagsTest, PositionalArguments) {
  const Flags f = parse({"simulate", "--jobs", "5", "extra"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "simulate");
  EXPECT_EQ(f.positional()[1], "extra");
}

TEST(FlagsTest, TypeErrorsThrow) {
  const Flags f = parse({"--n", "abc", "--b", "maybe"});
  EXPECT_THROW(f.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(f.get_double("n", 0.0), std::invalid_argument);
  EXPECT_THROW(f.get_bool("b"), std::invalid_argument);
}

TEST(FlagsTest, OutOfRangeValuesThrow) {
  const Flags f =
      parse({"--n", "99999999999999999999999", "--x", "1e999"});
  EXPECT_THROW(f.get_int("n", 0), std::invalid_argument);  // > int64 max
  EXPECT_THROW(f.get_double("x", 0.0), std::invalid_argument);
}

TEST(FlagsTest, BoolSpellings) {
  EXPECT_TRUE(parse({"--a", "1"}).get_bool("a"));
  EXPECT_TRUE(parse({"--a", "yes"}).get_bool("a"));
  EXPECT_FALSE(parse({"--a", "0"}).get_bool("a"));
  EXPECT_FALSE(parse({"--a", "no"}).get_bool("a"));
}

TEST(FlagsTest, UnconsumedDetectsTypos) {
  const Flags f = parse({"--jobs", "5", "--typo", "x"});
  EXPECT_EQ(f.get_int("jobs", 0), 5);
  const auto leftover = f.unconsumed();
  ASSERT_EQ(leftover.size(), 1u);
  EXPECT_EQ(leftover[0], "typo");
}

TEST(FlagsTest, HasMarksConsumed) {
  const Flags f = parse({"--present", "v"});
  EXPECT_TRUE(f.has("present"));
  EXPECT_FALSE(f.has("absent"));
  EXPECT_TRUE(f.unconsumed().empty());
}

TEST(FlagsTest, NegativeNumbersAsValues) {
  // A negative number is not a flag (doesn't start with --).
  const Flags f = parse({"--offset", "-3"});
  EXPECT_EQ(f.get_int("offset", 0), -3);
}

TEST(FlagsTest, NegativeCountThrowsNamingTheFlag) {
  // A negative count used to wrap to a huge unsigned value (--jobs -5 died
  // in vector::reserve, --augment -1 hung).
  const Flags f = parse({"--jobs", "-5", "--augment", "3", "--tenants", "0"});
  try {
    (void)f.get_count("jobs", 10);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--jobs"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("-5"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(f.get_count("augment", 0), 3u);
  EXPECT_EQ(f.get_count("tenants", 50), 0u);
  EXPECT_EQ(f.get_count("absent", 7), 7u);
  EXPECT_THROW(parse({"--offset", "x"}).get_count("offset", 0),
               std::invalid_argument);
}

TEST(FlagsTest, EmptyFlagNameThrows) {
  EXPECT_THROW(parse({"--=x"}), std::invalid_argument);
  EXPECT_THROW(parse({"--"}), std::invalid_argument);
}

}  // namespace
}  // namespace mris::util
