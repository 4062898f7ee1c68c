#include "util/flags.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace geomcast::util {
namespace {

Flags make_flags(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, EqualsSyntax) {
  const auto flags = make_flags({"--peers=500"});
  EXPECT_EQ(flags.get_int("peers", 0), 500);
}

TEST(FlagsTest, SpaceSyntax) {
  const auto flags = make_flags({"--peers", "250"});
  EXPECT_EQ(flags.get_int("peers", 0), 250);
}

TEST(FlagsTest, FallbackWhenMissing) {
  const auto flags = make_flags({});
  EXPECT_EQ(flags.get_int("peers", 1000), 1000);
  EXPECT_EQ(flags.get_string("mode", "fast"), "fast");
  EXPECT_DOUBLE_EQ(flags.get_double("ratio", 0.5), 0.5);
  EXPECT_TRUE(flags.get_bool("verbose", true));
}

TEST(FlagsTest, BareBooleanFlag) {
  const auto flags = make_flags({"--verbose"});
  EXPECT_TRUE(flags.get_bool("verbose", false));
}

TEST(FlagsTest, ExplicitBooleanValues) {
  EXPECT_TRUE(make_flags({"--x=true"}).get_bool("x", false));
  EXPECT_TRUE(make_flags({"--x=1"}).get_bool("x", false));
  EXPECT_TRUE(make_flags({"--x=yes"}).get_bool("x", false));
  EXPECT_FALSE(make_flags({"--x=false"}).get_bool("x", true));
  EXPECT_FALSE(make_flags({"--x=0"}).get_bool("x", true));
  EXPECT_FALSE(make_flags({"--x=off"}).get_bool("x", true));
}

TEST(FlagsTest, MalformedIntThrows) {
  const auto flags = make_flags({"--peers=abc"});
  EXPECT_THROW((void)flags.get_int("peers", 0), std::invalid_argument);
}

TEST(FlagsTest, MalformedBoolThrows) {
  const auto flags = make_flags({"--x=maybe"});
  EXPECT_THROW((void)flags.get_bool("x", false), std::invalid_argument);
}

TEST(FlagsTest, DoubleParsing) {
  const auto flags = make_flags({"--ratio=0.75"});
  EXPECT_DOUBLE_EQ(flags.get_double("ratio", 0.0), 0.75);
}

TEST(FlagsTest, IntList) {
  const auto flags = make_flags({"--dims=2,3,5"});
  const auto dims = flags.get_int_list("dims", {});
  ASSERT_EQ(dims.size(), 3u);
  EXPECT_EQ(dims[0], 2);
  EXPECT_EQ(dims[1], 3);
  EXPECT_EQ(dims[2], 5);
}

TEST(FlagsTest, IntListFallback) {
  const auto flags = make_flags({});
  const auto dims = flags.get_int_list("dims", {7, 8});
  ASSERT_EQ(dims.size(), 2u);
  EXPECT_EQ(dims[0], 7);
}

TEST(FlagsTest, PositionalArgumentsCollected) {
  const auto flags = make_flags({"input.txt", "--mode=x", "output.txt"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.txt");
  EXPECT_EQ(flags.positional()[1], "output.txt");
}

TEST(FlagsTest, HasDetectsPresence) {
  const auto flags = make_flags({"--present=1"});
  EXPECT_TRUE(flags.has("present"));
  EXPECT_FALSE(flags.has("absent"));
}

TEST(FlagsTest, UnusedListsFlagsNeverQueried) {
  const auto flags = make_flags({"--peers=5", "--qos2", "--seed", "3", "--quick"});
  EXPECT_EQ(flags.unused(), (std::vector<std::string>{"peers", "qos2", "quick", "seed"}));
  EXPECT_EQ(flags.get_int("peers", 0), 5);
  EXPECT_TRUE(flags.has("quick"));
  (void)flags.get_int("seed", 0);
  (void)flags.get_int("absent", 0);  // a query for a flag not given adds nothing
  EXPECT_EQ(flags.unused(), (std::vector<std::string>{"qos2"}));
}

TEST(FlagsTest, RejectUnusedNamesEveryUnreadFlag) {
  const auto flags = make_flags({"--peer=100", "--quick", "--seed=3", "--csvv"});
  (void)flags.get_bool("quick", false);
  (void)flags.get_int("seed", 0);
  try {
    flags.reject_unused();
    FAIL() << "reject_unused() accepted a typo";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "unknown flag(s): --csvv, --peer");
  }
  (void)flags.get_int("peer", 0);
  (void)flags.get_bool("csvv", false);
  EXPECT_NO_THROW(flags.reject_unused());
}

TEST(FlagsTest, LastValueWins) {
  const auto flags = make_flags({"--n=1", "--n=2"});
  EXPECT_EQ(flags.get_int("n", 0), 2);
}

}  // namespace
}  // namespace geomcast::util
