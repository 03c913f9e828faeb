#include "util/args.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace odtn::util {
namespace {

Args make_args(std::vector<std::string> argv) {
  static std::vector<std::vector<char>> storage;
  storage.clear();
  std::vector<char*> ptrs;
  for (auto& s : argv) {
    storage.emplace_back(s.begin(), s.end());
    storage.back().push_back('\0');
    ptrs.push_back(storage.back().data());
  }
  return Args(static_cast<int>(ptrs.size()), ptrs.data());
}

TEST(Args, EqualsForm) {
  Args a = make_args({"prog", "--runs=500", "--seed=7"});
  EXPECT_EQ(a.get_int("runs", 100), 500);
  EXPECT_EQ(a.get_int("seed", 1), 7);
}

TEST(Args, SpaceForm) {
  Args a = make_args({"prog", "--runs", "250"});
  EXPECT_EQ(a.get_int("runs", 100), 250);
}

TEST(Args, BareFlagIsTrue) {
  Args a = make_args({"prog", "--verbose"});
  EXPECT_TRUE(a.get_bool("verbose", false));
  EXPECT_FALSE(a.get_bool("quiet", false));
}

TEST(Args, DefaultsWhenAbsent) {
  Args a = make_args({"prog"});
  EXPECT_EQ(a.get("name", "dflt"), "dflt");
  EXPECT_EQ(a.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(a.get_double("x", 2.5), 2.5);
}

TEST(Args, DoubleParsing) {
  Args a = make_args({"prog", "--rate=0.125"});
  EXPECT_DOUBLE_EQ(a.get_double("rate", 0), 0.125);
}

TEST(Args, Positional) {
  Args a = make_args({"prog", "input.txt", "--k=3", "output.txt"});
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "input.txt");
  EXPECT_EQ(a.positional()[1], "output.txt");
  EXPECT_EQ(a.get_int("k", 0), 3);
}

TEST(Args, BoolSpellings) {
  Args a = make_args({"prog", "--a=true", "--b=1", "--c=yes", "--d=false",
                      "--e=0"});
  EXPECT_TRUE(a.get_bool("a", false));
  EXPECT_TRUE(a.get_bool("b", false));
  EXPECT_TRUE(a.get_bool("c", false));
  EXPECT_FALSE(a.get_bool("d", true));
  EXPECT_FALSE(a.get_bool("e", true));
}

TEST(Args, HasAndProgram) {
  Args a = make_args({"my_bench", "--x=1"});
  EXPECT_TRUE(a.has("x"));
  EXPECT_FALSE(a.has("y"));
  EXPECT_EQ(a.program(), "my_bench");
}

TEST(Args, FlagFollowedByFlagDoesNotConsume) {
  Args a = make_args({"prog", "--flag", "--runs=5"});
  EXPECT_TRUE(a.get_bool("flag", false));
  EXPECT_EQ(a.get_int("runs", 0), 5);
}

TEST(Args, NegativeAndExponentNumbers) {
  Args a = make_args({"prog", "--offset=-3", "--rate=1e-2"});
  EXPECT_EQ(a.get_int("offset", 0), -3);
  EXPECT_DOUBLE_EQ(a.get_double("rate", 0), 0.01);
}

TEST(Args, PartialIntegerThrows) {
  Args a = make_args({"prog", "--seed=1x", "--runs=", "--n=2.5", "--k=abc"});
  EXPECT_THROW(a.get_int("seed", 0), std::invalid_argument);
  EXPECT_THROW(a.get_int("runs", 0), std::invalid_argument);
  EXPECT_THROW(a.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(a.get_int("k", 0), std::invalid_argument);
}

TEST(Args, PartialDoubleThrows) {
  Args a = make_args({"prog", "--rate=0.5s", "--ttl=", "--x= 1"});
  EXPECT_THROW(a.get_double("rate", 0), std::invalid_argument);
  EXPECT_THROW(a.get_double("ttl", 0), std::invalid_argument);
  EXPECT_THROW(a.get_double("x", 0), std::invalid_argument);
}

TEST(Args, BareFlagIsNotANumber) {
  Args a = make_args({"prog", "--runs"});
  EXPECT_THROW(a.get_int("runs", 1), std::invalid_argument);
}

TEST(Args, PartialNumberMessageNamesFlagAndValue) {
  Args a = make_args({"prog", "--seed=1x"});
  try {
    a.get_int("seed", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--seed"), std::string::npos) << what;
    EXPECT_NE(what.find("1x"), std::string::npos) << what;
  }
}

TEST(Args, UnsignedParsing) {
  Args a = make_args({"prog", "--runs=40", "--seed=18446744073709551615"});
  EXPECT_EQ(a.get_uint("runs", 200), 40u);
  EXPECT_EQ(a.get_uint("seed", 1), 18446744073709551615u);
  EXPECT_EQ(a.get_uint("threads", 0), 0u);
}

TEST(Args, NegativeUnsignedThrows) {
  Args a = make_args({"prog", "--runs=-1", "--threads=-4", "--n=-0"});
  EXPECT_THROW(a.get_uint("runs", 0), std::invalid_argument);
  EXPECT_THROW(a.get_uint("threads", 0), std::invalid_argument);
  EXPECT_THROW(a.get_uint("n", 0), std::invalid_argument);
  try {
    a.get_uint("runs", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--runs"), std::string::npos) << what;
    EXPECT_NE(what.find("-1"), std::string::npos) << what;
  }
}

TEST(Args, PartialOrOverflowingUnsignedThrows) {
  Args a = make_args({"prog", "--seed=1x", "--runs=", "--n=2.5", "--k=+3",
                      "--big=18446744073709551616", "--flag"});
  EXPECT_THROW(a.get_uint("seed", 0), std::invalid_argument);
  EXPECT_THROW(a.get_uint("runs", 0), std::invalid_argument);
  EXPECT_THROW(a.get_uint("n", 0), std::invalid_argument);
  EXPECT_THROW(a.get_uint("k", 0), std::invalid_argument);
  EXPECT_THROW(a.get_uint("big", 0), std::invalid_argument);
  EXPECT_THROW(a.get_uint("flag", 0), std::invalid_argument);
}

}  // namespace
}  // namespace odtn::util
