// Strict numeric CLI parsing: std::atof/atoll silently returned 0 on
// garbage, so "--epochs ten" trained for 0 epochs and "--epochs -3"
// wrapped to a huge std::size_t.  Bad numeric input must be a usage
// error (exit code 2), never a silent default.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "../tools/cli.hpp"

namespace {

using rnx::cli::Args;
using rnx::cli::parse_double;
using rnx::cli::parse_size;

TEST(CliParse, DoubleAcceptsNumbers) {
  EXPECT_EQ(parse_double("1.5"), 1.5);
  EXPECT_EQ(parse_double("2e-3"), 2e-3);
  EXPECT_EQ(parse_double("-0.25"), -0.25);
  EXPECT_EQ(parse_double("42"), 42.0);
}

TEST(CliParse, DoubleRejectsGarbage) {
  EXPECT_EQ(parse_double(""), std::nullopt);
  EXPECT_EQ(parse_double("ten"), std::nullopt);
  EXPECT_EQ(parse_double("1.5x"), std::nullopt);
  EXPECT_EQ(parse_double("1.5 "), std::nullopt);
  EXPECT_EQ(parse_double("nan"), std::nullopt);
  EXPECT_EQ(parse_double("inf"), std::nullopt);
  EXPECT_EQ(parse_double("1e999"), std::nullopt);  // overflow
}

TEST(CliParse, SizeAcceptsCounts) {
  EXPECT_EQ(parse_size("0"), std::size_t{0});
  EXPECT_EQ(parse_size("42"), std::size_t{42});
  EXPECT_EQ(parse_size("100000"), std::size_t{100000});
}

TEST(CliParse, SizeRejectsGarbageSignsAndOverflow) {
  EXPECT_EQ(parse_size(""), std::nullopt);
  EXPECT_EQ(parse_size("ten"), std::nullopt);
  EXPECT_EQ(parse_size("3.5"), std::nullopt);
  EXPECT_EQ(parse_size("10x"), std::nullopt);
  EXPECT_EQ(parse_size("-3"), std::nullopt);  // must not wrap to 2^64-3
  EXPECT_EQ(parse_size("+3"), std::nullopt);
  EXPECT_EQ(parse_size("99999999999999999999"), std::nullopt);  // overflow
}

// -- Args end-to-end: bad values exit with code 2 ------------------------

Args make_args(std::vector<std::string> argv_strings) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("tool"));
  for (auto& s : argv_strings) argv.push_back(s.data());
  return Args(static_cast<int>(argv.size()), argv.data(),
              {"epochs", "lr", "out", "max-batch"},
              "usage: tool [options]");
}

TEST(CliArgs, ValidValuesParse) {
  std::vector<std::string> raw = {"--epochs", "12", "--lr=0.5"};
  const Args args = make_args(raw);
  EXPECT_EQ(args.get("epochs", std::size_t{1}), 12u);
  EXPECT_EQ(args.get("lr", 0.1), 0.5);
  EXPECT_EQ(args.get("out", std::string("d")), "d");  // fallback untouched
}

TEST(CliArgsDeathTest, NonNumericValueExits2) {
  const Args args = make_args({"--epochs", "ten"});
  EXPECT_EXIT((void)args.get("epochs", std::size_t{1}),
              ::testing::ExitedWithCode(2), "invalid value for --epochs");
}

TEST(CliArgsDeathTest, NegativeCountExits2) {
  const Args args = make_args({"--epochs", "-3"});
  EXPECT_EXIT((void)args.get("epochs", std::size_t{1}),
              ::testing::ExitedWithCode(2), "non-negative");
}

TEST(CliArgsDeathTest, NonNumericDoubleExits2) {
  const Args args = make_args({"--lr", "fast"});
  EXPECT_EXIT((void)args.get("lr", 0.1), ::testing::ExitedWithCode(2),
              "invalid value for --lr");
}

TEST(CliArgsDeathTest, UnknownFlagExits2) {
  EXPECT_EXIT((void)make_args({"--typo", "1"}),
              ::testing::ExitedWithCode(2), "unknown flag");
}

// -- get_positive: the rnx_serve sizing-flag contract ---------------------
// A micro-batch bound of zero could never form a batch and a negative one
// would wrap; both are usage errors (exit 2), matching how rnx_serve
// parses --max-batch, --queue-depth and --clients.

TEST(CliArgs, PositiveValueParses) {
  const Args args = make_args({"--max-batch", "64"});
  EXPECT_EQ(args.get_positive("max-batch", std::size_t{1}), 64u);
  // Absent flag falls back without tripping the zero check.
  EXPECT_EQ(args.get_positive("epochs", std::size_t{7}), 7u);
}

TEST(CliArgsDeathTest, ZeroMaxBatchExits2) {
  const Args args = make_args({"--max-batch", "0"});
  EXPECT_EXIT((void)args.get_positive("max-batch", std::size_t{16}),
              ::testing::ExitedWithCode(2), "positive integer");
}

TEST(CliArgsDeathTest, NegativeMaxBatchExits2) {
  const Args args = make_args({"--max-batch", "-16"});
  EXPECT_EXIT((void)args.get_positive("max-batch", std::size_t{16}),
              ::testing::ExitedWithCode(2), "non-negative");
}

}  // namespace
