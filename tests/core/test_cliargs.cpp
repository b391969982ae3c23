#include "core/cliargs.h"

#include <gtest/gtest.h>

#include "core/surrogate.h"

namespace wlansim::core {
namespace {

CliArgs parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return CliArgs::parse(static_cast<int>(v.size()), v.data(), 0);
}

TEST(CliArgs, ParsesKeyValuePairs) {
  const CliArgs a = parse({"--rate", "24", "--snr", "18.5", "--csv", "x.csv"});
  EXPECT_EQ(a.get_long("rate", 0), 24);
  EXPECT_DOUBLE_EQ(a.get_double("snr", 0.0), 18.5);
  EXPECT_EQ(a.get_string("csv", ""), "x.csv");
}

TEST(CliArgs, FallbacksWhenAbsent) {
  const CliArgs a = parse({"--rate", "6"});
  EXPECT_EQ(a.get_long("packets", 20), 20);
  EXPECT_DOUBLE_EQ(a.get_double("snr", 25.0), 25.0);
  EXPECT_EQ(a.get_string("csv", "none"), "none");
  EXPECT_FALSE(a.get_bool("verbose"));
}

TEST(CliArgs, BooleanFlags) {
  const CliArgs a = parse({"--no-snr", "--rate", "12", "--quiet"});
  EXPECT_TRUE(a.get_bool("no-snr"));
  EXPECT_TRUE(a.get_bool("quiet"));
  EXPECT_EQ(a.get_long("rate", 0), 12);
}

TEST(CliArgs, NegativeNumbersAreValues) {
  const CliArgs a = parse({"--power-dbm", "-65", "--p1db", "-20.5"});
  EXPECT_DOUBLE_EQ(a.get_double("power-dbm", 0.0), -65.0);
  EXPECT_DOUBLE_EQ(a.get_double("p1db", 0.0), -20.5);
}

TEST(CliArgs, RejectsMalformedInput) {
  EXPECT_THROW(parse({"rate", "24"}), std::invalid_argument);
  EXPECT_THROW(parse({"--rate", "24", "--rate", "6"}), std::invalid_argument);
  EXPECT_THROW(parse({"--"}), std::invalid_argument);
}

TEST(CliArgs, RejectsBadNumbers) {
  const CliArgs a = parse({"--rate", "abc", "--snr", "1.5x"});
  EXPECT_THROW(a.get_long("rate", 0), std::invalid_argument);
  EXPECT_THROW(a.get_double("snr", 0.0), std::invalid_argument);
}

TEST(CliArgs, TracksUnusedKeys) {
  const CliArgs a = parse({"--rate", "24", "--typo-key", "5"});
  EXPECT_EQ(a.get_long("rate", 0), 24);
  const auto unused = a.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo-key");
}

TEST(CliArgs, CountsRejectNegativeAndBelowMinimum) {
  const CliArgs a = parse({"--packets", "-1", "--threads", "0", "--frames",
                           "0", "--stations", "x"});
  EXPECT_THROW(a.get_count("packets", 20, 1), std::invalid_argument);
  EXPECT_EQ(a.get_count("threads", 4, 0), 0u);  // 0 = shared pool
  EXPECT_THROW(a.get_count("frames", 20, 1), std::invalid_argument);
  EXPECT_THROW(a.get_count("stations", 100, 0), std::invalid_argument);
  EXPECT_EQ(a.get_count("absent", 7, 1), 7u);
  try {
    (void)a.get_count("packets", 20, 1);
    FAIL() << "negative count accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--packets"), std::string::npos)
        << e.what();
  }
}

TEST(StoppingRuleFromArgs, RejectsNegativeCounts) {
  // Wrapped to ~2^64 these used to mean "run forever".
  for (const char* flag : {"max-packets", "min-packets", "min-errors"}) {
    const CliArgs a = parse({(std::string("--") + flag).c_str(), "-8"});
    EXPECT_THROW((void)stopping_rule_from_args(a), std::invalid_argument)
        << flag;
  }
  EXPECT_THROW((void)stopping_rule_from_args(parse({"--max-packets", "0"})),
               std::invalid_argument);
}

TEST(StoppingRuleFromArgs, RejectsMaxPacketsBelowMinPackets) {
  // The default min_packets is 8.
  EXPECT_THROW((void)stopping_rule_from_args(parse({"--max-packets", "4"})),
               std::invalid_argument);
  EXPECT_THROW((void)stopping_rule_from_args(
                   parse({"--min-packets", "16", "--max-packets", "15"})),
               std::invalid_argument);
  const auto rule = stopping_rule_from_args(
      parse({"--min-packets", "4", "--max-packets", "4"}));
  ASSERT_TRUE(rule.has_value());
  EXPECT_EQ(rule->max_packets, 4u);
}

TEST(StoppingRuleFromArgs, RejectsNegativeOrNonFiniteTargetCi) {
  for (const char* v : {"-0.1", "nan", "inf"}) {
    const CliArgs a = parse({"--target-ci", v});
    EXPECT_THROW((void)stopping_rule_from_args(a), std::invalid_argument)
        << v;
  }
  // 0 stays the explicit fixed budget.
  const auto rule = stopping_rule_from_args(parse({"--target-ci", "0"}));
  ASSERT_TRUE(rule.has_value());
  EXPECT_EQ(rule->target_rel_ci, 0.0);
}

TEST(StoppingRuleFromArgs, AbsentWithoutAnyAdaptiveFlag) {
  const CliArgs a = parse({"--rate", "24", "--snr", "18"});
  EXPECT_FALSE(stopping_rule_from_args(a).has_value());
}

TEST(StoppingRuleFromArgs, AnySingleFlagEnablesWithSharedDefaults) {
  for (const char* flag : {"target-ci", "min-errors", "max-packets",
                           "min-packets"}) {
    const CliArgs a = parse({(std::string("--") + flag).c_str(), "12"});
    const auto rule = stopping_rule_from_args(a);
    ASSERT_TRUE(rule.has_value()) << flag;
  }
  const CliArgs a = parse({"--target-ci", "0.2"});
  const auto rule = stopping_rule_from_args(a);
  ASSERT_TRUE(rule.has_value());
  EXPECT_DOUBLE_EQ(rule->target_rel_ci, 0.2);
  EXPECT_EQ(rule->min_errors, 100u);
  EXPECT_EQ(rule->min_packets, 8u);
  EXPECT_EQ(rule->max_packets, 10000u);
}

TEST(StoppingRuleFromArgs, AllFieldsParse) {
  const CliArgs a = parse({"--target-ci", "0.3", "--min-errors", "7",
                           "--min-packets", "4", "--max-packets", "64"});
  const auto rule = stopping_rule_from_args(a);
  ASSERT_TRUE(rule.has_value());
  EXPECT_DOUBLE_EQ(rule->target_rel_ci, 0.3);
  EXPECT_EQ(rule->min_errors, 7u);
  EXPECT_EQ(rule->min_packets, 4u);
  EXPECT_EQ(rule->max_packets, 64u);
}

TEST(SurrogateOptionsFromArgs, WiresDirAxisRuleAndThreads) {
  const CliArgs a = parse({"--calib-dir", "/tmp/x", "--target-ci", "0.25"});
  const auto rule = stopping_rule_from_args(a);
  const SurrogateOptions opts = surrogate_options_from_args(
      a, sim::SurrogateAxis::kRxPowerDbm, rule, 3);
  EXPECT_EQ(opts.store_dir, std::filesystem::path("/tmp/x"));
  EXPECT_EQ(opts.axis, sim::SurrogateAxis::kRxPowerDbm);
  EXPECT_DOUBLE_EQ(opts.rule.target_rel_ci, 0.25);
  EXPECT_EQ(opts.threads, 3u);

  // No --calib-dir: the default-store sentinel (empty path) survives.
  const CliArgs b = parse({"--rate", "24"});
  const SurrogateOptions defaults = surrogate_options_from_args(
      b, sim::SurrogateAxis::kSnrDb, std::nullopt, 0);
  EXPECT_TRUE(defaults.store_dir.empty());
  EXPECT_DOUBLE_EQ(defaults.rule.target_rel_ci,
                   sim::StoppingRule{}.target_rel_ci);
}

}  // namespace
}  // namespace wlansim::core
