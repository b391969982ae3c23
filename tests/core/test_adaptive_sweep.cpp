// The adaptive Monte-Carlo engine's determinism contract (core/parallel.h):
// results are a pure function of (configs, rule) — independent of thread
// count, scheduling, wave sizing, and TX-scene memoization — and with the
// CI test disabled every point is bit-identical to the serial
// WlanLink::run_ber over the fixed budget.
#include <gtest/gtest.h>

#include "ber_expect.h"
#include "core/experiments.h"
#include "core/parallel.h"

namespace wlansim::core {
namespace {

std::vector<LinkConfig> waterfall(std::initializer_list<double> snrs) {
  LinkConfig base = default_link_config();
  base.psdu_bytes = 60;
  std::vector<LinkConfig> points;
  for (const double snr : snrs) {
    LinkConfig c = base;
    c.snr_db = snr;
    points.push_back(c);
  }
  return points;
}

sim::StoppingRule small_rule() {
  sim::StoppingRule rule;
  rule.target_rel_ci = 0.35;
  rule.min_errors = 25;
  rule.min_packets = 8;
  rule.max_packets = 40;
  return rule;
}

TEST(AdaptiveSweep, FixedBudgetBitIdenticalToRunBer) {
  const auto points = waterfall({14.0, 18.0, 24.0});
  const sim::StoppingRule fixed = sim::fixed_budget(18);  // CI test off
  std::vector<BerResult> reference;
  for (const LinkConfig& cfg : points)
    reference.push_back(WlanLink(cfg).run_ber(18));

  for (const std::size_t threads : {1u, 2u, 8u, 64u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto adaptive =
        sweep_ber_adaptive(points, fixed, {.threads = threads});
    ASSERT_EQ(adaptive.size(), reference.size());
    for (std::size_t k = 0; k < adaptive.size(); ++k) {
      SCOPED_TRACE("point " + std::to_string(k));
      // Both fill the CI stat from identical counters at the same default
      // confidence, so even the derived field matches; a fixed budget
      // never reports converged.
      expect_same_ber(adaptive[k], reference[k]);
    }
  }
}

TEST(AdaptiveSweep, ThreadCountInvariance) {
  const auto points = waterfall({12.0, 16.0, 30.0});
  const sim::StoppingRule rule = small_rule();

  SweepOptions opts1;
  opts1.threads = 1;
  const auto ref = sweep_ber_adaptive(points, rule, opts1);
  ASSERT_EQ(ref.size(), points.size());
  for (const std::size_t threads : {2u, 8u, 64u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto got = sweep_ber_adaptive(points, rule, {.threads = threads});
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      SCOPED_TRACE("point " + std::to_string(k));
      expect_same_ber(got[k], ref[k]);
    }
  }
}

TEST(AdaptiveSweep, MemoizationInvariance) {
  const auto points = waterfall({12.0, 16.0, 30.0});
  const sim::StoppingRule rule = small_rule();

  // Memoized: one sweep sharing TX scenes. Unmemoized: one-point sweeps.
  const auto memo = sweep_ber_adaptive(points, rule, {.threads = 2});
  ASSERT_EQ(memo.size(), points.size());
  for (std::size_t k = 0; k < points.size(); ++k) {
    SCOPED_TRACE("point " + std::to_string(k));
    expect_same_ber(memo[k], run_ber_adaptive(points[k], rule, 2));
  }
}

TEST(AdaptiveSweep, StopIndexIsPrefixRuleDecision) {
  // A noisy point must stop early (plenty of errors -> CI converges) at a
  // quantum boundary; a clean point never collects min_errors and runs to
  // the cap.
  const auto points = waterfall({10.0, 35.0});
  const sim::StoppingRule rule = small_rule();
  const auto got = sweep_ber_adaptive(points, rule);
  ASSERT_EQ(got.size(), 2u);

  EXPECT_TRUE(got[0].converged);
  EXPECT_LT(got[0].packets, rule.max_packets);
  EXPECT_EQ(got[0].packets % 8, 0u);
  EXPECT_GE(got[0].packets, rule.min_packets);
  EXPECT_GE(got[0].bit_errors, rule.min_errors);
  EXPECT_LE(got[0].ber_ci_rel, rule.target_rel_ci);

  EXPECT_FALSE(got[1].converged);
  EXPECT_EQ(got[1].packets, rule.max_packets);

  // The prefix decision replays exactly on the single-point engine.
  const BerResult single = run_ber_adaptive(points[0], rule);
  expect_same_ber(single, got[0]);
}

TEST(AdaptiveSweep, SinglePointMatchesSerialPrefix) {
  // The stop index consumed the in-order packet prefix, so rerunning that
  // many packets serially must reproduce every counter bit for bit.
  LinkConfig cfg = default_link_config();
  cfg.psdu_bytes = 60;
  cfg.snr_db = 12.0;
  const sim::StoppingRule rule = small_rule();
  const BerResult adaptive = run_ber_adaptive(cfg, rule, 2);
  WlanLink link(cfg);
  BerResult serial = link.run_ber(adaptive.packets);
  serial.converged = adaptive.converged;  // the rule's verdict, not a count
  expect_same_ber(adaptive, serial);
}

TEST(AdaptiveSweep, RejectsZeroCap) {
  const sim::StoppingRule bad{.max_packets = 0};
  LinkConfig cfg = default_link_config();
  EXPECT_THROW((void)run_ber_adaptive(cfg, bad), std::invalid_argument);
}

}  // namespace
}  // namespace wlansim::core
