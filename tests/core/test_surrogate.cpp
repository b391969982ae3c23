// Surrogate-backed BER evaluation (core/surrogate.h): fingerprint keying,
// the cold-path bit-identity contract (fallback MC == direct adaptive
// sweep), store backfill/warm hits, and the per-call store view that
// re-observes deleted files. The single-curve surrogate sweep is
// sweep_ber_deduped at bin width 0.
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>

#include "ber_expect.h"
#include "core/experiments.h"
#include "core/fingerprint.h"
#include "core/parallel.h"
#include "core/surrogate.h"

namespace wlansim::core {
namespace {

namespace fs = std::filesystem;

fs::path test_store(const char* name) {
  fs::path dir = fs::path(::testing::TempDir()) / "wlansim-surrtest" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

LinkConfig cheap_config(double snr) {
  LinkConfig cfg = default_link_config();
  cfg.psdu_bytes = 60;
  cfg.snr_db = snr;
  return cfg;
}

std::vector<LinkConfig> waterfall(std::initializer_list<double> snrs) {
  std::vector<LinkConfig> points;
  for (const double snr : snrs) points.push_back(cheap_config(snr));
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

/// Un-quantized surrogate queries against `dir`.
DedupOptions opts_with(const fs::path& dir) {
  DedupOptions opts;
  opts.surrogate.store_dir = dir;
  opts.surrogate.rule = small_rule();
  opts.bin_width_db = 0.0;
  return opts;
}

BerResult query(const LinkConfig& cfg, const DedupOptions& opts,
                DedupStats* stats = nullptr) {
  return sweep_ber_deduped({&cfg, 1}, opts, stats)[0];
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

TEST(SurrogateFingerprint, InvariantAlongAxisOnly) {
  const std::string key10 =
      surrogate_fingerprint(cheap_config(10.0), sim::SurrogateAxis::kSnrDb);
  const std::string key14 =
      surrogate_fingerprint(cheap_config(14.0), sim::SurrogateAxis::kSnrDb);
  ASSERT_FALSE(key10.empty());
  // The whole point of the curve key: sweep points share it.
  EXPECT_EQ(key10, key14);

  // Any front-end or framing field forces a different curve.
  LinkConfig hot = cheap_config(10.0);
  hot.rf.lna_p1db_in_dbm -= 10.0;
  EXPECT_NE(surrogate_fingerprint(hot, sim::SurrogateAxis::kSnrDb), key10);
  LinkConfig big = cheap_config(10.0);
  big.psdu_bytes = 61;
  EXPECT_NE(surrogate_fingerprint(big, sim::SurrogateAxis::kSnrDb), key10);

  // But the plain link fingerprint DOES see the axis value (sanity: the
  // canonicalization is specific to the surrogate key).
  EXPECT_NE(link_fingerprint(cheap_config(10.0)),
            link_fingerprint(cheap_config(14.0)));
}

TEST(SurrogateFingerprint, AxisTagSeparatesCurveFamilies) {
  LinkConfig cfg = cheap_config(10.0);
  cfg.rx_power_dbm = -60.0;
  const std::string snr_key =
      surrogate_fingerprint(cfg, sim::SurrogateAxis::kSnrDb);
  const std::string pwr_key =
      surrogate_fingerprint(cfg, sim::SurrogateAxis::kRxPowerDbm);
  ASSERT_FALSE(snr_key.empty());
  ASSERT_FALSE(pwr_key.empty());
  // Same config, different swept axis: different curve, even though the
  // canonicalized field values could coincide.
  EXPECT_NE(snr_key, pwr_key);

  // And the power-axis key is invariant along power.
  LinkConfig quieter = cfg;
  quieter.rx_power_dbm = -80.0;
  EXPECT_EQ(surrogate_fingerprint(quieter, sim::SurrogateAxis::kRxPowerDbm),
            pwr_key);
}

TEST(SurrogateFingerprint, UnsetAxisValueIsNotFingerprintable) {
  LinkConfig cfg = cheap_config(10.0);
  cfg.snr_db.reset();
  EXPECT_TRUE(surrogate_fingerprint(cfg, sim::SurrogateAxis::kSnrDb).empty());
}

// ---------------------------------------------------------------------------
// Sweep drivers
// ---------------------------------------------------------------------------

TEST(SurrogateSweep, ColdFallbackBitIdenticalToAdaptiveSweep) {
  const DedupOptions opts = opts_with(test_store("cold"));
  const auto points = waterfall({10.0, 11.0, 12.0});

  const auto surr = sweep_ber_deduped(points, opts);
  const auto direct = sweep_ber_adaptive(points, opts.surrogate.rule);
  ASSERT_EQ(surr.size(), direct.size());
  for (std::size_t k = 0; k < surr.size(); ++k) {
    SCOPED_TRACE("point " + std::to_string(k));
    EXPECT_FALSE(surr[k].from_surrogate);  // store was cold: this IS the MC
    expect_same_ber(surr[k], direct[k]);
  }
}

TEST(SurrogateSweep, BackfillWarmsTheStore) {
  const DedupOptions opts = opts_with(test_store("warm"));
  const auto points = waterfall({10.0, 11.0, 12.0});

  const auto cold = sweep_ber_deduped(points, opts);
  const auto warm = sweep_ber_deduped(points, opts);
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t k = 0; k < warm.size(); ++k) {
    SCOPED_TRACE("point " + std::to_string(k));
    EXPECT_TRUE(warm[k].from_surrogate);
    EXPECT_EQ(warm[k].packets, 0u);  // no packets were simulated
    // Knot queries return the stored measurement exactly, so the warm
    // answer equals the cold MC answer bit for bit.
    EXPECT_EQ(warm[k].ber(), cold[k].ber());
    EXPECT_EQ(warm[k].per(), cold[k].per());
    EXPECT_EQ(warm[k].ber_ci_rel, cold[k].ber_ci_rel);
    EXPECT_EQ(warm[k].evm_rms_avg, cold[k].evm_rms_avg);
  }
}

TEST(SurrogateSweep, InterpolatedPointRidesTheCurve) {
  const DedupOptions opts = opts_with(test_store("interp"));
  (void)sweep_ber_deduped(waterfall({10.0, 11.0}), opts);

  const BerResult mid = query(cheap_config(10.5), opts);
  EXPECT_TRUE(mid.from_surrogate);
  const BerResult lo = query(cheap_config(10.0), opts);
  const BerResult hi = query(cheap_config(11.0), opts);
  // Monotone interpolation: the midpoint BER sits between its knots.
  EXPECT_LE(mid.ber(), std::max(lo.ber(), hi.ber()));
  EXPECT_GE(mid.ber(), std::min(lo.ber(), hi.ber()));
  // Conservative CI: no tighter than the looser bracketing knot.
  EXPECT_EQ(mid.ber_ci_rel, std::max(lo.ber_ci_rel, hi.ber_ci_rel));
}

TEST(SurrogateSweep, DeletedStoreIsObservedAndRefilledIdentically) {
  const fs::path dir = test_store("deleted");
  const DedupOptions opts = opts_with(dir);
  const auto points = waterfall({10.0, 11.0});

  const auto first = sweep_ber_deduped(points, opts);
  // Nuke the store mid-run (e.g. a cache janitor). The default per-call
  // store view must observe the deletion as a miss...
  fs::remove_all(dir);
  const auto refilled = sweep_ber_deduped(points, opts);
  ASSERT_EQ(refilled.size(), first.size());
  for (std::size_t k = 0; k < refilled.size(); ++k) {
    SCOPED_TRACE("point " + std::to_string(k));
    EXPECT_FALSE(refilled[k].from_surrogate);
    // ...and the fallback MC is a pure function of (config, rule), so the
    // re-measurement is bit-identical to the original cold run.
    expect_same_ber(refilled[k], first[k]);
  }
  // And the backfill re-warmed the store.
  EXPECT_TRUE(query(points[0], opts).from_surrogate);
}

TEST(SurrogateSweep, PersistentCacheOptsOutOfPerCallView) {
  const fs::path dir = test_store("cached");
  DedupOptions opts = opts_with(dir);
  sim::BerSurrogate cache{sim::CalibrationStore(dir)};
  opts.surrogate.cache = &cache;

  const auto points = waterfall({10.0, 11.0});
  (void)sweep_ber_deduped(points, opts);
  fs::remove_all(dir);
  // The long-lived cache still answers from memory — the documented
  // trade-off of SurrogateOptions::cache.
  const auto res = sweep_ber_deduped(points, opts);
  for (const BerResult& r : res) EXPECT_TRUE(r.from_surrogate);
}

TEST(SurrogateSweep, RuleMismatchIsAMiss) {
  const fs::path dir = test_store("rulemiss");
  DedupOptions opts = opts_with(dir);
  (void)sweep_ber_deduped(waterfall({10.0}), opts);
  ASSERT_TRUE(query(cheap_config(10.0), opts).from_surrogate);

  // A different stopping rule makes different CI claims: the stored curve
  // must not answer for it.
  DedupOptions tighter = opts;
  tighter.surrogate.rule.target_rel_ci = 0.10;
  tighter.surrogate.rule.max_packets = 48;
  const BerResult r = query(cheap_config(10.0), tighter);
  EXPECT_FALSE(r.from_surrogate);
  expect_same_ber(r, run_ber_adaptive(cheap_config(10.0),
                                      tighter.surrogate.rule));
}

TEST(SurrogateSweep, EmptySweepIsEmpty) {
  EXPECT_TRUE(sweep_ber_deduped({}, opts_with(test_store("empty"))).empty());
}

// ---------------------------------------------------------------------------
// calibrate_ber_surrogate
// ---------------------------------------------------------------------------

TEST(Calibrate, GridKnotsLandOnStepMultiplesAndAnswerExactly) {
  DedupOptions query_opts = opts_with(test_store("grid"));
  SurrogateOptions& opts = query_opts.surrogate;
  opts.grid_step = 1.0;
  opts.grid_pad = 0.0;

  const LinkConfig base = cheap_config(10.0);
  const sim::CalibrationCurve curve =
      calibrate_ber_surrogate(base, 10.0, 12.0, opts);
  ASSERT_EQ(curve.points.size(), 3u);
  EXPECT_DOUBLE_EQ(curve.points[0].x, 10.0);
  EXPECT_DOUBLE_EQ(curve.points[2].x, 12.0);
  EXPECT_TRUE(curve.covers(11.5));

  // Every knot is an adaptive-MC measurement: querying it through the
  // store (no Monte-Carlo packets) must reproduce the direct measurement
  // exactly.
  DedupStats stats;
  const BerResult s = query(cheap_config(11.0), query_opts, &stats);
  const BerResult mc = run_ber_adaptive(cheap_config(11.0), opts.rule);
  EXPECT_EQ(stats.cold, 0u);
  EXPECT_TRUE(s.from_surrogate);
  EXPECT_EQ(s.ber(), mc.ber());
  EXPECT_EQ(s.per(), mc.per());
  EXPECT_EQ(s.ber_ci_rel, mc.ber_ci_rel);
}

TEST(Calibrate, ExtendsAnExistingCurveInsteadOfRemeasuring) {
  SurrogateOptions opts = opts_with(test_store("extend")).surrogate;
  opts.grid_step = 1.0;
  opts.grid_pad = 0.0;
  const LinkConfig base = cheap_config(10.0);

  const auto first = calibrate_ber_surrogate(base, 10.0, 11.0, opts);
  ASSERT_EQ(first.points.size(), 2u);
  const auto extended = calibrate_ber_surrogate(base, 10.0, 13.0, opts);
  ASSERT_EQ(extended.points.size(), 4u);
  // Shared knots kept their original measurements bit for bit.
  EXPECT_EQ(extended.points[0].ber, first.points[0].ber);
  EXPECT_EQ(extended.points[1].ber, first.points[1].ber);
  EXPECT_EQ(extended.points[0].bits, first.points[0].bits);
}

TEST(Calibrate, RejectsBadInput) {
  SurrogateOptions opts = opts_with(test_store("badcal")).surrogate;
  const LinkConfig base = cheap_config(10.0);
  opts.grid_step = 0.0;
  EXPECT_THROW((void)calibrate_ber_surrogate(base, 10.0, 12.0, opts),
               std::invalid_argument);
  opts.grid_step = 1.0;
  EXPECT_THROW((void)calibrate_ber_surrogate(base, 12.0, 10.0, opts),
               std::invalid_argument);
}

}  // namespace
}  // namespace wlansim::core
