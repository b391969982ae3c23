// Wire-protocol round trips: LinkConfig, StoppingRule, and BerResult must
// survive JSON serialization bit-exactly (the daemon's determinism
// contract), and the request/response envelopes must parse back to what
// was sent.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/experiments.h"
#include "core/fingerprint.h"
#include "service/protocol.h"

namespace wlansim::service {
namespace {

core::LinkConfig fancy_link() {
  core::LinkConfig cfg = core::default_link_config();
  cfg.rate = phy::Rate::kMbps36;
  cfg.psdu_bytes = 123;
  cfg.rx_power_dbm = -61.25;
  cfg.snr_db = 17.125;
  cfg.rf_engine = core::RfEngine::kSystemLevel;
  cfg.rf.lna_p1db_in_dbm = -19.5;
  cfg.rf.bb_bandwidth_factor = 1.0 / 3.0;
  cfg.sco_ppm = 13.7;
  cfg.interferer =
      channel::InterfererConfig{.offset_hz = 20e6, .level_db = 16.0};
  cfg.seed = (1ull << 62) + 12345;  // not representable as a double
  return cfg;
}

TEST(ServiceProtocol, LinkRoundTripPreservesTheFingerprint) {
  const core::LinkConfig cfg = fancy_link();
  const core::LinkConfig back = link_from_json(link_to_json(cfg));
  // The link fingerprint hashes every evaluation-relevant field; equality
  // means the round trip is evaluation-equivalent.
  EXPECT_EQ(core::link_fingerprint(back), core::link_fingerprint(cfg));
  EXPECT_EQ(back.seed, cfg.seed);
  EXPECT_EQ(back.snr_db, cfg.snr_db);
}

TEST(ServiceProtocol, LinkRoundTripNoSnrNoInterferer) {
  core::LinkConfig cfg = core::default_link_config();
  cfg.snr_db.reset();
  cfg.interferer.reset();
  const core::LinkConfig back = link_from_json(link_to_json(cfg));
  EXPECT_FALSE(back.snr_db.has_value());
  EXPECT_FALSE(back.interferer.has_value());
  EXPECT_EQ(core::link_fingerprint(back), core::link_fingerprint(cfg));
}

TEST(ServiceProtocol, RuleRoundTrip) {
  sim::StoppingRule rule;
  rule.target_rel_ci = 0.07;
  rule.confidence_z = 2.5758;
  rule.min_errors = 250;
  rule.min_packets = 16;
  rule.max_packets = 123456;
  const sim::StoppingRule back = rule_from_json(rule_to_json(rule));
  EXPECT_EQ(back.target_rel_ci, rule.target_rel_ci);
  EXPECT_EQ(back.confidence_z, rule.confidence_z);
  EXPECT_EQ(back.min_errors, rule.min_errors);
  EXPECT_EQ(back.min_packets, rule.min_packets);
  EXPECT_EQ(back.max_packets, rule.max_packets);
}

TEST(ServiceProtocol, ResultRoundTripIsBitExact) {
  core::BerResult r;
  r.packets = 1234;
  r.packets_lost = 3;
  r.packet_errors = 77;
  r.bits = 987654321;
  r.bit_errors = 4242;
  r.evm_rms_avg = 0.123456789012345678;
  r.ber_ci_rel = 1.0 / 3.0;
  r.converged = true;
  r.from_surrogate = true;
  r.model_ber = 1e-5;
  r.model_per = 0.25;
  r.wall_seconds = 1.75;
  const core::BerResult back = result_from_json(result_to_json(r));
  EXPECT_EQ(back.packets, r.packets);
  EXPECT_EQ(back.packets_lost, r.packets_lost);
  EXPECT_EQ(back.packet_errors, r.packet_errors);
  EXPECT_EQ(back.bits, r.bits);
  EXPECT_EQ(back.bit_errors, r.bit_errors);
  EXPECT_EQ(back.evm_rms_avg, r.evm_rms_avg);
  EXPECT_EQ(back.ber_ci_rel, r.ber_ci_rel);
  EXPECT_EQ(back.converged, r.converged);
  EXPECT_EQ(back.from_surrogate, r.from_surrogate);
  EXPECT_EQ(back.model_ber, r.model_ber);
  EXPECT_EQ(back.model_per, r.model_per);
  EXPECT_EQ(back.wall_seconds, r.wall_seconds);
  EXPECT_EQ(back.ber(), r.ber());
  EXPECT_EQ(back.per(), r.per());
}

TEST(ServiceProtocol, ResultRoundTripCarriesInfiniteCi) {
  // Before the first bit error the Wilson relative half-width is +inf;
  // JSON has no infinity token, so it travels as a string.
  core::BerResult r;
  r.packets = 8;
  r.bits = 8000;
  r.ber_ci_rel = std::numeric_limits<double>::infinity();
  const core::BerResult back = result_from_json(result_to_json(r));
  EXPECT_TRUE(std::isinf(back.ber_ci_rel));
  EXPECT_GT(back.ber_ci_rel, 0.0);
}

TEST(ServiceProtocol, SweepValuesMatchesTheCliLoop) {
  const std::vector<double> vals = sweep_values(5.0, 25.0, 2.0);
  // The CLI's own expansion, verbatim.
  std::vector<double> expect;
  for (double v = 5.0; v <= 25.0 + 1e-9; v += 2.0) expect.push_back(v);
  ASSERT_EQ(vals.size(), expect.size());
  for (std::size_t i = 0; i < vals.size(); ++i) EXPECT_EQ(vals[i], expect[i]);
}

TEST(ServiceProtocol, AxisFromParam) {
  EXPECT_EQ(axis_from_param("snr"), sim::SurrogateAxis::kSnrDb);
  EXPECT_EQ(axis_from_param("power"), sim::SurrogateAxis::kRxPowerDbm);
  EXPECT_THROW(axis_from_param("p1db"), std::invalid_argument);
}

TEST(ServiceProtocol, SweepRequestRoundTripAndExpansion) {
  SweepRequest req;
  req.param = "snr";
  req.from = 4.0;
  req.to = 10.0;
  req.step = 3.0;
  req.base = fancy_link();
  req.rule.max_packets = 64;
  req.bin_width_db = 0.5;
  req.use_store = false;
  const SweepRequest back = SweepRequest::from_json(req.to_json());
  EXPECT_EQ(back.param, req.param);
  EXPECT_EQ(back.from, req.from);
  EXPECT_EQ(back.to, req.to);
  EXPECT_EQ(back.step, req.step);
  EXPECT_EQ(back.bin_width_db, req.bin_width_db);
  EXPECT_EQ(back.use_store, req.use_store);
  EXPECT_EQ(back.rule.max_packets, req.rule.max_packets);

  const std::vector<core::LinkConfig> pts = back.expand();
  ASSERT_EQ(pts.size(), 3u);  // 4, 7, 10
  EXPECT_EQ(pts[0].snr_db, 4.0);
  EXPECT_EQ(pts[1].snr_db, 7.0);
  EXPECT_EQ(pts[2].snr_db, 10.0);
  // Expansion must match what the CLI would build from the same base.
  core::LinkConfig manual = fancy_link();
  manual.snr_db = 7.0;
  EXPECT_EQ(core::link_fingerprint(pts[1]), core::link_fingerprint(manual));
}

TEST(ServiceProtocol, EvalRequestRoundTrip) {
  EvalRequest req;
  req.param = "power";
  req.links = {core::default_link_config(), fancy_link()};
  req.rule.max_packets = 48;
  req.bin_width_db = 0.25;
  const EvalRequest back = EvalRequest::from_json(req.to_json());
  ASSERT_EQ(back.links.size(), 2u);
  EXPECT_EQ(back.param, "power");
  EXPECT_EQ(back.bin_width_db, 0.25);
  EXPECT_EQ(core::link_fingerprint(back.links[1]),
            core::link_fingerprint(req.links[1]));
}

TEST(ServiceProtocol, ResultsResponseRoundTrip) {
  core::BerResult r;
  r.packets = 16;
  r.bits = 16000;
  r.bit_errors = 12;
  core::DedupStats stats;
  stats.queries = 2;
  stats.distinct = 1;
  stats.warm = 0;
  stats.cold = 1;
  const Json resp = results_response({7.0, 7.0}, {r, r}, stats);
  const ResultsReply reply = results_reply_from_json(resp);
  ASSERT_EQ(reply.values.size(), 2u);
  ASSERT_EQ(reply.results.size(), 2u);
  EXPECT_EQ(reply.values[0], 7.0);
  EXPECT_EQ(reply.results[1].bit_errors, 12u);
  EXPECT_EQ(reply.stats.queries, 2u);
  EXPECT_EQ(reply.stats.cold, 1u);
}

TEST(ServiceProtocol, ErrorResponseThrowsClientSide) {
  try {
    results_reply_from_json(error_response("store melted"));
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("store melted"), std::string::npos);
  }
}

TEST(ServiceProtocol, MalformedLinkJsonThrows) {
  Json j = Json::object();
  j.set("rate_mbps", Json::number(7.0));  // not a valid 802.11a rate
  EXPECT_THROW(link_from_json(j), std::runtime_error);
}

// --- decode-time range checks ---------------------------------------------
// Values WlanLink or run_drop would only reject later (or never) fail at
// decode with a protocol error, one test per field.

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// `base` with member `key` replaced by `v`.
Json with(Json base, const char* key, Json v) {
  base.set(key, std::move(v));
  return base;
}

Json valid_drop_json() {
  DropRequest req;
  req.cfg.num_stations = 5;
  req.cfg.num_steps = 2;
  req.cfg.link = core::default_link_config();
  return req.to_json();
}

/// A valid drop request whose `section` sub-object has `key` set to `v`.
Json drop_with_nested(const char* section, const char* key, Json v) {
  const Json drop = valid_drop_json();
  return with(drop, section, with(*drop.find(section), key, std::move(v)));
}

TEST(ServiceProtocol, ValidDropJsonDecodes) {
  // The baseline the reject tests mutate, plus the boundary values that
  // stay legal: zero area, zero walk, zero shadowing, and a fixed budget
  // with max_packets == min_packets.
  EXPECT_NO_THROW(DropRequest::from_json(valid_drop_json()));
  Json drop = with(valid_drop_json(), "walk_step_m", Json::number(0.0));
  drop = with(drop, "area_half_m", Json::number(0.0));
  const sim::StoppingRule rule = sim::fixed_budget(8);  // min_packets 8
  drop = with(drop, "rule", rule_to_json(rule));
  EXPECT_NO_THROW(DropRequest::from_json(drop));
  EXPECT_NO_THROW(DropRequest::from_json(
      drop_with_nested("path_loss", "shadowing_sigma_db", Json::number(0.0))));
}

TEST(ServiceProtocol, LinkRejectsPsduOutsideOneTo4095) {
  const Json link = link_to_json(core::default_link_config());
  for (std::uint64_t bytes : {0ull, 4096ull, 1ull << 40}) {
    EXPECT_THROW(
        link_from_json(with(link, "psdu_bytes", Json::number_u64(bytes))),
        std::runtime_error)
        << bytes;
  }
  EXPECT_NO_THROW(
      link_from_json(with(link, "psdu_bytes", Json::number_u64(4095))));
}

TEST(ServiceProtocol, LinkRejectsNonPositiveBandwidthFactor) {
  const Json link = link_to_json(core::default_link_config());
  for (double f : {0.0, -0.5, kInf, kNan}) {
    EXPECT_THROW(
        link_from_json(with(link, "bb_bandwidth_factor", Json::number(f))),
        std::runtime_error)
        << f;
  }
}

TEST(ServiceProtocol, RuleRejectsZeroOrBelowMinMaxPackets) {
  sim::StoppingRule rule;
  rule.min_packets = 16;
  const Json j = rule_to_json(rule);
  EXPECT_THROW(rule_from_json(with(j, "max_packets", Json::number_u64(0))),
               std::runtime_error);
  EXPECT_THROW(rule_from_json(with(j, "max_packets", Json::number_u64(15))),
               std::runtime_error);
  EXPECT_NO_THROW(rule_from_json(with(j, "max_packets", Json::number_u64(16))));
}

TEST(ServiceProtocol, RuleRejectsNegativeOrNonFiniteTargetCi) {
  const Json j = rule_to_json(sim::StoppingRule{});
  for (double v : {-0.1, kInf, kNan}) {
    EXPECT_THROW(rule_from_json(with(j, "target_rel_ci", Json::number(v))),
                 std::runtime_error)
        << v;
  }
}

TEST(ServiceProtocol, RuleRejectsNegativeOrNonFiniteConfidenceZ) {
  const Json j = rule_to_json(sim::StoppingRule{});
  for (double v : {-1.96, kInf, kNan}) {
    EXPECT_THROW(rule_from_json(with(j, "confidence_z", Json::number(v))),
                 std::runtime_error)
        << v;
  }
}

TEST(ServiceProtocol, DropRejectsNegativeOrNonFiniteAreaHalf) {
  for (double v : {-1.0, kInf, kNan}) {
    EXPECT_THROW(DropRequest::from_json(
                     with(valid_drop_json(), "area_half_m", Json::number(v))),
                 std::runtime_error)
        << v;
  }
}

TEST(ServiceProtocol, DropRejectsNegativeOrNonFiniteShadowingSigma) {
  for (double v : {-6.0, kInf, kNan}) {
    EXPECT_THROW(DropRequest::from_json(drop_with_nested(
                     "path_loss", "shadowing_sigma_db", Json::number(v))),
                 std::runtime_error)
        << v;
  }
}

TEST(ServiceProtocol, DropRejectsNegativeOrNonFiniteWalkStep) {
  for (double v : {-1.0, kInf, kNan}) {
    EXPECT_THROW(DropRequest::from_json(
                     with(valid_drop_json(), "walk_step_m", Json::number(v))),
                 std::runtime_error)
        << v;
  }
}

TEST(ServiceProtocol, DropRejectsStationStepProductOverflow) {
  Json drop = with(valid_drop_json(), "num_stations",
                   Json::number_u64(1ull << 33));
  EXPECT_THROW(DropRequest::from_json(
                   with(drop, "num_steps", Json::number_u64(1ull << 31))),
               std::runtime_error);
  // 2^33 x 2^30 = 2^63 still fits.
  EXPECT_NO_THROW(DropRequest::from_json(
      with(drop, "num_steps", Json::number_u64(1ull << 30))));
}

}  // namespace
}  // namespace wlansim::service
