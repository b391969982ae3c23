// Integration tests of the full verification framework.
#include <cmath>

#include <gtest/gtest.h>

#include "core/experiments.h"
#include "core/link.h"
#include "dsp/mathutil.h"

namespace wlansim::core {
namespace {

TEST(WlanLink, DecodesThroughRfFrontEnd) {
  LinkConfig cfg = default_link_config();
  WlanLink link(cfg);
  const PacketResult r = link.run_packet(0);
  EXPECT_TRUE(r.decoded);
  EXPECT_EQ(r.bit_errors, 0u);
  EXPECT_GT(r.evm_rms, 0.0);
  EXPECT_LT(r.evm_rms, 0.2);
}

TEST(WlanLink, ReproducibleForSameSeed) {
  LinkConfig cfg = default_link_config();
  WlanLink a(cfg), b(cfg);
  const PacketResult ra = a.run_packet(3);
  const PacketResult rb = b.run_packet(3);
  EXPECT_EQ(ra.decoded, rb.decoded);
  EXPECT_EQ(ra.bit_errors, rb.bit_errors);
  EXPECT_DOUBLE_EQ(ra.evm_rms, rb.evm_rms);
}

TEST(PacketSeed, IsTheSplitmixOfTheIndexedGoldenStride) {
  // Every packet stream descends from packet_seed; it must stay the
  // splitmix64 output for state seed + (idx + 1) * golden, written out
  // here independently of dsp::mix64.
  for (const std::uint64_t seed : {0ull, 7ull, (1ull << 62) + 12345}) {
    for (const std::uint64_t idx : {0ull, 1ull, 511ull, ~0ull}) {
      std::uint64_t z = seed + (idx + 1) * 0x9e3779b97f4a7c15ull;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      EXPECT_EQ(packet_seed(seed, idx), z ^ (z >> 31));
    }
  }
}

TEST(WlanLink, DifferentPacketsDiffer) {
  LinkConfig cfg = default_link_config();
  WlanLink link(cfg);
  const PacketResult r0 = link.run_packet(0);
  const PacketResult r1 = link.run_packet(1);
  EXPECT_NE(r0.evm_rms, r1.evm_rms);  // fresh payload/noise per index
}

TEST(WlanLink, IdealRfBeatsRealRf) {
  LinkConfig real = default_link_config();
  LinkConfig ideal = default_link_config();
  ideal.rf_engine = RfEngine::kNone;
  WlanLink lr(real), li(ideal);
  double evm_real = 0.0, evm_ideal = 0.0;
  for (int i = 0; i < 4; ++i) {
    evm_real += lr.run_packet(i).evm_rms;
    evm_ideal += li.run_packet(i).evm_rms;
  }
  EXPECT_LT(evm_ideal, evm_real);  // "neglected or idealized" RF is rosy
}

TEST(WlanLink, SnrDegradationRaisesEvm) {
  double prev = 0.0;
  for (double snr : {30.0, 20.0, 14.0}) {
    LinkConfig cfg = default_link_config();
    cfg.snr_db = snr;
    WlanLink link(cfg);
    const PacketResult r = link.run_packet(0);
    EXPECT_GT(r.evm_rms, prev) << snr;
    prev = r.evm_rms;
  }
}

TEST(WlanLink, LowSnrBreaksLink) {
  LinkConfig cfg = default_link_config();
  cfg.snr_db = 3.0;  // far below the 16-QAM requirement
  WlanLink link(cfg);
  const BerResult r = link.run_ber(4);
  EXPECT_GT(r.ber(), 0.05);
}

TEST(WlanLink, RunBerAggregates) {
  LinkConfig cfg = default_link_config();
  WlanLink link(cfg);
  const BerResult r = link.run_ber(3);
  EXPECT_EQ(r.packets, 3u);
  EXPECT_EQ(r.bits, 3u * 8u * cfg.psdu_bytes);
  EXPECT_GT(r.evm_rms_avg, 0.0);
}

TEST(WlanLink, FadingChannelDegradesLink) {
  LinkConfig flat = default_link_config();
  LinkConfig faded = default_link_config();
  channel::FadingConfig fc;
  fc.rms_delay_spread_s = 100e-9;
  faded.fading = fc;
  WlanLink lf(flat), lm(faded);
  const BerResult a = lf.run_ber(6);
  const BerResult b = lm.run_ber(6);
  EXPECT_GE(b.ber(), a.ber());
  EXPECT_GT(b.evm_rms_avg, a.evm_rms_avg);
}

TEST(WlanLink, InterfererWithIdealFilteringIsHarmless) {
  // The idealized front-end (perfect digital channel filter) must shrug
  // off the +16 dB adjacent channel.
  LinkConfig cfg = default_link_config();
  cfg.rf_engine = RfEngine::kNone;
  cfg.interferer = channel::InterfererConfig{.offset_hz = 20e6, .level_db = 16.0};
  WlanLink link(cfg);
  const PacketResult r = link.run_packet(0);
  EXPECT_TRUE(r.decoded);
  EXPECT_EQ(r.bit_errors, 0u);
}

TEST(WlanLink, RejectsBadConfig) {
  LinkConfig cfg = default_link_config();
  cfg.psdu_bytes = 0;
  EXPECT_THROW(WlanLink{cfg}, std::invalid_argument);
  cfg = default_link_config();
  cfg.oversample = 0;
  EXPECT_THROW(WlanLink{cfg}, std::invalid_argument);
}

TEST(WlanLink, CapturesWaveformsForInspection) {
  LinkConfig cfg = default_link_config();
  WlanLink link(cfg);
  link.run_packet(0);
  EXPECT_FALSE(link.last_rx_baseband().empty());
  EXPECT_FALSE(link.last_rf_input().empty());
  // RF input is at the oversampled rate.
  EXPECT_NEAR(static_cast<double>(link.last_rf_input().size()) /
                  static_cast<double>(link.last_rx_baseband().size()),
              static_cast<double>(cfg.oversample), 0.1);
}

TEST(Experiments, Fig4SpectrumShowsAdjacentChannelAbove) {
  LinkConfig cfg = default_link_config();
  const SpectrumResult r = experiment_fig4_spectrum(cfg);
  // The adjacent channel sits ~16 dB above the wanted channel (Fig. 4).
  EXPECT_NEAR(r.adjacent_power_dbm - r.wanted_power_dbm, 16.0, 1.5);
  EXPECT_EQ(r.offset_hz, 20e6);
  EXPECT_FALSE(r.psd.power.empty());
}

TEST(Experiments, Fig5ShapeNarrowBadOptimumGood) {
  LinkConfig cfg = default_link_config();
  const auto res = experiment_fig5_filter_bandwidth(cfg, {0.3, 1.0}, 3);
  const auto ber = res.column("ber");
  EXPECT_GT(ber[0], 0.05);   // too narrow: signal destroyed
  EXPECT_LT(ber[1], 0.01);   // nominal bandwidth: clean
}

TEST(Experiments, NoiseGapCosimIsOptimistic) {
  LinkConfig cfg = default_link_config();
  cfg.rx_power_dbm = -80.0;
  cfg.snr_db.reset();
  cfg.cosim.analog_oversample = 8;  // keep the test fast
  const NoiseGapResult r = experiment_noise_gap(cfg, 3);
  // Without noise functions the co-simulated link looks better (paper
  // §5.1: "the measured BER values were better than the results from the
  // corresponding SPW only simulation").
  EXPECT_LT(r.evm_cosim_nonoise, r.evm_system);
  EXPECT_LE(r.ber_cosim_nonoise, r.ber_system + 1e-9);
}

TEST(Experiments, DefaultConfigIsSane) {
  const LinkConfig cfg = default_link_config();
  EXPECT_EQ(cfg.oversample, 4u);
  EXPECT_EQ(cfg.rf_engine, RfEngine::kSystemLevel);
  EXPECT_TRUE(cfg.snr_db.has_value());
}

}  // namespace
}  // namespace wlansim::core
