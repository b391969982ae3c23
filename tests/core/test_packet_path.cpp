// The direct packet path (the scene-slot wave of WlanLink::run_packet_wave)
// must be indistinguishable from the dataflow-graph reference — bit for
// bit, across every feature that changes the chain's topology (interferer,
// TX impairments, SCO, fading, every direct RF engine) or moves a front-end
// off the lockstep lane kernels onto the per-lane scalar chain (phase
// noise, LO offset, AM/PM, non-Rapp LNA, custom blocks). Each config runs
// as width-1 packets, as an unmemoized width-8 wave, and as a width-8 wave
// replaying scene slots built at another SNR.
#include <gtest/gtest.h>

#include <vector>

#include "core/experiments.h"
#include "core/link.h"
#include "core/packet_batch.h"
#include "dsp/kernels.h"
#include "rf/direct_conversion.h"

namespace wlansim::core {
namespace {

LinkConfig small_config() {
  LinkConfig cfg = default_link_config();
  cfg.psdu_bytes = 60;  // keep each packet cheap; the topology is what matters
  return cfg;
}

void expect_identical(const PacketResult& a, const PacketResult& b) {
  EXPECT_EQ(a.decoded, b.decoded);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.bit_errors, b.bit_errors);
  EXPECT_EQ(a.evm_rms, b.evm_rms);  // exact: same floats, same order
  EXPECT_EQ(a.cfo_norm, b.cfo_norm);
}

void expect_paths_match(LinkConfig cfg, std::uint64_t packets = 2) {
  cfg.packet_path = PacketPath::kDirect;
  WlanLink direct(cfg);
  cfg.packet_path = PacketPath::kGraph;
  WlanLink graph(cfg);

  for (std::uint64_t i = 0; i < packets; ++i) {
    const PacketResult rd = direct.run_packet(i);
    const PacketResult rg = graph.run_packet(i);
    expect_identical(rd, rg);

    const dsp::CVec& bd = direct.last_rx_baseband();
    const dsp::CVec& bg = graph.last_rx_baseband();
    ASSERT_EQ(bd.size(), bg.size());
    for (std::size_t k = 0; k < bd.size(); ++k) {
      ASSERT_EQ(bd[k].real(), bg[k].real()) << "sample " << k;
      ASSERT_EQ(bd[k].imag(), bg[k].imag()) << "sample " << k;
    }
    ASSERT_EQ(direct.last_rf_input().size(), graph.last_rf_input().size());
  }

  // The same config as width-8 waves: every lane against the graph.
  constexpr std::size_t kWidth = dsp::kernels::kLaneWidth;
  std::vector<PacketResult> ref(kWidth);
  for (std::size_t p = 0; p < kWidth; ++p) ref[p] = graph.run_packet(p);
  PacketBatch batch;
  PacketResult out[kWidth];
  ASSERT_TRUE(direct.run_packet_wave(0, kWidth, batch, nullptr, out));
  for (std::size_t p = 0; p < kWidth; ++p) {
    SCOPED_TRACE("unmemoized lane " + std::to_string(p));
    expect_identical(out[p], ref[p]);
  }

  // Scene slots built at another noise level, replayed on this link.
  cfg.packet_path = PacketPath::kDirect;
  LinkConfig other = cfg;
  if (other.snr_db.has_value()) *other.snr_db += 9.0;
  std::vector<TxScene> scenes(kWidth);
  ASSERT_TRUE(WlanLink(other).run_packet_wave(0, kWidth, batch, scenes.data(),
                                              out));
  for (const TxScene& sc : scenes) ASSERT_TRUE(sc.valid());
  ASSERT_TRUE(direct.run_packet_wave(0, kWidth, batch, scenes.data(), out));
  for (std::size_t p = 0; p < kWidth; ++p) {
    SCOPED_TRACE("replayed lane " + std::to_string(p));
    expect_identical(out[p], ref[p]);
  }
}

TEST(PacketPath, SystemLevelFrontend) { expect_paths_match(small_config()); }

TEST(PacketPath, IdealizedFrontend) {
  LinkConfig cfg = small_config();
  cfg.rf_engine = RfEngine::kNone;
  expect_paths_match(cfg);
}

TEST(PacketPath, WithInterferer) {
  LinkConfig cfg = small_config();
  cfg.interferer = channel::InterfererConfig{};
  cfg.interferer->psdu_bytes = 80;
  expect_paths_match(cfg);
}

TEST(PacketPath, WithTxImpairments) {
  LinkConfig cfg = small_config();
  cfg.tx_pa_backoff_db = 8.0;
  cfg.tx_pa_am_pm_max_deg = 2.0;
  cfg.tx_iq_gain_imbalance_db = 0.3;
  cfg.tx_iq_phase_error_deg = 1.0;
  cfg.tx_lo_leakage_rel = 0.02;
  expect_paths_match(cfg);
}

TEST(PacketPath, WithSamplingClockOffset) {
  LinkConfig cfg = small_config();
  cfg.sco_ppm = 20.0;
  expect_paths_match(cfg);
}

TEST(PacketPath, WithFadingAndInterferer) {
  LinkConfig cfg = small_config();
  cfg.fading = channel::FadingConfig{};
  cfg.interferer = channel::InterfererConfig{};
  expect_paths_match(cfg);
}

TEST(PacketPath, NoChannelNoise) {
  LinkConfig cfg = small_config();
  cfg.snr_db.reset();
  cfg.antenna_noise_density_dbm_hz = -300.0;  // kills the AWGN node entirely
  expect_paths_match(cfg);
}

TEST(PacketPath, NoOversampling) {
  LinkConfig cfg = small_config();
  cfg.oversample = 1;
  cfg.rf_engine = RfEngine::kNone;
  expect_paths_match(cfg);
}

// Front-ends without lane kernels for every block take the per-lane scalar
// chain inside a wave; each must still match the graph lane for lane.
TEST(PacketPath, WithLoPhaseNoise) {
  LinkConfig cfg = small_config();
  cfg.rf.lo_phase_noise.level_dbc_hz = -95.0;
  cfg.rf.lo_phase_noise.offset_hz = 100e3;
  expect_paths_match(cfg);
}

TEST(PacketPath, WithLoOffset) {
  LinkConfig cfg = small_config();
  cfg.rf.lo_offset_hz = 25e3;
  expect_paths_match(cfg);
}

TEST(PacketPath, WithLnaAmPm) {
  LinkConfig cfg = small_config();
  cfg.rf.lna_am_pm_max_deg = 10.0;
  expect_paths_match(cfg);
}

TEST(PacketPath, WithClippedCubicLna) {
  LinkConfig cfg = small_config();
  cfg.rf.lna_model = rf::NonlinearityModel::kClippedCubic;
  expect_paths_match(cfg);
}

TEST(PacketPath, CustomFrontend) {
  // The zero-IF receiver of bench/architecture_comparison, built per packet
  // by the factory on both paths.
  LinkConfig cfg = small_config();
  cfg.rf_engine = RfEngine::kCustom;
  const double fs = phy::kSampleRate * static_cast<double>(cfg.oversample);
  cfg.custom_rf = [fs](dsp::Rng rng) -> std::unique_ptr<rf::RfBlock> {
    rf::DirectConversionConfig zc;
    zc.sample_rate_hz = fs;
    zc.dynamic_dc_rms = 3e-5;
    zc.iq_gain_imbalance_db = 0.3;
    zc.iq_phase_error_deg = 2.0;
    return std::make_unique<rf::DirectConversionReceiver>(zc, rng);
  };
  expect_paths_match(cfg);
}

// Workspace reuse must not leak state between packets: re-running an
// earlier packet on a warmed-up link reproduces it exactly.
TEST(PacketPath, WorkspaceReuseIsStateless) {
  LinkConfig cfg = small_config();
  cfg.packet_path = PacketPath::kDirect;
  WlanLink link(cfg);
  const PacketResult first = link.run_packet(0);
  link.run_packet(1);
  link.run_packet(2);
  const PacketResult again = link.run_packet(0);
  expect_identical(first, again);
}

// kAuto must route unsupported engines through the graph rather than
// misrender them; forcing kDirect on such a config still works via fallback.
TEST(PacketPath, AutoSelectsGraphForInterpretedMode) {
  LinkConfig cfg = small_config();
  cfg.mode = sim::ExecutionMode::kInterpreted;  // kAuto -> graph
  WlanLink link(cfg);
  cfg.mode = sim::ExecutionMode::kCompiled;
  cfg.packet_path = PacketPath::kGraph;
  WlanLink ref(cfg);
  expect_identical(link.run_packet(0), ref.run_packet(0));
}

}  // namespace
}  // namespace wlansim::core
