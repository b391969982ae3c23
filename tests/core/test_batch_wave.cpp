// The packet-wave engine's bit-identity contract: every lane of
// WlanLink::run_packet_wave equals the dataflow-graph reference exactly,
// whatever the wave width and whichever call built its scene slot, so the
// sweep engine's width-8 waves EXPECT_EQ the width-1 reference
// (WlanLink::run_ber, scalar RF blocks) for any thread count, with and
// without TX-scene memoization.
#include <gtest/gtest.h>

#include <vector>

#include "ber_expect.h"
#include "core/experiments.h"
#include "core/packet_batch.h"
#include "core/parallel.h"

namespace wlansim::core {
namespace {

void expect_identical(const PacketResult& a, const PacketResult& b) {
  EXPECT_EQ(a.decoded, b.decoded);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.bit_errors, b.bit_errors);
  EXPECT_EQ(a.evm_rms, b.evm_rms);
  EXPECT_EQ(a.cfo_norm, b.cfo_norm);
}

/// The reference: the same config on the dataflow graph.
WlanLink graph_link(LinkConfig cfg) {
  cfg.packet_path = PacketPath::kGraph;
  return WlanLink(std::move(cfg));
}

std::vector<LinkConfig> waterfall(std::initializer_list<double> snrs) {
  LinkConfig base = default_link_config();
  base.psdu_bytes = 40;
  std::vector<LinkConfig> points;
  for (const double snr : snrs) {
    LinkConfig c = base;
    c.snr_db = snr;
    points.push_back(c);
  }
  return points;
}

/// The width-1 reference: the serial scalar loop over the first
/// `got.packets` packets. `converged` is the stopping rule's verdict, which
/// run_ber has no notion of, so it is carried over.
void expect_matches_scalar(const LinkConfig& cfg, const BerResult& got) {
  BerResult ref = WlanLink(cfg).run_ber(got.packets);
  ref.converged = got.converged;
  expect_same_ber(got, ref);
}

}  // namespace

TEST(BatchWave, WaveLanesMatchScalarPackets) {
  // Engine-less check of run_packet_wave against the graph at full width, a
  // ragged tail width and width 1, unmemoized.
  LinkConfig cfg = default_link_config();
  cfg.psdu_bytes = 40;
  cfg.snr_db = 16.0;
  WlanLink graph = graph_link(cfg), batched(cfg);

  PacketBatch batch;
  PacketResult out[8];
  ASSERT_TRUE(batched.run_packet_wave(0, 8, batch, nullptr, out));
  for (std::size_t p = 0; p < 8; ++p) {
    SCOPED_TRACE("packet " + std::to_string(p));
    expect_identical(out[p], graph.run_packet(p));
  }
  ASSERT_TRUE(batched.run_packet_wave(8, 3, batch, nullptr, out));
  for (std::size_t p = 0; p < 3; ++p) {
    SCOPED_TRACE("packet " + std::to_string(8 + p));
    expect_identical(out[p], graph.run_packet(8 + p));
  }
  ASSERT_TRUE(batched.run_packet_wave(11, 1, batch, nullptr, out));
  expect_identical(out[0], graph.run_packet(11));
}

TEST(BatchWave, WaveMatchesScalarWithoutRfFrontend) {
  // RfEngine::kNone: the wave decimates through the lane FIR instead of
  // the raw ADC stride; still bit-identical to the graph's DownsampleNode.
  LinkConfig cfg = default_link_config();
  cfg.psdu_bytes = 40;
  cfg.snr_db = 10.0;
  cfg.rf_engine = RfEngine::kNone;
  WlanLink graph = graph_link(cfg), batched(cfg);

  PacketBatch batch;
  PacketResult out[8];
  ASSERT_TRUE(batched.run_packet_wave(0, 8, batch, nullptr, out));
  for (std::size_t p = 0; p < 8; ++p) {
    SCOPED_TRACE("packet " + std::to_string(p));
    expect_identical(out[p], graph.run_packet(p));
  }
}

TEST(BatchWave, MemoizedWaveBuildsAndReplaysScenes) {
  // Build at one noise level, replay at another — the memoized wave's
  // scenes (and recorded front-end tapes) must reproduce what the graph
  // computes at each level from scratch.
  LinkConfig lo = default_link_config();
  lo.psdu_bytes = 40;
  lo.snr_db = 12.0;
  LinkConfig hi = lo;
  hi.snr_db = 22.0;

  WlanLink wave_lo(lo), wave_hi(hi);
  std::vector<TxScene> scenes(8);
  PacketBatch batch;
  PacketResult out_lo[8], out_hi[8];
  ASSERT_TRUE(wave_lo.run_packet_wave(0, 8, batch, scenes.data(), out_lo));
  for (const TxScene& sc : scenes) EXPECT_TRUE(sc.valid());
  ASSERT_TRUE(wave_hi.run_packet_wave(0, 8, batch, scenes.data(), out_hi));

  WlanLink graph_lo = graph_link(lo), graph_hi = graph_link(hi);
  for (std::size_t p = 0; p < 8; ++p) {
    SCOPED_TRACE("packet " + std::to_string(p));
    expect_identical(out_lo[p], graph_lo.run_packet(p));
    expect_identical(out_hi[p], graph_hi.run_packet(p));
  }

  // Slots handed the next packet indices rebuild from scratch, at full
  // width and in width-1 calls alike.
  ASSERT_TRUE(wave_hi.run_packet_wave(8, 8, batch, scenes.data(), out_hi));
  for (std::size_t p = 0; p < 8; ++p) {
    SCOPED_TRACE("rebuilt packet " + std::to_string(8 + p));
    expect_identical(out_hi[p], graph_hi.run_packet(8 + p));
    ASSERT_TRUE(wave_lo.run_packet_wave(16 + p, 1, batch, &scenes[p], out_lo));
    expect_identical(out_lo[0], graph_lo.run_packet(16 + p));
  }
}

TEST(BatchWave, ScenesInterchangeWithScalarMemoPath) {
  // Scene slots built by a width-8 wave replay through width-1 calls (the
  // scalar RF chain) and vice versa — both widths share one TxScene
  // contract.
  LinkConfig lo = default_link_config();
  lo.psdu_bytes = 40;
  lo.snr_db = 12.0;
  LinkConfig hi = lo;
  hi.snr_db = 22.0;
  WlanLink ref_hi = graph_link(hi);

  // Width 8 builds, width 1 replays.
  WlanLink wave_lo(lo), solo_hi(hi);
  std::vector<TxScene> scenes(8);
  PacketBatch batch;
  PacketResult out[8];
  ASSERT_TRUE(wave_lo.run_packet_wave(0, 8, batch, scenes.data(), out));
  for (std::size_t p = 0; p < 8; ++p) {
    SCOPED_TRACE("wave->solo packet " + std::to_string(p));
    PacketResult r;
    ASSERT_TRUE(solo_hi.run_packet_wave(p, 1, batch, &scenes[p], &r));
    expect_identical(r, ref_hi.run_packet(p));
  }

  // Width 1 builds, width 8 replays.
  std::vector<TxScene> scenes2(8);
  WlanLink solo_lo(lo), wave_hi(hi);
  for (std::size_t p = 0; p < 8; ++p)
    ASSERT_TRUE(solo_lo.run_packet_wave(p, 1, batch, &scenes2[p], out));
  ASSERT_TRUE(wave_hi.run_packet_wave(0, 8, batch, scenes2.data(), out));
  for (std::size_t p = 0; p < 8; ++p) {
    SCOPED_TRACE("solo->wave packet " + std::to_string(p));
    expect_identical(out[p], ref_hi.run_packet(p));
  }
}

TEST(BatchWave, NoiselessConfigIgnoresTapesOfNoisyOne) {
  // Channel noise decides whether the front-end takes fork 1 or fork 2, so
  // front-end tapes recorded at a noisy config must not replay at a
  // noiseless one sharing the scene slots, nor the other way round.
  LinkConfig noisy = default_link_config();
  noisy.psdu_bytes = 40;
  LinkConfig quiet = noisy;
  quiet.snr_db.reset();
  quiet.antenna_noise_density_dbm_hz = -300.0;

  PacketBatch batch;
  PacketResult out[8];
  for (const bool noisy_first : {true, false}) {
    SCOPED_TRACE(noisy_first ? "noisy builds" : "quiet builds");
    const LinkConfig& build = noisy_first ? noisy : quiet;
    const LinkConfig& replay = noisy_first ? quiet : noisy;
    std::vector<TxScene> scenes(8);
    ASSERT_TRUE(WlanLink(build).run_packet_wave(0, 8, batch, scenes.data(),
                                                out));
    ASSERT_TRUE(WlanLink(replay).run_packet_wave(0, 8, batch, scenes.data(),
                                                 out));
    WlanLink graph = graph_link(replay);
    for (std::size_t p = 0; p < 8; ++p) {
      SCOPED_TRACE("packet " + std::to_string(p));
      expect_identical(out[p], graph.run_packet(p));
    }
  }
}

TEST(BatchWave, GraphPathRefusesToWave) {
  LinkConfig cfg = default_link_config();
  cfg.packet_path = PacketPath::kGraph;
  WlanLink link(cfg);
  PacketBatch batch;
  PacketResult out[8];
  EXPECT_FALSE(link.run_packet_wave(0, 8, batch, nullptr, out));
}

TEST(BatchWave, AdaptiveSweepWidth8MatchesWidth1) {
  // The headline contract: the adaptive sweep's width-8 waves EXPECT_EQ the
  // scalar reference for thread counts {1, 2, 8}, memoization on (one
  // two-point sweep) and off (one-point sweeps).
  const auto points = waterfall({12.0, 16.0});
  sim::StoppingRule rule;
  rule.target_rel_ci = 0.5;
  rule.min_errors = 10;
  rule.min_packets = 8;
  rule.max_packets = 16;

  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto memo = sweep_ber_adaptive(points, rule, {.threads = threads});
    ASSERT_EQ(memo.size(), points.size());
    for (std::size_t k = 0; k < points.size(); ++k) {
      SCOPED_TRACE("point " + std::to_string(k));
      expect_matches_scalar(points[k], memo[k]);
      expect_matches_scalar(points[k],
                            run_ber_adaptive(points[k], rule, threads));
    }
  }
}

TEST(BatchWave, FixedSweepWidth8MatchesWidth1) {
  const auto points = waterfall({14.0, 20.0});
  const sim::StoppingRule fixed = sim::fixed_budget(19);  // ragged tail chunk
  const auto memo = sweep_ber_adaptive(points, fixed, {.threads = 2});
  ASSERT_EQ(memo.size(), points.size());
  for (std::size_t k = 0; k < points.size(); ++k) {
    SCOPED_TRACE("point " + std::to_string(k));
    const BerResult ref = WlanLink(points[k]).run_ber(19);
    expect_same_ber(memo[k], ref);
    expect_same_ber(run_ber_adaptive(points[k], fixed, 2), ref);
  }
}

}  // namespace wlansim::core
