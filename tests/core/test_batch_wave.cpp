// The lockstep packet-wave engine's bit-identity contract: every lane of
// WlanLink::run_packet_wave equals the scalar per-packet path exactly, so
// the sweep engine's width-8 waves EXPECT_EQ the width-1 scalar reference
// (WlanLink::run_ber) for any thread count, with and without TX-scene
// memoization.
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
  // Direct engine-less check of run_packet_wave against run_packet, both
  // full width and a ragged tail width, unmemoized.
  LinkConfig cfg = default_link_config();
  cfg.psdu_bytes = 40;
  cfg.snr_db = 16.0;
  WlanLink scalar(cfg), batched(cfg);

  PacketBatch batch;
  PacketResult out[8];
  ASSERT_TRUE(batched.run_packet_wave(0, 8, batch, nullptr, out));
  for (std::size_t p = 0; p < 8; ++p) {
    SCOPED_TRACE("packet " + std::to_string(p));
    expect_identical(out[p], scalar.run_packet(p));
  }
  ASSERT_TRUE(batched.run_packet_wave(8, 3, batch, nullptr, out));
  for (std::size_t p = 0; p < 3; ++p) {
    SCOPED_TRACE("packet " + std::to_string(8 + p));
    expect_identical(out[p], scalar.run_packet(8 + p));
  }
}

TEST(BatchWave, WaveMatchesScalarWithoutRfFrontend) {
  // RfEngine::kNone: the wave decimates through the lane FIR instead of
  // the raw ADC stride; still bit-identical to the scalar path.
  LinkConfig cfg = default_link_config();
  cfg.psdu_bytes = 40;
  cfg.snr_db = 10.0;
  cfg.rf_engine = RfEngine::kNone;
  WlanLink scalar(cfg), batched(cfg);

  PacketBatch batch;
  PacketResult out[8];
  ASSERT_TRUE(batched.run_packet_wave(0, 8, batch, nullptr, out));
  for (std::size_t p = 0; p < 8; ++p) {
    SCOPED_TRACE("packet " + std::to_string(p));
    expect_identical(out[p], scalar.run_packet(p));
  }
}

TEST(BatchWave, MemoizedWaveBuildsAndReplaysScenes) {
  // Build at one noise level, replay at another — the memoized wave's
  // scenes (and recorded front-end tapes) must reproduce what scalar
  // run_packet computes at each level from scratch.
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

  WlanLink scalar_lo(lo), scalar_hi(hi);
  for (std::size_t p = 0; p < 8; ++p) {
    SCOPED_TRACE("packet " + std::to_string(p));
    expect_identical(out_lo[p], scalar_lo.run_packet(p));
    expect_identical(out_hi[p], scalar_hi.run_packet(p));
  }
}

TEST(BatchWave, ScenesInterchangeWithScalarMemoPath) {
  // Scenes built by the wave replay through run_packet_memo and vice
  // versa — the two memo paths share one TxScene contract.
  LinkConfig lo = default_link_config();
  lo.psdu_bytes = 40;
  lo.snr_db = 12.0;
  LinkConfig hi = lo;
  hi.snr_db = 22.0;

  // Wave builds, scalar replays.
  WlanLink wave_lo(lo), scalar_hi(hi);
  std::vector<TxScene> scenes(8);
  PacketBatch batch;
  PacketResult out[8];
  ASSERT_TRUE(wave_lo.run_packet_wave(0, 8, batch, scenes.data(), out));
  WlanLink ref_hi(hi);
  for (std::size_t p = 0; p < 8; ++p) {
    SCOPED_TRACE("wave->scalar packet " + std::to_string(p));
    expect_identical(scalar_hi.run_packet_memo(p, scenes[p]),
                     ref_hi.run_packet(p));
  }

  // Scalar builds, wave replays.
  std::vector<TxScene> scenes2(8);
  WlanLink scalar_lo(lo), wave_hi(hi);
  for (std::size_t p = 0; p < 8; ++p)
    (void)scalar_lo.run_packet_memo(p, scenes2[p]);
  ASSERT_TRUE(wave_hi.run_packet_wave(0, 8, batch, scenes2.data(), out));
  for (std::size_t p = 0; p < 8; ++p) {
    SCOPED_TRACE("scalar->wave packet " + std::to_string(p));
    expect_identical(out[p], ref_hi.run_packet(p));
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
