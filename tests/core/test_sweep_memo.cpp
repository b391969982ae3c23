// TX-scene memoization must be invisible in the results: a sweep whose
// points share a TX fingerprint replays each packet's pre-noise scene across
// SNR points, and every field — including the EVM average's floating-point
// value — must match unmemoized one-point sweeps and the serial run_ber bit
// for bit.
#include <gtest/gtest.h>

#include <vector>

#include "ber_expect.h"
#include "core/experiments.h"
#include "core/packet_batch.h"
#include "core/parallel.h"

namespace wlansim::core {
namespace {

std::vector<LinkConfig> snr_sweep(LinkConfig base, double first_db,
                                  double step_db, std::size_t npts) {
  std::vector<LinkConfig> configs(npts, base);
  for (std::size_t k = 0; k < npts; ++k)
    configs[k].snr_db = first_db + step_db * static_cast<double>(k);
  return configs;
}

void expect_identical(const std::vector<BerResult>& a,
                      const std::vector<BerResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    SCOPED_TRACE("point " + std::to_string(k));
    expect_same_ber(a[k], b[k]);
  }
}

TEST(SweepMemo, MatchesUnmemoizedSweepExactly) {
  LinkConfig base = default_link_config();
  base.psdu_bytes = 40;
  // Span the waterfall so some points decode cleanly and some lose packets.
  const auto configs = snr_sweep(base, 10.0, 2.0, 8);
  const sim::StoppingRule fixed = sim::fixed_budget(10);

  // A one-point sweep has no other point to share a scene with.
  std::vector<BerResult> unmemoized;
  for (const LinkConfig& cfg : configs)
    unmemoized.push_back(run_ber_adaptive(cfg, fixed));
  expect_identical(sweep_ber_adaptive(configs, fixed), unmemoized);
}

TEST(SweepMemo, MatchesPerPointRunsWithInterferer) {
  LinkConfig base = default_link_config();
  base.psdu_bytes = 40;
  channel::InterfererConfig jam;
  jam.offset_hz = 20e6;
  jam.level_db = 10.0;
  jam.psdu_bytes = 60;
  base.interferer = jam;
  const auto configs = snr_sweep(base, 14.0, 3.0, 4);

  const auto memoized = sweep_ber_adaptive(configs, sim::fixed_budget(6));
  std::vector<BerResult> direct;
  for (const LinkConfig& cfg : configs)
    direct.push_back(WlanLink(cfg).run_ber(6));
  expect_identical(memoized, direct);
}

TEST(SweepMemo, ThreadCountInvariant) {
  LinkConfig base = default_link_config();
  base.psdu_bytes = 40;
  const auto configs = snr_sweep(base, 12.0, 3.0, 5);
  const sim::StoppingRule fixed = sim::fixed_budget(9);

  const auto one = sweep_ber_adaptive(configs, fixed, {.threads = 1});
  for (const std::size_t threads : {3u, 64u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical(one,
                     sweep_ber_adaptive(configs, fixed, {.threads = threads}));
  }
}

TEST(SweepMemo, ScenePacketReplayMatchesFullRun) {
  // Link-level contract behind the sweep: a scene slot built at one noise
  // level replays bit-identically on a link that differs only in SNR. The
  // reference is the graph at each level.
  LinkConfig cfg_hi = default_link_config();
  cfg_hi.psdu_bytes = 40;
  cfg_hi.snr_db = 24.0;
  LinkConfig cfg_lo = cfg_hi;
  cfg_lo.snr_db = 13.0;

  WlanLink build_hi(cfg_hi);
  WlanLink replayer(cfg_lo);
  LinkConfig graph_hi = cfg_hi, graph_lo = cfg_lo;
  graph_hi.packet_path = graph_lo.packet_path = PacketPath::kGraph;
  WlanLink fresh(graph_lo);

  PacketBatch batch;
  for (std::uint64_t idx : {0ull, 3ull}) {
    TxScene scene;
    PacketResult built;
    ASSERT_TRUE(build_hi.run_packet_wave(idx, 1, batch, &scene, &built));
    ASSERT_TRUE(scene.valid());
    const PacketResult direct_hi = WlanLink(graph_hi).run_packet(idx);
    EXPECT_EQ(built.bit_errors, direct_hi.bit_errors);
    EXPECT_EQ(built.evm_rms, direct_hi.evm_rms);

    PacketResult replayed;
    ASSERT_TRUE(replayer.run_packet_wave(idx, 1, batch, &scene, &replayed));
    const PacketResult direct = fresh.run_packet(idx);
    EXPECT_EQ(replayed.decoded, direct.decoded) << "idx " << idx;
    EXPECT_EQ(replayed.bits, direct.bits) << "idx " << idx;
    EXPECT_EQ(replayed.bit_errors, direct.bit_errors) << "idx " << idx;
    EXPECT_EQ(replayed.evm_rms, direct.evm_rms) << "idx " << idx;
    EXPECT_EQ(replayed.cfo_norm, direct.cfo_norm) << "idx " << idx;
  }
}

TEST(SweepMemo, BackCompatThreadsOverload) {
  // run_ber_adaptive's bare thread count is the one-point sweep with
  // SweepOptions::threads set.
  LinkConfig cfg = default_link_config();
  cfg.psdu_bytes = 40;
  cfg.snr_db = 16.0;
  const sim::StoppingRule fixed = sim::fixed_budget(4);
  expect_same_ber(run_ber_adaptive(cfg, fixed, 2),
                  sweep_ber_adaptive({&cfg, 1}, fixed, {.threads = 2})[0]);
}

}  // namespace
}  // namespace wlansim::core
