// The fixed-budget rule must be bit-identical to the serial run_ber for
// every thread count — the pool partitions work dynamically, but per-packet
// results land in per-packet slots and are reduced in packet order, so not
// even the EVM average's floating-point accumulation can drift.
#include <gtest/gtest.h>

#include "ber_expect.h"
#include "core/experiments.h"
#include "core/parallel.h"

namespace wlansim::core {
namespace {

void expect_thread_invariant(const LinkConfig& cfg, std::size_t packets) {
  WlanLink serial(cfg);
  const BerResult ref = serial.run_ber(packets);
  // 0 = shared pool at hardware concurrency; 7 deliberately doesn't divide
  // the packet count; 64 exceeds the chunk count, so the pool is capped.
  for (const std::size_t threads : {1u, 2u, 7u, 0u, 64u}) {
    const BerResult par =
        run_ber_adaptive(cfg, sim::fixed_budget(packets), threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_same_ber(par, ref);
  }
}

TEST(ParallelDeterminism, CleanChannel) {
  LinkConfig cfg = default_link_config();
  cfg.psdu_bytes = 60;
  cfg.snr_db = 16.0;  // error events make the counters nontrivial
  expect_thread_invariant(cfg, 18);
}

TEST(ParallelDeterminism, WithInterferer) {
  LinkConfig cfg = default_link_config();
  cfg.psdu_bytes = 60;
  cfg.interferer = channel::InterfererConfig{};
  cfg.interferer->psdu_bytes = 80;
  expect_thread_invariant(cfg, 10);
}

TEST(ParallelDeterminism, RepeatedCallsReuseCachedLinks) {
  LinkConfig cfg = default_link_config();
  cfg.psdu_bytes = 60;
  const BerResult first = run_ber_adaptive(cfg, sim::fixed_budget(6), 2);
  // Cache hit path.
  const BerResult second = run_ber_adaptive(cfg, sim::fixed_budget(6), 2);
  expect_same_ber(first, second);
}

TEST(ParallelDeterminism, SweepMatchesPointwiseRuns) {
  LinkConfig base = default_link_config();
  base.psdu_bytes = 60;
  std::vector<LinkConfig> points;
  for (const double snr : {14.0, 18.0, 24.0}) {
    LinkConfig c = base;
    c.snr_db = snr;
    points.push_back(c);
  }
  const std::vector<BerResult> sweep =
      sweep_ber_adaptive(points, sim::fixed_budget(5));
  ASSERT_EQ(sweep.size(), points.size());
  for (std::size_t k = 0; k < points.size(); ++k) {
    SCOPED_TRACE("point " + std::to_string(k));
    WlanLink serial(points[k]);
    expect_same_ber(sweep[k], serial.run_ber(5));
  }
}

}  // namespace
}  // namespace wlansim::core
