// A fixed packet budget is the adaptive engine under sim::fixed_budget(n):
// for any worker count it must reproduce WlanLink(cfg).run_ber(n).
#include "core/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "ber_expect.h"
#include "core/experiments.h"

namespace wlansim::core {
namespace {

TEST(ParallelBer, MatchesSerialExactly) {
  LinkConfig cfg = default_link_config();
  cfg.snr_db = 16.0;  // low enough that errors occur (nontrivial counters)
  cfg.psdu_bytes = 100;

  WlanLink serial(cfg);
  const BerResult ref = serial.run_ber(8);
  const BerResult par = run_ber_adaptive(cfg, sim::fixed_budget(8), 4);
  expect_same_ber(par, ref);
}

TEST(ParallelBer, ThreadCountInvariant) {
  LinkConfig cfg = default_link_config();
  cfg.psdu_bytes = 80;
  const BerResult one = run_ber_adaptive(cfg, sim::fixed_budget(6), 1);
  const BerResult three = run_ber_adaptive(cfg, sim::fixed_budget(6), 3);
  expect_same_ber(one, three);
}

TEST(ParallelBer, HandlesFewerPacketsThanThreads) {
  LinkConfig cfg = default_link_config();
  cfg.psdu_bytes = 60;
  const BerResult r = run_ber_adaptive(cfg, sim::fixed_budget(2), 16);
  EXPECT_EQ(r.packets, 2u);
}

TEST(ParallelBer, ZeroThreadsMeansHardwareConcurrency) {
  LinkConfig cfg = default_link_config();
  cfg.psdu_bytes = 60;
  const BerResult r = run_ber_adaptive(cfg, sim::fixed_budget(3), 0);
  EXPECT_EQ(r.packets, 3u);
}

std::size_t process_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++n;
  return n;
}

TEST(ParallelBer, DedicatedPoolCappedAtChunkCount) {
  // 20 packets are 3 eight-packet chunks: a dedicated pool asked for 64
  // workers runs 3 (the caller plus 2 spawned threads), not 64.
  if (!std::filesystem::exists("/proc/self/task"))
    GTEST_SKIP() << "needs /proc/self/task to count threads";
  LinkConfig cfg = default_link_config();
  cfg.psdu_bytes = 40;
  const std::size_t before = process_threads();
  std::size_t during = 0;
  AdaptiveResume probe;
  probe.on_wave = [&](std::span<const SweepPointProgress>) {
    during = std::max(during, process_threads());
    return true;
  };
  const auto r = sweep_ber_adaptive({&cfg, 1}, sim::fixed_budget(20),
                                    {.threads = 64}, &probe);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].packets, 20u);
  EXPECT_LE(during, before + 2);
}

}  // namespace
}  // namespace wlansim::core
