// Drop geometry (scenario/geometry.h): counter-seed independence, placement
// bounds, reflecting random walk, and the path-loss / shadowing model.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <vector>

#include "scenario/geometry.h"

namespace wlansim::scenario {
namespace {

TEST(GeoSeed, DistinctTuplesGiveDistinctSeeds) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t entity = 0; entity < 16; ++entity) {
    for (std::uint64_t step = 0; step < 16; ++step) {
      for (GeoStream s :
           {GeoStream::kPlacement, GeoStream::kWalk, GeoStream::kShadowing}) {
        seen.insert(geo_seed(1, s, entity, step));
      }
    }
  }
  EXPECT_EQ(seen.size(), 16u * 16u * 3u);
  // And the drop seed itself decorrelates everything.
  EXPECT_NE(geo_seed(1, GeoStream::kPlacement, 0, 0),
            geo_seed(2, GeoStream::kPlacement, 0, 0));
}

TEST(GeoSeed, SwappedArgumentsDoNotCollide) {
  // A plain XOR of the tuple would collide under argument swaps; the
  // chained mix must not.
  EXPECT_NE(geo_seed(1, GeoStream::kWalk, 3, 5),
            geo_seed(1, GeoStream::kWalk, 5, 3));
}

TEST(Placement, UniformWithinBoundsAndDeterministic) {
  for (std::uint64_t i = 0; i < 200; ++i) {
    const Vec2 p = place_uniform(42, i, 30.0);
    EXPECT_GE(p.x, -30.0);
    EXPECT_LE(p.x, 30.0);
    EXPECT_GE(p.y, -30.0);
    EXPECT_LE(p.y, 30.0);
    const Vec2 q = place_uniform(42, i, 30.0);
    EXPECT_EQ(p.x, q.x);
    EXPECT_EQ(p.y, q.y);
  }
}

TEST(Walk, StepsHaveExactLengthAndStayInBounds) {
  Vec2 p = place_uniform(7, 0, 10.0);
  for (std::uint64_t step = 1; step <= 50; ++step) {
    const Vec2 prev = p;
    p = walk_step(p, 7, 0, step, 1.5, 10.0);
    EXPECT_GE(p.x, -10.0);
    EXPECT_LE(p.x, 10.0);
    EXPECT_GE(p.y, -10.0);
    EXPECT_LE(p.y, 10.0);
    // Away from the boundary the displacement is exactly the step length.
    const double d = distance_m(prev, p);
    if (std::abs(prev.x) < 8.0 && std::abs(prev.y) < 8.0) {
      EXPECT_NEAR(d, 1.5, 1e-12);
    } else {
      EXPECT_LE(d, 2.0 * 1.5 + 1e-12);
    }
  }
}

TEST(Walk, ZeroStepIsStatic) {
  const Vec2 p{3.0, -4.0};
  const Vec2 q = walk_step(p, 1, 0, 1, 0.0, 10.0);
  EXPECT_EQ(q.x, p.x);
  EXPECT_EQ(q.y, p.y);
}

TEST(Walk, ReflectsHugeStepsBackInside) {
  // Steps much longer than the area must still land inside (multi-bounce).
  const Vec2 q = walk_step({0.0, 0.0}, 3, 1, 1, 1000.0, 5.0);
  EXPECT_GE(q.x, -5.0);
  EXPECT_LE(q.x, 5.0);
  EXPECT_GE(q.y, -5.0);
  EXPECT_LE(q.y, 5.0);
}

TEST(PathLoss, MonotonicWithDistanceAndClamped) {
  PathLossConfig cfg;
  const double pl1 = log_distance_path_loss_db(cfg, 1.0);
  EXPECT_NEAR(pl1, cfg.ref_loss_db, 1e-12);
  // 10 * exponent dB per decade.
  EXPECT_NEAR(log_distance_path_loss_db(cfg, 10.0), pl1 + 10.0 * cfg.exponent,
              1e-9);
  EXPECT_LT(log_distance_path_loss_db(cfg, 5.0),
            log_distance_path_loss_db(cfg, 50.0));
  // Below min_distance_m the model clamps instead of diverging.
  EXPECT_EQ(log_distance_path_loss_db(cfg, 0.0),
            log_distance_path_loss_db(cfg, cfg.min_distance_m));
}

TEST(Shadowing, DeterministicPerTupleAndZeroWhenDisabled) {
  const double a = shadowing_db(9, 3, 0, 2, 6.0);
  EXPECT_EQ(a, shadowing_db(9, 3, 0, 2, 6.0));
  EXPECT_NE(a, shadowing_db(9, 4, 0, 2, 6.0));
  EXPECT_NE(a, shadowing_db(9, 3, 1, 2, 6.0));
  EXPECT_NE(a, shadowing_db(9, 3, 0, 3, 6.0));
  EXPECT_EQ(shadowing_db(9, 3, 0, 2, 0.0), 0.0);
}

TEST(Shadowing, RoughlyGaussianScale) {
  // Sample variance over many draws lands near sigma^2 (loose gate).
  const double sigma = 6.0;
  double sum = 0.0, sum2 = 0.0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const double x = shadowing_db(11, static_cast<std::uint64_t>(i), 0, 0,
                                  sigma);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.5);
  EXPECT_NEAR(std::sqrt(var), sigma, 0.5);
}

// Independent reference for the stateless draws: splitmix64 and the
// geo_seed chain written out here, textbook Box-Muller on top. The pinned
// checks compare the library against this, not against its own output.
std::uint64_t ref_splitmix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t ref_key(std::uint64_t seed, std::uint64_t stream,
                      std::uint64_t entity, std::uint64_t step) {
  std::uint64_t h = ref_splitmix64(seed);
  h = ref_splitmix64(h ^ stream);
  h = ref_splitmix64(h ^ entity);
  return ref_splitmix64(h ^ step);
}

/// Draw `k` under `key`: top 53 bits of splitmix64(key + k * golden).
double ref_unit(std::uint64_t key, std::uint64_t k) {
  const std::uint64_t bits =
      ref_splitmix64(key + k * 0x9e3779b97f4a7c15ull) >> 11;
  return std::ldexp(static_cast<double>(bits), -53);
}

TEST(GeoSeed, PinnedAgainstAnOutOfTreeSplitmixChain) {
  // Hex values from a separate big-integer implementation of the chain.
  EXPECT_EQ(geo_seed(1, GeoStream::kWalk, 3, 5), 0x32bca143daa28e58ull);
  EXPECT_EQ(ref_key(1, 2, 3, 5), 0x32bca143daa28e58ull);
}

TEST(Shadowing, PinnedToReferenceBoxMuller) {
  for (const auto& [seed, station, bss, step] :
       {std::array<std::uint64_t, 4>{9, 3, 1, 2}, {7, 11, 2, 4}, {1, 0, 0, 0},
        {123456789, 999, 5, 77}}) {
    const std::uint64_t key = ref_key(seed, 3, (bss << 32) ^ station, step);
    const double u1 = 1.0 - ref_unit(key, 0);  // in (0, 1]
    const double u2 = ref_unit(key, 1);
    const double want =
        6.0 * std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
    EXPECT_NEAR(shadowing_db(seed, station, bss, step, 6.0), want, 1e-12);
  }
  // The same tuple through a separate big-integer implementation.
  EXPECT_NEAR(shadowing_db(9, 3, 1, 2, 6.0), -3.218750248070898, 1e-12);
}

TEST(Placement, PinnedToReferenceDraws) {
  for (std::uint64_t entity : {0ull, 1ull, 17ull, (1ull << 32) + 2}) {
    const std::uint64_t key = ref_key(42, 1, entity, 0);
    const Vec2 p = place_uniform(42, entity, 30.0);
    EXPECT_NEAR(p.x, -30.0 + 60.0 * ref_unit(key, 0), 1e-12);
    EXPECT_NEAR(p.y, -30.0 + 60.0 * ref_unit(key, 1), 1e-12);
  }
}

TEST(Walk, PinnedToReferenceDirection) {
  for (std::uint64_t step : {1ull, 2ull, 50ull}) {
    const double theta = 2.0 * M_PI * ref_unit(ref_key(7, 2, 4, step), 0);
    const Vec2 q = walk_step({0.0, 0.0}, 7, 4, step, 1.0, 100.0);
    EXPECT_NEAR(q.x, std::cos(theta), 1e-12);
    EXPECT_NEAR(q.y, std::sin(theta), 1e-12);
  }
}

// Distribution checks over deterministic tuples, thresholds at p < 1e-6.
constexpr int kDraws = 100000;
constexpr double kChi2_63 = 131.37;  // chi2(63) upper quantile at 1e-6

double chi_square_uniform(const std::vector<double>& counts) {
  const double expected = double(kDraws) / counts.size();
  double chi2 = 0.0;
  for (double c : counts) chi2 += (c - expected) * (c - expected) / expected;
  return chi2;
}

TEST(Placement, PassesTwoDimensionalChiSquare) {
  constexpr int kSide = 8;  // 8 x 8 cells
  constexpr double kHalf = 30.0;
  std::vector<double> counts(kSide * kSide, 0.0);
  const auto cell = [&](double v) {
    return std::min(kSide - 1,
                    static_cast<int>((v + kHalf) / (2.0 * kHalf) * kSide));
  };
  for (std::uint64_t e = 0; e < kDraws; ++e) {
    const Vec2 p = place_uniform(42, e, kHalf);
    counts[cell(p.y) * kSide + cell(p.x)] += 1.0;
  }
  EXPECT_LT(chi_square_uniform(counts), kChi2_63);
}

TEST(Walk, DirectionsPassAngleChiSquare) {
  constexpr int kBins = 64;
  std::vector<double> counts(kBins, 0.0);
  for (std::uint64_t station = 0; station < 1000; ++station) {
    for (std::uint64_t step = 1; step <= kDraws / 1000; ++step) {
      // A unit step from the centre of a large area never reflects, so the
      // displacement angle is the drawn direction.
      const Vec2 q = walk_step({0.0, 0.0}, 5, station, step, 1.0, 100.0);
      double theta = std::atan2(q.y, q.x);
      if (theta < 0.0) theta += 2.0 * M_PI;
      counts[std::min(kBins - 1,
                      static_cast<int>(theta / (2.0 * M_PI) * kBins))] += 1.0;
    }
  }
  EXPECT_LT(chi_square_uniform(counts), kChi2_63);
}

}  // namespace
}  // namespace wlansim::scenario
