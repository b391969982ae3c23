#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "dsp/mathutil.h"
#include "dsp/rng.h"
#include "dsp/window.h"

namespace wlansim::dsp {
namespace {

TEST(Window, RejectsZeroLength) {
  EXPECT_THROW(make_window(WindowType::kHann, 0), std::invalid_argument);
}

TEST(Window, SymmetryHolds) {
  for (auto type : {WindowType::kHann, WindowType::kHamming,
                    WindowType::kBlackman, WindowType::kKaiser}) {
    const RVec w = make_window(type, 33);
    for (std::size_t i = 0; i < w.size(); ++i) {
      EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-12);
    }
  }
}

TEST(Window, HannEndpointsAreZeroPeakIsOne) {
  const RVec w = make_window(WindowType::kHann, 65);
  EXPECT_NEAR(w[0], 0.0, 1e-12);
  EXPECT_NEAR(w[64], 0.0, 1e-12);
  EXPECT_NEAR(w[32], 1.0, 1e-12);
}

TEST(Window, RectIsAllOnes) {
  const RVec w = make_window(WindowType::kRect, 10);
  for (double v : w) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Window, KaiserBetaFormulaRegions) {
  EXPECT_NEAR(kaiser_beta_for_attenuation(10.0), 0.0, 1e-12);
  EXPECT_GT(kaiser_beta_for_attenuation(40.0), 2.0);
  EXPECT_NEAR(kaiser_beta_for_attenuation(60.0), 0.1102 * (60.0 - 8.7), 1e-9);
}

TEST(Window, KaiserLengthIsOddAndGrowsWithSpec) {
  const std::size_t a = kaiser_length(40.0, 0.1);
  const std::size_t b = kaiser_length(80.0, 0.1);
  const std::size_t c = kaiser_length(40.0, 0.01);
  EXPECT_EQ(a % 2, 1u);
  EXPECT_LT(a, b);
  EXPECT_LT(a, c);
  EXPECT_THROW(kaiser_length(60.0, 0.0), std::invalid_argument);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.gaussian(), b.gaussian());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform() == b.uniform()) ++same;
  EXPECT_LT(same, 5);
}

TEST(Rng, GaussianMomentsAreCorrect) {
  Rng rng(123);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gaussian();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Rng, ComplexGaussianVariance) {
  Rng rng(77);
  const int n = 100000;
  double p = 0.0;
  for (int i = 0; i < n; ++i) p += std::norm(rng.cgaussian(3.0));
  EXPECT_NEAR(p / n, 3.0, 0.05);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    if (v == 0) saw_lo = true;
    if (v == 3) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

// The memoized-TX replay and graph-vs-direct equivalence tests depend on
// the noise stream never moving, so the hand-rolled engine and normal
// sampler are pinned bit-for-bit against the host libstdc++ here. If a
// toolchain change ever breaks one of these, the replacement must
// reproduce the old stream, not just the distribution.
TEST(Rng, EngineMatchesStdMt19937_64BitExact) {
  for (const std::uint64_t seed : {1ull, 2003ull, 0xdeadbeefull}) {
    std::mt19937_64 ref(seed);
    Mt19937_64 mine(seed);
    // > 2 full regeneration blocks so the twist wrap-around is covered.
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(ref(), mine());
  }
}

TEST(Rng, GaussianMatchesStdNormalDistributionBitExact) {
  std::mt19937_64 refg(2003);
  std::normal_distribution<double> refd(0.0, 1.0);
  Rng mine(2003);
  for (int i = 0; i < 20000; ++i) {
    const double want = refd(refg);
    ASSERT_EQ(want, mine.gaussian()) << "draw " << i;
  }
}

TEST(Rng, FillGaussianMatchesSingleDrawStream) {
  Rng singles(41);
  Rng bulk(41);
  double buf[257];
  // Odd sizes and interleaved single draws exercise the carried half-pair
  // at every chunk boundary.
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                              std::size_t{64}, std::size_t{257},
                              std::size_t{100}, std::size_t{3}}) {
    bulk.fill_gaussian(buf, n);
    for (std::size_t k = 0; k < n; ++k) ASSERT_EQ(singles.gaussian(), buf[k]);
    ASSERT_EQ(singles.gaussian(), bulk.gaussian());
  }
}

TEST(Rng, SeedResetsCarriedPairLikeDistributionReset) {
  Rng a(7);
  a.gaussian();  // leaves a banked second value
  a.seed(7);
  std::mt19937_64 refg(7);
  std::normal_distribution<double> refd(0.0, 1.0);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(refd(refg), a.gaussian());
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(9);
  Rng child = a.fork();
  // Child and parent streams should not be identical.
  int same = 0;
  for (int i = 0; i < 50; ++i)
    if (a.uniform() == child.uniform()) ++same;
  EXPECT_LT(same, 3);
}

// Counter-based draws. Every key set below is deterministic and every
// threshold sits at p < 1e-6 under the null hypothesis, so a failure means
// a broken generator, not an unlucky run.

/// Inverse of mix64 (each xorshift and odd multiply is invertible mod
/// 2^64): lets the tests aim a key at an exact raw output.
std::uint64_t unmix64(std::uint64_t y) {
  const auto unxorshift = [](std::uint64_t v, int s) {
    std::uint64_t x = v;
    for (int i = 0; i < 64 / s + 1; ++i) x = v ^ (x >> s);
    return x;
  };
  const auto inverse = [](std::uint64_t a) {  // Newton: a * x == 1 mod 2^64
    std::uint64_t x = a;
    for (int i = 0; i < 6; ++i) x *= 2 - a * x;
    return x;
  };
  y = unxorshift(y, 31) * inverse(0x94d049bb133111ebull);
  y = unxorshift(y, 27) * inverse(0xbf58476d1ce4e5b9ull);
  return unxorshift(y, 30) - 0x9e3779b97f4a7c15ull;
}

/// Pearson statistic of `counts` against `expected` per bin.
double chi_square(const std::vector<double>& counts,
                  const std::vector<double>& expected) {
  double chi2 = 0.0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const double d = counts[b] - expected[b];
    chi2 += d * d / expected[b];
  }
  return chi2;
}

constexpr int kDraws = 100000;
// Two-sided standard-normal quantile at p = 1e-6.
constexpr double kZ = 4.8916;

TEST(CounterRng, Mix64IsTheSplitmix64OutputFunction) {
  // Reference values of SplitMix64 seeded with 0 (state advances by the
  // golden increment before each output).
  EXPECT_EQ(mix64(0), 0xe220a8397b1dcdafull);
  EXPECT_EQ(mix64(0x9e3779b97f4a7c15ull), 0x6e789e6aa1b965f4ull);
  for (std::uint64_t t : {0ull, 1ull, ~0ull, 0x0123456789abcdefull})
    EXPECT_EQ(mix64(unmix64(t)), t);
}

TEST(CounterRng, UniformStaysInUnitIntervalIncludingExtremes) {
  for (std::uint64_t key = 0; key < kDraws; ++key) {
    const double u = counter_uniform(key, key % 3);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
  // Keys aimed at the raw extremes: all-zero bits give exactly 0, all-one
  // bits the largest double below 1.
  EXPECT_EQ(counter_uniform(unmix64(0)), 0.0);
  EXPECT_EQ(counter_uniform(unmix64(~0ull)), 1.0 - 0x1p-53);
  EXPECT_LT(counter_uniform(unmix64(~0ull)), 1.0);
  // The counter offsets the key by golden strides.
  EXPECT_EQ(counter_uniform(unmix64(0) - 2 * 0x9e3779b97f4a7c15ull, 2), 0.0);
}

TEST(CounterRng, GaussianIsFiniteAtTheRadiusExtremes) {
  // u1 = 1 (raw all-zero): radius 0. u1 = 2^-53 (raw all-one): the
  // largest radius, sqrt(106 ln 2).
  EXPECT_EQ(counter_gaussian(unmix64(0)), 0.0);
  const double far = counter_gaussian(unmix64(~0ull));
  EXPECT_TRUE(std::isfinite(far));
  EXPECT_LE(std::abs(far), std::sqrt(106.0 * std::log(2.0)) + 1e-12);
}

TEST(CounterRng, UniformPassesChiSquareOnSequentialKeys) {
  constexpr int kBins = 64;
  std::vector<double> counts(kBins, 0.0);
  for (std::uint64_t key = 0; key < kDraws; ++key)
    counts[static_cast<int>(counter_uniform(key) * kBins)] += 1.0;
  const std::vector<double> expected(kBins, double(kDraws) / kBins);
  EXPECT_LT(chi_square(counts, expected), 131.37);  // chi2(63) at 1e-6
}

TEST(CounterRng, GaussianMomentsMatchStandardNormal) {
  double s1 = 0.0, s2 = 0.0, s4 = 0.0;
  for (std::uint64_t key = 0; key < kDraws; ++key) {
    const double x = counter_gaussian(key);
    s1 += x;
    s2 += x * x;
    s4 += x * x * x * x;
  }
  const double n = kDraws;
  const double mean = s1 / n;
  const double var = s2 / n - mean * mean;
  // Standard errors for N(0,1): mean 1/sqrt(n), variance sqrt(2/n),
  // kurtosis sqrt(24/n).
  EXPECT_NEAR(mean, 0.0, kZ / std::sqrt(n));
  EXPECT_NEAR(var, 1.0, kZ * std::sqrt(2.0 / n));
  EXPECT_NEAR(s4 / n / (var * var), 3.0, kZ * std::sqrt(24.0 / n));
}

TEST(CounterRng, GaussianPassesChiSquareAgainstNormalCdf) {
  // 28 bins of width 0.25 over [-3.5, 3.5] plus the two tails (>= 23
  // expected counts each).
  constexpr double kEdge = 3.5, kWidth = 0.25;
  constexpr int kInner = 28;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto cdf = [](double z) {
    return 0.5 * std::erfc(-z / std::sqrt(2.0));
  };
  std::vector<double> counts(kInner + 2, 0.0), expected(kInner + 2, 0.0);
  for (int b = 0; b < kInner + 2; ++b) {
    const double lo = b == 0 ? -kInf : -kEdge + (b - 1) * kWidth;
    const double hi = b == kInner + 1 ? kInf : -kEdge + b * kWidth;
    expected[b] = kDraws * (cdf(hi) - cdf(lo));
  }
  for (std::uint64_t key = 0; key < kDraws; ++key) {
    const double x = counter_gaussian(key);
    int b = kInner + 1;
    if (x < -kEdge) {
      b = 0;
    } else if (x < kEdge) {
      b = std::min(kInner, 1 + static_cast<int>((x + kEdge) / kWidth));
    }
    counts[b] += 1.0;
  }
  EXPECT_LT(chi_square(counts, expected), 80.44);  // chi2(29) at 1e-6
}

TEST(CounterRng, AdjacentKeysAreUncorrelated) {
  // Lag-1 correlation over sequential keys, and between the two counters
  // Box-Muller pairs under one key; each has standard error 1/sqrt(n).
  const auto corr = [](auto&& a, auto&& b) {
    double sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
    for (std::uint64_t key = 0; key < kDraws; ++key) {
      const double x = a(key), y = b(key);
      sa += x;
      sb += y;
      saa += x * x;
      sbb += y * y;
      sab += x * y;
    }
    const double n = kDraws;
    return (sab / n - sa / n * sb / n) /
           std::sqrt((saa / n - sa / n * sa / n) * (sbb / n - sb / n * sb / n));
  };
  const double bound = kZ / std::sqrt(double(kDraws));
  EXPECT_NEAR(corr([](std::uint64_t k) { return counter_uniform(k); },
                   [](std::uint64_t k) { return counter_uniform(k + 1); }),
              0.0, bound);
  EXPECT_NEAR(corr([](std::uint64_t k) { return counter_uniform(k, 0); },
                   [](std::uint64_t k) { return counter_uniform(k, 1); }),
              0.0, bound);
  EXPECT_NEAR(corr([](std::uint64_t k) { return counter_gaussian(k); },
                   [](std::uint64_t k) { return counter_gaussian(k + 1); }),
              0.0, bound);
}

}  // namespace
}  // namespace wlansim::dsp
