// Deterministic random number generation for reproducible simulations.
//
// Every stochastic component (noise sources, channels, data sources) takes an
// explicit Rng so that a whole link run is reproducible from a single seed,
// and so that parameter sweeps can use common random numbers across points.
#pragma once

#include <cmath>
#include <cstdint>
#include <random>

#include "dsp/types.h"

namespace wlansim::dsp {

/// MT19937-64 with block regeneration: the twist recomputes all 312 state
/// words at once (branchless matrix-A select) and tempers them into an
/// output buffer in a second, auto-vectorizable pass, so a draw in steady
/// state is a load + increment instead of libstdc++'s per-call twist
/// bookkeeping (~4x on the raw stream). The output sequence is mandated by
/// the C++ standard [rand.predef], so it is bit-identical to
/// std::mt19937_64 — and tests/dsp/test_window_rng.cpp pins that equality
/// against the host libstdc++ directly, because the memoized-TX replay and
/// graph-vs-direct equivalence tests depend on the noise stream never
/// moving.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(std::uint64_t s = 5489u) { seed(s); }

  void seed(std::uint64_t s) {
    state_[0] = s;
    for (std::size_t i = 1; i < kN; ++i) {
      state_[i] =
          6364136223846793005ull * (state_[i - 1] ^ (state_[i - 1] >> 62)) + i;
    }
    idx_ = kN;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  result_type operator()() {
    if (idx_ >= kN) regen();
    return out_[idx_++];
  }

  /// Copy the next n raw draws into dst — the exact sequence n successive
  /// operator() calls would return, served as memcpy spans of the tempered
  /// block. Lets bulk consumers (Rng::fill_gaussian) amortize the per-draw
  /// index bookkeeping away.
  void block(std::uint64_t* dst, std::size_t n);

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;

  void regen();  // twist + temper the whole block (rng.cpp)

  std::uint64_t state_[kN];
  std::uint64_t out_[kN];  // tempered, ready-to-serve values
  std::size_t idx_ = kN;
};

/// Seedable random source wrapping a 64-bit Mersenne Twister.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) : gen_(seed) {}

  /// Re-seed; the stream restarts deterministically.
  void seed(std::uint64_t s) {
    gen_.seed(s);
    saved_available_ = false;
  }

  /// Uniform in [0, 1).
  double uniform();

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal (mean 0, variance 1). The polar (Marsaglia) rejection
  /// method, replicating libstdc++'s std::normal_distribution<double>
  /// draw-for-draw: identical canonical-uniform conversion, identical
  /// rejection test, identical save-the-second-value pairing — so the
  /// noise stream is bit-identical to what the std distribution produced,
  /// while running on the faster block engine above. Inline because the
  /// front-end noise sources draw per oversampled sample.
  double gaussian() {
    if (saved_available_) {
      saved_available_ = false;
      return saved_;
    }
    double x, y, r2;
    do {
      x = 2.0 * canonical_() - 1.0;
      y = 2.0 * canonical_() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    const double mult = std::sqrt(-2.0 * std::log(r2) / r2);
    saved_ = x * mult;
    saved_available_ = true;
    return y * mult;
  }

  /// Normal with the given standard deviation.
  double gaussian(double sigma) { return sigma * gaussian(); }

  /// Fill dst with n standard-normal draws: the exact same stream as n
  /// successive gaussian() calls (including the carried half-pair at the
  /// boundaries), but restructured into engine-block-sized straight-line
  /// passes with a branch-free accept compaction, so the per-draw cost is
  /// the log/sqrt math rather than rejection-loop mispredicts. The bulk
  /// noise loops (AWGN fill, LNA/mixer additive noise tiles) use this.
  void fill_gaussian(double* dst, std::size_t n);

  /// Circularly-symmetric complex Gaussian with total variance
  /// E|x|^2 == variance (variance/2 per rail).
  Cplx cgaussian(double variance) {
    const double s = std::sqrt(variance / 2.0);
    return {gaussian(s), gaussian(s)};
  }

  /// A single fair random bit.
  bool bit();

  /// Fill a byte buffer with random bytes.
  void bytes(std::uint8_t* dst, std::size_t n);

  /// Derive an independent child generator (for giving each block its own
  /// stream while keeping the whole run a function of one master seed).
  Rng fork();

  /// Direct access for std:: distributions.
  Mt19937_64& engine() { return gen_; }

 private:
  // libstdc++'s generate_canonical<double, 53> over a 64-bit engine: one
  // raw draw scaled by 2^-64 (an exact operation), clamped below 1.0 the
  // same way the library does.
  //
  // The halves form hi*2^-32 + lo*2^-64 is bit-identical to
  // double(raw)*2^-64: both scalings are exact (32-bit integers convert
  // exactly, powers of two scale exactly), so the one rounded operation is
  // the sum — which rounds the exact value raw*2^-64 once, just as the
  // int64->double conversion rounds raw once before its exact scaling.
  // Unlike double(uint64), it compiles branch-free: the sign-test branch
  // gcc emits for the unsigned conversion mispredicts half the time on
  // random draws and dominates the canonical cost.
  static double to_canonical_(std::uint64_t raw) {
    const double hi = static_cast<double>(static_cast<std::uint32_t>(raw >> 32));
    const double lo = static_cast<double>(static_cast<std::uint32_t>(raw));
    double r = hi * 0x1p-32 + lo * 0x1p-64;
    if (r >= 1.0) r = 0x1.fffffffffffffp-1;
    return r;
  }

  double canonical_() { return to_canonical_(gen_()); }

  Mt19937_64 gen_;
  // The second value of each polar pair, carried across calls exactly like
  // std::normal_distribution's _M_saved so the stream pairing is preserved.
  double saved_ = 0.0;
  bool saved_available_ = false;
};

// Stateless counter-based draws (Salmon et al., "Parallel Random Numbers:
// As Easy as 1, 2, 3", SC'11): a draw is a pure function of a 64-bit key
// and a small counter, so a consumer that needs one or two numbers per
// (entity, step) tuple pays a few multiplies instead of seeding and
// twisting a 2.5 KB Mersenne Twister. The key must itself be a
// well-mixed hash (core::packet_seed, scenario::geo_seed): the counter
// offsets are golden-ratio strides of it.

/// The splitmix64 output function (Steele, Lea & Flood, OOPSLA'14): adds
/// the golden-ratio increment, then a full-avalanche bijective finalizer.
inline std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Uniform in [0, 1): the top 53 bits of mix64(key + k * golden) scaled
/// by 2^-53, so every value is an exact multiple of 2^-53 and 1.0 is
/// unreachable. `k` picks independent draws under one key.
inline double counter_uniform(std::uint64_t key, std::uint64_t k = 0) {
  // The shifted value fits 53 bits, so the signed conversion is exact and
  // compiles to one instruction (the unsigned one branches on the sign).
  const std::uint64_t bits = mix64(key + k * 0x9e3779b97f4a7c15ull) >> 11;
  return static_cast<double>(static_cast<std::int64_t>(bits)) * 0x1p-53;
}

/// Standard normal from one key: Box-Muller over counter_uniform(key, 0)
/// and (key, 1), with the radius uniform taken in (0, 1] so log never sees
/// zero (|result| <= sqrt(106 ln 2) ~ 8.57). No rejection loop, so the
/// cost is one log, one sqrt and one cos per draw.
inline double counter_gaussian(std::uint64_t key) {
  const double u1 = 1.0 - counter_uniform(key, 0);
  const double u2 = counter_uniform(key, 1);
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

}  // namespace wlansim::dsp
