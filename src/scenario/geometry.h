// Drop geometry: deterministic counter-seeded station placement, the
// log-distance path-loss + lognormal-shadowing radio model, and random-walk
// mobility — the layer that turns "N stations in an area" into a
// per-station per-step SNR (the scenario template of the ns-3 exemplar:
// random-walk STAs inside +/- area_half bounds around an AP, with
// interferer BSSs; see ROADMAP item 1).
//
// Determinism contract: every random quantity is a pure function of
// (drop seed, stream, entity, step) through the counter-based geo_seed
// below — no draw depends on evaluation order, thread count, or how many
// stations surround it. That is the scenario-level analogue of
// core::packet_seed's per-packet contract, and what makes drop traces
// byte-identical across thread counts.
//
// The draws themselves are stateless: each is dsp::counter_uniform /
// dsp::counter_gaussian of its geo_seed key (a few multiplies and, for
// shadowing, one log/sqrt/cos), with no generator object behind it.
// Drop traces recorded while each draw still seeded a dsp::Rng (a
// Mersenne Twister) from its geo_seed do not reproduce by seed: the keys
// are the same, but positions, walk directions and shadowing values all
// moved. Geometry never enters a link fingerprint (a station's link
// carries only its binned SNR and adjacent-channel level), so stored
// curves and checkpoints are unaffected.
#pragma once

#include <cstdint>

namespace wlansim::scenario {

struct Vec2 {
  double x = 0.0;
  double y = 0.0;
};

double distance_m(Vec2 a, Vec2 b);

/// Log-distance path loss with lognormal shadowing:
///   PL(d) = ref_loss_db + 10 * exponent * log10(d / ref_distance_m) + X
/// where X ~ N(0, shadowing_sigma_db^2) is drawn per (station, BSS, step).
struct PathLossConfig {
  /// Loss at the reference distance [dB]. Default: free space at 1 m,
  /// 5.2 GHz (20 log10(4 pi d f / c) = 46.7 dB) — the 802.11a band.
  double ref_loss_db = 46.7;
  double ref_distance_m = 1.0;
  /// Distance exponent: 2 = free space, ~3 = indoor office with walls.
  double exponent = 3.0;
  double shadowing_sigma_db = 6.0;
  /// Distances below this clamp to it: the far-field model has no meaning
  /// at (and diverges toward) zero range.
  double min_distance_m = 1.0;
};

struct MobilityConfig {
  /// Random-walk step length per drop step [m]; 0 = static stations.
  /// Direction is uniform per (station, step); positions reflect off the
  /// +/- area_half boundary.
  double step_m = 1.0;
};

/// Named sub-streams of the drop's randomness. Values are part of the
/// reproducibility contract: changing them reshuffles every drop.
enum class GeoStream : std::uint64_t {
  kPlacement = 1,  ///< initial station / BSS positions
  kWalk = 2,       ///< per-step random-walk directions
  kShadowing = 3,  ///< per-(station, BSS, step) shadowing draws
};

/// Counter-based sub-seed: a splitmix64-style mix of the drop seed, the
/// stream tag, the entity index, and the step counter. Statistically
/// independent across any two distinct argument tuples, and — like
/// core::packet_seed — schedule-independent by construction.
std::uint64_t geo_seed(std::uint64_t seed, GeoStream stream,
                       std::uint64_t entity, std::uint64_t step = 0);

/// Deterministic path loss (no shadowing) at `dist` meters.
double log_distance_path_loss_db(const PathLossConfig& cfg, double dist);

/// The shadowing term [dB] station `station` sees from transmitter `bss`
/// at `step`: N(0, sigma^2) from the kShadowing stream. Entity 0 is the
/// serving AP; interferer BSS j uses entity j + 1.
double shadowing_db(std::uint64_t seed, std::uint64_t station,
                    std::uint64_t bss, std::uint64_t step, double sigma_db);

/// Uniform placement in the square [-area_half, area_half]^2 from the
/// kPlacement stream.
Vec2 place_uniform(std::uint64_t seed, std::uint64_t entity,
                   double area_half_m);

/// One random-walk step from `pos`: direction uniform in [0, 2 pi) from
/// the kWalk stream, length `step_m`, reflected at the +/- area_half
/// boundary so stations never leave the drop area.
Vec2 walk_step(Vec2 pos, std::uint64_t seed, std::uint64_t station,
               std::uint64_t step, double step_m, double area_half_m);

}  // namespace wlansim::scenario
