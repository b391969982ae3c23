#include "scenario/geometry.h"

#include <algorithm>
#include <cmath>

#include "dsp/rng.h"

namespace wlansim::scenario {

namespace {

/// Reflect `v` into [-half, half] (handles multiple bounces for steps
/// longer than the area).
double reflect(double v, double half) {
  if (half <= 0.0) return 0.0;
  const double period = 4.0 * half;
  double r = std::fmod(v + half, period);
  if (r < 0.0) r += period;
  return r <= 2.0 * half ? r - half : 3.0 * half - r;
}

}  // namespace

double distance_m(Vec2 a, Vec2 b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

std::uint64_t geo_seed(std::uint64_t seed, GeoStream stream,
                       std::uint64_t entity, std::uint64_t step) {
  // Chain the mix so each argument lands in a distinct avalanche round:
  // equal XOR-sums of different tuples cannot collide.
  std::uint64_t h = dsp::mix64(seed);
  h = dsp::mix64(h ^ static_cast<std::uint64_t>(stream));
  h = dsp::mix64(h ^ entity);
  return dsp::mix64(h ^ step);
}

double log_distance_path_loss_db(const PathLossConfig& cfg, double dist) {
  const double d = std::max(dist, cfg.min_distance_m);
  return cfg.ref_loss_db +
         10.0 * cfg.exponent * std::log10(d / cfg.ref_distance_m);
}

double shadowing_db(std::uint64_t seed, std::uint64_t station,
                    std::uint64_t bss, std::uint64_t step, double sigma_db) {
  if (!(sigma_db > 0.0)) return 0.0;
  // Fold (station, bss) into one entity counter; bss counts are tiny next
  // to the 2^32 stride, so tuples never alias.
  const std::uint64_t entity = (bss << 32) ^ station;
  return sigma_db * dsp::counter_gaussian(
                        geo_seed(seed, GeoStream::kShadowing, entity, step));
}

Vec2 place_uniform(std::uint64_t seed, std::uint64_t entity,
                   double area_half_m) {
  const std::uint64_t key = geo_seed(seed, GeoStream::kPlacement, entity);
  const double span = 2.0 * area_half_m;
  return {-area_half_m + span * dsp::counter_uniform(key, 0),
          -area_half_m + span * dsp::counter_uniform(key, 1)};
}

Vec2 walk_step(Vec2 pos, std::uint64_t seed, std::uint64_t station,
               std::uint64_t step, double step_m, double area_half_m) {
  if (!(step_m > 0.0)) return pos;
  const double theta =
      2.0 * M_PI *
      dsp::counter_uniform(geo_seed(seed, GeoStream::kWalk, station, step));
  return {reflect(pos.x + step_m * std::cos(theta), area_half_m),
          reflect(pos.y + step_m * std::sin(theta), area_half_m)};
}

}  // namespace wlansim::scenario
