// drop_warm: a network-scale drop (scenario::run_drop) with co-channel
// BSSs only, so every station-step shares one surrogate fingerprint. Setup
// calibrates every SNR bin of the drop's span into a fresh store; each
// measured drop then draws new geometry and must be answered warm, with
// zero Monte-Carlo packets.
#include <cmath>
#include <map>

#include "bench.h"
#include "core/experiments.h"
#include "core/fingerprint.h"
#include "core/surrogate.h"
#include "scenario/drop.h"
#include "sim/ber_surrogate.h"
#include "trace.h"

namespace wlbench {
namespace {

using namespace wlansim;

constexpr std::size_t kStations = 1000;
constexpr std::size_t kSteps = 4;
constexpr std::size_t kMinDrops = 40;

scenario::DropConfig drop_config(std::uint64_t seed,
                                 const std::filesystem::path& store) {
  scenario::DropConfig cfg;
  cfg.num_stations = kStations;
  cfg.num_steps = kSteps;
  cfg.area_half_m = 60.0;
  cfg.link = core::default_link_config();
  cfg.link.psdu_bytes = 60;
  cfg.link.seed = mix(seed, 200) >> 32;
  // Two co-channel BSSs (offset 0) outside the serving area: they lower
  // SINR but add no adjacent-channel interferer, so no second fingerprint.
  for (std::uint64_t b = 0; b < 2; ++b) {
    const double ang = 2.0 * M_PI * unit_draw(seed, 210 + b);
    const double r = 120.0 + 60.0 * unit_draw(seed, 220 + b);
    cfg.interferers.push_back(
        {{r * std::cos(ang), r * std::sin(ang)}, 16.0, 0.0});
  }
  cfg.snr_bin_db = 0.5;
  cfg.snr_min_db = 2.0;
  cfg.snr_max_db = 16.0;
  cfg.rule.target_rel_ci = 0.5;
  cfg.rule.min_errors = 20;
  cfg.rule.min_packets = 8;
  cfg.rule.max_packets = 48;
  cfg.store_dir = store;
  return cfg;
}

/// One config per SNR bin of the drop's clamped span.
std::vector<core::LinkConfig> bin_configs(const scenario::DropConfig& cfg) {
  std::vector<core::LinkConfig> out;
  const auto bins = static_cast<int>(
      std::lround((cfg.snr_max_db - cfg.snr_min_db) / cfg.snr_bin_db));
  for (int k = 0; k <= bins; ++k) {
    core::LinkConfig c = cfg.link;
    c.snr_db = cfg.snr_min_db + k * cfg.snr_bin_db;
    c.interferer.reset();
    out.push_back(c);
  }
  return out;
}

core::DedupOptions dedup_options(const scenario::DropConfig& cfg,
                                 sim::BerSurrogate* cache) {
  core::DedupOptions d;
  d.surrogate.store_dir = cfg.store_dir;
  d.surrogate.axis = sim::SurrogateAxis::kSnrDb;
  d.surrogate.rule = cfg.rule;
  d.surrogate.cache = cache;
  d.bin_width_db = cfg.snr_bin_db;
  return d;
}

struct Seen {
  double snr_bin_db;
  double ber;
  double per;
  bool warm;
};

class Drop final : public Journey {
 public:
  explicit Drop(const Context& ctx) : ctx_(ctx) {}
  const char* name() const override { return "drop"; }

  void setup(const std::filesystem::path& dir) override {
    cfg_ = drop_config(ctx_.seed, dir / "store");
    const auto bins = bin_configs(cfg_);
    (void)core::sweep_ber_deduped(bins, dedup_options(cfg_, nullptr));
    const auto curve = sim::CalibrationStore(cfg_.store_dir)
                           .load(core::surrogate_fingerprint(
                               bins.front(), sim::SurrogateAxis::kSnrDb));
    if (!curve || curve->points.size() != bins.size())
      throw std::runtime_error("drop setup: store not filled");
    knots_.clear();
    for (const sim::CalibrationPoint& p : curve->points) knots_[p.x] = p;
    seen_.reserve(kStations * kSteps);
  }

  void step(Report& rep) override {
    const std::int64_t t0 = now_ns();
    const scenario::DropSummary sum = run_one(mix(ctx_.seed, 300 + drops_));
    rep.sample("drop_s", seconds_since(t0));
    rep.sample("drop_stations", static_cast<double>(kStations * kSteps));
    for (const scenario::StepSummary& st : sum.steps)
      rep.sample("scenario.step_ms", 1e3 * st.wall_seconds);
    rep.count("drop_distinct", static_cast<double>(sum.totals.distinct));
    rep.count("drop_queries", static_cast<double>(sum.totals.queries));
    rep.check(sum.totals.cold == 0, "drop: a station-step ran cold");
    for (const Seen& s : seen_) {
      const auto k = knots_.find(s.snr_bin_db);
      rep.check(s.warm && k != knots_.end() && k->second.ber == s.ber &&
                    k->second.per == s.per,
                "drop: sample differs from its stored knot");
    }
    ++drops_;
  }

  bool enough() const override { return drops_ >= kMinDrops; }

  double unit() override {
    const std::int64_t t0 = now_ns();
    (void)run_one(mix(ctx_.seed, 299));
    return seconds_since(t0);
  }

  void layers(Report& rep) override {
    // Time one drop, then sweep_ber_deduped on exactly its station-step
    // configs (one call per step, as run_drop makes them): the difference
    // is the geometry share.
    scenario::DropConfig cfg = cfg_;
    cfg.seed = mix(ctx_.seed, 298);
    std::vector<std::vector<core::LinkConfig>> steps(cfg.num_steps);
    std::int64_t t0 = now_ns();
    {
      Span s("scenario.run_drop", static_cast<double>(kStations * kSteps));
      (void)scenario::run_drop(cfg, [&](const scenario::StationSample& smp) {
        steps[smp.step].push_back(scenario::sample_link_config(cfg, smp));
      });
    }
    const double drop_s = seconds_since(t0);
    sim::BerSurrogate cache{sim::CalibrationStore(cfg.store_dir)};
    t0 = now_ns();
    for (const auto& configs : steps) {
      Span s("core.dedup", static_cast<double>(configs.size()));
      (void)core::sweep_ber_deduped(configs, dedup_options(cfg, &cache));
    }
    const double dedup_s = seconds_since(t0);
    rep.sample("geometry_drop_s", drop_s);
    rep.sample("geometry_dedup_s", dedup_s);

    // Store and curve layers on the drop's own curve.
    const std::string fp = core::surrogate_fingerprint(
        bin_configs(cfg).front(), sim::SurrogateAxis::kSnrDb);
    const sim::CalibrationStore store(cfg.store_dir);
    std::optional<sim::CalibrationCurve> curve;
    constexpr int kIo = 50;
    {
      Span s("sim.store_load", kIo);
      for (int k = 0; k < kIo; ++k) curve = store.load(fp);
    }
    const sim::CalibrationStore copy(cfg.store_dir.parent_path() / "copy");
    {
      Span s("sim.store_save", kIo);
      for (int k = 0; k < kIo; ++k) (void)copy.save(*curve);
    }
    constexpr int kQueries = 200000;
    double acc = 0.0;
    {
      Span s("sim.curve_query", kQueries);
      const double lo = cfg.snr_min_db, span = cfg.snr_max_db - cfg.snr_min_db;
      for (int k = 0; k < kQueries; ++k)
        acc += curve->query(lo + span * (k + 0.5) / kQueries).ber;
    }
    rep.count("curve_query_checksum", acc);
  }

 private:
  scenario::DropSummary run_one(std::uint64_t geo_seed) {
    scenario::DropConfig cfg = cfg_;
    cfg.seed = geo_seed;
    seen_.clear();
    Span s("scenario.run_drop", static_cast<double>(kStations * kSteps));
    return scenario::run_drop(cfg, [this](const scenario::StationSample& smp) {
      seen_.push_back({smp.snr_bin_db, smp.result.model_ber,
                       smp.result.model_per, smp.result.from_surrogate});
    });
  }

  Context ctx_;
  scenario::DropConfig cfg_;
  std::map<double, sim::CalibrationPoint> knots_;
  std::vector<Seen> seen_;
  std::size_t drops_ = 0;
};

}  // namespace

std::unique_ptr<Journey> make_drop(const Context& ctx) {
  return std::make_unique<Drop>(ctx);
}

}  // namespace wlbench
