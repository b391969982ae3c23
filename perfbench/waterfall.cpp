// waterfall_cold: an adaptive SNR waterfall on the default 24 Mbps
// system-level link (core::sweep_ber_adaptive, empty store, no service).
// The low-SNR points stop on the CI rule within one wave; the high-SNR
// points run into the packet cap.
#include <cstring>

#include "bench.h"
#include "core/experiments.h"
#include "core/parallel.h"
#include "phy80211a/bits.h"
#include "phy80211a/transmitter.h"
#include "trace.h"

namespace wlbench {
namespace {

using namespace wlansim;

constexpr double kSnrLo = 6.0;
constexpr int kPoints = 9;  // 6..14 dB in 1 dB steps
constexpr std::size_t kMinReps = 9;

sim::StoppingRule waterfall_rule() {
  sim::StoppingRule r;
  r.target_rel_ci = 0.25;
  r.confidence_z = 1.96;
  r.min_errors = 50;
  r.min_packets = 8;
  r.max_packets = 512;
  return r;
}

std::vector<core::LinkConfig> waterfall_points(std::uint64_t link_seed) {
  core::LinkConfig base = core::default_link_config();
  base.seed = link_seed;
  std::vector<core::LinkConfig> pts;
  for (int k = 0; k < kPoints; ++k) {
    core::LinkConfig c = base;
    c.snr_db = kSnrLo + k;
    pts.push_back(c);
  }
  return pts;
}

/// 20 Msps samples one packet of the waterfall link occupies, padding
/// included: the simulated time a packet stands for.
std::size_t samples_per_packet() {
  const core::LinkConfig cfg = core::default_link_config();
  dsp::Rng rng(1);
  const phy::Frame frame{cfg.rate, phy::random_bytes(cfg.psdu_bytes, rng)};
  return cfg.lead_samples + phy::Transmitter().modulate(frame).size() +
         cfg.tail_samples;
}

/// FNV-1a over every deterministic field of the results (wall time is the
/// one field a bit-identical change may move, so it is left out).
void digest(std::uint64_t& h, const std::vector<core::BerResult>& res) {
  auto eat = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const core::BerResult& r : res) {
    const std::uint64_t counts[] = {r.packets, r.packets_lost, r.packet_errors,
                                    r.bits, r.bit_errors, r.converged};
    eat(counts, sizeof counts);
    eat(&r.evm_rms_avg, sizeof r.evm_rms_avg);
    eat(&r.ber_ci_rel, sizeof r.ber_ci_rel);
  }
}

void emit_rows(Report& rep, const char* table, std::size_t index,
               const std::vector<core::LinkConfig>& pts,
               const std::vector<core::BerResult>& res) {
  for (std::size_t k = 0; k < res.size(); ++k) {
    rep.row(table, {{"rep", static_cast<double>(index)},
                    {"snr_db", *pts[k].snr_db},
                    {"packets", static_cast<double>(res[k].packets)},
                    {"bits", static_cast<double>(res[k].bits)},
                    {"bit_errors", static_cast<double>(res[k].bit_errors)},
                    {"ber_ci_rel", res[k].ber_ci_rel},
                    {"converged", res[k].converged ? 1.0 : 0.0}});
  }
}

std::size_t total_packets(const std::vector<core::BerResult>& res) {
  std::size_t n = 0;
  for (const core::BerResult& r : res) n += r.packets;
  return n;
}

class Waterfall final : public Journey {
 public:
  explicit Waterfall(const Context& ctx) : ctx_(ctx) {}
  const char* name() const override { return "waterfall"; }

  void setup(const std::filesystem::path&) override {
    spp_ = samples_per_packet();
  }

  void step(Report& rep) override {
    const auto pts = waterfall_points(mix(ctx_.seed, 100 + reps_));
    const std::int64_t t0 = now_ns();
    std::vector<core::BerResult> res;
    {
      Span s("core.sweep_ber_adaptive");
      res = core::sweep_ber_adaptive(pts, waterfall_rule());
      s.set_work(static_cast<double>(total_packets(res)));
    }
    const double dt = seconds_since(t0);
    const double packets = static_cast<double>(total_packets(res));
    rep.sample("waterfall_s", dt);
    rep.sample("waterfall_sim_s", packets * static_cast<double>(spp_) / 20e6);
    rep.sample("core.packets", packets);
    emit_rows(rep, "waterfall", reps_, pts, res);
    // The digest covers the first kMinReps waterfalls only: every run of a
    // seed makes those, however many more its time allows.
    if (reps_ < kMinReps) digest(digest_, res);
    ++reps_;
  }

  bool enough() const override { return reps_ >= kMinReps; }

  void finish(Report& rep) override {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(digest_));
    rep.info("waterfall_digest", hex);
  }

  double unit() override {
    const auto pts = waterfall_points(mix(ctx_.seed, 99));
    const std::int64_t t0 = now_ns();
    Span s("core.sweep_ber_adaptive");
    (void)core::sweep_ber_adaptive(pts, waterfall_rule());
    return seconds_since(t0);
  }

  void layers(Report& rep) override {
    // core.scaling_eff: the same waterfall on one thread and on nproc.
    const auto pts = waterfall_points(mix(ctx_.seed, 98));
    core::SweepOptions one, all;
    one.threads = 1;
    all.threads = ctx_.nproc;
    std::int64_t t0 = now_ns();
    {
      Span s("core.sweep_1t");
      (void)core::sweep_ber_adaptive(pts, waterfall_rule(), one);
    }
    rep.sample("scaling_t1_s", seconds_since(t0));
    t0 = now_ns();
    {
      Span s("core.sweep_Nt");
      (void)core::sweep_ber_adaptive(pts, waterfall_rule(), all);
    }
    rep.sample("scaling_tN_s", seconds_since(t0));
  }

 private:
  Context ctx_;
  std::size_t spp_ = 0;
  std::size_t reps_ = 0;
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
};

}  // namespace

std::unique_ptr<Journey> make_waterfall(const Context& ctx) {
  return std::make_unique<Waterfall>(ctx);
}

void make_waterfall_reference(std::size_t seeds, Report& rep) {
  // Fixed budget (the CI test off: every point runs the cap), so the
  // pooled reference carries no early-stopping bias. The seeds are a
  // stream no benchmark run draws from.
  sim::StoppingRule fixed = waterfall_rule();
  fixed.target_rel_ci = 0.0;
  for (std::size_t s = 0; s < seeds; ++s) {
    const auto pts = waterfall_points(mix(0x5eed0fa11ULL, s));
    emit_rows(rep, "reference", s, pts, core::sweep_ber_adaptive(pts, fixed));
  }
}

}  // namespace wlbench
