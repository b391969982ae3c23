// cosim_table2: the paper's Table 2 pair. The same packets (same link seed
// and packet indices) go through the graph-path system-level link
// (PacketPath::kGraph) and the co-simulated link (RfEngine::kCosim, which
// always runs the graph), one packet of each in turn on one thread.
#include <cmath>

#include "bench.h"
#include "core/experiments.h"
#include "core/link.h"
#include "sim/cosim.h"
#include "trace.h"

namespace wlbench {
namespace {

using namespace wlansim;

constexpr std::uint64_t kMinPairs = 16;
/// Stated EVM bound between the engines. Co-simulation ignores the noise
/// functions (the paper's AMS 2.0 gap, §5.1), so its EVM is lower than
/// the system-level model's; the gap must stay within this many RMS EVM
/// units.
constexpr double kEvmGapBound = 0.05;

core::LinkConfig graph_config(std::uint64_t seed) {
  core::LinkConfig c = core::default_link_config();
  c.packet_path = core::PacketPath::kGraph;
  c.seed = mix(seed, 600) >> 32;
  return c;
}

core::LinkConfig cosim_config(std::uint64_t seed) {
  core::LinkConfig c = graph_config(seed);
  c.rf_engine = core::RfEngine::kCosim;
  return c;
}

class Cosim final : public Journey {
 public:
  explicit Cosim(const Context& ctx) : ctx_(ctx) {}
  const char* name() const override { return "cosim"; }

  void setup(const std::filesystem::path&) override {
    graph_ = std::make_unique<core::WlanLink>(graph_config(ctx_.seed));
    cosim_ = std::make_unique<core::WlanLink>(cosim_config(ctx_.seed));
    (void)graph_->run_packet(0);
    (void)cosim_->run_packet(0);
  }

  void step(Report& rep) override {
    const std::uint64_t i = ++pairs_;
    const auto [g, tg] = timed(*graph_, "sim.graph_packet", i);
    const auto [c, tc] = timed(*cosim_, "sim.cosim_packet", i);
    rep.sample("graph_packet_s", tg);
    rep.sample("cosim_packet_s", tc);
    rep.check(g.decoded, "cosim_table2: graph path failed to decode");
    rep.check(c.decoded, "cosim_table2: co-sim path failed to decode");
    rep.check(std::fabs(c.evm_rms - g.evm_rms) <= kEvmGapBound,
              "cosim_table2: EVM gap beyond bound");
  }

  bool enough() const override { return pairs_ >= kMinPairs; }

  double unit() override {
    const std::int64_t t0 = now_ns();
    (void)timed(*graph_, "sim.graph_packet", 0);
    (void)timed(*cosim_, "sim.cosim_packet", 0);
    return seconds_since(t0);
  }

  void layers(Report& rep) override {
    // The co-sim front-end alone on one packet's oversampled input.
    const dsp::CVec in = graph_->last_rf_input();
    sim::CosimRfReceiver rx(cosim_config(ctx_.seed).rf, sim::CosimConfig{},
                            dsp::Rng(7));
    {
      Span s("sim.cosim_rf", static_cast<double>(in.size()));
      (void)rx.process(in);
    }
    rep.count("cosim_samples", static_cast<double>(in.size()));
    rep.count("cosim_analog_steps", static_cast<double>(rx.analog_steps()));
  }

 private:
  static std::pair<core::PacketResult, double> timed(core::WlanLink& link,
                                                     const char* span,
                                                     std::uint64_t i) {
    const std::int64_t t0 = now_ns();
    core::PacketResult r;
    {
      Span s(span, 1.0, i);
      r = link.run_packet(i);
    }
    return {r, seconds_since(t0)};
  }

  Context ctx_;
  std::unique_ptr<core::WlanLink> graph_;
  std::unique_ptr<core::WlanLink> cosim_;
  std::uint64_t pairs_ = 0;
};

}  // namespace

std::unique_ptr<Journey> make_cosim(const Context& ctx) {
  return std::make_unique<Cosim>(ctx);
}

}  // namespace wlbench
