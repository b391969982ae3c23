// Per-layer replays for the traced run: one packet's path through the
// dsp, channel, rf, phy80211a and core layers, each call timed under its
// own span from here (src/ carries no instrumentation). The inputs are the
// real signals of packets the default link just ran.
#include <cmath>

#include "bench.h"
#include "channel/awgn.h"
#include "core/experiments.h"
#include "core/link.h"
#include "core/packet_batch.h"
#include "dsp/fft.h"
#include "dsp/kernels.h"
#include "dsp/resample.h"
#include "phy80211a/bits.h"
#include "phy80211a/convcode.h"
#include "phy80211a/receiver.h"
#include "phy80211a/sync.h"
#include "phy80211a/transmitter.h"
#include "rf/receiver_chain.h"
#include "trace.h"

namespace wlbench {

using namespace wlansim;

namespace {

constexpr int kPackets = 20;
constexpr std::size_t kLanes = 8;

}  // namespace

void packet_layer_replays(const Context& ctx, Report& rep) {
  core::LinkConfig cfg = core::default_link_config();
  cfg.seed = mix(ctx.seed, 700) >> 32;

  // sim.link_setup_ms: construction plus the first packet, against the
  // same link's steady-state packets.
  {
    core::LinkConfig c2 = cfg;
    c2.seed = mix(ctx.seed, 701) >> 32;
    const std::int64_t t0 = now_ns();
    std::unique_ptr<core::WlanLink> fresh;
    {
      Span s("sim.link_first");
      fresh = std::make_unique<core::WlanLink>(c2);
      (void)fresh->run_packet(0);
    }
    rep.sample("link_first_ms", 1e-6 * static_cast<double>(now_ns() - t0));
    for (std::uint64_t i = 1; i <= kPackets; ++i) {
      const std::int64_t t1 = now_ns();
      (void)fresh->run_packet(i);
      rep.sample("link_steady_ms", 1e-6 * static_cast<double>(now_ns() - t1));
    }
  }

  core::WlanLink link(cfg);
  (void)link.run_packet(0);
  const phy::Transmitter tx;
  const phy::Receiver rx(cfg.receiver);
  rf::DoubleConversionConfig rf_cfg = cfg.rf;
  rf_cfg.sample_rate_hz = 20e6 * static_cast<double>(cfg.oversample);
  rf::DoubleConversionReceiver fe(rf_cfg, dsp::Rng(11));
  dsp::Rng rng(mix(ctx.seed, 702));
  dsp::CVec up, fe_out, down;
  const dsp::RVec interp_taps = dsp::resampling_taps(cfg.oversample);
  std::size_t decoded = 0;

  for (std::uint64_t i = 1; i <= kPackets; ++i) {
    {
      Span s("core.packet", 1.0, i);
      (void)link.run_packet(i);
    }
    const dsp::CVec rf_in = link.last_rf_input();
    const dsp::CVec rx_bb = link.last_rx_baseband();

    const phy::Frame frame{cfg.rate, phy::random_bytes(cfg.psdu_bytes, rng)};
    dsp::CVec wave;
    {
      Span s("phy.tx", 1.0, i);
      wave = tx.modulate(frame);
    }
    dsp::CVec padded(cfg.lead_samples, dsp::Cplx{0.0, 0.0});
    padded.insert(padded.end(), wave.begin(), wave.end());
    padded.insert(padded.end(), cfg.tail_samples, dsp::Cplx{0.0, 0.0});
    {
      Span s("dsp.upsample", static_cast<double>(padded.size()), i);
      dsp::upsample_into(padded, cfg.oversample, up);
    }
    {
      // The polyphase interpolation the link itself runs (the closure
      // chain uses this one; dsp.upsample times the public resampler).
      Span s("dsp.fir_interp", static_cast<double>(padded.size()), i);
      dsp::kernels::fir_interp(interp_taps.data(), interp_taps.size(),
                               cfg.oversample, padded.data(), padded.size(),
                               static_cast<double>(cfg.oversample), up.data(),
                               up.size());
    }
    {
      Span s("channel.awgn", static_cast<double>(up.size()), i);
      up = channel::add_awgn(up, 1e-12, rng);
    }
    {
      Span s("rf.frontend", static_cast<double>(rf_in.size()), i);
      fe.process_into(rf_in, fe_out);
    }
    {
      Span s("dsp.downsample", static_cast<double>(fe_out.size() / cfg.oversample),
             i);
      dsp::downsample_into(fe_out, cfg.oversample, down);
    }
    {
      Span s("phy.sync", 1.0, i);
      const auto det = phy::detect_packet(rx_bb);
      if (det)
        (void)phy::locate_long_training(rx_bb, det->detect_index,
                                        det->detect_index + 400);
    }
    {
      Span s("phy.rx", 1.0, i);
      const phy::RxResult r = rx.receive(rx_bb);
      if (r.header_ok && r.psdu.size() == cfg.psdu_bytes) ++decoded;
    }
  }
  rep.check(decoded == kPackets, "replay: receiver failed on a link packet");

  // Viterbi on soft bits of this packet's length (SERVICE + PSDU + tail,
  // padded to whole 24 Mbps symbols of 96 data bits).
  {
    const std::size_t info_bits = (16 + 8 * cfg.psdu_bytes + 6 + 95) / 96 * 96;
    phy::Bits info(info_bits, 0);
    for (std::size_t k = 0; k + 6 < info_bits; ++k) info[k] = rng.bit() ? 1 : 0;
    const phy::Bits coded = phy::convolutional_encode(info);
    phy::SoftBits soft(coded.size());
    for (std::size_t k = 0; k < coded.size(); ++k)
      soft[k] = (coded[k] ? -1.0 : 1.0) + rng.gaussian(0.5);
    std::size_t errors = 0;
    for (int k = 0; k < kPackets; ++k) {
      Span s("phy.viterbi", static_cast<double>(info_bits));
      const phy::Bits out = phy::viterbi_decode(soft);
      for (std::size_t b = 0; b < info_bits && b < out.size(); ++b)
        errors += out[b] != info[b];
    }
    rep.check(errors == 0, "replay: viterbi failed on a clean codeword");
  }

  // Lockstep packet waves at width 8.
  {
    core::PacketBatch batch;
    core::PacketResult out[kLanes];
    for (int w = 0; w < kPackets / 2; ++w) {
      Span s("core.wave", static_cast<double>(kLanes));
      rep.check(link.run_packet_wave(1000 + kLanes * w, kLanes, batch, nullptr,
                                     out),
                "replay: packet wave refused");
    }
  }

  // The RF front-end in lane mode at width 8 on the same input.
  {
    const dsp::CVec rf_in = link.last_rf_input();
    const std::size_t n = rf_in.size();
    std::vector<double> soa(2 * kLanes * n);
    for (int k = 0; k < 4; ++k) {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t l = 0; l < kLanes; ++l) {
          soa[i * 2 * kLanes + l] = rf_in[i].real();
          soa[i * 2 * kLanes + kLanes + l] = rf_in[i].imag();
        }
      }
      Span s("rf.lanes", static_cast<double>(n * kLanes));
      fe.begin_lanes(kLanes);
      for (std::size_t l = 0; l < kLanes; ++l) {
        fe.reseed_lanes(l, dsp::Rng(100 + l));
        fe.set_lane_tapes(l, nullptr, nullptr);
      }
      fe.process_tile_lanes(soa.data(), n, kLanes);
    }
  }

  // Micro-layers: 64-point FFT and bulk gaussians.
  {
    dsp::CVec x(64);
    for (auto& v : x) v = rng.cgaussian(1.0);
    constexpr int kFfts = 20000;
    double acc = 0.0;
    {
      Span s("dsp.fft64", kFfts);
      for (int k = 0; k < kFfts; ++k) {
        x[k % 64] += dsp::Cplx{1e-9, 0.0};
        acc += dsp::fft(x)[0].real();
      }
    }
    constexpr std::size_t kDraws = 1 << 15;
    std::vector<double> buf(kDraws);
    {
      Span s("dsp.gaussian", static_cast<double>(kDraws) * 20);
      for (int k = 0; k < 20; ++k) {
        rng.fill_gaussian(buf.data(), buf.size());
        acc += buf[k];
      }
    }
    rep.count("micro_checksum", std::isfinite(acc) ? 1.0 : 0.0);
  }
}

}  // namespace wlbench
