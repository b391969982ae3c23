// PERF — paper §4.1/§6: "the simulator is able to analyze very large
// systems in a sufficient time. It provides simulations in interpreted or
// compiled mode. The compiled mode (SPB-C) is suggested for long
// simulation times."
//
// Google-benchmark microbenches of the engine and the hot kernels.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <thread>

#include "core/experiments.h"
#include "core/link.h"
#include "core/parallel.h"
#include "core/surrogate.h"
#include "dsp/fft.h"
#include "dsp/rng.h"
#include "phy80211a/convcode.h"
#include "phy80211a/preamble.h"
#include "phy80211a/receiver.h"
#include "phy80211a/sync.h"
#include "phy80211a/transmitter.h"
#include "phy80211b/chips.h"
#include "rf/receiver_chain.h"
#include "scenario/drop.h"
#include "service/scheduler.h"
#include "service/shard.h"
#include "sim/graph.h"
#include "testsupport/alloc_hook.h"

namespace {

using namespace wlansim;

void BM_Fft64(benchmark::State& state) {
  dsp::Fft fft(64);
  dsp::Rng rng(1);
  dsp::CVec x(64);
  for (auto& v : x) v = rng.cgaussian(1.0);
  for (auto _ : state) {
    fft.forward(std::span<dsp::Cplx>(x));
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Fft64);

void BM_Fft64OutOfPlace(benchmark::State& state) {
  // The plan the per-symbol OFDM (de)modulator runs: bit-reversed copy into
  // a caller buffer, no permutation pass, no allocation.
  dsp::Fft fft(64);
  dsp::Rng rng(1);
  dsp::CVec x(64), y(64);
  for (auto& v : x) v = rng.cgaussian(1.0);
  for (auto _ : state) {
    fft.forward(std::span<const dsp::Cplx>(x), std::span<dsp::Cplx>(y));
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Fft64OutOfPlace);

void BM_FftBatch64(benchmark::State& state) {
  // The batch plan the symbol engine runs: m stacked 64-point transforms
  // through one twiddle walk, rows lifted at OFDM symbol stride (80).
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  dsp::Fft fft(64);
  dsp::Rng rng(1);
  dsp::CVec x((m - 1) * 80 + 64), y(m * 64);
  for (auto& v : x) v = rng.cgaussian(1.0);
  for (auto _ : state) {
    fft.forward_batch(x.data(), 80, y.data(), m);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(m));
}
BENCHMARK(BM_FftBatch64)->Arg(8)->Arg(32);

void BM_TxModulateBatch(benchmark::State& state) {
  // Full DATA-field modulation on the batched pipeline (fused
  // interleave+map gather, one batch IFFT, one-pass CP assembly).
  dsp::Rng rng(9);
  phy::Transmitter tx;
  const phy::Frame f{phy::Rate::kMbps54, phy::random_bytes(1000, rng)};
  for (auto _ : state) {
    auto w = tx.modulate(f);
    benchmark::DoNotOptimize(w.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TxModulateBatch);

void BM_RxDataSymbolsBatch(benchmark::State& state) {
  // Full receive of a long 54 Mbps frame — dominated by the fused batch
  // data path (batch FFT, vectorized equalize, demap scattered straight
  // into decoder order, Viterbi).
  dsp::Rng rng(10);
  phy::Transmitter tx;
  const dsp::CVec frame =
      tx.modulate({phy::Rate::kMbps54, phy::random_bytes(1000, rng)});
  dsp::CVec rx(200, dsp::Cplx{0.0, 0.0});
  rx.insert(rx.end(), frame.begin(), frame.end());
  rx.insert(rx.end(), 80, dsp::Cplx{0.0, 0.0});
  const phy::Receiver receiver;
  for (auto _ : state) {
    auto res = receiver.receive(rx);
    benchmark::DoNotOptimize(&res);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RxDataSymbolsBatch);

void BM_ViterbiDecode(benchmark::State& state) {
  dsp::Rng rng(2);
  phy::Bits info(static_cast<std::size_t>(state.range(0)));
  for (auto& b : info) b = rng.bit() ? 1 : 0;
  for (int i = 0; i < 6; ++i) info.push_back(0);
  const phy::Bits coded = phy::convolutional_encode(info);
  phy::SoftBits soft(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i)
    soft[i] = coded[i] ? -1.0 : 1.0;
  for (auto _ : state) {
    auto out = phy::viterbi_decode(soft);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(info.size()));
}
BENCHMARK(BM_ViterbiDecode)->Arg(1024)->Arg(4096);

void BM_RfChainThroughput(benchmark::State& state) {
  rf::DoubleConversionConfig cfg;
  rf::DoubleConversionReceiver rx(cfg, dsp::Rng(3));
  dsp::Rng rng(4);
  dsp::CVec in(4096);
  for (auto& v : in) v = 1e-4 * rng.cgaussian(1.0);
  for (auto _ : state) {
    auto out = rx.process(in);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_RfChainThroughput);

void BM_RfChainSteadyState(benchmark::State& state) {
  // Same chain, caller-provided output buffer: the zero-allocation contract
  // the packet hot path relies on. `allocs_per_call` must read 0.
  rf::DoubleConversionConfig cfg;
  rf::DoubleConversionReceiver rx(cfg, dsp::Rng(3));
  dsp::Rng rng(4);
  dsp::CVec in(4096), out;
  for (auto& v : in) v = 1e-4 * rng.cgaussian(1.0);
  rx.process_into(in, out);  // warm up the scratch buffers
  testhook::reset_allocation_count();
  for (auto _ : state) {
    rx.process_into(in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["allocs_per_call"] = benchmark::Counter(
      static_cast<double>(testhook::allocation_count()),
      benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_RfChainSteadyState);

void BM_RfChainFused(benchmark::State& state) {
  // The fused ChainExecutor path: L1-sized tiles pushed through the whole
  // cascade so each sample is touched once while hot in cache. Compare
  // against BM_RfChainBlockwise — same blocks, same arithmetic, different
  // traversal order.
  rf::DoubleConversionConfig cfg;
  rf::DoubleConversionReceiver rx(cfg, dsp::Rng(3));
  dsp::Rng rng(4);
  dsp::CVec in(65536), out;
  for (auto& v : in) v = 1e-4 * rng.cgaussian(1.0);
  rx.process_into(in, out);  // warm up the tile buffers
  for (auto _ : state) {
    rx.process_into(in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(in.size()));
}
BENCHMARK(BM_RfChainFused);

void BM_RfChainBlockwise(benchmark::State& state) {
  // Reference block-at-a-time traversal: every stage streams the full
  // buffer before the next one starts (N x buffer memory traffic). Produces
  // bit-identical output to the fused path.
  rf::DoubleConversionConfig cfg;
  rf::DoubleConversionReceiver rx(cfg, dsp::Rng(3));
  dsp::Rng rng(4);
  dsp::CVec in(65536), out;
  for (auto& v : in) v = 1e-4 * rng.cgaussian(1.0);
  rx.process_blockwise_into(in, out);
  for (auto _ : state) {
    rx.process_blockwise_into(in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(in.size()));
}
BENCHMARK(BM_RfChainBlockwise);

void BM_SyncDetect(benchmark::State& state) {
  // Packet detection + long-training fine timing over a realistic frame:
  // a noise lead, the full 802.11a preamble, and a noise-like payload. This
  // is the O(N) sliding-window path; the O(N*W) references stay available
  // as detect_packet_reference / locate_long_training_reference.
  dsp::Rng rng(8);
  const dsp::CVec pre = phy::full_preamble();
  dsp::CVec sig;
  sig.reserve(8192);
  for (std::size_t i = 0; i < 512; ++i)
    sig.push_back(rng.cgaussian(1e-3));
  for (const auto& v : pre) sig.push_back(v + rng.cgaussian(1e-3));
  while (sig.size() < 8192) sig.push_back(rng.cgaussian(0.3));
  for (auto _ : state) {
    auto det = phy::detect_packet(sig);
    benchmark::DoNotOptimize(&det);
    if (det) {
      auto lts = phy::locate_long_training(sig, det->detect_index,
                                           det->detect_index + 400);
      benchmark::DoNotOptimize(&lts);
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(sig.size()));
}
BENCHMARK(BM_SyncDetect);

/// The SPW interpreted-vs-compiled comparison on a representative graph.
void run_graph(sim::ExecutionMode mode) {
  dsp::Rng rng(5);
  dsp::CVec wave(8192);
  for (auto& v : wave) v = rng.cgaussian(1e-6);
  sim::Graph g;
  auto* src = g.add<sim::SourceNode>("src", std::move(wave));
  auto* up = g.add<sim::UpsampleNode>("up", 4);
  auto* gain = g.add<sim::GainNode>("gain", dsp::Cplx{0.5, 0.0});
  auto* down = g.add<sim::DecimateNode>("down", 4);
  auto* sink = g.add<sim::SinkNode>("sink");
  g.connect(src, up);
  g.connect(up, gain);
  g.connect(gain, down);
  g.connect(down, sink);
  g.run(mode, 512);
  benchmark::DoNotOptimize(sink->data().data());
}

void BM_GraphCompiled(benchmark::State& state) {
  for (auto _ : state) run_graph(sim::ExecutionMode::kCompiled);
}
BENCHMARK(BM_GraphCompiled);

void BM_GraphInterpreted(benchmark::State& state) {
  for (auto _ : state) run_graph(sim::ExecutionMode::kInterpreted);
}
BENCHMARK(BM_GraphInterpreted);

void BM_BarkerMatchedFilter(benchmark::State& state) {
  dsp::Rng rng(6);
  dsp::CVec rx(8192);
  for (auto& v : rx) v = rng.cgaussian(1.0);
  const auto& b = phy11b::barker_sequence();
  {
    // One-shot check that the split-accumulator form is bit-identical to
    // the original complex accumulation.
    dsp::Cplx ref{0.0, 0.0};
    double re = 0.0, im = 0.0;
    for (std::size_t k = 0; k < phy11b::kBarkerLen; ++k) {
      ref += rx[k] * b[k];
      re += rx[k].real() * b[k];
      im += rx[k].imag() * b[k];
    }
    if (ref.real() != re || ref.imag() != im) {
      state.SkipWithError("split accumulators diverged from complex form");
      return;
    }
  }
  for (auto _ : state) {
    // Separate real/imag accumulators: complex += chains one dependent
    // complex add per tap, which blocks vectorization; two independent
    // double chains produce the same values (complex add and
    // complex-times-real are both componentwise) and pipeline freely.
    double tot_re = 0.0, tot_im = 0.0;
    for (std::size_t n = 0; n + phy11b::kBarkerLen <= rx.size(); ++n) {
      double re = 0.0, im = 0.0;
      for (std::size_t k = 0; k < phy11b::kBarkerLen; ++k) {
        re += rx[n + k].real() * b[k];
        im += rx[n + k].imag() * b[k];
      }
      tot_re += re;
      tot_im += im;
    }
    dsp::Cplx acc_total{tot_re, tot_im};
    benchmark::DoNotOptimize(acc_total);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(rx.size()));
}
BENCHMARK(BM_BarkerMatchedFilter);

void BM_Cck64Correlator(benchmark::State& state) {
  // One 11 Mbps CCK symbol decision: 64 codeword correlations of 8 chips.
  dsp::Rng rng(7);
  std::vector<dsp::CVec> codes;
  for (int v = 0; v < 64; ++v) {
    codes.push_back(phy11b::cck_codeword(
        0.0, phy11b::cck_dibit_phase(v & 1, (v >> 1) & 1),
        phy11b::cck_dibit_phase((v >> 2) & 1, (v >> 3) & 1),
        phy11b::cck_dibit_phase((v >> 4) & 1, (v >> 5) & 1)));
  }
  dsp::CVec sym(phy11b::kCckLen);
  for (auto& v : sym) v = rng.cgaussian(1.0);
  {
    dsp::Cplx ref{0.0, 0.0};
    double re = 0.0, im = 0.0;
    for (std::size_t k = 0; k < phy11b::kCckLen; ++k) {
      ref += sym[k] * std::conj(codes[0][k]);
      const double sr = sym[k].real(), si = sym[k].imag();
      const double cr = codes[0][k].real(), ci = codes[0][k].imag();
      re += sr * cr + si * ci;
      im += si * cr - sr * ci;
    }
    if (ref.real() != re || ref.imag() != im ||
        std::norm(ref) != re * re + im * im) {
      state.SkipWithError("split accumulators diverged from complex form");
      return;
    }
  }
  for (auto _ : state) {
    double best = -1.0;
    for (const auto& c : codes) {
      // sym[k] * conj(c[k]) accumulated on independent real/imag chains —
      // exactly the (ac+bd, bc-ad) the complex operator* computes, minus
      // the loop-carried complex dependency.
      double re = 0.0, im = 0.0;
      for (std::size_t k = 0; k < phy11b::kCckLen; ++k) {
        const double sr = sym[k].real(), si = sym[k].imag();
        const double cr = c[k].real(), ci = c[k].imag();
        re += sr * cr + si * ci;
        im += si * cr - sr * ci;
      }
      best = std::max(best, re * re + im * im);
    }
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Cck64Correlator);

void BM_FullPacketSystemLevel(benchmark::State& state) {
  core::LinkConfig cfg = core::default_link_config();
  core::WlanLink link(cfg);
  link.run_packet(0);  // warm up the workspace
  testhook::reset_allocation_count();
  std::uint64_t i = 1;
  for (auto _ : state) {
    auto r = link.run_packet(i++);
    benchmark::DoNotOptimize(&r);
  }
  // Steady-state heap traffic of one packet (TX/RX bit pipeline only once
  // the workspace is warm; the oversampled scene allocates nothing).
  state.counters["allocs_per_packet"] = benchmark::Counter(
      static_cast<double>(testhook::allocation_count()),
      benchmark::Counter::kAvgIterations);
  state.counters["alloc_kb_per_packet"] = benchmark::Counter(
      static_cast<double>(testhook::allocation_bytes()) / 1024.0,
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FullPacketSystemLevel);

void BM_FullPacketGraphPath(benchmark::State& state) {
  // The dataflow-graph reference on the identical configuration — the
  // pre-optimization packet cost, kept for regression tracking.
  core::LinkConfig cfg = core::default_link_config();
  cfg.packet_path = core::PacketPath::kGraph;
  core::WlanLink link(cfg);
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto r = link.run_packet(i++);
    benchmark::DoNotOptimize(&r);
  }
}
BENCHMARK(BM_FullPacketGraphPath);

void BM_BerSweepParallel(benchmark::State& state) {
  // An 8-point SNR sweep, 50 packets per point, on the persistent pool —
  // the paper's Fig. 5/6 measurement shape.
  core::LinkConfig base = core::default_link_config();
  base.psdu_bytes = 100;
  std::vector<core::LinkConfig> points;
  for (int k = 0; k < 8; ++k) {
    core::LinkConfig c = base;
    c.snr_db = 14.0 + 2.0 * k;
    points.push_back(c);
  }
  for (auto _ : state) {
    const auto sweep = core::sweep_ber_adaptive(points, sim::fixed_budget(50));
    benchmark::DoNotOptimize(sweep.data());
  }
  state.SetItemsProcessed(state.iterations() * 8 * 50);
}
BENCHMARK(BM_BerSweepParallel)->Unit(benchmark::kMillisecond)->Iterations(1);

std::vector<core::LinkConfig> waterfall_points() {
  // The paper's §4.1 verification shape: TX PA at finite backoff, adjacent
  // -channel interferer at +16 dB (§2.2 spec), SNR swept across the
  // waterfall. Every point shares the TX-and-channel half, which is what
  // the memoized sweep caches.
  core::LinkConfig base = core::default_link_config();
  base.psdu_bytes = 100;
  base.tx_pa_backoff_db = 8.0;
  base.interferer =
      channel::InterfererConfig{.offset_hz = 20e6, .level_db = 16.0};
  std::vector<core::LinkConfig> points;
  for (int k = 0; k < 8; ++k) {
    core::LinkConfig c = base;
    c.snr_db = 14.0 + 2.0 * k;
    points.push_back(c);
  }
  return points;
}

void BM_BerWaterfallMemoized(benchmark::State& state) {
  // The same 8 x 50 waterfall with TX-scene memoization: each packet's
  // pre-noise scene (TX chain, upsampling, impairments) is built at one SNR
  // point and replayed at the other seven. Bit-identical to the unmemoized
  // per-point runs below.
  const auto points = waterfall_points();
  for (auto _ : state) {
    const auto sweep = core::sweep_ber_adaptive(points, sim::fixed_budget(50));
    benchmark::DoNotOptimize(sweep.data());
  }
  state.SetItemsProcessed(state.iterations() * 8 * 50);
}
BENCHMARK(BM_BerWaterfallMemoized)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_BerWaterfallUnmemoized(benchmark::State& state) {
  // Reference: one call per point, so every point rebuilds every packet
  // from scratch.
  const auto points = waterfall_points();
  for (auto _ : state) {
    for (const core::LinkConfig& p : points) {
      const auto r = core::run_ber_adaptive(p, sim::fixed_budget(50));
      benchmark::DoNotOptimize(&r);
    }
  }
  state.SetItemsProcessed(state.iterations() * 8 * 50);
}
BENCHMARK(BM_BerWaterfallUnmemoized)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

std::vector<core::LinkConfig> deep_waterfall_points() {
  // An 8-point waterfall reaching into the deep-SNR tail: the noisy points
  // collect their error quota within a wave or two while the clean tail is
  // the only place the packet cap binds. This asymmetry is exactly what the
  // adaptive engine exploits.
  core::LinkConfig base = core::default_link_config();
  base.psdu_bytes = 100;
  std::vector<core::LinkConfig> points;
  for (int k = 0; k < 8; ++k) {
    core::LinkConfig c = base;
    c.snr_db = 6.0 + static_cast<double>(k);
    points.push_back(c);
  }
  return points;
}

sim::StoppingRule deep_waterfall_rule() {
  sim::StoppingRule rule;
  rule.target_rel_ci = 0.25;
  rule.min_errors = 50;
  rule.min_packets = 8;
  rule.max_packets = 768;
  return rule;
}

void BM_BerSweepAdaptive(benchmark::State& state) {
  // Early-stopping sweep over the deep waterfall: each point runs until its
  // Wilson 95 % CI is within 25 % of the BER estimate (with >= 50 errors)
  // or the 256-packet cap. Compare against BM_BerSweepFixedBudget, which
  // spends the cap on every point — the budget the binding tail point
  // needs — for the same-or-looser interval everywhere.
  const auto points = deep_waterfall_points();
  const sim::StoppingRule rule = deep_waterfall_rule();
  std::size_t packets = 0, converged = 0;
  for (auto _ : state) {
    const auto sweep = core::sweep_ber_adaptive(points, rule);
    benchmark::DoNotOptimize(sweep.data());
    packets = 0;
    converged = 0;
    for (const auto& r : sweep) {
      packets += r.packets;
      if (r.converged) ++converged;
    }
  }
  state.counters["packets"] = static_cast<double>(packets);
  state.counters["converged_points"] = static_cast<double>(converged);
  state.SetItemsProcessed(state.iterations() * static_cast<long>(packets));
}
BENCHMARK(BM_BerSweepAdaptive)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_BerSweepFixedBudget(benchmark::State& state) {
  // The fixed-budget reference on the identical points: every point pays
  // the full packet cap whether it needs it or not.
  const auto points = deep_waterfall_points();
  const std::size_t budget = deep_waterfall_rule().max_packets;
  for (auto _ : state) {
    const auto sweep =
        core::sweep_ber_adaptive(points, sim::fixed_budget(budget));
    benchmark::DoNotOptimize(sweep.data());
  }
  state.counters["packets"] = static_cast<double>(8 * budget);
  state.SetItemsProcessed(state.iterations() * static_cast<long>(8 * budget));
}
BENCHMARK(BM_BerSweepFixedBudget)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

/// Per-process scratch calibration store so bench runs never touch (or
/// depend on) the user's real ~/.cache store.
std::filesystem::path bench_calib_dir() {
  return std::filesystem::temp_directory_path() /
         ("wlansim-bench-calib-" + std::to_string(::getpid()));
}

core::SurrogateOptions bench_surrogate_opts() {
  core::SurrogateOptions opts;
  opts.store_dir = bench_calib_dir();
  opts.axis = sim::SurrogateAxis::kSnrDb;
  opts.rule = deep_waterfall_rule();
  opts.grid_step = 1.0;
  opts.grid_pad = 0.0;
  return opts;
}

void BM_SurrogateCalibrateCold(benchmark::State& state) {
  // One-time cost of the surrogate: calibrate the deep-waterfall curve from
  // an empty store. grid_step 1 / pad 0 over [6, 13] puts the 8 knots on
  // exactly the BM_BerSweepAdaptive points, so cold calibration should cost
  // about one adaptive sweep plus the store write.
  const core::LinkConfig base = deep_waterfall_points()[0];
  const core::SurrogateOptions opts = bench_surrogate_opts();
  for (auto _ : state) {
    std::filesystem::remove_all(opts.store_dir);
    const auto curve = core::calibrate_ber_surrogate(base, 6.0, 13.0, opts);
    if (curve.points.size() != 8) {
      state.SkipWithError("expected 8 calibration knots");
      return;
    }
    benchmark::DoNotOptimize(curve.points.data());
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_SurrogateCalibrateCold)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_SurrogateQueryWarm(benchmark::State& state) {
  // The payoff: a 40-point waterfall query against the warm store — one
  // store read plus interpolation, zero Monte-Carlo packets (the run is
  // rejected if any point went cold). Target: >= 100x faster than
  // BM_BerSweepAdaptive measuring the same span with packets.
  const core::LinkConfig base = deep_waterfall_points()[0];
  core::DedupOptions opts;
  opts.surrogate = bench_surrogate_opts();
  opts.bin_width_db = 0.0;
  std::filesystem::remove_all(opts.surrogate.store_dir);
  core::calibrate_ber_surrogate(base, 6.0, 13.0, opts.surrogate);  // warm it

  std::vector<core::LinkConfig> points;
  for (int k = 0; k < 40; ++k) {
    core::LinkConfig c = base;
    c.snr_db = 6.0 + 7.0 * static_cast<double>(k) / 39.0;
    points.push_back(c);
  }
  for (auto _ : state) {
    core::DedupStats stats;
    const auto sweep = core::sweep_ber_deduped(points, opts, &stats);
    benchmark::DoNotOptimize(sweep.data());
    if (stats.cold != 0) {
      state.SkipWithError("warm query ran Monte-Carlo packets");
      return;
    }
  }
  std::filesystem::remove_all(opts.surrogate.store_dir);
  state.SetItemsProcessed(state.iterations() * 40);
}
BENCHMARK(BM_SurrogateQueryWarm)->Unit(benchmark::kMillisecond)->Iterations(1);

scenario::DropConfig bench_drop_config() {
  // A 256-station, 2-step drop whose SNRs collapse onto ~15 one-dB bins:
  // the network-scale workload of the drop engine. The loose rule keeps the
  // cold pooled pass to a few waves; max_packets bounds the error-free
  // high-SNR bins.
  scenario::DropConfig cfg;
  cfg.num_stations = 256;
  cfg.num_steps = 2;
  cfg.area_half_m = 60.0;
  cfg.link = core::default_link_config();
  cfg.link.psdu_bytes = 60;
  cfg.snr_bin_db = 1.0;
  cfg.snr_min_db = 2.0;
  cfg.snr_max_db = 14.0;
  cfg.rule.target_rel_ci = 0.5;
  cfg.rule.min_errors = 20;
  cfg.rule.min_packets = 8;
  cfg.rule.max_packets = 48;
  cfg.store_dir = bench_calib_dir() / "drop";
  return cfg;
}

void BM_DropThroughputCold(benchmark::State& state) {
  // Empty store: every distinct (fingerprint, SNR-bin) key pays one pooled
  // adaptive Monte-Carlo evaluation; stations/sec here is the floor the
  // warm path is measured against.
  const scenario::DropConfig cfg = bench_drop_config();
  for (auto _ : state) {
    std::filesystem::remove_all(cfg.store_dir);
    const scenario::DropSummary s = scenario::run_drop(cfg, {});
    if (s.totals.warm + s.totals.cold != s.totals.distinct) {
      state.SkipWithError("dedup stats inconsistent");
      return;
    }
    benchmark::DoNotOptimize(s.totals.queries);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(cfg.num_stations * cfg.num_steps));
}
BENCHMARK(BM_DropThroughputCold)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_DropThroughputWarm(benchmark::State& state) {
  // The payoff: the identical drop against the store the cold run filled —
  // every station-step answered by curve interpolation, zero Monte-Carlo
  // packets. Target: >= 100x the cold stations/sec.
  const scenario::DropConfig cfg = bench_drop_config();
  std::filesystem::remove_all(cfg.store_dir);
  scenario::run_drop(cfg, {});  // warm the store
  for (auto _ : state) {
    const scenario::DropSummary s = scenario::run_drop(cfg, {});
    if (s.totals.cold != 0) {
      state.SkipWithError("warm drop hit a cold key");
      return;
    }
    benchmark::DoNotOptimize(s.totals.queries);
  }
  std::filesystem::remove_all(cfg.store_dir);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(cfg.num_stations * cfg.num_steps));
}
BENCHMARK(BM_DropThroughputWarm)->Unit(benchmark::kMillisecond)->Iterations(1);

// --- Simulation service: cross-request coalescing, warm-query latency ------

sim::StoppingRule service_bench_rule() {
  sim::StoppingRule rule;
  rule.target_rel_ci = 0.5;
  rule.min_errors = 20;
  rule.min_packets = 8;
  rule.max_packets = 48;
  return rule;
}

service::JobRequest service_bench_job(double snr_from, double snr_to) {
  service::JobRequest req;
  core::LinkConfig base = core::default_link_config();
  base.psdu_bytes = 60;
  for (double snr = snr_from; snr <= snr_to + 1e-9; snr += 1.0) {
    core::LinkConfig c = base;
    c.snr_db = snr;
    req.configs.push_back(c);
  }
  req.rule = service_bench_rule();
  req.bin_width_db = 0.0;
  req.use_store = true;
  return req;
}

void BM_ServiceColdCoalesced(benchmark::State& state) {
  // Four concurrent clients submit overlapping 8-point sweeps against an
  // empty store while the engine is held; releasing it drains all four into
  // ONE pooled pass. 32 queries collapse to 11 distinct cold points — the
  // in-bench gate fails the run if pooling ever does as much Monte-Carlo
  // work as four independent cold evaluations would.
  const std::filesystem::path dir = bench_calib_dir() / "service-cold";
  for (auto _ : state) {
    std::filesystem::remove_all(dir);
    service::Scheduler::Options opts;
    opts.store_dir = dir;
    opts.start_paused = true;
    service::Scheduler sched(opts);
    std::vector<std::future<service::JobResult>> futs;
    std::size_t independent_cold = 0;
    for (int j = 0; j < 4; ++j) {
      service::JobRequest req =
          service_bench_job(4.0 + j, 11.0 + j);  // heavy pairwise overlap
      independent_cold += req.configs.size();
      futs.push_back(sched.submit(std::move(req)));
    }
    sched.resume();
    for (auto& f : futs) benchmark::DoNotOptimize(f.get().results.data());
    const service::SchedulerStats st = sched.stats();
    if (st.batches != 1 || st.groups != 1) {
      state.SkipWithError("jobs did not coalesce into one pooled pass");
      return;
    }
    if (st.dedup.cold >= independent_cold) {
      state.SkipWithError(
          "pooled pass did not beat 4 independent cold runs");
      return;
    }
    sched.stop();
  }
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_ServiceColdCoalesced)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_ServiceWarmQuery(benchmark::State& state) {
  // The payoff: resubmitting a sweep the store has already measured is a
  // fingerprint lookup plus curve interpolation per point — no Monte-Carlo
  // packets. The cold pass that fills the store is timed in-bench as the
  // reference; the gate fails the run unless warm is >= 100x faster.
  const std::filesystem::path dir = bench_calib_dir() / "service-warm";
  std::filesystem::remove_all(dir);
  service::Scheduler::Options opts;
  opts.store_dir = dir;
  service::Scheduler sched(opts);

  const auto t0 = std::chrono::steady_clock::now();
  sched.submit(service_bench_job(4.0, 14.0)).get();  // fill the store
  const double cold_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  double warm_s = 0.0;
  for (auto _ : state) {
    const auto w0 = std::chrono::steady_clock::now();
    const service::JobResult r =
        sched.submit(service_bench_job(4.0, 14.0)).get();
    warm_s +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - w0)
            .count();
    for (const core::BerResult& p : r.results) {
      if (!p.from_surrogate) {
        state.SkipWithError("warm query fell back to Monte-Carlo");
        return;
      }
    }
    benchmark::DoNotOptimize(r.results.data());
  }
  if (warm_s * 100.0 > cold_s * static_cast<double>(state.iterations())) {
    state.SkipWithError("warm query not >=100x faster than the cold pass");
    return;
  }
  state.counters["cold_ms"] = 1e3 * cold_s;
  state.counters["speedup"] =
      cold_s * static_cast<double>(state.iterations()) / warm_s;
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(state.iterations() * 11);
}
BENCHMARK(BM_ServiceWarmQuery)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_ShardedColdSweep(benchmark::State& state) {
  // One pooled cold pass fanned out across N worker processes
  // (service/shard.h) and merged back. The in-process single-threaded
  // sweep is timed first: it is both the bit-identity oracle (the merged
  // results must match it exactly) and the wall-time baseline for the
  // speedup counter. The >=1.6x gate at 2 workers only applies on
  // multi-core hosts — on one core, two worker processes time-slice one
  // CPU and honestly measure the fan-out overhead instead.
  const std::size_t workers = static_cast<std::size_t>(state.range(0));
  std::vector<core::LinkConfig> links;
  for (int i = 0; i < 12; ++i) {
    core::LinkConfig cfg = core::default_link_config();
    cfg.psdu_bytes = 120;
    cfg.snr_db = 3.0 + i;
    links.push_back(cfg);
  }
  sim::StoppingRule rule;
  rule.target_rel_ci = 0.12;
  rule.min_errors = 150;
  rule.min_packets = 8;
  rule.max_packets = 240;
  core::SweepOptions sopts;
  sopts.threads = 1;  // parallelism comes from the workers, not MC threads

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<core::BerResult> reference =
      core::sweep_ber_adaptive(links, rule, sopts);
  const double single_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const std::filesystem::path dir =
      bench_calib_dir() / ("sharded-" + std::to_string(workers));
  double sharded_s = 0.0;
  for (auto _ : state) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    service::ShardCoordinator::Options copts;
    copts.workers = workers;
    copts.checkpoint_dir = dir;
    copts.worker_threads = 1;
    service::ShardCoordinator coord(std::move(copts));
    const auto w0 = std::chrono::steady_clock::now();
    const std::vector<core::BerResult> merged = coord.run(links, rule, sopts);
    sharded_s +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - w0)
            .count();
    if (merged.size() != reference.size()) {
      state.SkipWithError("sharded pass returned a wrong point count");
      return;
    }
    for (std::size_t i = 0; i < reference.size(); ++i) {
      if (merged[i].packets != reference[i].packets ||
          merged[i].bit_errors != reference[i].bit_errors ||
          merged[i].evm_rms_avg != reference[i].evm_rms_avg) {
        state.SkipWithError(
            "sharded pass diverged from the single-process reference");
        return;
      }
    }
    benchmark::DoNotOptimize(merged.data());
  }
  const double speedup =
      single_s * static_cast<double>(state.iterations()) / sharded_s;
  state.counters["speedup_vs_single"] = speedup;
  if (workers == 2 && std::thread::hardware_concurrency() >= 2 &&
      speedup < 1.6) {
    state.SkipWithError(
        "2-worker sharded cold pass not >=1.6x over single-process");
    return;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(links.size()));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_ShardedColdSweep)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4);

}  // namespace

BENCHMARK_MAIN();
