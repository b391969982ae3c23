// RFCHAR — paper §3.2/§4.2: SpectreRF-style characterization of the RF
// blocks and the assembled double-conversion receiver ("test benches with
// two tone signals allow ... several measurements of RF specific
// parameters": gain, compression point, intercept point, noise figure).
// The closing section ties the tone-test characterization to link-level
// impact: a calibrated-surrogate BER walk across an LNA P1dB family (each
// compression point is its own front-end fingerprint, hence its own stored
// calibration curve), with a Monte-Carlo spot check of every curve.
#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "core/experiments.h"
#include "core/parallel.h"
#include "core/surrogate.h"
#include "dsp/mathutil.h"
#include "rf/amplifier.h"
#include "rf/analyses.h"
#include "rf/receiver_chain.h"

int main() {
  using namespace wlansim;
  bench::banner("RFCHAR", "RF-specific analyses (SpectreRF stand-in)",
                "measured gain / P1dB / IIP3 / NF match the behavioral "
                "model parameters");

  rf::ToneTestConfig tc;
  tc.tone_hz = 1e6;
  tc.tone2_hz = 1.4e6;
  tc.num_samples = 1 << 14;
  tc.settle_samples = 1 << 12;

  bool ok = true;

  // --- Standalone LNA -------------------------------------------------------
  {
    rf::AmplifierConfig cfg;
    cfg.label = "lna";
    cfg.gain_db = 15.0;
    cfg.noise_figure_db = 3.0;
    cfg.p1db_in_dbm = -20.0;
    cfg.model = rf::NonlinearityModel::kClippedCubic;
    rf::Amplifier lna(cfg, 80e6, dsp::Rng(11));

    const double g = rf::measure_gain_db(lna, tc, -60.0);
    const double p1 = rf::measure_p1db_in_dbm(lna, tc, -45.0, 0.0);
    const double ip3 = rf::measure_iip3_dbm(lna, tc, -45.0);
    const double nf = rf::measure_noise_figure_db(lna, tc);
    std::printf("LNA (configured: G=15 dB, NF=3 dB, P1dB=-20 dBm)\n");
    std::printf("  measured gain : %7.2f dB\n", g);
    std::printf("  measured P1dB : %7.2f dBm (input-referred)\n", p1);
    std::printf("  measured IIP3 : %7.2f dBm (cubic theory: P1dB+9.6)\n", ip3);
    std::printf("  measured NF   : %7.2f dB\n\n", nf);
    ok = ok && std::abs(g - 15.0) < 0.2 && std::abs(p1 - (-20.0)) < 1.0 &&
         std::abs(ip3 - (-10.4)) < 1.5 && std::abs(nf - 3.0) < 0.5;
  }

  // --- Full double-conversion receiver --------------------------------------
  {
    rf::DoubleConversionConfig cfg;
    cfg.agc.loop_gain = 0.0;  // static gain for characterization
    cfg.agc.initial_gain_db = 0.0;
    cfg.adc.enabled = false;
    rf::DoubleConversionReceiver rx(cfg, dsp::Rng(12));

    rf::ToneTestConfig tcc = tc;
    tcc.settle_samples = 1 << 13;
    // Spot NF at mid-band (3 MHz): below that the 1/f noise of the second
    // mixer dominates and the measurement reads flicker, not thermal NF.
    tcc.tone_hz = 3e6;
    rf::DoubleConversionConfig quiet = cfg;
    quiet.noise_enabled = false;
    rf::DoubleConversionReceiver rx_quiet(quiet, dsp::Rng(12));

    const double g = rf::measure_gain_db(rx_quiet, tcc, -60.0);
    const double p1 = rf::measure_p1db_in_dbm(rx_quiet, tcc, -40.0, -5.0);
    const double nf = rf::measure_noise_figure_db(rx, tcc);
    const double acr20 = rf::measure_rejection_db(rx_quiet, tcc, 3e6, 20e6);
    const double acr12 = rf::measure_rejection_db(rx_quiet, tcc, 3e6, 12e6);
    std::printf("Double-conversion receiver (front-end gain %.0f dB)\n",
                rx.front_end_gain_db());
    std::printf("  measured gain          : %7.2f dB\n", g);
    std::printf("  measured P1dB          : %7.2f dBm (LNA set to -20)\n", p1);
    std::printf("  measured NF            : %7.2f dB (LNA NF 3 dB + chain)\n",
                nf);
    std::printf("  rejection at +12 MHz   : %7.2f dB\n", acr12);
    std::printf("  rejection at +20 MHz   : %7.2f dB\n", acr20);
    ok = ok && std::abs(g - rx.front_end_gain_db()) < 1.0 &&
         std::abs(p1 - (-20.0)) < 2.5 && nf > 2.0 && nf < 6.0 &&
         acr12 > 25.0 && acr20 > 50.0;
  }

  // --- Link-level BER vs LNA compression (surrogate-calibrated) -------------
  {
    using clock = std::chrono::steady_clock;
    sim::StoppingRule rule;
    rule.target_rel_ci = 0.30;
    rule.min_errors = 30;
    rule.min_packets = 8;
    rule.max_packets = 256;

    // Un-quantized surrogate queries; store_dir empty:
    // default_calibration_dir().
    core::DedupOptions sopts;
    sopts.bin_width_db = 0.0;
    sopts.surrogate.axis = sim::SurrogateAxis::kSnrDb;
    sopts.surrogate.rule = rule;

    std::printf("BER vs LNA P1dB (24 Mbps, SNR 9-11 dB, calibrated "
                "surrogate; store %s)\n",
                core::default_calibration_dir().string().c_str());
    std::printf("  %-12s %10s %10s %10s %10s %9s\n", "P1dB [dBm]",
                "BER@9dB", "BER@10dB", "BER@11dB", "surrogate", "wall [s]");

    bool spots_ok = true;
    for (double p1db : {-30.0, -20.0, -10.0}) {
      core::LinkConfig base = core::default_link_config();
      base.psdu_bytes = 100;
      base.rx_power_dbm = -30.0;  // hot input: the compression point matters
      base.rf.lna_p1db_in_dbm = p1db;
      std::vector<core::LinkConfig> points;
      for (double snr : {9.0, 10.0, 11.0}) {
        core::LinkConfig c = base;
        c.snr_db = snr;
        points.push_back(c);
      }
      const auto t0 = clock::now();
      const auto res = core::sweep_ber_deduped(points, sopts);
      const auto t1 = clock::now();
      std::size_t hits = 0;
      for (const auto& r : res) hits += r.from_surrogate ? 1 : 0;
      std::printf("  %-12.0f %10.2e %10.2e %10.2e %6zu/3 %10.3f\n", p1db,
                  res[0].ber(), res[1].ber(), res[2].ber(), hits,
                  std::chrono::duration<double>(t1 - t0).count());

      // Spot check this curve at a stored knot: the backfilled knots ARE
      // adaptive-MC results and each adaptive point is a pure function of
      // (config, rule), so re-measuring must reproduce the surrogate
      // answer EXACTLY — any deviation means the store round-trip or the
      // determinism contract broke.
      core::LinkConfig knot = base;
      knot.snr_db = 10.0;
      const core::BerResult s = core::sweep_ber_deduped({&knot, 1}, sopts)[0];
      const core::BerResult mc = core::run_ber_adaptive(knot, rule);
      const bool knot_ok = s.ber() == mc.ber() && s.per() == mc.per();
      std::printf("    spot check @ 10 dB (knot): surrogate %.6e vs MC "
                  "%.6e %s\n",
                  s.ber(), mc.ber(), knot_ok ? "EXACT" : "DIVERGED");
      spots_ok = spots_ok && knot_ok;

      // Off-knot interpolation quality, informational: compression kinks
      // the waterfall between 1 dB knots, so model (interpolation) error
      // can exceed the purely statistical Wilson band — the calibrated CI
      // bounds measurement noise, not curve shape between knots.
      core::LinkConfig mid = base;
      mid.snr_db = 9.5;
      const core::BerResult si = core::sweep_ber_deduped({&mid, 1}, sopts)[0];
      const core::BerResult mi = core::run_ber_adaptive(mid, rule);
      const double tol = (std::isfinite(si.ber_ci_rel)
                              ? si.ber() * si.ber_ci_rel : 0.0) +
                         (std::isfinite(mi.ber_ci_rel)
                              ? mi.ber() * mi.ber_ci_rel : 0.0);
      std::printf("    interp @ 9.5 dB: surrogate %.2e vs MC %.2e "
                  "(stat tol %.1e) %s\n",
                  si.ber(), mi.ber(), tol,
                  std::abs(si.ber() - mi.ber()) <= tol
                      ? "WITHIN CI" : "model error > stat CI (info)");
    }
    ok = ok && spots_ok;
    std::printf("\n");
  }

  std::printf("result: %s\n", ok ? "SHAPE REPRODUCED" : "MISMATCH");
  return ok ? 0 : 1;
}
