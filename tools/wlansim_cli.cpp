// wlansim — command-line driver for the link-level verification framework.
//
//   wlansim ber     --rate 24 --snr 20 --packets 50 [--adjacent-db 16]
//                   [--rf system|none|cosim] [--power-dbm -65]
//                   [--p1db -20] [--bandwidth-factor 1.0] [--threads 4]
//   wlansim sweep   --param snr|p1db|bandwidth|power --from A --to B
//                   --step S [--packets N] [--csv out.csv]
//   wlansim spectrum [--adjacent-db 16] [--csv psd.csv]
//   wlansim rfchar
//   wlansim help
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "core/arq.h"
#include "core/cliargs.h"
#include "core/experiments.h"
#include "core/parallel.h"
#include "core/surrogate.h"
#include "dsp/mathutil.h"
#include "rf/analyses.h"
#include "scenario/drop.h"
#include "scenario/trace.h"
#include "sim/waveio.h"
#include "cli_drop.h"
#include "cli_link.h"

namespace {

using namespace wlansim;
using tools::fail_on_unused;
using tools::link_from_args;

void print_ber_result(const core::LinkConfig& cfg, const core::BerResult& r) {
  std::printf("rate        : %s\n",
              std::string(phy::rate_name(cfg.rate)).c_str());
  std::printf("packets     : %zu x %zu bytes\n", r.packets, cfg.psdu_bytes);
  std::printf("BER         : %.3e  (%zu/%zu bits)\n", r.ber(), r.bit_errors,
              r.bits);
  std::printf("PER         : %.3f  (%zu errored, %zu lost)\n", r.per(),
              r.packet_errors, r.packets_lost);
  std::printf("EVM         : %.2f %%\n", 100.0 * r.evm_rms_avg);
  std::printf("BER 95%% CI  : +/- %.1f %% relative\n", 100.0 * r.ber_ci_rel);
}

/// A surrogate-backed query at the exact axis values (no quantization):
/// the same evaluation the daemon serves for `sweep`.
core::DedupOptions surrogate_query(const core::SurrogateOptions& sopts) {
  core::DedupOptions d;
  d.surrogate = sopts;
  d.bin_width_db = 0.0;
  return d;
}

int cmd_ber(const core::CliArgs& args) {
  const core::LinkConfig cfg = link_from_args(args);
  const std::size_t packets = args.get_count("packets", 20, 1);
  const std::size_t threads = args.get_count("threads", 0, 0);
  const auto rule = core::stopping_rule_from_args(args);
  const bool surrogate = args.has("surrogate");
  const core::SurrogateOptions sopts = core::surrogate_options_from_args(
      args, sim::SurrogateAxis::kSnrDb, rule, threads);
  fail_on_unused(args);

  if (surrogate) {
    const core::BerResult r =
        core::sweep_ber_deduped({&cfg, 1}, surrogate_query(sopts))[0];
    print_ber_result(cfg, r);
    if (r.from_surrogate) {
      std::printf("source      : calibration store (surrogate, ~0 packets)\n");
    } else {
      std::printf("source      : adaptive MC (store miss; curve backfilled "
                  "for next time)\n");
      std::printf("wall        : %.2f s\n", r.wall_seconds);
    }
    return 0;
  }
  if (rule.has_value()) {
    const core::BerResult r = core::run_ber_adaptive(cfg, *rule, threads);
    print_ber_result(cfg, r);
    std::printf("stopping    : %s after %zu packets (target CI %.0f %%, "
                ">= %zu errors, cap %zu)\n",
                r.converged ? "converged" : "hit packet cap", r.packets,
                100.0 * rule->target_rel_ci, rule->min_errors,
                rule->max_packets);
    std::printf("wall        : %.2f s\n", r.wall_seconds);
  } else {
    print_ber_result(cfg, core::run_ber_adaptive(
                              cfg, sim::fixed_budget(packets), threads));
  }
  return 0;
}

int cmd_sweep(const core::CliArgs& args) {
  const std::string param = args.get_string("param", "snr");
  const double from = args.get_double("from", 5.0);
  const double to = args.get_double("to", 25.0);
  const double step = args.get_double("step", 2.0);
  const std::size_t packets = args.get_count("packets", 10, 1);
  const std::size_t threads = args.get_count("threads", 0, 0);
  const std::string csv = args.get_string("csv", "");
  const auto rule = core::stopping_rule_from_args(args);
  if (step <= 0.0 || to < from)
    throw std::invalid_argument("sweep needs --from <= --to and --step > 0");

  std::vector<double> values;
  for (double v = from; v <= to + 1e-9; v += step) values.push_back(v);

  const bool surrogate = args.has("surrogate");
  std::optional<sim::SurrogateAxis> axis;
  if (surrogate) {
    if (param == "snr") {
      axis = sim::SurrogateAxis::kSnrDb;
    } else if (param == "power") {
      axis = sim::SurrogateAxis::kRxPowerDbm;
    } else {
      throw std::invalid_argument(
          "--surrogate sweeps support --param snr|power only (other "
          "parameters change the front-end, i.e. the calibration key)");
    }
  }
  const core::SurrogateOptions sopts = core::surrogate_options_from_args(
      args, axis.value_or(sim::SurrogateAxis::kSnrDb), rule, threads);

  const core::LinkConfig base = link_from_args(args);
  fail_on_unused(args);

  std::vector<core::LinkConfig> points;
  points.reserve(values.size());
  for (const double v : values) {
    core::LinkConfig cfg = base;
    if (param == "snr") {
      cfg.snr_db = v;
    } else if (param == "p1db") {
      cfg.rf.lna_p1db_in_dbm = v;
    } else if (param == "bandwidth") {
      cfg.rf.bb_bandwidth_factor = v;
    } else if (param == "power") {
      cfg.rx_power_dbm = v;
    } else if (param == "sco") {
      cfg.sco_ppm = v;
    } else {
      throw std::invalid_argument(
          "--param must be snr|p1db|bandwidth|power|sco");
    }
    points.push_back(cfg);
  }

  std::vector<core::BerResult> results;
  if (surrogate) {
    results = core::sweep_ber_deduped(points, surrogate_query(sopts));
  } else {
    results = core::sweep_ber_adaptive(
        points, rule.value_or(sim::fixed_budget(packets)), {.threads = threads});
  }

  sim::SweepResult res;
  res.param_name = param;
  res.rows.reserve(values.size());
  for (std::size_t k = 0; k < values.size(); ++k) {
    const core::BerResult& r = results[k];
    std::map<std::string, double> row{
        {"ber", r.ber()}, {"per", r.per()}, {"evm", r.evm_rms_avg}};
    if (rule.has_value() || surrogate) {
      row["packets"] = static_cast<double>(r.packets);
      row["bit_errors"] = static_cast<double>(r.bit_errors);
      row["ci_rel"] = r.ber_ci_rel;
      row["converged"] = r.converged ? 1.0 : 0.0;
      row["wall_s"] = r.wall_seconds;
    }
    if (surrogate) row["surrogate"] = r.from_surrogate ? 1.0 : 0.0;
    res.rows.push_back(sim::SweepRow{values[k], std::move(row)});
  }

  std::fputs(res.to_table().c_str(), stdout);
  if (!csv.empty()) {
    std::ofstream os(csv);
    os << res.to_csv();
    std::printf("wrote %s\n", csv.c_str());
  }
  return 0;
}

int cmd_goodput(const core::CliArgs& args) {
  const core::LinkConfig cfg = link_from_args(args);
  core::ArqConfig arq;
  arq.payload_bytes = args.get_count("payload", 500, 0);
  arq.num_frames = args.get_count("frames", 20, 0);
  arq.max_retries = args.get_count("retries", 3, 0);
  fail_on_unused(args);

  const core::ArqResult r = core::run_arq(cfg, arq);
  std::printf("frames      : %zu offered, %zu delivered (%.0f %%)\n",
              r.frames_offered, r.frames_delivered,
              100.0 * r.delivery_ratio());
  std::printf("attempts    : %zu (%zu FCS failures, %zu PHY losses)\n",
              r.attempts, r.fcs_failures, r.phy_losses);
  std::printf("air time    : %.2f ms\n", 1e3 * r.air_time_s);
  std::printf("goodput     : %.2f Mbps\n",
              r.goodput_bps(arq.payload_bytes) / 1e6);
  return 0;
}

int cmd_drop(const core::CliArgs& args) {
  scenario::DropConfig cfg = tools::drop_config_from_args(args);
  const std::string csv = args.get_string("csv", "");
  const std::string jsonl = args.get_string("jsonl", "");
  const std::string run_tag = args.get_string("run-tag", "drop");
  fail_on_unused(args);

  std::ofstream csv_os, jsonl_os;
  std::vector<scenario::TraceWriter> writers;
  if (!csv.empty()) {
    csv_os.open(csv);
    if (!csv_os) throw std::runtime_error("cannot open " + csv);
    writers.emplace_back(csv_os, scenario::TraceFormat::kCsv, run_tag);
  }
  if (!jsonl.empty()) {
    jsonl_os.open(jsonl);
    if (!jsonl_os) throw std::runtime_error("cannot open " + jsonl);
    writers.emplace_back(jsonl_os, scenario::TraceFormat::kJsonl, run_tag);
  }

  const scenario::DropSummary summary = scenario::run_drop(
      cfg, [&writers](const scenario::StationSample& s) {
        for (auto& w : writers) w.write(s);
      });

  std::fputs(scenario::drop_summary_table(summary).c_str(), stdout);
  if (!csv.empty()) std::printf("wrote %s\n", csv.c_str());
  if (!jsonl.empty()) std::printf("wrote %s\n", jsonl.c_str());
  return 0;
}

int cmd_spectrum(const core::CliArgs& args) {
  core::LinkConfig cfg = link_from_args(args);
  const std::string csv = args.get_string("csv", "");
  fail_on_unused(args);

  const core::SpectrumResult res = core::experiment_fig4_spectrum(cfg);
  std::printf("wanted channel power   : %7.2f dBm\n", res.wanted_power_dbm);
  if (cfg.interferer.has_value()) {
    std::printf("adjacent channel power : %7.2f dBm at %+.0f MHz\n",
                res.adjacent_power_dbm, res.offset_hz / 1e6);
  }
  if (!csv.empty()) {
    sim::write_psd_csv(csv, res.psd, res.sample_rate_hz);
    std::printf("wrote %s\n", csv.c_str());
  }
  return 0;
}

int cmd_rfchar(const core::CliArgs& args) {
  core::LinkConfig cfg = link_from_args(args);
  fail_on_unused(args);
  rf::DoubleConversionConfig rfc = cfg.rf;
  rfc.sample_rate_hz = phy::kSampleRate * cfg.oversample;
  rfc.agc.loop_gain = 0.0;
  rfc.agc.initial_gain_db = 0.0;
  rfc.adc.enabled = false;
  rfc.noise_enabled = false;
  rf::DoubleConversionReceiver chain(rfc, dsp::Rng(1));

  rf::ToneTestConfig tc;
  tc.sample_rate_hz = rfc.sample_rate_hz;
  tc.num_samples = 1 << 14;
  tc.settle_samples = 1 << 13;
  std::printf("gain           : %7.2f dB\n",
              rf::measure_gain_db(chain, tc, -60.0));
  std::printf("input P1dB     : %7.2f dBm\n",
              rf::measure_p1db_in_dbm(chain, tc, rfc.lna_p1db_in_dbm - 15.0,
                                      rfc.lna_p1db_in_dbm + 10.0));
  std::printf("ACR (+20 MHz)  : %7.2f dB\n",
              rf::measure_rejection_db(chain, tc, 3e6, 20e6));
  rfc.noise_enabled = true;
  rf::DoubleConversionReceiver noisy(rfc, dsp::Rng(2));
  rf::ToneTestConfig tnf = tc;
  tnf.tone_hz = 3e6;  // spot NF above the flicker corner
  std::printf("noise figure   : %7.2f dB (spot, 3 MHz)\n",
              rf::measure_noise_figure_db(noisy, tnf));
  return 0;
}

void usage() {
  std::fputs(
      "wlansim — 802.11a link-level verification with RF in the loop\n"
      "\n"
      "  wlansim ber      [link options] [--packets N] [--threads T]\n"
      "                   [adaptive options] [surrogate options]\n"
      "  wlansim goodput  [link options] [--payload B] [--frames N]\n"
      "                   [--retries R]\n"
      "  wlansim sweep    --param snr|p1db|bandwidth|power|sco\n"
      "                   --from A --to B --step S [--packets N] [--csv F]\n"
      "                   [--threads T] [adaptive options]\n"
      "                   [surrogate options]\n"
      "  wlansim drop     [drop options] [link options] [--threads T]\n"
      "                   [adaptive options] [--calib-dir DIR]\n"
      "  wlansim spectrum [link options] [--csv F]\n"
      "  wlansim rfchar   [link options]\n"
      "\n"
      "drop options (network-scale multi-user drop: stations placed around\n"
      "an AP, log-distance path loss + shadowing + random-walk mobility;\n"
      "every station-step evaluated through the full PHY/RF chain,\n"
      "deduplicated by quantized SNR and served from the calibration\n"
      "store):\n"
      "  --stations N                   station count [100]\n"
      "  --steps N                      mobility steps [1]\n"
      "  --area-half M                  stations in [-M, M]^2 meters [50]\n"
      "  --tx-power-dbm P               AP transmit power [16]\n"
      "  --noise-figure NF              receiver noise figure [7]\n"
      "  --pl-exp E                     path-loss exponent [3]\n"
      "  --pl-ref-db L                  loss at 1 m [46.7]\n"
      "  --shadow-sigma S               lognormal shadowing sigma [6]\n"
      "  --walk-step M                  random-walk step length [1]\n"
      "  --cochannel-bss N              co-channel interferer BSSs [0]\n"
      "  --adjacent-bss N               adjacent-channel BSSs [0]\n"
      "  --bss-power-dbm P              interferer BSS power [16]\n"
      "  --snr-bin W                    SNR dedup bin width [0.5]\n"
      "  --snr-min A / --snr-max B      SNR clamp span [0, 30]\n"
      "  --adj-bin W                    adjacent-level bin width [2]\n"
      "  --adj-floor L                  drop adjacent below L dB rel [-10]\n"
      "  --csv F / --jsonl F            stream per-station traces\n"
      "  --run-tag TAG                  tag column in traces [drop]\n"
      "  --no-store                     dedup only, skip calibration store\n"
      "\n"
      "adaptive options (any one enables early-stopping Monte-Carlo; each\n"
      "point then runs until its BER confidence interval is tight enough\n"
      "instead of a fixed --packets budget; results are deterministic for\n"
      "any thread count):\n"
      "  --target-ci R                  stop at relative 95%-CI half-width\n"
      "                                 <= R on the BER estimate [0.10]\n"
      "  --min-errors E                 require E bit errors first [100]\n"
      "  --min-packets N                minimum packets per point [8]\n"
      "  --max-packets N                hard cap per point [10000]\n"
      "\n"
      "surrogate options (ber and sweep; sweep supports --param snr|power):\n"
      "  --surrogate                    answer from the persistent BER\n"
      "                                 calibration store when a stored\n"
      "                                 curve covers the point; misses run\n"
      "                                 adaptive MC and backfill the store\n"
      "  --calib-dir DIR                calibration store directory\n"
      "                                 [$WLANSIM_CALIB_DIR, else\n"
      "                                 ~/.cache/wlansim/calib]\n"
      "\n"
      "link options:\n"
      "  --rate 6|9|12|18|24|36|48|54   data rate [24]\n"
      "  --bytes N                      PSDU size [200]\n"
      "  --power-dbm P                  receive level [-65]\n"
      "  --snr S | --no-snr             channel SNR [25]\n"
      "  --rf none|system|cosim         RF engine [system]\n"
      "  --p1db P                       LNA compression point [-20]\n"
      "  --bandwidth-factor F           channel filter width [1.0]\n"
      "  --sco-ppm P                    TX clock offset [0]\n"
      "  --adjacent-db L                enable adjacent channel at +20 MHz\n"
      "  --adjacent-offset-hz F         interferer offset [20e6]\n"
      "  --seed N                       reproducibility seed [2003]\n",
      stdout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string cmd = argv[1];
  try {
    const core::CliArgs args = core::CliArgs::parse(argc, argv, 2);
    if (cmd == "ber") return cmd_ber(args);
    if (cmd == "goodput") return cmd_goodput(args);
    if (cmd == "sweep") return cmd_sweep(args);
    if (cmd == "drop") return cmd_drop(args);
    if (cmd == "spectrum") return cmd_spectrum(args);
    if (cmd == "rfchar") return cmd_rfchar(args);
    if (cmd == "help" || cmd == "--help") {
      usage();
      return 0;
    }
    std::fprintf(stderr, "unknown command '%s'\n\n", cmd.c_str());
    usage();
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
