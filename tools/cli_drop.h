// Shared drop-config argument parsing for the wlansim command-line tools.
//
// Same contract as cli_link.h: `wlansim drop` and `wlansim_client drop`
// must build the SAME scenario::DropConfig from the same flags, or the
// byte-identity between the local CLI table and the daemon-served one
// breaks. One definition, two includers.
#pragma once

#include <cstddef>
#include <string>

#include "core/cliargs.h"
#include "scenario/drop.h"
#include "scenario/geometry.h"
#include "cli_link.h"

namespace wlansim::tools {

inline scenario::DropConfig drop_config_from_args(const core::CliArgs& args) {
  scenario::DropConfig cfg;
  cfg.num_stations = args.get_count("stations", 100, 0);
  cfg.num_steps = args.get_count("steps", 1, 0);
  cfg.area_half_m = args.get_double("area-half", cfg.area_half_m);
  cfg.tx_power_dbm = args.get_double("tx-power-dbm", cfg.tx_power_dbm);
  cfg.noise_figure_db = args.get_double("noise-figure", cfg.noise_figure_db);
  cfg.path_loss.exponent = args.get_double("pl-exp", cfg.path_loss.exponent);
  cfg.path_loss.ref_loss_db =
      args.get_double("pl-ref-db", cfg.path_loss.ref_loss_db);
  cfg.path_loss.shadowing_sigma_db =
      args.get_double("shadow-sigma", cfg.path_loss.shadowing_sigma_db);
  cfg.mobility.step_m = args.get_double("walk-step", cfg.mobility.step_m);
  cfg.snr_bin_db = args.get_double("snr-bin", cfg.snr_bin_db);
  cfg.snr_min_db = args.get_double("snr-min", cfg.snr_min_db);
  cfg.snr_max_db = args.get_double("snr-max", cfg.snr_max_db);
  cfg.adj_bin_db = args.get_double("adj-bin", cfg.adj_bin_db);
  cfg.adj_floor_db = args.get_double("adj-floor", cfg.adj_floor_db);

  // Interferer BSSs: counter-seeded positions like stations, with entity
  // indices far above any station index so the streams never collide.
  const std::size_t cochannel = args.get_count("cochannel-bss", 0, 0);
  const std::size_t adjacent = args.get_count("adjacent-bss", 0, 0);
  const double bss_power = args.get_double("bss-power-dbm", 16.0);
  const double adj_offset = args.get_double("adjacent-offset-hz", 20e6);
  cfg.link = link_from_args(args);
  cfg.seed = cfg.link.seed;
  for (std::size_t j = 0; j < cochannel + adjacent; ++j) {
    scenario::InterfererBss bss;
    bss.position = scenario::place_uniform(cfg.seed, (1ull << 32) + j,
                                           cfg.area_half_m);
    bss.tx_power_dbm = bss_power;
    bss.offset_hz = j < cochannel ? 0.0 : adj_offset;
    cfg.interferers.push_back(bss);
  }

  cfg.threads = args.get_count("threads", 0, 0);
  const auto rule = core::stopping_rule_from_args(args);
  if (rule.has_value()) cfg.rule = *rule;
  cfg.use_store = !args.has("no-store");
  const std::string dir = args.get_string("calib-dir", "");
  if (!dir.empty()) cfg.store_dir = dir;
  return cfg;
}

}  // namespace wlansim::tools
