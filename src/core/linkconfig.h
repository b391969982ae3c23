// Master configuration for an end-to-end WLAN link verification run:
// 802.11a transmitter -> channel (+ optional adjacent-channel interferer)
// -> RF front-end model -> 802.11a receiver.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "channel/fading.h"
#include "channel/interferer.h"
#include "phy80211a/params.h"
#include "phy80211a/receiver.h"
#include "rf/receiver_chain.h"
#include "sim/cosim.h"
#include "sim/graph.h"

namespace wlansim::core {

/// Packet evaluation strategy (see LinkConfig::packet_path): the direct
/// path is the scene-slot wave of WlanLink::run_packet_wave, the graph is
/// the dataflow reference. Both are bit-identical.
enum class PacketPath {
  kAuto,    ///< the wave in compiled mode where supported, graph otherwise
  kDirect,  ///< the wave in either mode where supported, graph otherwise
  kGraph    ///< force the dataflow-graph reference path
};

/// Which model (if any) stands between the channel and the DSP receiver.
enum class RfEngine {
  kNone,         ///< idealized RF (the "neglected or idealized" baseline)
  kSystemLevel,  ///< behavioral models at the system rate (SPW-style)
  kCosim,        ///< fine-timestep co-simulation (AMS-Designer-style)
  kCustom        ///< caller-supplied block (e.g. an extracted J&K model)
};

struct LinkConfig {
  // --- Traffic --------------------------------------------------------------
  phy::Rate rate = phy::Rate::kMbps24;
  std::size_t psdu_bytes = 200;

  // --- Levels ---------------------------------------------------------------
  /// Wanted-signal level at the receiver input [dBm]. The paper's receiver
  /// accepts -88 to -23 dBm.
  double rx_power_dbm = -65.0;

  // --- Channel --------------------------------------------------------------
  /// AWGN SNR [dB] measured in the signal bandwidth at the receiver input;
  /// nullopt = no excess channel noise.
  std::optional<double> snr_db = 25.0;
  /// Antenna-referred noise density [dBm/Hz]; the physical floor is
  /// -174 dBm/Hz (kT0). Always present unless pushed below -250 — a truly
  /// zero-noise air interface would be unphysical and starves the AGC
  /// power detector between frames.
  double antenna_noise_density_dbm_hz = -174.0;
  std::optional<channel::FadingConfig> fading;
  std::optional<channel::InterfererConfig> interferer;

  /// Transmit sampling-clock offset [ppm] relative to the receiver's clock
  /// (Std 802.11a 17.3.9.4/17.3.9.5 allow +/-20 ppm per side). Applied by
  /// fractional resampling of the oversampled transmit waveform; over a
  /// long frame the accumulated drift rotates carrier k by a growing
  /// linear phase, which only the receiver's pilot timing tracking absorbs.
  double sco_ppm = 0.0;

  // --- Transmitter RF ---------------------------------------------------------
  /// Optional transmit power amplifier (paper §4/§6: "the RF subsystems of
  /// receiver and transmitter"). Applied at the oversampled rate after
  /// interpolation. `tx_pa_backoff_db` positions the PA's input P1dB above
  /// the signal's mean power; nullopt = ideal transmitter.
  std::optional<double> tx_pa_backoff_db;
  rf::NonlinearityModel tx_pa_model = rf::NonlinearityModel::kRapp;
  double tx_pa_am_pm_max_deg = 0.0;
  /// Transmit upconverter impairments (quadrature modulator): IQ imbalance
  /// and LO (carrier) leakage, expressed as a fraction of the signal RMS.
  double tx_iq_gain_imbalance_db = 0.0;
  double tx_iq_phase_error_deg = 0.0;
  double tx_lo_leakage_rel = 0.0;

  // --- RF front-end ----------------------------------------------------------
  RfEngine rf_engine = RfEngine::kSystemLevel;
  /// Oversampling factor of the RF model relative to 20 Msps. 4x (80 Msps)
  /// fulfills the sampling theorem with a +/-20 MHz adjacent channel
  /// present (paper §4.1).
  std::size_t oversample = 4;
  rf::DoubleConversionConfig rf{};  ///< sample_rate_hz is derived, see link.cpp
  sim::CosimConfig cosim{};
  /// Factory for RfEngine::kCustom — e.g. instantiating an extracted
  /// black-box (J&K) model in place of the full chain. Called once per
  /// packet with a packet-specific RNG.
  std::function<std::unique_ptr<rf::RfBlock>(dsp::Rng)> custom_rf;

  // --- DSP receiver ------------------------------------------------------------
  phy::Receiver::Config receiver{};

  // --- Execution --------------------------------------------------------------
  sim::ExecutionMode mode = sim::ExecutionMode::kCompiled;
  /// How run_packet evaluates the chain. kAuto picks the allocation-free
  /// direct path (the scene-slot wave: persistent blocks + reused buffers)
  /// in compiled mode with the kNone, kSystemLevel or kCustom engine, and
  /// the graph otherwise (co-simulation, interpreted mode). kGraph forces
  /// the dataflow engine (the reference); kDirect also takes the wave in
  /// interpreted mode and falls back to the graph for co-simulation.
  PacketPath packet_path = PacketPath::kAuto;
  /// Idle samples (20 Msps) before the frame: AGC settling + detection run-in.
  std::size_t lead_samples = 600;
  std::size_t tail_samples = 200;
  std::uint64_t seed = 1;
};

}  // namespace wlansim::core
